//! What a fetched object costs the allocator, and which of its parts it
//! shares with the store that produced it.
//!
//! A relational row of n columns is one allocation for its fields plus one
//! per string value: the column names are the table's own, shared by every
//! row. The document and graph stores share their field names the same
//! way, so two objects fetched from one collection point at the same name
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use quepa::docstore::DocumentDb;
use quepa::graphstore::GraphDb;
use quepa::pdm::{Fields, Value};
use quepa::relstore::Database;

/// Counts the allocations made on the current thread, so tests running
/// beside this one do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell`, so bumping it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` guarantees are passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // `new_size` guarantees are passed on as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The test-bed's `inventory` table: five columns, three of them strings.
fn inventory(rows: usize) -> Database {
    let mut db = Database::new("transactions");
    db.create_table("inventory", "id", &["id", "artist", "name", "year", "seq"]).unwrap();
    for i in 0..rows {
        db.insert_row(
            "inventory",
            vec![
                Value::str(format!("a{i}")),
                Value::str("The Cure"),
                Value::str(format!("Album #{i}")),
                Value::Int(1990 + i as i64),
                Value::Int(i as i64),
            ],
        )
        .unwrap();
    }
    db
}

fn assert_names_shared(a: &Fields, b: &Fields) {
    assert_eq!(a.len(), b.len());
    for ((name_a, _), (name_b, _)) in a.pairs().iter().zip(b.pairs()) {
        assert_eq!(name_a, name_b);
        assert!(Arc::ptr_eq(name_a, name_b), "field `{name_a}` is allocated twice");
    }
}

fn fields(value: &Value) -> &Fields {
    value.as_object().expect("an object")
}

#[test]
fn a_fetched_row_is_one_allocation_plus_its_strings() {
    let db = inventory(64);
    let keys: Vec<String> = (0..48).map(|i| format!("a{i}")).collect();
    let string_columns = 3;
    // Warm the table once so nothing lazily built is counted.
    db.multi_get("inventory", &keys).unwrap();
    for n in [1, 16, 48] {
        let (rows, count) = allocations_of(|| db.multi_get("inventory", &keys[..n]).unwrap());
        assert_eq!(rows.len(), n);
        // One for the result vector, then per row its fields and strings.
        assert_eq!(count, 1 + n * (1 + string_columns), "{n} rows");
    }
}

#[test]
fn stores_share_field_names_across_fetches() {
    let db = inventory(4);
    let rows = db.multi_get("inventory", &["a1", "a3"]).unwrap();
    assert_names_shared(&rows[0].1, &rows[1].1);

    let mut docs = DocumentDb::new("catalogue");
    for i in 0..3 {
        docs.insert(
            "albums",
            Value::object([
                ("_id", Value::str(format!("d{i}"))),
                ("title", Value::str(format!("Album #{i}"))),
                ("seq", Value::Int(i)),
            ]),
        )
        .unwrap();
    }
    let found = docs.multi_get("albums", &["d0", "d2"]);
    assert_names_shared(fields(&found[0].1), fields(&found[1].1));

    let mut graph = GraphDb::new("similar");
    for i in 0..3 {
        let title = format!("Album #{i}");
        graph.add_node(&format!("g{i}"), "Album", [("title", Value::str(title))]).unwrap();
    }
    let nodes = graph.multi_get(&["g0", "g2"]);
    let (a, b) = (nodes[0].1.to_value(), nodes[1].1.to_value());
    assert_eq!(fields(&a).keys().collect::<Vec<_>>(), ["_id", "_label", "title"]);
    assert_names_shared(fields(&a), fields(&b));
}
