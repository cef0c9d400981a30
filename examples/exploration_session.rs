//! Augmented exploration (§II-D, Definition 4): a click-by-click walk
//! through the polystore, with the `D_P` path repository promoting a
//! shortcut p-relation once the same path has been walked often enough
//! (§III-D(a), Example 8).
//!
//! ```sh
//! cargo run --example exploration_session
//! ```

use quepa::pdm::RelationKind;
use quepa::polystore::Deployment;
use quepa::workload::{BuiltPolystore, WorkloadConfig};

fn main() {
    // A small generated Polyphony polystore (4 stores).
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 200,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 11,
    });
    let quepa = built.into_quepa();

    // Start exploring from a sales query.
    let query = "SELECT * FROM sales WHERE seq < 3";
    println!("exploration starts from: {query}");
    let mut session = quepa.explore("transactions", query).unwrap();
    println!("local answer: {} sales", session.results().len());

    // Click the first sale: its links appear, ordered by probability.
    let frontier = session.select(0).unwrap();
    println!("\nafter selecting sale #0, {} links appear:", frontier.len());
    for (i, link) in frontier.iter().take(5).enumerate() {
        println!("  [{i}] {} [p={}]", link.object.key(), link.probability);
    }

    // Click the sale line, then the inventory item it references — an
    // endpoint pair that has *no* direct p-relation yet, so the walk can
    // be promoted into a shortcut.
    let pick_inventory = |frontier: &[quepa::core::AugmentedObject]| {
        frontier
            .iter()
            .position(|a| a.object.key().collection().as_str() == "inventory")
            .expect("an inventory item is reachable")
    };
    let f1 = session.step(0).unwrap();
    println!("\nstep 2 expands into {} links", f1.len());
    let item = pick_inventory(f1);
    let f2 = session.step(item).unwrap().len();
    println!("step 3 expands into {f2} links");
    let path: Vec<String> = session.path().iter().map(|k| k.to_string()).collect();
    println!("full path walked: {}", path.join(" → "));

    // Walk the same path repeatedly: the D_P repository eventually promotes
    // a direct matching edge between the path's endpoints.
    let first = path.first().unwrap().parse().unwrap();
    let last = path.last().unwrap().parse().unwrap();
    session.finish().unwrap();
    let mut fired = false;
    for round in 0..32 {
        let mut s = quepa.explore("transactions", query).unwrap();
        s.select(0).unwrap();
        let f = s.step(0).unwrap();
        let item = pick_inventory(f);
        s.step(item).unwrap();
        if s.finish().unwrap() {
            println!("\npromotion fired after {} walks of the same path", round + 2);
            fired = true;
            break;
        }
    }
    assert!(fired, "the repeated path must promote");
    let edge = quepa
        .index()
        .edge(&first, &last, RelationKind::Matching)
        .expect("the shortcut edge now exists");
    println!(
        "shortcut p-relation added: {} ≡ {} with p={} (avg along the path)",
        first, last, edge.probability
    );
}
