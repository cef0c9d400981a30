//! Global keys: the polystore-wide addressing scheme of PDM.
//!
//! Given a database `D`, a collection `C` in `D` and an object `o = (k, v)`
//! in `C`, the object is uniquely identified in the polystore by the
//! *global key* `D.C.k` (paper §II-A, Example 1:
//! `transactions.sales.s8`).

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::error::{PdmError, Result};

/// The separator between the segments of a printed global key.
pub const SEPARATOR: char = '.';

macro_rules! interned_name {
    ($(#[$doc:meta])* $name:ident, $allow_sep:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new identifier, validating it is non-empty
            /// and (for database/collection names) free of the `.` separator.
            pub fn new(raw: impl AsRef<str>) -> Result<Self> {
                let raw = raw.as_ref();
                if raw.is_empty() {
                    return Err(PdmError::InvalidIdentifier(raw.to_owned()));
                }
                if !$allow_sep && raw.contains(SEPARATOR) {
                    return Err(PdmError::InvalidIdentifier(raw.to_owned()));
                }
                Ok(Self(Arc::from(raw)))
            }

            /// Borrows the identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

interned_name!(
    /// The name of a database inside the polystore (e.g. `transactions`).
    ///
    /// Cheap to clone: the backing string is reference-counted.
    DatabaseName,
    false
);

interned_name!(
    /// The name of a data collection inside a database (e.g. `sales`, or the
    /// table/collection/label the store natively exposes).
    CollectionName,
    false
);

interned_name!(
    /// A local key: identifies an object inside one collection. Local keys
    /// may themselves contain dots (Redis-style keys such as
    /// `k1:cure:wish` or compound keys), so only emptiness is rejected.
    LocalKey,
    true
);

/// A polystore-wide object identifier: `database.collection.key`.
///
/// `GlobalKey` is the currency of the A' index and of every augmenter, so
/// it is one pointer: an `Arc` of its three names and a content hash of
/// them computed once at construction. A clone is one reference-count
/// increment on the key's own header (never on the name strings other
/// keys share), equal handles compare by pointer before they compare by
/// content, and the hash-map operations on the hot path (index interning,
/// cache shards, round-trip grouping) never re-walk the strings.
///
/// ```
/// use quepa_pdm::GlobalKey;
/// let k: GlobalKey = "transactions.sales.s8".parse().unwrap();
/// assert_eq!(k.database().as_str(), "transactions");
/// assert_eq!(k.collection().as_str(), "sales");
/// assert_eq!(k.key().as_str(), "s8");
/// assert_eq!(k.to_string(), "transactions.sales.s8");
/// ```
#[derive(Clone)]
pub struct GlobalKey(Arc<Segments>);

struct Segments {
    database: DatabaseName,
    collection: CollectionName,
    key: LocalKey,
    /// FNV-1a over the three segments (with a terminator byte after each,
    /// so segment boundaries matter). Purely content-derived: equal keys
    /// get equal hashes no matter how they were constructed.
    hash: u64,
}

fn fnv1a_segments(parts: [&str; 3]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        // Terminator (not a valid UTF-8 continuation of any segment), so
        // ("ab","c") and ("a","bc") land in different buckets.
        h = (h ^ 0xff).wrapping_mul(PRIME);
    }
    h
}

impl GlobalKey {
    /// Assembles a global key from its three segments.
    pub fn new(database: DatabaseName, collection: CollectionName, key: LocalKey) -> Self {
        let hash = fnv1a_segments([database.as_str(), collection.as_str(), key.as_str()]);
        GlobalKey(Arc::new(Segments { database, collection, key, hash }))
    }

    /// The content hash computed at construction. Stable across clones and
    /// across independently constructed equal keys (but not across
    /// processes or versions — do not persist it).
    pub fn precomputed_hash(&self) -> u64 {
        self.0.hash
    }

    /// Convenience constructor from raw strings.
    pub fn parse_parts(
        database: impl AsRef<str>,
        collection: impl AsRef<str>,
        key: impl AsRef<str>,
    ) -> Result<Self> {
        Ok(GlobalKey::new(
            DatabaseName::new(database)?,
            CollectionName::new(collection)?,
            LocalKey::new(key)?,
        ))
    }

    /// The database segment.
    pub fn database(&self) -> &DatabaseName {
        &self.0.database
    }

    /// The collection segment.
    pub fn collection(&self) -> &CollectionName {
        &self.0.collection
    }

    /// The local-key segment.
    pub fn key(&self) -> &LocalKey {
        &self.0.key
    }
}

impl fmt::Debug for GlobalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalKey")
            .field("database", &self.0.database)
            .field("collection", &self.0.collection)
            .field("key", &self.0.key)
            .field("hash", &self.0.hash)
            .finish()
    }
}

impl PartialEq for GlobalKey {
    fn eq(&self, other: &Self) -> bool {
        // One handle compares by pointer; the cached hash rejects almost
        // all unequal keys in one compare.
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.hash == b.hash
                && a.key == b.key
                && a.collection == b.collection
                && a.database == b.database)
    }
}

impl Eq for GlobalKey {}

impl std::hash::Hash for GlobalKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for GlobalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GlobalKey {
    /// Lexicographic by segment (database, collection, key) — the cached
    /// hash plays no role in ordering.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        let (a, b) = (&*self.0, &*other.0);
        a.database
            .cmp(&b.database)
            .then_with(|| a.collection.cmp(&b.collection))
            .then_with(|| a.key.cmp(&b.key))
    }
}

impl fmt::Display for GlobalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &*self.0;
        write!(f, "{}{SEPARATOR}{}{SEPARATOR}{}", s.database, s.collection, s.key)
    }
}

impl std::str::FromStr for GlobalKey {
    type Err = PdmError;

    /// Parses `db.collection.key`. Because local keys may contain dots, the
    /// split is on the *first two* separators only.
    fn from_str(s: &str) -> Result<Self> {
        let mut it = s.splitn(3, SEPARATOR);
        let (db, coll, key) = match (it.next(), it.next(), it.next()) {
            (Some(db), Some(coll), Some(key)) => (db, coll, key),
            _ => return Err(PdmError::InvalidGlobalKey(s.to_owned())),
        };
        GlobalKey::parse_parts(db, coll, key).map_err(|_| PdmError::InvalidGlobalKey(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let k: GlobalKey = "catalogue.albums.d1".parse().unwrap();
        assert_eq!(k.to_string(), "catalogue.albums.d1");
    }

    #[test]
    fn dotted_local_keys_parse() {
        // Redis-style key from Example 2 of the paper.
        let k: GlobalKey = "discount.drop.k1.cure:wish".parse().unwrap();
        assert_eq!(k.database().as_str(), "discount");
        assert_eq!(k.collection().as_str(), "drop");
        assert_eq!(k.key().as_str(), "k1.cure:wish");
    }

    #[test]
    fn invalid_keys_rejected() {
        assert!("".parse::<GlobalKey>().is_err());
        assert!("only.two".parse::<GlobalKey>().is_err());
        assert!("a..k".parse::<GlobalKey>().is_err()); // empty collection
        assert!(".c.k".parse::<GlobalKey>().is_err()); // empty db
        assert!("a.c.".parse::<GlobalKey>().is_err()); // empty key
    }

    #[test]
    fn segment_validation() {
        assert!(DatabaseName::new("with.dot").is_err());
        assert!(CollectionName::new("").is_err());
        assert!(LocalKey::new("with.dot").is_ok());
    }

    #[test]
    fn ordering_is_lexicographic_by_segment() {
        let a: GlobalKey = "a.c.k".parse().unwrap();
        let b: GlobalKey = "b.a.a".parse().unwrap();
        assert!(a < b);
    }

    #[test]
    fn equal_keys_hash_equal_across_construction_paths() {
        let a: GlobalKey = "transactions.sales.s8".parse().unwrap();
        let b = GlobalKey::new(
            DatabaseName::new("transactions").unwrap(),
            CollectionName::new("sales").unwrap(),
            LocalKey::new("s8").unwrap(),
        );
        assert_eq!(a, b);
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        // Same concatenation, different segment boundaries: distinct keys,
        // distinct hashes.
        let c = GlobalKey::parse_parts("transactions", "sale", "ss8").unwrap();
        assert_ne!(a, c);
        assert_ne!(a.precomputed_hash(), c.precomputed_hash());
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a: GlobalKey = "transactions.sales.s8".parse().unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn key_is_one_pointer() {
        assert_eq!(std::mem::size_of::<GlobalKey>(), std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Option<GlobalKey>>(), std::mem::size_of::<usize>());
    }
}
