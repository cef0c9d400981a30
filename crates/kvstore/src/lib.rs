//! # quepa-kvstore — an embedded key-value store
//!
//! Plays the role Redis plays in the paper's Polyphony polystore: the shared
//! `discount` store mapping keys such as `k1:cure:wish` to values such as
//! `"40%"`.
//!
//! The store speaks a Redis-flavoured command language:
//!
//! ```text
//! SET key value        GET key          MGET k1 k2 …
//! DEL key …            EXISTS key       DBSIZE
//! SCAN prefix [COUNT n]                 KEYS pattern     (glob * and ?)
//! ```
//!
//! Keys are ordered in a `BTreeMap`, which is what makes `SCAN prefix`
//! efficient (a range scan, not a full iteration).
//!
//! ```
//! use quepa_kvstore::KvStore;
//!
//! let mut kv = KvStore::new("discount");
//! kv.set("k1:cure:wish", "40%");
//! assert_eq!(kv.get("k1:cure:wish"), Some("40%"));
//! let hits = kv.scan_prefix("k1:cure", None);
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors of the key-value store's command language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Malformed command text.
    Syntax(String),
    /// Known command, wrong arity.
    Arity {
        /// The command name.
        command: String,
    },
    /// Unknown command.
    UnknownCommand(String),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Syntax(m) => write!(f, "kv syntax error: {m}"),
            KvError::Arity { command } => write!(f, "wrong number of arguments for {command}"),
            KvError::UnknownCommand(c) => write!(f, "unknown command: {c}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, KvError>;

/// A reply from the command interface, mirroring the Redis reply taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`-style acknowledgement.
    Ok,
    /// A single (possibly missing) value.
    Value(Option<String>),
    /// An array of key/value pairs (MGET, SCAN, KEYS keep the key).
    Pairs(Vec<(String, String)>),
    /// An integer (DEL count, EXISTS, DBSIZE).
    Int(i64),
}

/// An embedded ordered key-value store.
///
/// Alongside the primary keyspace the store maintains a secondary index
/// from value to the set of keys holding it, so exact-value membership
/// queries (the pushdown path of the polystore layer) are index probes
/// rather than scans.
#[derive(Debug, Clone)]
pub struct KvStore {
    name: String,
    map: BTreeMap<String, String>,
    by_value: BTreeMap<String, BTreeSet<String>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new(name: impl Into<String>) -> Self {
        KvStore { name: name.into(), map: BTreeMap::new(), by_value: BTreeMap::new() }
    }

    /// The store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sets a key, returning the previous value if any.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) -> Option<String> {
        let (key, value) = (key.into(), value.into());
        let old = self.map.insert(key.clone(), value.clone());
        match &old {
            Some(old_value) if *old_value == value => {}
            Some(old_value) => {
                let old_value = old_value.clone();
                self.unindex(&old_value, &key);
                self.by_value.entry(value).or_default().insert(key);
            }
            None => {
                self.by_value.entry(value).or_default().insert(key);
            }
        }
        old
    }

    fn unindex(&mut self, value: &str, key: &str) {
        if let Some(keys) = self.by_value.get_mut(value) {
            keys.remove(key);
            if keys.is_empty() {
                self.by_value.remove(value);
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Batched lookup (one simulated round trip); missing keys are skipped.
    pub fn multi_get(&self, keys: &[&str]) -> Vec<(String, String)> {
        keys.iter().filter_map(|k| self.map.get(*k).map(|v| ((*k).to_owned(), v.clone()))).collect()
    }

    /// Deletes a key; true if it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        match self.map.remove(key) {
            None => false,
            Some(value) => {
                self.unindex(&value, key);
                true
            }
        }
    }

    /// The keys currently holding exactly `value`, from the secondary
    /// index (no scan). Sorted; empty when no key holds the value.
    pub fn keys_with_value(&self, value: &str) -> Vec<&str> {
        self.by_value.get(value).map_or_else(Vec::new, |ks| ks.iter().map(String::as_str).collect())
    }

    /// Batched lookup with a store-side predicate over `(key, value)`:
    /// one simulated round trip that returns only matching entries, plus
    /// the keys that exist but fail the predicate. When `value_eq` is
    /// supplied the membership test is served from the secondary value
    /// index instead of evaluating the predicate per entry.
    pub fn multi_get_where(
        &self,
        keys: &[&str],
        value_eq: Option<&str>,
        pred: &dyn Fn(&str, &str) -> bool,
    ) -> (Vec<(String, String)>, Vec<String>) {
        let mut matched = Vec::new();
        let mut rejected = Vec::new();
        for k in keys {
            let Some(v) = self.map.get(*k) else { continue };
            let hit = match value_eq {
                Some(want) => self.by_value.get(want).is_some_and(|ks| ks.contains(*k)),
                None => pred(k, v),
            };
            if hit {
                matched.push(((*k).to_owned(), v.clone()));
            } else {
                rejected.push((*k).to_owned());
            }
        }
        (matched, rejected)
    }

    /// Range scan over keys with the given prefix, optionally capped.
    pub fn scan_prefix(&self, prefix: &str, count: Option<usize>) -> Vec<(String, String)> {
        let iter = self
            .map
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()));
        match count {
            Some(n) => iter.take(n).collect(),
            None => iter.collect(),
        }
    }

    /// Glob matching over all keys (`*` any run, `?` one char), like Redis
    /// `KEYS`. O(n) — provided for completeness and tooling, not hot paths.
    pub fn keys_glob(&self, pattern: &str) -> Vec<(String, String)> {
        self.map
            .iter()
            .filter(|(k, _)| glob_match(pattern, k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Parses and executes a command line.
    pub fn execute(&mut self, command: &str) -> Result<Reply> {
        let args = tokenize(command)?;
        let Some((cmd, rest)) = args.split_first() else {
            return Err(KvError::Syntax("empty command".into()));
        };
        let arity = |ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(KvError::Arity { command: cmd.to_uppercase() })
            }
        };
        match cmd.to_uppercase().as_str() {
            "SET" => {
                arity(rest.len() == 2)?;
                self.set(rest[0].clone(), rest[1].clone());
                Ok(Reply::Ok)
            }
            "GET" => {
                arity(rest.len() == 1)?;
                Ok(Reply::Value(self.get(&rest[0]).map(str::to_owned)))
            }
            "MGET" => {
                arity(!rest.is_empty())?;
                let keys: Vec<&str> = rest.iter().map(String::as_str).collect();
                Ok(Reply::Pairs(self.multi_get(&keys)))
            }
            "DEL" => {
                arity(!rest.is_empty())?;
                let n = rest.iter().filter(|k| self.delete(k)).count();
                Ok(Reply::Int(n as i64))
            }
            "EXISTS" => {
                arity(rest.len() == 1)?;
                Ok(Reply::Int(i64::from(self.get(&rest[0]).is_some())))
            }
            "DBSIZE" => {
                arity(rest.is_empty())?;
                Ok(Reply::Int(self.len() as i64))
            }
            "SCAN" => {
                let (prefix, count) = match rest {
                    [p] => (p, None),
                    [p, kw, n] if kw.eq_ignore_ascii_case("COUNT") => {
                        let n: usize = n
                            .parse()
                            .map_err(|_| KvError::Syntax("COUNT requires an integer".into()))?;
                        (p, Some(n))
                    }
                    _ => return Err(KvError::Arity { command: "SCAN".into() }),
                };
                Ok(Reply::Pairs(self.scan_prefix(prefix, count)))
            }
            "KEYS" => {
                arity(rest.len() == 1)?;
                Ok(Reply::Pairs(self.keys_glob(&rest[0])))
            }
            other => Err(KvError::UnknownCommand(other.to_owned())),
        }
    }
}

impl KvStore {
    /// Seedable population hook for the simulation harness (`quepa-check`):
    /// a store holding keys `k0..k{n-1}` whose values are derived from
    /// `seed` alone by pure 64-bit arithmetic, so the populated store is
    /// bit-identical across hosts and runs.
    pub fn populate_seeded(name: impl Into<String>, seed: u64, n: usize) -> KvStore {
        let mut store = KvStore::new(name);
        for i in 0..n {
            store.set(format!("k{i}"), format!("v{:016x}", seed_mix(seed, i as u64)));
        }
        store
    }
}

/// splitmix64 finalizer over two words — the harness-wide convention for
/// deriving per-object values from a seed.
fn seed_mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits a command line into tokens; double quotes group, `\"` escapes.
fn tokenize(line: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    // Distinguishes "no token in progress" from "empty quoted token".
    let mut in_token = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            c if c.is_whitespace() => {
                if in_token {
                    out.push(std::mem::take(&mut cur));
                    in_token = false;
                }
            }
            '"' => {
                in_token = true;
                loop {
                    match chars.next() {
                        None => return Err(KvError::Syntax("unterminated quote".into())),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => cur.push('"'),
                            Some('\\') => cur.push('\\'),
                            Some(x) => {
                                cur.push('\\');
                                cur.push(x);
                            }
                            None => return Err(KvError::Syntax("dangling escape".into())),
                        },
                        Some(x) => cur.push(x),
                    }
                }
                // Quoted token ends at the closing quote even if glued to
                // the next char; push on whitespace as usual.
            }
            c => {
                in_token = true;
                cur.push(c);
            }
        }
    }
    if in_token {
        out.push(cur);
    }
    Ok(out)
}

/// Redis-style glob: `*` matches any run, `?` one char; everything else is
/// literal. Case-sensitive (Redis keys are binary-safe).
fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn discounts() -> KvStore {
        let mut kv = KvStore::new("discount");
        kv.set("k1:cure:wish", "40%");
        kv.set("k2:cure:faith", "10%");
        kv.set("k3:radiohead:ok", "5%");
        kv
    }

    #[test]
    fn set_get_del() {
        let mut kv = discounts();
        assert_eq!(kv.get("k1:cure:wish"), Some("40%"));
        assert_eq!(kv.get("missing"), None);
        assert_eq!(kv.set("k1:cure:wish", "45%"), Some("40%".into()));
        assert!(kv.delete("k1:cure:wish"));
        assert!(!kv.delete("k1:cure:wish"));
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut kv = KvStore::new("d");
        kv.set("a", "x");
        kv.set("b", "x");
        kv.set("c", "y");
        assert_eq!(kv.keys_with_value("x"), vec!["a", "b"]);
        // Overwrite moves the key between value buckets.
        kv.set("a", "y");
        assert_eq!(kv.keys_with_value("x"), vec!["b"]);
        assert_eq!(kv.keys_with_value("y"), vec!["a", "c"]);
        // Same-value overwrite keeps the entry.
        kv.set("b", "x");
        assert_eq!(kv.keys_with_value("x"), vec!["b"]);
        kv.delete("b");
        assert!(kv.keys_with_value("x").is_empty());
    }

    #[test]
    fn multi_get_where_splits_matched_and_rejected() {
        let kv = discounts();
        let (m, r) =
            kv.multi_get_where(&["k1:cure:wish", "nope", "k2:cure:faith"], None, &|_, v| {
                v == "40%"
            });
        assert_eq!(m, vec![("k1:cure:wish".to_owned(), "40%".to_owned())]);
        assert_eq!(r, vec!["k2:cure:faith".to_owned()], "missing keys are skipped, not rejected");
        // Index-served equality agrees with the predicate path.
        let (m2, r2) =
            kv.multi_get_where(&["k1:cure:wish", "nope", "k2:cure:faith"], Some("40%"), &|_, _| {
                unreachable!("index path must not call the predicate")
            });
        assert_eq!((m, r), (m2, r2));
    }

    #[test]
    fn multi_get_skips_missing() {
        let kv = discounts();
        let got = kv.multi_get(&["k3:radiohead:ok", "nope", "k2:cure:faith"]);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn scan_prefix_is_ordered() {
        let kv = discounts();
        let hits = kv.scan_prefix("k", None);
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(kv.scan_prefix("k1", None).len(), 1);
        assert_eq!(kv.scan_prefix("k", Some(2)).len(), 2);
        assert_eq!(kv.scan_prefix("zz", None).len(), 0);
    }

    #[test]
    fn glob() {
        assert!(glob_match("k?:cure:*", "k1:cure:wish"));
        assert!(!glob_match("k?:cure:*", "k10:cure:wish"));
        assert!(glob_match("*", ""));
        assert!(glob_match("*wish", "k1:cure:wish"));
        assert!(!glob_match("Wish", "wish"), "case-sensitive");
    }

    #[test]
    fn command_language() {
        let mut kv = KvStore::new("d");
        assert_eq!(kv.execute("SET a 1").unwrap(), Reply::Ok);
        assert_eq!(kv.execute("GET a").unwrap(), Reply::Value(Some("1".into())));
        assert_eq!(kv.execute("GET b").unwrap(), Reply::Value(None));
        assert_eq!(kv.execute("EXISTS a").unwrap(), Reply::Int(1));
        assert_eq!(kv.execute("set b 2").unwrap(), Reply::Ok, "case-insensitive verbs");
        assert_eq!(kv.execute("DBSIZE").unwrap(), Reply::Int(2));
        assert_eq!(
            kv.execute("MGET a b c").unwrap(),
            Reply::Pairs(vec![("a".into(), "1".into()), ("b".into(), "2".into()),])
        );
        assert_eq!(kv.execute("DEL a b zz").unwrap(), Reply::Int(2));
    }

    #[test]
    fn quoted_values() {
        let mut kv = KvStore::new("d");
        kv.execute(r#"SET greeting "hello \"world\"""#).unwrap();
        assert_eq!(kv.get("greeting"), Some(r#"hello "world""#));
    }

    #[test]
    fn scan_command_forms() {
        let mut kv = discounts();
        assert_eq!(
            kv.execute("SCAN k COUNT 2").unwrap(),
            Reply::Pairs(vec![
                ("k1:cure:wish".into(), "40%".into()),
                ("k2:cure:faith".into(), "10%".into()),
            ])
        );
        assert!(kv.execute("SCAN").is_err());
        assert!(kv.execute("SCAN k COUNT x").is_err());
    }

    #[test]
    fn keys_command() {
        let mut kv = discounts();
        let Reply::Pairs(hits) = kv.execute("KEYS *cure*").unwrap() else { panic!() };
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn errors() {
        let mut kv = KvStore::new("d");
        assert!(matches!(kv.execute("FLUSHALL"), Err(KvError::UnknownCommand(_))));
        assert!(matches!(kv.execute("GET"), Err(KvError::Arity { .. })));
        assert!(matches!(kv.execute("SET a"), Err(KvError::Arity { .. })));
        assert!(matches!(kv.execute(""), Err(KvError::Syntax(_))));
        assert!(matches!(kv.execute("GET \"unterminated"), Err(KvError::Syntax(_))));
    }
}
