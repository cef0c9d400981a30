//! Polystore assembly and A' index wiring.

use std::sync::Arc;

use quepa_aindex::AIndex;
use quepa_core::Quepa;
use quepa_docstore::DocumentDb;
use quepa_graphstore::GraphDb;
use quepa_kvstore::KvStore;
use quepa_pdm::{CollectionName, DatabaseName, GlobalKey, LocalKey, Probability, Value};
use quepa_polystore::{
    Deployment, DocumentConnector, GraphConnector, KvConnector, Polystore, RelationalConnector,
};
use quepa_relstore::engine::Database;

use crate::gen::MusicData;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of album entities in the base stores (the scale knob; the
    /// paper's full polystore corresponds to roughly `albums = 8_000_000`,
    /// shrunk here by a constant factor).
    pub albums: usize,
    /// Replica sets: each set clones catalogue + transactions + similar
    /// (Redis stays single, §VII-A), so `databases = 4 + 3 × replica_sets`
    /// — the paper's 4 / 7 / 10 / 13 axis.
    pub replica_sets: usize,
    /// Which latency model every store link uses.
    pub deployment: Deployment,
    /// RNG seed for the data generator.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            albums: 1000,
            replica_sets: 0,
            deployment: Deployment::Centralized,
            seed: 42,
        }
    }
}

/// Average generated objects per album across the four base stores: one
/// inventory row, ~1 sale, ~2 sale lines, one catalogue album document,
/// ~0.1 customer documents, one graph album node and ~0.5 discount
/// entries. The scale helper below sizes `albums` from a target object
/// count with this constant.
pub const OBJECTS_PER_ALBUM: f64 = 6.6;

impl WorkloadConfig {
    /// Number of databases this configuration yields.
    pub fn database_count(&self) -> usize {
        4 + 3 * self.replica_sets
    }

    /// A configuration sized so the four base stores hold approximately
    /// `objects` data objects in total — the knob the 10⁴–10⁷ scale
    /// sweep turns. Generation is prefix-stable in `albums`, so larger
    /// scales extend (not reshuffle) smaller ones at the same seed.
    pub fn at_scale(objects: usize, deployment: Deployment, seed: u64) -> WorkloadConfig {
        let albums = ((objects as f64 / OBJECTS_PER_ALBUM).round() as usize).max(1);
        WorkloadConfig { albums, replica_sets: 0, deployment, seed }
    }
}

/// A built polystore: registry + A' index + the generated ground truth.
pub struct BuiltPolystore {
    /// The store registry.
    pub polystore: Polystore,
    /// The wired A' index.
    pub index: AIndex,
    /// The generated data (kept for assertions and query planning).
    pub data: MusicData,
    /// The configuration that built it.
    pub config: WorkloadConfig,
}

impl BuiltPolystore {
    /// Builds the polystore of §VII-A.
    pub fn build(config: WorkloadConfig) -> Self {
        let data = MusicData::generate(config.albums, config.seed);
        let latency = config.deployment.latency();
        let mut polystore = Polystore::new();
        let mut index = AIndex::new();

        // Store-name suffixes: "" for the base set, "_r1" ….
        let suffixes: Vec<String> = (0..=config.replica_sets)
            .map(|r| if r == 0 { String::new() } else { format!("_r{r}") })
            .collect();

        // ---- the single shared Redis ------------------------------------
        let mut kv = KvStore::new("discount");
        for album in &data.albums {
            if album.discounted {
                kv.set(
                    discount_key(album.seq, &album.artist, &album.title),
                    format!("{}%", album.discount_pct),
                );
            }
        }
        polystore.register(Arc::new(KvConnector::new(kv, "drop", latency)));

        // ---- replicated stores -------------------------------------------
        // Each engine's schema declares an ordered index on the `seq` of
        // its album collection — the one the test-bed's size and window
        // queries select on, and what Polyphony's MySQL, MongoDB and
        // Neo4j instances would have on it.
        for suffix in &suffixes {
            // Relational: transactions{suffix}.
            let mut rel = Database::new(format!("transactions{suffix}"));
            rel.create_table("inventory", "id", &["id", "artist", "name", "year", "seq"]).unwrap();
            rel.create_index("inventory", "seq").unwrap();
            rel.create_table("sales", "id", &["id", "customer", "total", "seq"]).unwrap();
            rel.create_table("sales_details", "id", &["id", "sale", "item", "seq"]).unwrap();
            for album in &data.albums {
                rel.insert_row(
                    "inventory",
                    vec![
                        Value::str(format!("a{}", album.seq)),
                        Value::str(album.artist.clone()),
                        Value::str(album.title.clone()),
                        Value::Int(album.year),
                        Value::Int(album.seq as i64),
                    ],
                )
                .unwrap();
            }
            for sale in &data.sales {
                rel.insert_row(
                    "sales",
                    vec![
                        Value::str(format!("s{}", sale.seq)),
                        Value::str(format!("c{}", sale.customer)),
                        Value::Float(sale.total),
                        Value::Int(sale.seq as i64),
                    ],
                )
                .unwrap();
                for (j, item) in sale.items.iter().enumerate() {
                    rel.insert_row(
                        "sales_details",
                        vec![
                            Value::str(format!("i{}_{j}", sale.seq)),
                            Value::str(format!("s{}", sale.seq)),
                            Value::str(format!("a{item}")),
                            Value::Int(sale.seq as i64),
                        ],
                    )
                    .unwrap();
                }
            }
            polystore.register(Arc::new(RelationalConnector::new(rel, latency)));

            // Document: catalogue{suffix}.
            let mut doc = DocumentDb::new(format!("catalogue{suffix}"));
            doc.create_index("albums", "seq");
            for album in &data.albums {
                doc.insert(
                    "albums",
                    Value::object([
                        ("_id", Value::str(format!("d{}", album.seq))),
                        ("title", Value::str(album.title.clone())),
                        ("artist", Value::str(album.artist.clone())),
                        ("year", Value::Int(album.year)),
                        ("seq", Value::Int(album.seq as i64)),
                    ]),
                )
                .unwrap();
            }
            for customer in &data.customers {
                doc.insert(
                    "customers",
                    Value::object([
                        ("_id", Value::str(format!("c{}", customer.seq))),
                        ("name", Value::str(customer.name.clone())),
                        ("city", Value::str(customer.city.clone())),
                        ("seq", Value::Int(customer.seq as i64)),
                    ]),
                )
                .unwrap();
            }
            polystore.register(Arc::new(DocumentConnector::new(doc, latency)));

            // Graph: similar{suffix}.
            let mut graph = GraphDb::new(format!("similar{suffix}"));
            graph.create_index("Album", "seq");
            for album in &data.albums {
                graph
                    .add_node(
                        &format!("g{}", album.seq),
                        "Album",
                        [
                            ("title", Value::str(album.title.clone())),
                            ("seq", Value::Int(album.seq as i64)),
                        ],
                    )
                    .unwrap();
            }
            for (from, to) in &data.similar {
                if from != to {
                    graph.add_edge(&format!("g{from}"), &format!("g{to}"), "SIMILAR").unwrap();
                }
            }
            polystore.register(Arc::new(GraphConnector::new(graph, latency)));
        }

        // ---- the A' index -------------------------------------------------
        // One identity clique per album entity across all its copies, plus
        // matchings to the sale lines that reference it. The graph is
        // uniformly dense by construction (§VII-A: "queries of the same
        // size return answers with a comparable number of data objects").
        // Every key of one collection shares that collection's two names.
        let copies_of: Vec<[Collection; 3]> = suffixes
            .iter()
            .map(|suffix| {
                [
                    Collection::new(&format!("transactions{suffix}"), "inventory"),
                    Collection::new(&format!("catalogue{suffix}"), "albums"),
                    Collection::new(&format!("similar{suffix}"), "album"),
                ]
            })
            .collect();
        let discounts = Collection::new("discount", "drop");
        for album in &data.albums {
            let mut copies: Vec<GlobalKey> = Vec::with_capacity(2 + 3 * suffixes.len());
            for [inventory, albums, similar] in &copies_of {
                copies.push(inventory.key(format!("a{}", album.seq)));
                copies.push(albums.key(format!("d{}", album.seq)));
                copies.push(similar.key(format!("g{}", album.seq)));
            }
            if album.discounted {
                copies.push(discounts.key(discount_key(album.seq, &album.artist, &album.title)));
            }
            // Chain inserts; transitivity materializes the clique.
            let p = Probability::of(0.90 + 0.0005 * (album.seq % 100) as f64 / 10.0);
            for pair in copies.windows(2) {
                index.insert_identity(&pair[0], &pair[1], p);
            }
        }
        // Sale ↔ line ↔ item matchings (base store only: replicas share the
        // identity cliques, so the consistency condition spreads these).
        let [inventory, ..] = &copies_of[0];
        let sales = Collection::new("transactions", "sales");
        let customers = Collection::new("catalogue", "customers");
        let lines = Collection::new("transactions", "sales_details");
        for sale in &data.sales {
            let sale_key = sales.key(format!("s{}", sale.seq));
            let customer_key = customers.key(format!("c{}", sale.customer));
            index.insert_matching(&sale_key, &customer_key, Probability::of(0.75));
            for (j, item) in sale.items.iter().enumerate() {
                let line_key = lines.key(format!("i{}_{j}", sale.seq));
                let item_key = inventory.key(format!("a{item}"));
                index.insert_matching(&sale_key, &line_key, Probability::of(0.99));
                index.insert_matching(&line_key, &item_key, Probability::of(0.7));
            }
        }

        BuiltPolystore { polystore, index, data, config }
    }

    /// Wraps the built polystore into a ready [`Quepa`] system.
    pub fn into_quepa(self) -> Quepa {
        Quepa::new(self.polystore, self.index)
    }
}

/// The names of one generated collection, shared by all of its keys.
struct Collection(DatabaseName, CollectionName);

impl Collection {
    fn new(database: &str, collection: &str) -> Self {
        Collection(
            DatabaseName::new(database).expect("generated names are valid"),
            CollectionName::new(collection).expect("generated names are valid"),
        )
    }

    fn key(&self, local: String) -> GlobalKey {
        let local = LocalKey::new(local).expect("generated keys are valid");
        GlobalKey::new(self.0.clone(), self.1.clone(), local)
    }
}

/// The Redis key of an album's discount, e.g. `k7:the-lovemi:broken-wish-7`.
pub fn discount_key(seq: usize, artist: &str, title: &str) -> String {
    format!("k{seq}:{}:{}", slug(artist), slug(title))
}

fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_aindex::IndexView;

    fn key(db: &str, coll: &str, local: &str) -> GlobalKey {
        GlobalKey::parse_parts(db, coll, local).unwrap()
    }

    fn small(replica_sets: usize) -> BuiltPolystore {
        BuiltPolystore::build(WorkloadConfig {
            albums: 40,
            replica_sets,
            deployment: Deployment::InProcess,
            seed: 3,
        })
    }

    #[test]
    fn at_scale_hits_the_object_target() {
        for target in [2_000usize, 10_000] {
            let config = WorkloadConfig::at_scale(target, Deployment::InProcess, 42);
            let built = BuiltPolystore::build(config);
            let total = built.polystore.total_objects();
            let ratio = total as f64 / target as f64;
            assert!(
                (0.8..1.2).contains(&ratio),
                "at_scale({target}) produced {total} objects (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn store_counts_follow_the_paper_axis() {
        for (sets, expect) in [(0usize, 4usize), (1, 7), (2, 10), (3, 13)] {
            let built = small(sets);
            assert_eq!(built.polystore.len(), expect);
            assert_eq!(built.config.database_count(), expect);
        }
    }

    #[test]
    fn stores_are_populated() {
        let built = small(0);
        let p = &built.polystore;
        assert_eq!(p.execute("transactions", "SELECT COUNT(*) FROM inventory").unwrap().len(), 1);
        let objs = p.execute("catalogue", r#"db.albums.find({"seq":{"$lt":5}})"#).unwrap();
        assert_eq!(objs.len(), 5);
        let objs = p.execute("similar", "MATCH (n:Album) WHERE n.seq < 5 RETURN n").unwrap();
        assert_eq!(objs.len(), 5);
        let objs = p.execute("discount", "SCAN k COUNT 10").unwrap();
        assert_eq!(objs.len(), 10);
        // Half the albums are discounted.
        assert_eq!(p.connector_by_name("discount").unwrap().object_count(), 20);
    }

    #[test]
    fn index_is_consistent_and_dense() {
        let built = small(1);
        assert!(built.index.check_consistency().is_none());
        let stats = built.index.stats();
        assert!(stats.nodes > 0);
        assert!(stats.identity_edges > 0);
        assert!(stats.matching_edges > 0);
        // Every inventory item's augmentation reaches its catalogue copy.
        let a0 = key("transactions", "inventory", "a0");
        let out = IndexView::of(&built.index).augment(std::slice::from_ref(&a0), 0);
        assert!(out.iter().any(|a| a.key == key("catalogue", "albums", "d0")));
        assert!(out.iter().any(|a| a.key == key("catalogue_r1", "albums", "d0")));
    }

    #[test]
    fn augmented_size_grows_with_store_count() {
        let small4 = small(0);
        let small13 = small(3);
        let a0 = key("transactions", "inventory", "a0");
        let n4 = IndexView::of(&small4.index).augment(std::slice::from_ref(&a0), 0).len();
        let n13 = IndexView::of(&small13.index).augment(std::slice::from_ref(&a0), 0).len();
        assert!(n13 > n4, "more stores ⇒ bigger augmented answers ({n4} vs {n13})");
    }

    #[test]
    fn end_to_end_quepa() {
        let quepa = small(0).into_quepa();
        let answer = quepa
            .augmented_search("transactions", "SELECT * FROM inventory WHERE seq < 10", 0)
            .unwrap();
        assert_eq!(answer.original.len(), 10);
        assert!(!answer.augmented.is_empty());
        // Discounted albums surface their kv entry.
        assert!(answer.augmented.iter().any(|a| a.object.key().database().as_str() == "discount"));
    }

    #[test]
    fn slug_behaviour() {
        assert_eq!(slug("The Cure"), "the-cure");
        assert_eq!(slug("  A+B  "), "a-b");
        assert_eq!(slug("Broken Wish #7"), "broken-wish-7");
    }
}
