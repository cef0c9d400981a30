//! Property-graph storage: nodes, labelled edges, adjacency.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use quepa_pdm::fields::intern;
use quepa_pdm::ordered::{self, OrderedIndex, Sarg};
use quepa_pdm::{Fields, Value};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors of the graph store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node with this id already exists.
    DuplicateNode(String),
    /// The referenced node does not exist.
    UnknownNode(String),
    /// Malformed query text.
    Syntax(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateNode(id) => write!(f, "duplicate node id: {id}"),
            GraphError::UnknownNode(id) => write!(f, "unknown node id: {id}"),
            GraphError::Syntax(m) => write!(f, "cypher syntax error: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Node properties, sorted by name. The nodes of one graph share their
/// property-name allocations.
pub type PropertyMap = Fields;

/// A node of the property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node id (unique in the graph).
    pub id: String,
    /// The node's label (one label per node in this engine).
    pub label: String,
    /// The node's properties.
    pub properties: PropertyMap,
}

impl Node {
    /// Renders the node (id, label, properties) as a single PDM value, the
    /// form the polystore connector hands to the augmenter. `_id` and
    /// `_label` replace properties of the same name.
    pub fn to_value(&self) -> Value {
        static RESERVED: OnceLock<[Arc<str>; 2]> = OnceLock::new();
        let [id, label] = RESERVED.get_or_init(|| [Arc::from("_id"), Arc::from("_label")]);
        // Both lists are sorted: merge them in one pass.
        let mut reserved = [(id, &self.id), (label, &self.label)].into_iter().peekable();
        let mut pairs = Vec::with_capacity(self.properties.len() + 2);
        for (name, value) in self.properties.pairs() {
            while let Some((r, text)) = reserved.next_if(|(r, _)| r.as_ref() <= name.as_ref()) {
                pairs.push((Arc::clone(r), Value::str(text.clone())));
            }
            if name != id && name != label {
                pairs.push((Arc::clone(name), value.clone()));
            }
        }
        pairs.extend(reserved.map(|(r, text)| (Arc::clone(r), Value::str(text.clone()))));
        Value::Object(Fields::from_sorted(pairs))
    }
}

#[derive(Debug, Clone, Default)]
struct Adjacency {
    /// (edge type, target node slot).
    out: Vec<(String, usize)>,
    /// (edge type, source node slot).
    incoming: Vec<(String, usize)>,
}

/// An embedded property-graph database.
#[derive(Debug, Clone)]
pub struct GraphDb {
    name: String,
    nodes: Vec<Node>,
    adjacency: Vec<Adjacency>,
    by_id: HashMap<String, usize>,
    by_label: HashMap<String, Vec<usize>>,
    prop_indexes: Vec<PropertyIndex>,
    /// The property names of every node, one allocation each.
    names: HashSet<Arc<str>>,
    edge_count: usize,
    tombstones: usize,
}

/// A declared secondary index over one property of the nodes of one
/// label. Nodes without the property have no entry: no indexable
/// condition matches them.
#[derive(Debug, Clone)]
struct PropertyIndex {
    label: String,
    property: String,
    index: OrderedIndex,
}

impl GraphDb {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        GraphDb {
            name: name.into(),
            nodes: Vec::new(),
            adjacency: Vec::new(),
            by_id: HashMap::new(),
            by_label: HashMap::new(),
            prop_indexes: Vec::new(),
            names: HashSet::new(),
            edge_count: 0,
            tombstones: 0,
        }
    }

    /// The graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.tombstones
    }

    /// Number of (directed) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds a node.
    pub fn add_node<I, K>(&mut self, id: &str, label: &str, properties: I) -> Result<()>
    where
        I: IntoIterator<Item = (K, Value)>,
        K: AsRef<str>,
    {
        if self.by_id.contains_key(id) {
            return Err(GraphError::DuplicateNode(id.to_owned()));
        }
        let slot = self.nodes.len();
        let names = &mut self.names;
        let properties: PropertyMap =
            properties.into_iter().map(|(k, v)| (intern(names, k.as_ref()), v)).collect();
        for idx in self.prop_indexes.iter_mut().filter(|i| i.label == label) {
            if let Some(v) = properties.get(&idx.property) {
                idx.index.insert(v, slot);
            }
        }
        self.nodes.push(Node { id: id.to_owned(), label: label.to_owned(), properties });
        self.adjacency.push(Adjacency::default());
        self.by_id.insert(id.to_owned(), slot);
        self.by_label.entry(label.to_owned()).or_default().push(slot);
        Ok(())
    }

    /// Adds a directed edge of the given type.
    pub fn add_edge(&mut self, from: &str, to: &str, edge_type: &str) -> Result<()> {
        let f = self.slot(from)?;
        let t = self.slot(to)?;
        self.adjacency[f].out.push((edge_type.to_owned(), t));
        self.adjacency[t].incoming.push((edge_type.to_owned(), f));
        self.edge_count += 1;
        Ok(())
    }

    fn slot(&self, id: &str) -> Result<usize> {
        self.by_id.get(id).copied().ok_or_else(|| GraphError::UnknownNode(id.to_owned()))
    }

    /// Point lookup by node id.
    pub fn get(&self, id: &str) -> Option<&Node> {
        self.by_id.get(id).map(|&slot| &self.nodes[slot])
    }

    /// Removes a node and all its incident edges; returns whether it
    /// existed. Slots are tombstoned (the label index and adjacency lists
    /// skip removed nodes via `by_id`).
    pub fn remove_node(&mut self, id: &str) -> bool {
        let Some(slot) = self.by_id.remove(id) else { return false };
        // Remove this node from its label bucket.
        let label = self.nodes[slot].label.clone();
        if let Some(bucket) = self.by_label.get_mut(&label) {
            bucket.retain(|&s| s != slot);
        }
        for idx in self.prop_indexes.iter_mut().filter(|i| i.label == label) {
            if let Some(v) = self.nodes[slot].properties.get(&idx.property) {
                idx.index.remove(v, slot);
            }
        }
        // Drop edges touching the node from both directions' lists.
        let out_edges = std::mem::take(&mut self.adjacency[slot].out);
        for (_, target) in &out_edges {
            self.adjacency[*target].incoming.retain(|(_, s)| *s != slot);
        }
        let in_edges = std::mem::take(&mut self.adjacency[slot].incoming);
        for (_, source) in &in_edges {
            self.adjacency[*source].out.retain(|(_, t)| *t != slot);
        }
        self.edge_count -= out_edges.len() + in_edges.len();
        // Tombstone: blank the node so label/property scans skip it.
        self.nodes[slot].id.clear();
        self.nodes[slot].properties = Fields::new();
        self.tombstones += 1;
        true
    }

    /// Batched point lookup; missing ids are skipped, and a node comes
    /// back beside the caller's id that found it.
    pub fn multi_get<'k, K: AsRef<str>>(&self, ids: &'k [K]) -> Vec<(&'k K, &Node)> {
        ids.iter().filter_map(|id| Some((id, self.get(id.as_ref())?))).collect()
    }

    /// Batched point lookup with a store-side node predicate: one
    /// simulated round trip that returns only the nodes matching `pred`,
    /// plus the ids whose node exists but fails it (so callers can tell
    /// filtered-out apart from missing). This is the traversal-filter
    /// form the graph query language applies to `MATCH … WHERE`.
    pub fn multi_get_where<'a, 'k, K: AsRef<str>>(
        &'a self,
        ids: &'k [K],
        pred: &dyn Fn(&Node) -> bool,
    ) -> (Vec<(&'k K, &'a Node)>, Vec<&'k K>) {
        let mut matched = Vec::new();
        let mut rejected = Vec::new();
        for id in ids {
            let Some(node) = self.get(id.as_ref()) else { continue };
            if pred(node) {
                matched.push((id, node));
            } else {
                rejected.push(id);
            }
        }
        (matched, rejected)
    }

    /// Out-neighbours of a node following edges of `edge_type` (or any type
    /// if `None`).
    pub fn neighbors(&self, id: &str, edge_type: Option<&str>) -> Result<Vec<&Node>> {
        let slot = self.slot(id)?;
        Ok(self.adjacency[slot]
            .out
            .iter()
            .filter(|(t, _)| edge_type.is_none_or(|want| want == t))
            .map(|(_, target)| &self.nodes[*target])
            .collect())
    }

    /// Nodes reachable from `id` within `min..=max` hops along edges of
    /// `edge_type`, breadth-first, excluding the start node. `undirected`
    /// additionally follows incoming edges.
    pub fn reachable(
        &self,
        id: &str,
        edge_type: Option<&str>,
        min: usize,
        max: usize,
        undirected: bool,
    ) -> Result<Vec<&Node>> {
        let start = self.slot(id)?;
        let mut seen: HashSet<usize> = HashSet::from([start]);
        let mut frontier = vec![start];
        let mut out = Vec::new();
        for depth in 1..=max {
            let mut next = Vec::new();
            for &slot in &frontier {
                let adj = &self.adjacency[slot];
                let hop_iter =
                    adj.out.iter().chain(if undirected { adj.incoming.iter() } else { [].iter() });
                for (t, target) in hop_iter {
                    if edge_type.is_none_or(|want| want == t) && seen.insert(*target) {
                        next.push(*target);
                        if depth >= min {
                            out.push(&self.nodes[*target]);
                        }
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(out)
    }

    /// Nodes carrying a label.
    pub fn nodes_with_label(&self, label: &str) -> impl Iterator<Item = &Node> {
        self.by_label.get(label).into_iter().flatten().map(|&slot| &self.nodes[slot])
    }

    /// Declares an ordered index over `property` of the nodes labelled
    /// `label`, backfilling from existing nodes. Declaring it twice is a
    /// no-op.
    pub fn create_index(&mut self, label: &str, property: &str) {
        if self.prop_indexes.iter().any(|i| i.label == label && i.property == property) {
            return;
        }
        let mut index = OrderedIndex::new();
        for &slot in self.by_label.get(label).into_iter().flatten() {
            if let Some(v) = self.nodes[slot].properties.get(property) {
                index.insert(v, slot);
            }
        }
        self.prop_indexes.push(PropertyIndex {
            label: label.to_owned(),
            property: property.to_owned(),
            index,
        });
    }

    /// The access path for nodes of one label: the nodes a pattern
    /// constrained by `sargs` (conditions on properties, all of which
    /// must hold) has to visit, in insertion order — the scan's order.
    /// When a sarg bounds an indexed property these are that index's range
    /// (see [`quepa_pdm::ordered`]); otherwise every node of the label.
    /// Always a superset of the matches; the caller re-checks each node.
    pub fn label_candidates(&self, label: &str, sargs: &[Sarg<'_>]) -> Vec<&Node> {
        let index_of = |property: &str| {
            self.prop_indexes
                .iter()
                .find(|i| i.label == label && i.property == property)
                .map(|i| &i.index)
        };
        match ordered::choose(sargs, index_of) {
            Some(slots) => slots.into_iter().map(|slot| &self.nodes[slot]).collect(),
            None => self.nodes_with_label(label).collect(),
        }
    }

    /// All live nodes.
    pub fn all_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| !n.id.is_empty())
    }

    /// Parses and runs a Cypher-subset query. See [`crate::cypher`].
    pub fn query(&self, text: &str) -> Result<Vec<&Node>> {
        let q = crate::cypher::parse_query(text)?;
        crate::cypher::execute(self, &q)
    }

    /// Seedable population hook for the simulation harness (`quepa-check`):
    /// a graph of `Album` nodes `g0..g{n-1}` with a dense integer `seq`
    /// property, connected in a `SIMILAR` ring, every value derived from
    /// `seed` alone so the graph is bit-identical across hosts and runs.
    pub fn populate_seeded(name: impl Into<String>, seed: u64, n: usize) -> GraphDb {
        let mut db = GraphDb::new(name);
        for i in 0..n {
            db.add_node(
                &format!("g{i}"),
                "Album",
                [
                    ("title", Value::Str(format!("album-{:08x}", seed_mix(seed, i as u64) >> 32))),
                    ("seq", Value::Int(i as i64)),
                ],
            )
            .expect("generated node ids are unique");
        }
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                db.add_edge(&format!("g{i}"), &format!("g{j}"), "SIMILAR")
                    .expect("ring endpoints exist");
            }
        }
        db
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphDb {
        let mut g = GraphDb::new("similar-items");
        for (id, title) in [("s1", "Apart"), ("s2", "Elise"), ("s3", "Cut"), ("s4", "Open")] {
            g.add_node(id, "Song", [("title", Value::str(title))]).unwrap();
        }
        g.add_edge("s1", "s2", "SIMILAR").unwrap();
        g.add_edge("s2", "s3", "SIMILAR").unwrap();
        g.add_edge("s3", "s4", "COVER").unwrap();
        g
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn duplicate_and_unknown() {
        let mut g = sample();
        assert_eq!(
            g.add_node("s1", "Song", std::iter::empty::<(String, Value)>()),
            Err(GraphError::DuplicateNode("s1".into()))
        );
        assert_eq!(g.add_edge("s1", "zz", "X"), Err(GraphError::UnknownNode("zz".into())));
        assert!(g.neighbors("zz", None).is_err());
    }

    #[test]
    fn neighbors_filtered_by_type() {
        let g = sample();
        let n = g.neighbors("s3", Some("SIMILAR")).unwrap();
        assert!(n.is_empty());
        let n = g.neighbors("s3", Some("COVER")).unwrap();
        assert_eq!(n[0].id, "s4");
        let n = g.neighbors("s3", None).unwrap();
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn reachable_bfs_ranges() {
        let g = sample();
        let ids = |v: Vec<&Node>| v.into_iter().map(|n| n.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(g.reachable("s1", Some("SIMILAR"), 1, 1, false).unwrap()), vec!["s2"]);
        assert_eq!(ids(g.reachable("s1", Some("SIMILAR"), 1, 2, false).unwrap()), vec!["s2", "s3"]);
        // min=2 excludes the 1-hop neighbour.
        assert_eq!(ids(g.reachable("s1", Some("SIMILAR"), 2, 2, false).unwrap()), vec!["s3"]);
        // Any-type, 3 hops reaches s4 through the COVER edge.
        assert_eq!(ids(g.reachable("s1", None, 3, 3, false).unwrap()), vec!["s4"]);
        // Undirected from s2 reaches s1 as well.
        let mut r = ids(g.reachable("s2", Some("SIMILAR"), 1, 1, true).unwrap());
        r.sort();
        assert_eq!(r, vec!["s1", "s3"]);
    }

    #[test]
    fn bfs_handles_cycles() {
        let mut g = sample();
        g.add_edge("s3", "s1", "SIMILAR").unwrap();
        let r = g.reachable("s1", Some("SIMILAR"), 1, 10, false).unwrap();
        // Never revisits: s2, s3 once each; s1 excluded as start.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn node_to_value() {
        let g = sample();
        let v = g.get("s1").unwrap().to_value();
        assert_eq!(v.get("_id").unwrap().as_str(), Some("s1"));
        assert_eq!(v.get("_label").unwrap().as_str(), Some("Song"));
        assert_eq!(v.get("title").unwrap().as_str(), Some("Apart"));
    }

    #[test]
    fn label_index() {
        let g = sample();
        assert_eq!(g.nodes_with_label("Song").count(), 4);
        assert_eq!(g.nodes_with_label("Album").count(), 0);
    }

    #[test]
    fn multi_get_skips_missing() {
        let g = sample();
        assert_eq!(g.multi_get(&["s1", "zz", "s4"]).len(), 2);
    }
}
