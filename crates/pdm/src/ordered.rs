//! Ordered secondary indexes: the one access-path design the relational,
//! document and graph engines share.
//!
//! An [`OrderedIndex`] is plain data beside an engine's rows: an ordered
//! set of *(field value, row slot)* pairs under [`Value::total_cmp`]. An
//! engine reduces the conjuncts of a query's filter to [`Sarg`]s
//! (`field op literal`), and [`choose`] turns them into candidate slots:
//! it picks one indexed field — equality before closed range before
//! half-open range, first mentioned wins a tie, no statistics — and reads
//! that field's range. The slots come back **sorted**, which is every
//! engine's scan order, and are a *superset* of the rows the conjuncts
//! accept: the engine re-evaluates the whole original predicate on each
//! candidate, so NULL, Int-vs-Float, NaN and type-mismatch semantics stay
//! the scan's own. `None` means no conjunct can use an index; the engine
//! then visits every live slot.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

use crate::Value;

/// Wrapper giving [`Value`] a total order (via [`Value::total_cmp`]) so it
/// can serve as an ordered-collection key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<Value> for OrdValue {
    fn from(v: Value) -> Self {
        OrdValue(v)
    }
}

/// The comparisons an ordered index can answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `field = literal`
    Eq,
    /// `field < literal`
    Lt,
    /// `field <= literal`
    Le,
    /// `field > literal`
    Gt,
    /// `field >= literal`
    Ge,
}

impl Cmp {
    /// The operator with its operands swapped (`3 < x` is `x > 3`).
    pub fn flipped(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }
}

/// One conjunct of a filter in index-usable form: `field op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sarg<'a> {
    /// The column, document path or node property.
    pub field: &'a str,
    /// The comparison.
    pub op: Cmp,
    /// The constant operand.
    pub literal: Value,
}

/// A secondary index on one field: *(value, slot)* pairs in value order.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    entries: BTreeSet<(OrdValue, usize)>,
}

impl OrderedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `slot` holds `value`.
    pub fn insert(&mut self, value: &Value, slot: usize) {
        self.entries.insert((OrdValue(value.clone()), slot));
    }

    /// Forgets that `slot` holds `value`.
    pub fn remove(&mut self, value: &Value, slot: usize) {
        self.entries.remove(&(OrdValue(value.clone()), slot));
    }

    /// The slots whose value lies in `range`, ascending.
    fn slots(&self, range: &KeyRange) -> Vec<usize> {
        if range.is_empty() {
            return Vec::new();
        }
        // A value bound becomes a pair bound by choosing the slot that
        // sorts before (0) or after (MAX) every real slot of that value.
        let lower = match &range.lower {
            Bound::Included(v) => Bound::Included((v.clone(), 0)),
            Bound::Excluded(v) => Bound::Excluded((v.clone(), usize::MAX)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let upper = match &range.upper {
            Bound::Included(v) => Bound::Included((v.clone(), usize::MAX)),
            Bound::Excluded(v) => Bound::Excluded((v.clone(), 0)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut slots: Vec<usize> = self.entries.range((lower, upper)).map(|(_, s)| *s).collect();
        slots.sort_unstable();
        slots
    }
}

/// The value interval the sargs on one field allow.
#[derive(Debug)]
struct KeyRange {
    lower: Bound<OrdValue>,
    upper: Bound<OrdValue>,
    /// An equality narrowed it.
    point: bool,
}

impl KeyRange {
    fn of<'a>(sargs: impl Iterator<Item = &'a Sarg<'a>>) -> KeyRange {
        let mut range = KeyRange { lower: Bound::Unbounded, upper: Bound::Unbounded, point: false };
        for sarg in sargs {
            // Equality on containers is structural, which `total_cmp`
            // does not refine (`[0.0] == [-0.0]`): leave those to the scan.
            if matches!(sarg.literal, Value::Array(_) | Value::Object(_)) {
                continue;
            }
            let v = || OrdValue(sarg.literal.clone());
            match sarg.op {
                Cmp::Eq => {
                    // Numeric equality is `==` on f64, under which the two
                    // zeros are one value; `total_cmp` keeps them apart.
                    let (lo, hi) = if sarg.literal.as_f64() == Some(0.0) {
                        (OrdValue(Value::Float(-0.0)), OrdValue(Value::Float(0.0)))
                    } else {
                        (v(), v())
                    };
                    range.tighten_lower(Bound::Included(lo));
                    range.tighten_upper(Bound::Included(hi));
                    range.point = true;
                }
                Cmp::Gt => range.tighten_lower(Bound::Excluded(v())),
                Cmp::Ge => range.tighten_lower(Bound::Included(v())),
                Cmp::Lt => range.tighten_upper(Bound::Excluded(v())),
                Cmp::Le => range.tighten_upper(Bound::Included(v())),
            }
        }
        range
    }

    /// Replaces the lower bound by `new` if `new` is tighter.
    fn tighten_lower(&mut self, new: Bound<OrdValue>) {
        let tighter = match (&self.lower, &new) {
            (Bound::Unbounded, _) => true,
            (Bound::Included(old) | Bound::Excluded(old), Bound::Excluded(v)) => v >= old,
            (Bound::Included(old) | Bound::Excluded(old), Bound::Included(v)) => v > old,
            (_, Bound::Unbounded) => false,
        };
        if tighter {
            self.lower = new;
        }
    }

    /// Replaces the upper bound by `new` if `new` is tighter.
    fn tighten_upper(&mut self, new: Bound<OrdValue>) {
        let tighter = match (&self.upper, &new) {
            (Bound::Unbounded, _) => true,
            (Bound::Included(old) | Bound::Excluded(old), Bound::Excluded(v)) => v <= old,
            (Bound::Included(old) | Bound::Excluded(old), Bound::Included(v)) => v < old,
            (_, Bound::Unbounded) => false,
        };
        if tighter {
            self.upper = new;
        }
    }

    /// Preference class: equality, closed range, half-open range; `None`
    /// if no sarg bounded the field.
    fn class(&self) -> Option<u8> {
        match (self.point, &self.lower, &self.upper) {
            (true, _, _) => Some(0),
            (false, Bound::Unbounded, Bound::Unbounded) => None,
            (false, Bound::Unbounded, _) | (false, _, Bound::Unbounded) => Some(2),
            (false, _, _) => Some(1),
        }
    }

    /// True if no value can lie inside (`x > 5 AND x < 3`) — also the
    /// shapes `BTreeSet::range` refuses.
    fn is_empty(&self) -> bool {
        match (&self.lower, &self.upper) {
            (Bound::Included(lo), Bound::Included(hi)) => lo > hi,
            (
                Bound::Included(lo) | Bound::Excluded(lo),
                Bound::Included(hi) | Bound::Excluded(hi),
            ) => lo >= hi,
            _ => false,
        }
    }
}

/// Picks the access path for a conjunction: among the fields `index_of`
/// knows, the one whose sargs form an equality, else a closed range, else
/// a half-open range (first mentioned wins a tie), and returns that
/// index's candidate slots in ascending order. `None` when no sarg names
/// an indexed field — the caller scans.
pub fn choose<'i>(
    sargs: &[Sarg<'_>],
    index_of: impl Fn(&str) -> Option<&'i OrderedIndex>,
) -> Option<Vec<usize>> {
    let mut best: Option<(u8, &OrderedIndex, KeyRange)> = None;
    for (i, sarg) in sargs.iter().enumerate() {
        if sargs[..i].iter().any(|earlier| earlier.field == sarg.field) {
            continue;
        }
        let Some(index) = index_of(sarg.field) else { continue };
        let range = KeyRange::of(sargs.iter().filter(|s| s.field == sarg.field));
        let Some(class) = range.class() else { continue };
        if best.as_ref().is_none_or(|(c, ..)| class < *c) {
            best = Some((class, index, range));
        }
    }
    best.map(|(_, index, range)| index.slots(&range))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sarg(field: &str, op: Cmp, literal: Value) -> Sarg<'_> {
        Sarg { field, op, literal }
    }

    /// `seq` holds 0..n at slot = value; `tag` holds value % 3.
    fn indexes(n: i64) -> (OrderedIndex, OrderedIndex) {
        let (mut seq, mut tag) = (OrderedIndex::new(), OrderedIndex::new());
        for i in 0..n {
            seq.insert(&Value::Int(i), i as usize);
            tag.insert(&Value::Int(i % 3), i as usize);
        }
        (seq, tag)
    }

    #[test]
    fn window_reads_only_its_slots() {
        let (seq, _) = indexes(1000);
        let sargs = [sarg("seq", Cmp::Ge, Value::Int(500)), sarg("seq", Cmp::Lt, Value::Int(540))];
        let slots = choose(&sargs, |f| (f == "seq").then_some(&seq)).unwrap();
        assert_eq!(slots, (500..540).collect::<Vec<_>>());
    }

    #[test]
    fn equality_beats_closed_beats_half_open() {
        let (seq, tag) = indexes(30);
        let pick = |f: &str| match f {
            "seq" => Some(&seq),
            "tag" => Some(&tag),
            _ => None,
        };
        // Half-open on seq, equality on tag: tag wins although later.
        let sargs = [sarg("seq", Cmp::Lt, Value::Int(20)), sarg("tag", Cmp::Eq, Value::Int(1))];
        assert_eq!(choose(&sargs, pick).unwrap().len(), 10);
        // Half-open on tag, closed on seq: seq wins.
        let sargs = [
            sarg("tag", Cmp::Ge, Value::Int(1)),
            sarg("seq", Cmp::Ge, Value::Int(3)),
            sarg("seq", Cmp::Le, Value::Int(5)),
        ];
        assert_eq!(choose(&sargs, pick).unwrap(), vec![3, 4, 5]);
        // A tie goes to the field mentioned first.
        let sargs = [sarg("tag", Cmp::Lt, Value::Int(1)), sarg("seq", Cmp::Lt, Value::Int(2))];
        assert_eq!(choose(&sargs, pick).unwrap().len(), 10);
        // Unindexed fields and no sargs at all mean "scan".
        assert_eq!(choose(&[sarg("other", Cmp::Eq, Value::Int(1))], pick), None);
        assert_eq!(choose(&[], pick), None);
    }

    #[test]
    fn bounds_tighten_and_contradictions_are_empty() {
        let (seq, _) = indexes(20);
        let pick = |_: &str| Some(&seq);
        let sargs = [
            sarg("seq", Cmp::Gt, Value::Int(2)),
            sarg("seq", Cmp::Ge, Value::Int(5)),
            sarg("seq", Cmp::Le, Value::Int(9)),
            sarg("seq", Cmp::Lt, Value::Int(8)),
        ];
        assert_eq!(choose(&sargs, pick).unwrap(), vec![5, 6, 7]);
        for contradiction in [
            [sarg("seq", Cmp::Gt, Value::Int(5)), sarg("seq", Cmp::Lt, Value::Int(3))],
            [sarg("seq", Cmp::Gt, Value::Int(5)), sarg("seq", Cmp::Lt, Value::Int(5))],
            [sarg("seq", Cmp::Ge, Value::Int(5)), sarg("seq", Cmp::Lt, Value::Int(5))],
            [sarg("seq", Cmp::Eq, Value::Int(5)), sarg("seq", Cmp::Lt, Value::Int(3))],
        ] {
            assert_eq!(choose(&contradiction, pick).unwrap(), Vec::<usize>::new());
        }
        let sargs = [sarg("seq", Cmp::Ge, Value::Int(5)), sarg("seq", Cmp::Le, Value::Int(5))];
        assert_eq!(choose(&sargs, pick).unwrap(), vec![5]);
    }

    #[test]
    fn candidates_cover_the_scan_semantics_of_equality() {
        let mut idx = OrderedIndex::new();
        let values = [
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::str("2"),
        ];
        for (slot, v) in values.iter().enumerate() {
            idx.insert(v, slot);
        }
        let pick = |_: &str| Some(&idx);
        // `= 0` must offer both zeros and the integer zero.
        assert_eq!(choose(&[sarg("x", Cmp::Eq, Value::Int(0))], pick).unwrap(), vec![0, 1, 2]);
        // Int and Float meet in one key.
        assert_eq!(choose(&[sarg("x", Cmp::Eq, Value::Float(2.0))], pick).unwrap(), vec![3, 4]);
        // NULL rows are offered for `= NULL`; the engine's predicate rejects them.
        assert_eq!(choose(&[sarg("x", Cmp::Eq, Value::Null)], pick).unwrap(), vec![5]);
        // A container literal is left to the scan.
        assert_eq!(choose(&[sarg("x", Cmp::Eq, Value::array([Value::Int(0)]))], pick), None);
    }

    #[test]
    fn remove_forgets_exactly_one_slot() {
        let mut idx = OrderedIndex::new();
        idx.insert(&Value::Int(7), 1);
        idx.insert(&Value::Int(7), 2);
        idx.remove(&Value::Float(7.0), 1);
        let slots = choose(&[sarg("x", Cmp::Eq, Value::Int(7))], |_| Some(&idx)).unwrap();
        assert_eq!(slots, vec![2]);
    }
}
