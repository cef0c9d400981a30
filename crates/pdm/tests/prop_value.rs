//! Property-based tests for the PDM value model and text format.

use proptest::prelude::*;
use quepa_pdm::{text, GlobalKey, Probability, Value};

/// Strategy generating arbitrary values of bounded depth.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite, non-NaN floats only: the model forbids NaN.
        (-1e15f64..1e15f64).prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-éü😀\"\\\\\n\t]{0,20}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Value::Object(m.into())),
        ]
    })
}

proptest! {
    /// print → parse is the identity on the value model.
    #[test]
    fn text_roundtrip(v in arb_value()) {
        let s = text::to_string(&v);
        let back = text::parse(&s).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The pretty printer parses back to the same value too.
    #[test]
    fn pretty_roundtrip(v in arb_value()) {
        let s = text::to_string_pretty(&v);
        let back = text::parse(&s).unwrap();
        prop_assert_eq!(back, v);
    }

    /// total_cmp is a total order: antisymmetric and transitive on samples.
    #[test]
    fn total_cmp_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
            prop_assert_eq!(a.total_cmp(&c), Ordering::Less);
        }
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    /// approx_size never underflows and is positive.
    #[test]
    fn approx_size_positive(v in arb_value()) {
        prop_assert!(v.approx_size() > 0);
    }

    /// Global keys render and reparse losslessly for arbitrary segment text.
    #[test]
    fn global_key_roundtrip(db in "[a-z0-9_]{1,10}", c in "[a-z0-9_]{1,10}", k in "[a-z0-9_:.\\-]{1,16}") {
        prop_assume!(!k.is_empty());
        let gk = GlobalKey::parse_parts(&db, &c, &k).unwrap();
        let reparsed: GlobalKey = gk.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, gk);
    }

    /// Probability `and` stays in (0,1] and is commutative & associative.
    #[test]
    fn probability_and_algebra(a in 0.0001f64..=1.0, b in 0.0001f64..=1.0, c in 0.0001f64..=1.0) {
        let (pa, pb, pc) = (Probability::of(a), Probability::of(b), Probability::of(c));
        let ab = pa.and(pb);
        prop_assert!(ab.get() > 0.0 && ab.get() <= 1.0);
        prop_assert_eq!(ab, pb.and(pa));
        let assoc_l = pa.and(pb).and(pc).get();
        let assoc_r = pa.and(pb.and(pc)).get();
        prop_assert!((assoc_l - assoc_r).abs() < 1e-12);
        // `and` never increases probability.
        prop_assert!(ab.get() <= pa.get() + 1e-15);
        prop_assert!(ab.get() <= pb.get() + 1e-15);
    }

    /// The average of probabilities is bounded by min and max.
    #[test]
    fn probability_average_bounds(ps in prop::collection::vec(0.001f64..=1.0, 1..10)) {
        let probs: Vec<_> = ps.iter().map(|&p| Probability::of(p)).collect();
        let avg = Probability::average_of(probs.iter().copied()).unwrap();
        let min = probs.iter().copied().min().unwrap();
        let max = probs.iter().copied().max().unwrap();
        prop_assert!(avg >= min && avg <= max);
    }
}
