//! Fuzz corpus for the document filter compiler.
//!
//! Properties, mirroring the SQL fuzz suite:
//!
//! 1. **No panics**: `Filter::compile` classifies arbitrary values
//!    (including deeply nested arrays/objects, `$`-keyed operator soup
//!    and type-confused operands) into `Ok`/`Err` without panicking, and
//!    `matches` never panics on any compiled-filter × document pair.
//! 2. **Round trip**: `compile(&f.to_spec()) == f` — checked both for
//!    generated filter ASTs and for every arbitrary value that happens to
//!    compile.
//!
//! The vendored proptest has no shrinking and therefore no
//! `proptest-regressions` corpus files; failures print the generated
//! input and deterministic case number instead (see DESIGN.md).

use proptest::prelude::*;
use quepa_docstore::{FieldOp, Filter};
use quepa_pdm::Value;

/// Arbitrary values, biased toward filter-looking shapes: plenty of `$op`
/// keys, operator operands of the wrong type, and nesting.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100_000i64..100_000).prop_map(|n| Value::Float(n as f64 / 100.0)),
        "[a-c%_]{0,5}".prop_map(Value::str),
    ];
    let key = prop_oneof![
        "[a-c_.]{1,6}".prop_map(|s| s),
        Just("$eq".to_string()),
        Just("$ne".to_string()),
        Just("$gt".to_string()),
        Just("$gte".to_string()),
        Just("$lt".to_string()),
        Just("$lte".to_string()),
        Just("$in".to_string()),
        Just("$exists".to_string()),
        Just("$like".to_string()),
        Just("$contains".to_string()),
        Just("$prefix".to_string()),
        Just("$and".to_string()),
        Just("$or".to_string()),
        Just("$not".to_string()),
        Just("$bogus".to_string()),
    ];
    leaf.prop_recursive(4, 48, 4, move |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map(key.clone(), inner, 0..4)
                .prop_map(|m| Value::Object(m.into())),
        ]
    })
}

fn arb_field_op() -> impl Strategy<Value = FieldOp> {
    let operand = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        "[a-c%_]{0,5}".prop_map(Value::str),
        // Equality against an all-`$`-keys object: the case the explicit
        // `$eq` spec form exists for.
        Just(Value::object([("$gt", Value::Int(1))])),
    ];
    prop_oneof![
        operand.clone().prop_map(FieldOp::Eq),
        operand.clone().prop_map(FieldOp::Ne),
        operand.clone().prop_map(FieldOp::Gt),
        operand.clone().prop_map(FieldOp::Gte),
        operand.clone().prop_map(FieldOp::Lt),
        operand.clone().prop_map(FieldOp::Lte),
        prop::collection::vec(operand, 0..4).prop_map(FieldOp::In),
        any::<bool>().prop_map(FieldOp::Exists),
        "[a-c%_]{0,6}".prop_map(FieldOp::Like),
        "[a-c]{0,4}".prop_map(FieldOp::Contains),
        "[a-c]{0,4}".prop_map(FieldOp::Prefix),
    ]
}

/// Filter ASTs within the `to_spec` contract: no `$`-prefixed paths, no
/// empty `And`/`Or` (neither is producible by `compile`).
fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::All),
        ("[a-c_.]{1,6}", arb_field_op()).prop_map(|(path, op)| Filter::Field { path, op }),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compilation classifies, never panics — and whatever compiles must
    /// survive the spec round trip and match documents without panicking.
    #[test]
    fn arbitrary_values_compile_or_reject_and_round_trip(spec in arb_value(), doc in arb_value()) {
        if let Ok(filter) = Filter::compile(&spec) {
            let respec = filter.to_spec();
            let recompiled = Filter::compile(&respec);
            prop_assert!(recompiled.is_ok(), "spec form {respec} of {spec} fails to compile");
            prop_assert_eq!(&filter, &recompiled.unwrap(), "round trip changed filter of {}", spec);
            let _ = filter.matches(&doc);
        }
    }

    /// Generated filter ASTs round-trip through their spec form exactly.
    #[test]
    fn generated_filters_round_trip_through_to_spec(filter in arb_filter(), doc in arb_value()) {
        let spec = filter.to_spec();
        let recompiled = Filter::compile(&spec);
        prop_assert!(recompiled.is_ok(), "spec {spec} fails to compile");
        prop_assert_eq!(&filter, &recompiled.unwrap(), "round trip changed filter via {}", spec);
        let _ = filter.matches(&doc);
    }
}
