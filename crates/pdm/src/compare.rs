//! The comparison rules every store engine's filter shares: numeric-aware
//! equality, the type-bracketed range test and SQL `LIKE`. The canonical
//! [`Pushdown`](crate::Pushdown) evaluator and the relational, document
//! and graph engines all call these, so a pushed filter means the same
//! thing in every store.

use std::cmp::Ordering;

use crate::Value;

/// Numeric-aware equality: ints equal floats with the same magnitude,
/// everything else compares structurally.
#[inline]
pub fn value_eq(a: &Value, b: &Value) -> bool {
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return x == y;
    }
    a == b
}

/// Whether `field` is present and `pred` holds for its order against
/// `literal`. Range comparisons only apply between two numerics or two
/// strings; mismatched types never match (Mongo's BSON type-bracketing,
/// simplified).
#[inline]
pub fn range_match(
    field: Option<&Value>,
    literal: &Value,
    pred: impl Fn(Ordering) -> bool,
) -> bool {
    field.is_some_and(|f| {
        let comparable = (f.as_f64().is_some() && literal.as_f64().is_some())
            || (f.as_str().is_some() && literal.as_str().is_some());
        comparable && pred(f.total_cmp(literal))
    })
}

/// SQL `LIKE`: `%` matches any sequence (including empty), `_` matches one
/// character. Matching is case-insensitive, mirroring MySQL's default
/// collation — which is what makes the paper's `'%wish%'` query find
/// `"Wish"`.
#[inline]
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().flat_map(|c| c.to_lowercase()).collect();
    let t: Vec<char> = text.chars().flat_map(|c| c.to_lowercase()).collect();
    // Iterative two-pointer algorithm with backtracking on the last `%`,
    // O(|p|·|t|) worst case and O(1) extra space.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last % absorb one more character.
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}
