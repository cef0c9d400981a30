//! Expression evaluation over rows, with SQL three-valued logic reduced to
//! two values (NULL comparisons evaluate to false, as in most engines'
//! final WHERE semantics) and SQL `LIKE` pattern matching.

use quepa_pdm::compare::{like_match, value_eq};
use quepa_pdm::Value;

use crate::error::{RelError, Result};
use crate::sql::ast::{BinOp, Expr};

/// Something that can resolve column names to values (a row bound to its
/// schema, a document, …).
pub trait ColumnSource {
    /// The value of the named column, or `None` if the column is unknown.
    fn column(&self, name: &str) -> Option<&Value>;
}

impl ColumnSource for quepa_pdm::Fields {
    fn column(&self, name: &str) -> Option<&Value> {
        self.get(name)
    }
}

/// Evaluates a predicate expression to a boolean over `src`.
///
/// Unknown columns are an error (the engine resolves them against the
/// schema before evaluation); comparisons involving `NULL` are false.
pub fn eval_predicate<S: ColumnSource>(expr: &Expr, src: &S) -> Result<bool> {
    Ok(truthy(&eval(expr, src)?))
}

/// Evaluates an expression to a value.
pub fn eval<S: ColumnSource>(expr: &Expr, src: &S) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            src.column(name).cloned().ok_or_else(|| RelError::UnknownColumn(name.clone()))
        }
        Expr::Literal(l) => Ok(l.to_value()),
        Expr::Not(e) => Ok(Value::Bool(!truthy(&eval(e, src)?))),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, src)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, src)?;
            if v.is_null() {
                return Ok(Value::Bool(false));
            }
            let found = list.iter().any(|l| value_eq(&v, &l.to_value()));
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, src)?;
            let (lo, hi) = (low.to_value(), high.to_value());
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Bool(false));
            }
            let inside = v.total_cmp(&lo).is_ge() && v.total_cmp(&hi).is_le();
            Ok(Value::Bool(inside != *negated))
        }
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => {
                    // Short-circuit.
                    if !truthy(&eval(left, src)?) {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(truthy(&eval(right, src)?)))
                }
                BinOp::Or => {
                    if truthy(&eval(left, src)?) {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(truthy(&eval(right, src)?)))
                }
                _ => {
                    let l = eval(left, src)?;
                    let r = eval(right, src)?;
                    eval_comparison(*op, &l, &r)
                }
            }
        }
    }
}

fn eval_comparison(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // SQL semantics: any comparison with NULL is not-true.
    if l.is_null() || r.is_null() {
        return Ok(Value::Bool(false));
    }
    let b = match op {
        BinOp::Eq => value_eq(l, r),
        BinOp::Ne => !value_eq(l, r),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = l.total_cmp(r);
            match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            }
        }
        BinOp::Like => {
            let (Some(text), Some(pattern)) = (l.as_str(), r.as_str()) else {
                return Err(RelError::Eval(format!(
                    "LIKE requires strings, found {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            };
            like_match(pattern, text)
        }
        BinOp::And | BinOp::Or => unreachable!("handled by eval"),
    };
    Ok(Value::Bool(b))
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use quepa_pdm::Fields;

    fn row(pairs: &[(&str, Value)]) -> Fields {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn filter_of(sql: &str) -> Expr {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s.filter.unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("%wish%", "Wish"));
        assert!(like_match("wish", "WISH"));
        assert!(like_match("w_sh", "wish"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(!like_match("w_sh", "wiish"));
        assert!(like_match("%cure%wish%", "the cure - wish - 1992"));
        assert!(!like_match("%cure%wish%", "wish by the cure"));
        assert!(like_match("a%", "a"));
        assert!(!like_match("a%b", "a"));
        assert!(like_match("%%%a", "a"));
        assert!(like_match("é%", "Était"));
    }

    #[test]
    fn comparisons() {
        let r = row(&[("total", Value::Float(19.5)), ("name", Value::str("Wish"))]);
        let f = filter_of("SELECT * FROM t WHERE total > 15");
        assert!(eval_predicate(&f, &r).unwrap());
        let f = filter_of("SELECT * FROM t WHERE total > 20");
        assert!(!eval_predicate(&f, &r).unwrap());
        let f = filter_of("SELECT * FROM t WHERE name = 'Wish' AND total <= 19.5");
        assert!(eval_predicate(&f, &r).unwrap());
        let f = filter_of("SELECT * FROM t WHERE name != 'Wish' OR total >= 19");
        assert!(eval_predicate(&f, &r).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = row(&[("x", Value::Null)]);
        for sql in [
            "SELECT * FROM t WHERE x = 1",
            "SELECT * FROM t WHERE x != 1",
            "SELECT * FROM t WHERE x < 1",
        ] {
            assert!(!eval_predicate(&filter_of(sql), &r).unwrap(), "{sql}");
        }
        assert!(eval_predicate(&filter_of("SELECT * FROM t WHERE x IS NULL"), &r).unwrap());
        assert!(!eval_predicate(&filter_of("SELECT * FROM t WHERE x IS NOT NULL"), &r).unwrap());
    }

    #[test]
    fn int_float_equality() {
        let r = row(&[("n", Value::Int(3))]);
        assert!(eval_predicate(&filter_of("SELECT * FROM t WHERE n = 3.0"), &r).unwrap());
    }

    #[test]
    fn unknown_column_is_error() {
        let r = row(&[]);
        let e = eval_predicate(&filter_of("SELECT * FROM t WHERE ghost = 1"), &r);
        assert_eq!(e, Err(RelError::UnknownColumn("ghost".into())));
    }

    #[test]
    fn like_type_error() {
        let r = row(&[("n", Value::Int(3))]);
        assert!(matches!(
            eval_predicate(&filter_of("SELECT * FROM t WHERE n LIKE 'x'"), &r),
            Err(RelError::Eval(_))
        ));
    }

    #[test]
    fn not_and_nested() {
        let r = row(&[("a", Value::Int(1)), ("b", Value::Int(2))]);
        let f = filter_of("SELECT * FROM t WHERE NOT (a = 1 AND b = 3)");
        assert!(eval_predicate(&f, &r).unwrap());
        let f = filter_of("SELECT * FROM t WHERE NOT a = 1");
        assert!(!eval_predicate(&f, &r).unwrap());
    }
}
