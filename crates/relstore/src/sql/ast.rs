//! The SQL abstract syntax tree.

use quepa_pdm::ordered::{Cmp, Sarg};
use quepa_pdm::Value;

/// A literal value in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// `TRUE` / `FALSE`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
}

impl Literal {
    /// Converts the literal into a PDM value.
    pub fn to_value(&self) -> Value {
        match self {
            Literal::Null => Value::Null,
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(f) => Value::Float(*f),
            Literal::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Binary operators in `WHERE` expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `LIKE`
    Like,
}

/// A boolean/scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(String),
    /// Literal.
    Literal(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`
    Not(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL` (negated = the NOT form).
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (lit, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The literal list.
        list: Vec<Literal>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive).
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Literal,
        /// Upper bound.
        high: Literal,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
}

impl Expr {
    /// Collects the names of all columns referenced by the expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::InList { expr, .. } => expr.referenced_columns(out),
            Expr::Between { expr, .. } => expr.referenced_columns(out),
        }
    }

    /// Collects, from the top-level `AND` chain of the expression, every
    /// conjunct an ordered index can answer: `column op literal` with `op`
    /// one of `= < <= > >=` (either operand order) and `column BETWEEN low
    /// AND high`. Everything else — `OR`, `NOT`, `LIKE`, `IN`, `!=` — is
    /// skipped: it stays in the predicate, it just offers no bound.
    pub fn conjunct_bounds<'a>(&'a self, out: &mut Vec<Sarg<'a>>) {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                left.conjunct_bounds(out);
                right.conjunct_bounds(out);
            }
            Expr::Binary { op, left, right } => {
                let cmp = match op {
                    BinOp::Eq => Cmp::Eq,
                    BinOp::Lt => Cmp::Lt,
                    BinOp::Le => Cmp::Le,
                    BinOp::Gt => Cmp::Gt,
                    BinOp::Ge => Cmp::Ge,
                    _ => return,
                };
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), Expr::Literal(l)) => {
                        out.push(Sarg { field: c, op: cmp, literal: l.to_value() });
                    }
                    (Expr::Literal(l), Expr::Column(c)) => {
                        out.push(Sarg { field: c, op: cmp.flipped(), literal: l.to_value() });
                    }
                    _ => {}
                }
            }
            Expr::Between { expr, low, high, negated: false } => {
                if let Expr::Column(c) = expr.as_ref() {
                    out.push(Sarg { field: c, op: Cmp::Ge, literal: low.to_value() });
                    out.push(Sarg { field: c, op: Cmp::Le, literal: high.to_value() });
                }
            }
            _ => {}
        }
    }
}

/// Aggregate functions (whole-table only in this subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

impl AggFunc {
    /// Parses an aggregate-function name, case-insensitively.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// An item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A plain column.
    Column(String),
    /// An aggregate call; `None` argument means `COUNT(*)`.
    Aggregate(AggFunc, Option<String>),
}

/// Sort direction in `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderDir {
    /// Ascending (the default).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

/// A parsed `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The select list.
    pub items: Vec<SelectItem>,
    /// The table queried.
    pub table: String,
    /// Optional `WHERE` clause.
    pub filter: Option<Expr>,
    /// Optional `ORDER BY col dir`.
    pub order_by: Option<(String, OrderDir)>,
    /// Optional `LIMIT`.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// True if the select list contains any aggregate function. Aggregated
    /// queries cannot be augmented (paper §III-A, the Validator).
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(|i| matches!(i, SelectItem::Aggregate(..)))
    }

    /// True if the select list is exactly `*`.
    pub fn is_wildcard(&self) -> bool {
        self.items.len() == 1 && matches!(self.items[0], SelectItem::Wildcard)
    }
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT`.
    Select(SelectStmt),
    /// `INSERT INTO table VALUES (…)`, possibly multiple rows.
    Insert {
        /// Target table.
        table: String,
        /// One literal list per row.
        rows: Vec<Vec<Literal>>,
    },
    /// `DELETE FROM table [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter (absent = delete all).
        filter: Option<Expr>,
    },
    /// `UPDATE table SET col = lit, … [WHERE expr]`.
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        sets: Vec<(String, Literal)>,
        /// Optional filter (absent = update all).
        filter: Option<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    fn bounds(e: &Expr) -> Vec<(String, Cmp, Value)> {
        let mut out = Vec::new();
        e.conjunct_bounds(&mut out);
        out.into_iter().map(|s| (s.field.to_owned(), s.op, s.literal)).collect()
    }

    #[test]
    fn conjunct_bounds_both_orders() {
        let col = |c: &str| Expr::Column(c.into());
        let int = |i| Expr::Literal(Literal::Int(i));
        let between = |negated| Expr::Between {
            expr: Box::new(col("m")),
            low: Literal::Int(1),
            high: Literal::Int(2),
            negated,
        };
        let eq = cmp(BinOp::Eq, col("id"), Expr::Literal(Literal::Str("a32".into())));
        assert_eq!(bounds(&eq), vec![("id".to_owned(), Cmp::Eq, Value::str("a32"))]);
        // `3 < n` bounds n from below.
        let flipped = cmp(BinOp::Lt, int(3), col("n"));
        assert_eq!(bounds(&flipped), vec![("n".to_owned(), Cmp::Gt, Value::Int(3))]);
        // An AND chain yields each usable conjunct; BETWEEN yields two;
        // LIKE, != and anything under OR or NOT yield none.
        let like = cmp(BinOp::Like, col("s"), Expr::Literal(Literal::Str("%x%".into())));
        let or = cmp(BinOp::Or, cmp(BinOp::Eq, col("a"), int(1)), cmp(BinOp::Eq, col("b"), int(2)));
        let not = Expr::Not(Box::new(cmp(BinOp::Eq, col("c"), int(1))));
        let ne = cmp(BinOp::Ne, col("d"), int(1));
        let chain = [between(false), like, or, not, ne]
            .into_iter()
            .fold(cmp(BinOp::Ge, col("n"), int(5)), |acc, e| cmp(BinOp::And, acc, e));
        let fields: Vec<_> = bounds(&chain).into_iter().map(|(f, op, _)| (f, op)).collect();
        assert_eq!(
            fields,
            vec![("n".to_owned(), Cmp::Ge), ("m".to_owned(), Cmp::Ge), ("m".to_owned(), Cmp::Le)]
        );
        assert!(bounds(&between(true)).is_empty(), "NOT BETWEEN offers nothing");
    }

    #[test]
    fn referenced_columns_walks_tree() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(Expr::Not(Box::new(Expr::Column("a".into())))),
            right: Box::new(Expr::IsNull {
                expr: Box::new(Expr::Column("b".into())),
                negated: true,
            }),
        };
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn aggregate_names() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("Sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
