//! Row representation; the orderable wrapper over PDM values is
//! [`quepa_pdm::OrdValue`], re-exported here.

use quepa_pdm::Value;

/// A stored row: one value per column, positionally aligned with the table
/// schema.
pub type Row = Vec<Value>;

pub use quepa_pdm::OrdValue;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    #[test]
    fn ord_value_usable_as_btree_key() {
        let mut m: BTreeMap<OrdValue, usize> = BTreeMap::new();
        m.insert(OrdValue(Value::Int(3)), 1);
        m.insert(OrdValue(Value::str("x")), 2);
        m.insert(OrdValue(Value::Float(2.5)), 3);
        // Int(3) and Float(2.5) are comparable; string sorts after numerics.
        let keys: Vec<_> = m.keys().cloned().collect();
        assert_eq!(keys[0], OrdValue(Value::Float(2.5)));
        assert_eq!(keys[1], OrdValue(Value::Int(3)));
        assert_eq!(keys[2], OrdValue(Value::str("x")));
    }

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(OrdValue(Value::Int(2)).cmp(&OrdValue(Value::Float(2.0))), Ordering::Equal);
    }
}
