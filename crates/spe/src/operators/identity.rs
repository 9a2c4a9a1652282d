//! The `Identity` operator, used for stream merging (`Union`).

use crate::operator::UnaryOperator;

/// Forwards every input unchanged.
///
/// A `Union` node is an `Identity` operator with several inputs: the
/// node's inbox already merges items and the worker tracks the minimum
/// watermark across inputs, so merging requires no operator logic at
/// all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Identity {
    /// Creates the identity operator.
    pub fn new() -> Self {
        Identity
    }
}

impl<T: Send> UnaryOperator<T, T> for Identity {
    fn on_item(&mut self, item: T, out: &mut Vec<T>) {
        out.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_unchanged() {
        let mut out = Vec::new();
        Identity::new().on_item("x", &mut out);
        assert_eq!(out, vec!["x"]);
    }
}
