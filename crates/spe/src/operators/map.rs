//! The stateless `Map` operator: one output per input.

use crate::operator::UnaryOperator;

/// Applies a function to every input tuple, producing exactly one
/// output tuple per input.
///
/// This is the engine primitive behind
/// [`QueryBuilder::map`](crate::builder::QueryBuilder::map).
#[derive(Debug, Clone)]
pub struct Map<F> {
    f: F,
}

impl<F> Map<F> {
    /// Wraps the mapping function `f`.
    pub fn new(f: F) -> Self {
        Map { f }
    }
}

impl<I, O, F> UnaryOperator<I, O> for Map<F>
where
    F: FnMut(I) -> O + Send,
{
    fn on_item(&mut self, item: I, out: &mut Vec<O>) {
        out.push((self.f)(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_one_to_one() {
        let mut op = Map::new(|x: i32| x * 3);
        let mut out = Vec::new();
        op.on_item(2, &mut out);
        op.on_item(5, &mut out);
        assert_eq!(out, vec![6, 15]);
    }

    #[test]
    fn can_change_type() {
        let mut op = Map::new(|x: i32| x.to_string());
        let mut out = Vec::new();
        op.on_item(7, &mut out);
        assert_eq!(out, vec!["7".to_string()]);
    }
}
