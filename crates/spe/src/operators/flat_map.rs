//! The stateless `FlatMap` operator: zero or more outputs per input.

use crate::operator::UnaryOperator;

/// Produces an arbitrary number of output tuples per input tuple —
/// the general form of the paper's `Map` (§2: "produces an arbitrary
/// number of output tuples for each input tuple").
///
/// STRATA's `partition` and `detectEvent` methods compile to this
/// operator. It is the engine primitive behind
/// [`QueryBuilder::flat_map`](crate::builder::QueryBuilder::flat_map).
#[derive(Debug, Clone)]
pub struct FlatMap<F> {
    f: F,
}

impl<F> FlatMap<F> {
    /// Wraps the expansion function `f`.
    pub fn new(f: F) -> Self {
        FlatMap { f }
    }
}

impl<I, O, II, F> UnaryOperator<I, O> for FlatMap<F>
where
    F: FnMut(I) -> II + Send,
    II: IntoIterator<Item = O>,
{
    /// Into an empty `out` the expansion is moved rather than copied:
    /// collecting a `Vec`'s iterator into a `Vec` reuses its buffer, so
    /// a stage that expands one item into thousands hands them on
    /// without touching them.
    fn on_item(&mut self, item: I, out: &mut Vec<O>) {
        let outputs = (self.f)(item);
        if out.is_empty() {
            *out = outputs.into_iter().collect();
        } else {
            out.extend(outputs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_each_input() {
        let mut op = FlatMap::new(|x: i32| vec![x, x + 1]);
        let mut out = Vec::new();
        op.on_item(10, &mut out);
        assert_eq!(out, vec![10, 11]);
    }

    #[test]
    fn can_drop_inputs() {
        let mut op = FlatMap::new(|x: i32| if x > 0 { vec![x] } else { vec![] });
        let mut out = Vec::new();
        op.on_item(-1, &mut out);
        op.on_item(3, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn accepts_any_intoiterator() {
        let mut op = FlatMap::new(|x: i32| Some(x * 2));
        let mut out = Vec::new();
        op.on_item(4, &mut out);
        assert_eq!(out, vec![8]);
    }
}
