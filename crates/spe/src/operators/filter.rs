//! The stateless `Filter` operator: forward or discard.

use crate::operator::UnaryOperator;

/// Forwards a tuple when the predicate holds and discards it
/// otherwise (§2 of the STRATA paper).
///
/// This is the engine primitive behind
/// [`QueryBuilder::filter`](crate::builder::QueryBuilder::filter).
#[derive(Debug, Clone)]
pub struct Filter<P> {
    predicate: P,
}

impl<P> Filter<P> {
    /// Wraps the predicate `predicate`.
    pub fn new(predicate: P) -> Self {
        Filter { predicate }
    }
}

impl<T, P> UnaryOperator<T, T> for Filter<P>
where
    P: FnMut(&T) -> bool + Send,
{
    fn on_item(&mut self, item: T, out: &mut Vec<T>) {
        if (self.predicate)(&item) {
            out.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_matching_items_only() {
        let mut op = Filter::new(|x: &i32| *x % 2 == 0);
        let mut out = Vec::new();
        for x in 0..6 {
            op.on_item(x, &mut out);
        }
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn stateful_predicates_are_allowed() {
        let mut seen = 0;
        let mut op = Filter::new(move |_: &i32| {
            seen += 1;
            seen <= 2
        });
        let mut out = Vec::new();
        for x in 10..15 {
            op.on_item(x, &mut out);
        }
        assert_eq!(out, vec![10, 11]);
    }
}
