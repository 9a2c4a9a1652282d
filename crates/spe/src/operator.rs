//! The operator trait implemented by the engine's native operators and
//! available for custom user operators.

use crate::time::Timestamp;

/// An operator transforming items of type `I` into items of type `O`.
///
/// Every non-source node runs one: maps, filters, aggregates, unions,
/// joins (over [`JoinInput`](crate::operators::JoinInput)-tagged items)
/// and sinks (which emit nothing). The engine calls the hooks from the
/// one thread that runs the node — its own, or for a chained instance
/// its upstream's — in arrival order, so implementations never need
/// internal synchronization:
///
/// * [`on_batch`](UnaryOperator::on_batch) for every micro-batch of
///   data tuples (a single tuple is a batch of one); the default loops
///   over [`on_item`](UnaryOperator::on_item);
/// * [`on_watermark`](UnaryOperator::on_watermark) whenever the
///   *combined* (minimum across inputs) watermark advances — stateful
///   operators close windows here;
/// * [`on_end`](UnaryOperator::on_end) exactly once, after all inputs
///   reached end-of-stream — stateful operators flush here.
///
/// Outputs are appended to `out`; the worker broadcasts them to all
/// downstream nodes after the hook returns.
pub trait UnaryOperator<I, O>: Send {
    /// Processes one input tuple, appending any number of outputs.
    fn on_item(&mut self, item: I, out: &mut Vec<O>);

    /// Processes a micro-batch of input tuples in inbox order. The
    /// default simply loops over [`on_item`](UnaryOperator::on_item);
    /// stateless operators override it to amortize per-item dispatch.
    /// Implementations must be observationally equivalent to the
    /// item-at-a-time loop: a node whose consumer is chained calls
    /// [`on_item`](UnaryOperator::on_item) instead.
    fn on_batch(&mut self, items: Vec<I>, out: &mut Vec<O>) {
        for item in items {
            self.on_item(item, out);
        }
    }

    /// Reacts to event-time progress. The default forwards nothing
    /// (the worker itself propagates the watermark downstream).
    fn on_watermark(&mut self, watermark: Timestamp, out: &mut Vec<O>) {
        let _ = (watermark, out);
    }

    /// Flushes remaining state at end-of-stream. The default does
    /// nothing.
    fn on_end(&mut self, out: &mut Vec<O>) {
        let _ = out;
    }
}

/// Blanket adapter: any `FnMut(I, &mut Vec<O>)` closure is a stateless
/// unary operator.
impl<I, O, F> UnaryOperator<I, O> for F
where
    F: FnMut(I, &mut Vec<O>) + Send,
{
    fn on_item(&mut self, item: I, out: &mut Vec<O>) {
        self(item, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_unary_operators() {
        let mut op = |x: u32, out: &mut Vec<u32>| out.push(x + 1);
        let mut out = Vec::new();
        UnaryOperator::on_item(&mut op, 1, &mut out);
        UnaryOperator::on_watermark(&mut op, Timestamp::from_millis(5), &mut out);
        UnaryOperator::on_end(&mut op, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn default_hooks_emit_nothing() {
        struct Nop;
        impl UnaryOperator<u8, u8> for Nop {
            fn on_item(&mut self, _item: u8, _out: &mut Vec<u8>) {}
        }
        let mut out = Vec::new();
        Nop.on_watermark(Timestamp::MIN, &mut out);
        Nop.on_end(&mut out);
        assert!(out.is_empty());
    }
}
