//! The two worker loops — one per node, one per source — and the
//! plumbing between them: one inbox per node, watermark merging across
//! inputs, broadcast fan-out, cooperative termination.
//!
//! # One inbox, one loop
//!
//! Every non-source node owns a single bounded inbox of
//! `(input, Element)` pairs. Each upstream node holds one [`Outlet`] per
//! consumer: the consumer's inbox sender plus the index of the input it
//! feeds — or, for a parallel stage, one sender per instance and a
//! router that picks an instance per item. One generic loop,
//! [`run_node`], drives every node kind: unary operators, unions, joins
//! (a unary operator over left/right-tagged items), parallel instances
//! and sinks (operators without outlets).
//!
//! Data is always a [`Batch`]; a single item is a batch of one. Each
//! wakeup drains up to `max_batch` buffered items, invokes the operator
//! once over the whole batch, and forwards the outputs as shared
//! batches of at most `max_batch` items. Watermarks and end-of-stream
//! are always batch boundaries — a control marker found mid-drain is
//! set aside and processed on the next iteration, after the data
//! before it.
//!
//! Broadcast fan-out never clones for the sole (or last) consumer: the
//! original element is moved into the final send, and batches are
//! reference-counted so the extra N−1 sends bump an `Arc` instead of
//! copying items.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::element::{Batch, Element};
use crate::error::Error;
use crate::metrics::NodeMetrics;
use crate::operator::UnaryOperator;
use crate::operators::router::Router;
use crate::source::{Source, SourceContext};
use crate::time::Timestamp;

/// What a node's inbox carries: the index of the input an element
/// arrived on, and the element.
pub(crate) type Inbound<T> = (usize, Element<T>);

/// The sending end of one input of a downstream stage: the inbox of
/// each of its instances (one, unless the stage is parallel) plus the
/// input index, and the conversion into the inbox's element type (the
/// identity everywhere except on the two sides of a join). Into a
/// parallel stage a [`Router`] picks each item's instance, in arrival
/// order, so routing is the same at every batch size; watermarks and
/// end-of-stream reach every instance.
///
/// Dropping an outlet sends `End` on its input. A node therefore closes
/// its outputs by returning — whether it finished, lost its consumers
/// or panicked — and every input of a downstream node closes exactly
/// once, just as a disconnected channel would.
pub(crate) struct Outlet<T> {
    inboxes: Vec<Box<dyn Fn(Element<T>) -> bool + Send>>,
    router: Option<Router<T>>,
}

impl<T: 'static> Outlet<T> {
    /// An outlet feeding input `input` of every inbox in `inboxes`;
    /// `router` picks among them, and is `None` for a single inbox.
    pub(crate) fn new<X: Send + Sync + 'static>(
        inboxes: &[Sender<Inbound<X>>],
        input: usize,
        wrap: fn(Element<T>) -> Element<X>,
        router: Option<Router<T>>,
    ) -> Self {
        let inboxes = inboxes
            .iter()
            .map(|inbox| {
                let inbox = inbox.clone();
                Box::new(move |element| inbox.send((input, wrap(element))).is_ok()) as Box<_>
            })
            .collect();
        Outlet { inboxes, router }
    }
}

impl<T: Clone> Outlet<T> {
    /// Sends `element`; `false` once an inbox it sent to is gone. A
    /// gone instance does not stop the others from getting their share.
    fn send(&mut self, element: Element<T>) -> bool {
        let mut ok = true;
        match (&mut self.router, element) {
            (Some(router), Element::Batch(batch)) => {
                let mut split: Vec<Vec<T>> = self.inboxes.iter().map(|_| Vec::new()).collect();
                for item in batch.into_vec() {
                    split[router.route(&item)].push(item);
                }
                for (items, send) in split.into_iter().zip(&self.inboxes) {
                    if !items.is_empty() {
                        ok &= send(Element::Batch(Batch::new(items)));
                    }
                }
            }
            (_, element) => {
                let (last, rest) = self.inboxes.split_last().expect("an outlet feeds an inbox");
                for send in rest {
                    ok &= send(element.clone());
                }
                ok &= last(element);
            }
        }
        ok
    }
}

impl<T> Drop for Outlet<T> {
    fn drop(&mut self) {
        for send in &self.inboxes {
            send(Element::End);
        }
    }
}

impl<T> std::fmt::Debug for Outlet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outlet").finish_non_exhaustive()
    }
}

/// Sends `element` to every outlet of a node: a clone to the first
/// N−1, the original — by move — into the last, so the sole consumer
/// of a stream never pays for a clone. Returns `false` when the node
/// has outlets and none accepted (its consumers are gone); a stream
/// nobody consumes never fails.
pub(crate) fn broadcast<T: Clone>(outlets: &mut [Outlet<T>], element: Element<T>) -> bool {
    let Some((last, rest)) = outlets.split_last_mut() else {
        return true;
    };
    let mut alive = false;
    for outlet in rest {
        alive |= outlet.send(element.clone());
    }
    last.send(element) || alive
}

/// Sends a wakeup's outputs downstream as shared batches of at most
/// `max_batch` items, and records them. The items are moved into their
/// chunks, so a flush costs O(items) whatever the number of chunks.
/// Returns `false` when the node's consumers are gone.
fn flush<O: Clone>(
    out: &mut Vec<O>,
    outlets: &mut [Outlet<O>],
    metrics: &NodeMetrics,
    max_batch: usize,
) -> bool {
    if out.is_empty() {
        return true;
    }
    metrics.record_out(out.len() as u64);
    let items = std::mem::take(out);
    if items.len() <= max_batch {
        return broadcast(outlets, Element::Batch(Batch::new(items)));
    }
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<O> = items.by_ref().take(max_batch).collect();
        if chunk.is_empty() {
            return true;
        }
        if !broadcast(outlets, Element::Batch(Batch::new(chunk))) {
            return false;
        }
    }
}

/// Tracks the watermark of each input and exposes the combined
/// (minimum) watermark across the inputs that are still open. A closed
/// input no longer constrains progress.
#[derive(Debug)]
pub(crate) struct WatermarkMerge {
    per_input: Vec<Timestamp>,
    closed: Vec<bool>,
    combined: Timestamp,
}

impl WatermarkMerge {
    pub(crate) fn new(inputs: usize) -> Self {
        WatermarkMerge {
            per_input: vec![Timestamp::MIN; inputs],
            closed: vec![false; inputs],
            combined: Timestamp::MIN,
        }
    }

    /// Records a watermark on `input`; returns the new combined
    /// watermark if it advanced.
    pub(crate) fn advance(&mut self, input: usize, watermark: Timestamp) -> Option<Timestamp> {
        if watermark > self.per_input[input] {
            self.per_input[input] = watermark;
        }
        self.recompute()
    }

    /// Marks `input` as closed; returns the new combined watermark if
    /// closing it unblocked progress.
    pub(crate) fn close(&mut self, input: usize) -> Option<Timestamp> {
        self.closed[input] = true;
        self.recompute()
    }

    pub(crate) fn all_closed(&self) -> bool {
        self.closed.iter().all(|&c| c)
    }

    fn recompute(&mut self) -> Option<Timestamp> {
        let min = self
            .per_input
            .iter()
            .zip(&self.closed)
            .filter(|(_, &closed)| !closed)
            .map(|(&wm, _)| wm)
            .min()
            .unwrap_or(Timestamp::MAX);
        if min > self.combined {
            self.combined = min;
            Some(min)
        } else {
            None
        }
    }
}

/// Starting from the batch that woke the node, drains the inbox without
/// blocking until `max_batch` items are buffered, the inbox runs dry, or
/// a control marker appears. The marker, if any, is returned so the
/// caller processes it *after* the data that preceded it — keeping
/// watermarks and end-of-stream exact batch boundaries.
fn drain<T: Clone>(
    first: Batch<T>,
    inbox: &Receiver<Inbound<T>>,
    max_batch: usize,
) -> (Vec<T>, Option<Inbound<T>>) {
    let mut items = first.into_vec();
    while items.len() < max_batch {
        match inbox.try_recv() {
            Ok((_, Element::Batch(more))) => items.extend(more.into_vec()),
            Ok(marker) => return (items, Some(marker)),
            Err(_) => break,
        }
    }
    (items, None)
}

/// The worker loop of every non-source node. `inputs` is the number of
/// upstream outlets feeding `inbox`; the node ends once each of them
/// has sent `End`, and returns early when a send finds its consumers
/// gone. Returning drops `outlets`, which ends every downstream input
/// this node feeds.
pub(crate) fn run_node<I, O, Op>(
    mut op: Op,
    inbox: Receiver<Inbound<I>>,
    inputs: usize,
    mut outlets: Vec<Outlet<O>>,
    metrics: Arc<NodeMetrics>,
    max_batch: usize,
) where
    I: Clone,
    O: Clone,
    Op: UnaryOperator<I, O>,
{
    let mut merge = WatermarkMerge::new(inputs);
    let mut out: Vec<O> = Vec::new();
    let mut pending: Option<Inbound<I>> = None;
    loop {
        let (input, element) = match pending.take() {
            Some(inbound) => inbound,
            None => match inbox.recv() {
                Ok(inbound) => inbound,
                // Every outlet sends `End` before it goes, so all inputs
                // have closed before the inbox can disconnect.
                Err(_) => break,
            },
        };
        let watermark = match element {
            Element::Batch(batch) => {
                let (items, marker) = drain(batch, &inbox, max_batch);
                pending = marker;
                metrics.record_in(items.len() as u64);
                metrics.record_batch(items.len() as u64);
                metrics.record_queue_depth(inbox.len() as u64);
                // Time the operator callbacks only: send-side
                // backpressure in `flush` is queueing, not processing,
                // and would drown the signal.
                let started = Instant::now();
                op.on_batch(items, &mut out);
                metrics.record_process_since(started);
                None
            }
            Element::Watermark(wm) => {
                metrics.record_watermark();
                merge.advance(input, wm)
            }
            Element::End => {
                let released = merge.close(input);
                if merge.all_closed() {
                    break;
                }
                released
            }
        };
        if let Some(wm) = watermark {
            let started = Instant::now();
            op.on_watermark(wm, &mut out);
            metrics.record_process_since(started);
        }
        let alive = flush(&mut out, &mut outlets, &metrics, max_batch)
            && watermark.is_none_or(|wm| broadcast(&mut outlets, Element::Watermark(wm)));
        if !alive {
            return;
        }
    }
    let started = Instant::now();
    op.on_end(&mut out);
    metrics.record_process_since(started);
    flush(&mut out, &mut outlets, &metrics, max_batch);
}

/// The worker loop for source nodes: runs the user source, then
/// flushes any partial batch and closes the stream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_source<S>(
    mut source: S,
    name: String,
    outlets: Vec<Outlet<S::Out>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<NodeMetrics>,
    errors: Arc<Mutex<Vec<Error>>>,
    max_batch: usize,
    batch_timeout: Duration,
) where
    S: Source,
{
    let mut ctx = SourceContext::new(outlets, stop, metrics, max_batch, batch_timeout);
    if let Err(reason) = source.run(&mut ctx) {
        errors
            .lock()
            .push(Error::SourceFailed { node: name, reason });
    }
    ctx.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An outlet feeding input 0 of a fresh inbox, and that inbox.
    fn outlet<T: Send + Sync + 'static>(capacity: usize) -> (Outlet<T>, Receiver<Inbound<T>>) {
        let (tx, rx) = bounded(capacity);
        (Outlet::new(&[tx], 0, |e| e, None), rx)
    }

    fn batch<T>(items: Vec<T>) -> Element<T> {
        Element::Batch(Batch::new(items))
    }

    #[test]
    fn watermark_merge_takes_minimum() {
        let mut m = WatermarkMerge::new(2);
        assert_eq!(m.advance(0, Timestamp::from_millis(10)), None); // input 1 still at MIN
        assert_eq!(
            m.advance(1, Timestamp::from_millis(5)),
            Some(Timestamp::from_millis(5))
        );
        assert_eq!(
            m.advance(1, Timestamp::from_millis(20)),
            Some(Timestamp::from_millis(10))
        );
    }

    #[test]
    fn watermark_merge_ignores_regressions() {
        let mut m = WatermarkMerge::new(1);
        assert_eq!(
            m.advance(0, Timestamp::from_millis(10)),
            Some(Timestamp::from_millis(10))
        );
        assert_eq!(m.advance(0, Timestamp::from_millis(5)), None);
    }

    #[test]
    fn closing_an_input_unblocks_progress() {
        let mut m = WatermarkMerge::new(2);
        m.advance(0, Timestamp::from_millis(100));
        // Input 1 never advanced; closing it releases input 0's watermark.
        assert_eq!(m.close(1), Some(Timestamp::from_millis(100)));
        assert!(!m.all_closed());
        // Closing the last input pushes the combined watermark to MAX.
        assert_eq!(m.close(0), Some(Timestamp::MAX));
        assert!(m.all_closed());
    }

    /// A payload that counts how many times it is cloned, to pin the
    /// broadcast fan-out contract: N downstream consumers cost exactly
    /// N−1 clones, because the original moves into the last send.
    #[derive(Debug)]
    struct CloneCounter(Arc<AtomicUsize>);

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::Relaxed);
            CloneCounter(Arc::clone(&self.0))
        }
    }

    #[test]
    fn broadcast_moves_the_original_into_the_last_send() {
        let clones = Arc::new(AtomicUsize::new(0));
        for consumers in 1..=4usize {
            clones.store(0, Ordering::Relaxed);
            let (mut outlets, inboxes): (Vec<_>, Vec<_>) =
                (0..consumers).map(|_| outlet(4)).unzip();
            assert!(broadcast(
                &mut outlets,
                batch(vec![CloneCounter(Arc::clone(&clones))])
            ));
            // The consumers share one `Arc`'d batch; each one that
            // unwraps it while it is still shared clones the item, the
            // last one takes it by move.
            for inbox in &inboxes {
                let (_, element) = inbox.try_recv().unwrap();
                drop(element.into_items());
            }
            assert_eq!(
                clones.load(Ordering::Relaxed),
                consumers - 1,
                "{consumers} consumers must cost exactly {} clones",
                consumers - 1
            );
        }
    }

    #[test]
    fn broadcast_batches_share_instead_of_cloning_items() {
        let clones = Arc::new(AtomicUsize::new(0));
        let (a, rx_a) = outlet(4);
        let (b, rx_b) = outlet(4);
        let items = vec![
            CloneCounter(Arc::clone(&clones)),
            CloneCounter(Arc::clone(&clones)),
        ];
        assert!(broadcast(&mut [a, b], batch(items)));
        // Two outlets share one Arc'd batch: zero item clones on the
        // way out...
        assert_eq!(clones.load(Ordering::Relaxed), 0);
        let (_, first) = rx_a.try_recv().unwrap();
        let (_, second) = rx_b.try_recv().unwrap();
        // ...one clone pass when the first consumer unwraps while the
        // batch is still shared...
        drop(first.into_items());
        assert_eq!(clones.load(Ordering::Relaxed), 2);
        // ...and the last consumer takes the items by move.
        drop(second.into_items());
        assert_eq!(clones.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dropping_an_outlet_ends_its_input() {
        let (tx, rx) = bounded::<Inbound<u8>>(4);
        let mut outlet = Outlet::new(&[tx], 3, |e| e, None);
        assert!(outlet.send(batch(vec![1])));
        drop(outlet);
        let got: Vec<Inbound<u8>> = rx.iter().collect();
        assert_eq!(got, vec![(3, batch(vec![1])), (3, Element::End)]);
    }

    /// Into a parallel stage an outlet splits each batch over the
    /// instances, broadcasts control markers, reports a gone instance,
    /// and still hands the live instances their share.
    #[test]
    fn a_routed_outlet_splits_batches_and_broadcasts_markers() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| bounded(8)).unzip();
        let router = Router::new(crate::operators::RoutePolicy::RoundRobin, 2);
        let mut outlet = Outlet::new(&txs, 1, |e| e, Some(router));
        assert!(outlet.send(batch(vec![0, 1, 2])));
        assert!(outlet.send(Element::Watermark(Timestamp::from_millis(7))));
        let [rx0, rx1] = <[Receiver<Inbound<u8>>; 2]>::try_from(rxs).unwrap();
        drop(rx1);
        assert!(!outlet.send(batch(vec![3, 4])), "instance 1 is gone");
        drop(outlet);
        let got: Vec<Inbound<u8>> = rx0.try_iter().collect();
        assert_eq!(
            got,
            vec![
                (1, batch(vec![0, 2])),
                (1, Element::Watermark(Timestamp::from_millis(7))),
                (1, batch(vec![4])),
                (1, Element::End),
            ]
        );
    }

    #[test]
    fn chunking_moves_items_into_batches_of_at_most_max_batch() {
        let (port, inbox) = outlet(16);
        let metrics = NodeMetrics::new("chunks");
        assert!(flush(&mut (0..10).collect(), &mut [port], &metrics, 4));
        let got: Vec<Element<u32>> = inbox.iter().map(|(_, e)| e).collect();
        assert_eq!(
            got,
            vec![
                batch(vec![0, 1, 2, 3]),
                batch(vec![4, 5, 6, 7]),
                batch(vec![8, 9]),
                Element::End,
            ]
        );
    }

    #[test]
    fn drain_stops_at_control_markers() {
        let (tx, rx) = bounded(16);
        tx.send((0, batch(vec![2]))).unwrap();
        tx.send((1, batch(vec![3, 4]))).unwrap();
        tx.send((1, Element::Watermark(Timestamp::from_millis(9))))
            .unwrap();
        tx.send((0, batch(vec![5]))).unwrap();
        let (items, marker) = drain(Batch::new(vec![1]), &rx, 64);
        assert_eq!(items, vec![1, 2, 3, 4]);
        assert_eq!(
            marker,
            Some((1, Element::Watermark(Timestamp::from_millis(9))))
        );
        // The batch after the watermark stays queued for the next wakeup.
        assert_eq!(rx.try_recv(), Ok((0, batch(vec![5]))));
    }

    #[test]
    fn drain_respects_max_batch() {
        let (tx, rx) = bounded(16);
        for i in 2..10 {
            tx.send((0, batch(vec![i]))).unwrap();
        }
        let (items, marker) = drain(Batch::new(vec![1]), &rx, 4);
        assert_eq!(items, vec![1, 2, 3, 4]);
        assert_eq!(marker, None);
        assert_eq!(rx.len(), 5);
    }

    mod watermark_merge_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any interleaving of advances and closes over four
            /// inputs, the combined watermark (1) never regresses and
            /// (2) always equals the minimum, over still-open inputs,
            /// of the highest watermark each has reported — closed
            /// inputs stop constraining progress immediately.
            #[test]
            fn combined_is_the_monotone_min_over_open_inputs(
                ops in proptest::collection::vec(
                    (0usize..4, 0u8..10, 0u64..1_000),
                    1..200,
                ),
            ) {
                let mut merge = WatermarkMerge::new(4);
                let mut max_seen = [Timestamp::MIN; 4];
                let mut open = [true; 4];
                let mut combined = Timestamp::MIN;
                for (input, kind, millis) in ops {
                    let update = if kind < 8 {
                        let wm = Timestamp::from_millis(millis);
                        if wm > max_seen[input] {
                            max_seen[input] = wm;
                        }
                        merge.advance(input, wm)
                    } else {
                        open[input] = false;
                        merge.close(input)
                    };
                    if let Some(advanced) = update {
                        prop_assert!(
                            advanced > combined,
                            "combined regressed: {:?} -> {:?}",
                            combined,
                            advanced
                        );
                        combined = advanced;
                    }
                    let floor = (0..4)
                        .filter(|&i| open[i])
                        .map(|i| max_seen[i])
                        .min()
                        .unwrap_or(Timestamp::MAX);
                    prop_assert_eq!(
                        combined,
                        floor,
                        "combined diverged from the open-input minimum"
                    );
                }
            }

            /// Closing inputs in any order eventually pushes the
            /// combined watermark to MAX, and each close-step change
            /// is an increase.
            #[test]
            fn closing_everything_releases_max(
                advances in proptest::collection::vec(0u64..1_000, 4),
                close_order in Just([0usize, 1, 2, 3]),
            ) {
                let mut merge = WatermarkMerge::new(4);
                for (i, &millis) in advances.iter().enumerate() {
                    merge.advance(i, Timestamp::from_millis(millis));
                }
                let mut last = Timestamp::MIN;
                for &input in &close_order {
                    if let Some(advanced) = merge.close(input) {
                        prop_assert!(advanced > last);
                        last = advanced;
                    }
                }
                prop_assert!(merge.all_closed());
                prop_assert_eq!(last, Timestamp::MAX);
            }
        }
    }

    /// Regression: an input that never advanced past MIN must stop
    /// holding back the merged watermark the moment it closes — the
    /// bug class where one finished (or idle) source froze event time
    /// for every downstream window. Exercised through a real two-input
    /// node, not just the merge struct.
    #[test]
    fn closed_idle_input_releases_downstream_watermarks() {
        let (inbox_tx, inbox) = bounded(16);
        let (out, out_rx) = outlet(16);
        let metrics = Arc::new(NodeMetrics::new("merge"));
        let worker = std::thread::spawn(move || {
            run_node(
                crate::operators::Identity::new(),
                inbox,
                2,
                vec![out],
                metrics,
                1,
            );
        });
        // Input 0 is busy; input 1 stays idle at MIN and pins the
        // merge there until it closes, which must release input 0's
        // watermark.
        inbox_tx
            .send((0, Element::Watermark(Timestamp::from_millis(50))))
            .unwrap();
        inbox_tx.send((1, Element::<i32>::End)).unwrap();
        let (_, released) = out_rx.recv().unwrap();
        assert_eq!(released, Element::Watermark(Timestamp::from_millis(50)));
        inbox_tx.send((0, Element::End)).unwrap();
        drop(inbox_tx);
        let got: Vec<Element<i32>> = out_rx.iter().map(|(_, e)| e).collect();
        assert_eq!(got, vec![Element::End]);
        worker.join().unwrap();
    }
}
