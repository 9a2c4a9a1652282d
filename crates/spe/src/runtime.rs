//! The two worker loops — one per threaded node, one per source — and
//! the plumbing between them: one inbox per threaded node, chained
//! instances run inside their upstream's thread, watermark merging
//! across inputs, broadcast fan-out, cooperative termination.
//!
//! # One inbox, one loop
//!
//! A non-source node owns a single bounded inbox of `(input, Element)`
//! pairs. Each upstream node holds one [`Outlet`] per consumer: the
//! consumer's inbox sender plus the index of the input it feeds — or,
//! for a parallel stage, one sender per instance and a router that
//! picks an instance per item. One [`NodeState`] holds what every node
//! kind needs between elements — unary operators, unions, joins (a
//! unary operator over left/right-tagged items), parallel instances
//! and sinks (operators without outlets) — and [`run_node`] drives it
//! from the inbox.
//!
//! # Chained instances
//!
//! An instance of a round-robin parallel stage whose input is a stage
//! of the same width has no inbox and no thread: upstream node `i`'s
//! outlet holds instance `i`'s `NodeState` and calls
//! [`NodeState::accept`] on it directly ([`chain`]). The upstream's
//! output vectors are moved into the instance whole, so what a chained
//! consumer holds at once is at most one batch of upstream outputs, or
//! one upstream item's if that item alone emits more. Dropping the
//! outlet ends the instance, and a panic in the instance's operator is
//! caught in the outlet and reported under the instance's name.
//!
//! # Batches
//!
//! Data is always an [`Element::Batch`], a plain `Vec`; a single item
//! is a batch of one. Each wakeup drains up to `max_batch` buffered
//! items and runs them through the operator one by one. Every node
//! hands its outputs on as soon as `max_batch` of them are pending, and
//! once more after the last item, as batches of at most `max_batch`
//! items — or uncut, when every consumer is chained. Watermarks and
//! end-of-stream are always batch boundaries — a control marker found
//! mid-drain is set aside and processed on the next iteration, after
//! the data before it.
//!
//! Broadcast fan-out never clones for the sole (or last) consumer: the
//! original element is moved into the final send, and each of the other
//! N−1 consumers gets a clone at send time.

use std::marker::PhantomData;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::element::Element;
use crate::error::Error;
use crate::metrics::NodeMetrics;
use crate::operator::UnaryOperator;
use crate::operators::router::Router;
use crate::query::supervise;
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
/// end-of-stream reach every instance. A chained outlet ([`chain`])
/// runs its consumer in place instead of sending to an inbox.
///
/// Dropping an outlet sends `End` on its input. A node therefore closes
/// its outputs by returning — whether it finished, lost its consumers
/// or panicked — and every input of a downstream node closes exactly
/// once, just as a disconnected channel would.
pub(crate) struct Outlet<T> {
    inboxes: Vec<Box<dyn FnMut(Element<T>) -> bool + Send>>,
    router: Option<Router<T>>,
    chained: bool,
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
        Outlet {
            inboxes,
            router,
            chained: false,
        }
    }
}

impl<T: Clone> Outlet<T> {
    /// Sends `element`; `false` once an inbox it sent to is gone. A
    /// gone instance does not stop the others from getting their share.
    fn send(&mut self, element: Element<T>) -> bool {
        let mut ok = true;
        match (&mut self.router, element) {
            (Some(router), Element::Batch(items)) => {
                let mut split: Vec<Vec<T>> = self.inboxes.iter().map(|_| Vec::new()).collect();
                for item in items {
                    split[router.route(&item)].push(item);
                }
                for (items, send) in split.into_iter().zip(&mut self.inboxes) {
                    if !items.is_empty() {
                        ok &= send(Element::Batch(items));
                    }
                }
            }
            (_, element) => {
                let (last, rest) = self
                    .inboxes
                    .split_last_mut()
                    .expect("an outlet feeds an inbox");
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
        for send in &mut self.inboxes {
            send(Element::End);
        }
    }
}

impl<T> std::fmt::Debug for Outlet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outlet")
            .field("chained", &self.chained)
            .finish_non_exhaustive()
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

/// Sends a node's pending outputs downstream as batches of at most
/// `max_batch` items, and records them. The items are moved into their
/// chunks, so a flush costs O(items) whatever the number of chunks; a
/// node whose every outlet is chained hands the whole vector on
/// without cutting it. Returns `false` when the node's consumers are
/// gone.
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
    // The next batch starts with room for `max_batch` outputs instead of
    // growing from empty, one reallocation at a time.
    let items = std::mem::replace(out, Vec::with_capacity(max_batch));
    if items.len() <= max_batch || outlets.iter().all(|outlet| outlet.chained) {
        return broadcast(outlets, Element::Batch(items));
    }
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<O> = items.by_ref().take(max_batch).collect();
        if chunk.is_empty() {
            return true;
        }
        if !broadcast(outlets, Element::Batch(chunk)) {
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
fn drain<T>(
    mut items: Vec<T>,
    inbox: &Receiver<Inbound<T>>,
    max_batch: usize,
) -> (Vec<T>, Option<Inbound<T>>) {
    while items.len() < max_batch {
        match inbox.try_recv() {
            Ok((_, Element::Batch(more))) => items.extend(more),
            Ok(marker) => return (items, Some(marker)),
            Err(_) => break,
        }
    }
    (items, None)
}

/// One non-source node between elements: its operator, the merge of
/// its inputs' watermarks, its pending outputs and its outlets. A
/// threaded node is fed from its inbox by [`run_node`]; a chained
/// instance by its upstream's outlet ([`chain`]).
pub(crate) struct NodeState<I, O, Op> {
    op: Op,
    merge: WatermarkMerge,
    out: Vec<O>,
    outlets: Vec<Outlet<O>>,
    metrics: Arc<NodeMetrics>,
    max_batch: usize,
    _input: PhantomData<fn(I)>,
}

impl<I, O, Op> NodeState<I, O, Op>
where
    O: Clone,
    Op: UnaryOperator<I, O>,
{
    /// A node fed by `inputs` upstream outlets.
    pub(crate) fn new(
        op: Op,
        inputs: usize,
        outlets: Vec<Outlet<O>>,
        metrics: Arc<NodeMetrics>,
        max_batch: usize,
    ) -> Self {
        NodeState {
            op,
            merge: WatermarkMerge::new(inputs),
            out: Vec::new(),
            outlets,
            metrics,
            max_batch,
            _input: PhantomData,
        }
    }

    /// Handles one element that arrived on `input`. Returns `false`
    /// once the node is done: every input has ended (the operator has
    /// then seen `on_end` and its last outputs are sent), or its
    /// consumers are gone.
    pub(crate) fn accept(&mut self, input: usize, element: Element<I>) -> bool {
        let watermark = match element {
            Element::Batch(items) => return self.process(items),
            Element::Watermark(wm) => {
                self.metrics.record_watermark();
                self.merge.advance(input, wm)
            }
            Element::End => {
                let released = self.merge.close(input);
                if self.merge.all_closed() {
                    self.finish();
                    return false;
                }
                released
            }
        };
        let Some(wm) = watermark else {
            return true;
        };
        let started = Instant::now();
        self.op.on_watermark(wm, &mut self.out);
        self.metrics.record_process_since(started);
        self.flush() && broadcast(&mut self.outlets, Element::Watermark(wm))
    }

    /// Runs the operator over `items` one by one, handing the outputs on
    /// whenever `max_batch` of them are pending and once more after the
    /// last item.
    fn process(&mut self, items: Vec<I>) -> bool {
        self.metrics.record_in(items.len() as u64);
        self.metrics.record_batch(items.len() as u64);
        // Time the operator callbacks only: send-side backpressure and
        // chained consumers are not this node's processing.
        let started = Instant::now();
        let mut handing_on = Duration::ZERO;
        let mut alive = true;
        for item in items {
            self.op.on_item(item, &mut self.out);
            if self.out.len() >= self.max_batch {
                let flushing = Instant::now();
                alive = self.flush();
                handing_on += flushing.elapsed();
                if !alive {
                    break;
                }
            }
        }
        self.metrics
            .record_process(started.elapsed().saturating_sub(handing_on));
        alive && self.flush()
    }

    /// Runs `on_end` and sends its outputs: every input has ended.
    fn finish(&mut self) {
        let started = Instant::now();
        self.op.on_end(&mut self.out);
        self.metrics.record_process_since(started);
        self.flush();
    }

    fn flush(&mut self) -> bool {
        flush(
            &mut self.out,
            &mut self.outlets,
            &self.metrics,
            self.max_batch,
        )
    }
}

/// The worker loop of a threaded node: `inputs` is the number of
/// upstream outlets feeding `inbox`; the node ends once each of them
/// has sent `End`, and returns early when a send finds its consumers
/// gone. Returning drops `outlets`, which ends every downstream input
/// this node feeds.
pub(crate) fn run_node<I, O, Op>(
    op: Op,
    inbox: Receiver<Inbound<I>>,
    inputs: usize,
    outlets: Vec<Outlet<O>>,
    metrics: Arc<NodeMetrics>,
    max_batch: usize,
) where
    O: Clone,
    Op: UnaryOperator<I, O>,
{
    let mut node = NodeState::new(op, inputs, outlets, metrics, max_batch);
    let mut pending: Option<Inbound<I>> = None;
    loop {
        let (input, element) = match pending.take() {
            Some(inbound) => inbound,
            None => match inbox.recv() {
                Ok(inbound) => inbound,
                // Every outlet sends `End` before it goes, so all inputs
                // have closed before the inbox can disconnect.
                Err(_) => return node.finish(),
            },
        };
        let alive = match element {
            Element::Batch(items) => {
                let (items, marker) = drain(items, &inbox, max_batch);
                pending = marker;
                node.metrics.record_queue_depth(inbox.len() as u64);
                node.process(items)
            }
            marker => node.accept(input, marker),
        };
        if !alive {
            return;
        }
    }
}

/// The outlet through which an upstream node runs the chained instance
/// `node` in its own thread: every element goes straight to the
/// instance's [`NodeState::accept`] on its only input, and batches are
/// moved in whole. Dropping the outlet sends `End`, which runs the
/// instance's `on_end` and ends its own outlets. A panic in the
/// instance's operator is caught here, recorded on the instance's
/// metrics and reported as [`Error::OperatorPanicked`] under its name;
/// from then on the outlet acts as a gone consumer, and the upstream
/// carries on as it does when a threaded consumer dies.
pub(crate) fn chain<I, O, Op>(
    node: NodeState<I, O, Op>,
    errors: Arc<Mutex<Vec<Error>>>,
) -> Outlet<I>
where
    I: 'static,
    O: Clone + Send + 'static,
    Op: UnaryOperator<I, O> + 'static,
{
    let metrics = Arc::clone(&node.metrics);
    let mut node = Some(node);
    let accept = move |element| {
        let Some(state) = node.as_mut() else {
            return false;
        };
        if supervise(&metrics, &errors, || state.accept(0, element)) == Some(true) {
            return true;
        }
        node = None;
        false
    };
    Outlet {
        inboxes: vec![Box::new(accept)],
        router: None,
        chained: true,
    }
}

/// How long a partially filled source batch may wait for more items
/// before it is flushed downstream.
const BATCH_TIMEOUT: Duration = Duration::from_millis(5);

/// The worker loop for source nodes: runs the user source, then
/// flushes any partial batch and closes the stream.
pub(crate) fn run_source<S>(
    mut source: S,
    name: String,
    outlets: Vec<Outlet<S::Out>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<NodeMetrics>,
    errors: Arc<Mutex<Vec<Error>>>,
    max_batch: usize,
) where
    S: Source,
{
    let mut ctx = SourceContext::new(outlets, stop, metrics, max_batch, BATCH_TIMEOUT);
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
        Element::Batch(items)
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
            // Every consumer but the last got a clone at send time; the
            // last one got the original by move.
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

    /// A chained outlet moves a flushed vector into its instance whole,
    /// without cloning an item or cutting it to `max_batch`; the
    /// instance cuts what it sends to a threaded consumer, and dropping
    /// the outlet ends the instance and then its outlet.
    #[test]
    fn a_chained_outlet_moves_outputs_whole_and_ends_its_instance() {
        let clones = Arc::new(AtomicUsize::new(0));
        let (port, inbox) = outlet(16);
        let chained = Arc::new(NodeMetrics::new("chained"));
        let node = NodeState::new(
            crate::operators::Identity::new(),
            1,
            vec![port],
            Arc::clone(&chained),
            4,
        );
        let mut upstream = [chain(node, Arc::default())];
        let mut out: Vec<CloneCounter> =
            (0..10).map(|_| CloneCounter(Arc::clone(&clones))).collect();
        assert!(flush(&mut out, &mut upstream, &NodeMetrics::new("up"), 4));
        assert_eq!(clones.load(Ordering::Relaxed), 0, "moved, not cloned");
        assert_eq!(chained.items_in(), 10);
        assert_eq!(chained.batch_items().count(), 1, "one uncut batch");
        drop(upstream);
        let sizes: Vec<Option<usize>> = inbox
            .iter()
            .map(|(_, element)| match element {
                Element::Batch(batch) => Some(batch.len()),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![Some(4), Some(4), Some(2), None]);
    }

    /// A threaded node hands its outputs on as soon as `max_batch` of
    /// them are pending, not after its whole drained batch: by the time
    /// the operator runs on the second item, the first item's outputs
    /// are already in the consumer's inbox.
    #[test]
    fn a_node_hands_on_a_full_batch_before_its_next_item() {
        let (port, inbox) = outlet(16);
        let peek = inbox.clone();
        let expand = crate::operators::FlatMap::new(move |item: u32| {
            if item == 1 {
                assert_eq!(
                    peek.try_recv(),
                    Ok((0, batch(vec![0; 4]))),
                    "item 0's outputs were not handed on before item 1 ran"
                );
            }
            vec![item; 4]
        });
        let metrics = Arc::new(NodeMetrics::new("expand"));
        let mut node = NodeState::new(expand, 1, vec![port], metrics, 4);
        assert!(node.process(vec![0, 1]));
        assert_eq!(inbox.try_recv(), Ok((0, batch(vec![1; 4]))));
    }

    #[test]
    fn drain_stops_at_control_markers() {
        let (tx, rx) = bounded(16);
        tx.send((0, batch(vec![2]))).unwrap();
        tx.send((1, batch(vec![3, 4]))).unwrap();
        tx.send((1, Element::Watermark(Timestamp::from_millis(9))))
            .unwrap();
        tx.send((0, batch(vec![5]))).unwrap();
        let (items, marker) = drain(vec![1], &rx, 64);
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
        let (items, marker) = drain(vec![1], &rx, 4);
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
