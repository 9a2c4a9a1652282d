//! Sources: the entry points of a continuous query.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::element::Element;
use crate::metrics::NodeMetrics;
use crate::runtime::{self, Outlet};
use crate::time::{Timestamp, Timestamped};

/// A data source feeding a continuous query.
///
/// The engine runs [`Source::run`] once on a dedicated thread. The
/// source emits items and watermarks through the [`SourceContext`]
/// at its own pace (e.g. replaying a trace in real time, or as fast
/// as possible) and returns when exhausted or when
/// [`SourceContext::should_stop`] turns `true`. After `run` returns,
/// the engine emits the end-of-stream marker on the source's behalf.
pub trait Source: Send {
    /// The item type this source produces.
    type Out: Clone + Send + Sync + 'static;

    /// Produces the stream. See the trait documentation for the
    /// contract.
    ///
    /// # Errors
    ///
    /// Implementations return a human-readable reason when acquisition
    /// fails; the engine surfaces it as
    /// [`Error::SourceFailed`](crate::Error::SourceFailed).
    fn run(&mut self, ctx: &mut SourceContext<Self::Out>) -> Result<(), String>;
}

/// Handle given to a [`Source`] for emitting data and watermarks and
/// for observing cooperative-stop requests.
///
/// Consecutive [`emit`] calls are coalesced into one
/// [`Element::Batch`] that is forwarded when it reaches the query's
/// batch size, when the 5 ms batch timeout elapses (checked on the
/// next `emit`), or when a watermark or end-of-stream follows — so control markers are always
/// batch boundaries. At batch size one every item travels alone. The
/// timeout is emit-driven: a source that stops emitting mid-batch
/// holds the partial batch until its next call, its watermark, or the
/// end of its run, each of which flushes.
///
/// [`emit`]: SourceContext::emit
#[derive(Debug)]
pub struct SourceContext<T> {
    outputs: Vec<Outlet<T>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<NodeMetrics>,
    disconnected: bool,
    buf: Vec<T>,
    max_batch: usize,
    batch_timeout: Duration,
    deadline: Option<Instant>,
}

impl<T: Clone> SourceContext<T> {
    pub(crate) fn new(
        outputs: Vec<Outlet<T>>,
        stop: Arc<AtomicBool>,
        metrics: Arc<NodeMetrics>,
        max_batch: usize,
        batch_timeout: Duration,
    ) -> Self {
        SourceContext {
            outputs,
            stop,
            metrics,
            disconnected: false,
            buf: Vec::new(),
            max_batch,
            batch_timeout,
            deadline: None,
        }
    }

    /// Emits one item downstream, blocking while downstream inboxes
    /// are full (backpressure). Returns `false` if every downstream
    /// consumer is gone, in which case the source should return from
    /// [`Source::run`].
    pub fn emit(&mut self, item: T) -> bool {
        if self.buf.is_empty() {
            self.deadline = Some(Instant::now() + self.batch_timeout);
        }
        self.buf.push(item);
        if self.buf.len() >= self.max_batch
            || self.deadline.is_some_and(|due| Instant::now() >= due)
        {
            self.flush_batch();
        }
        !self.disconnected
    }

    /// Emits a watermark: a promise that no later item will carry an
    /// event time lower than `watermark`. Flushes any partial batch
    /// first, so the watermark stays truthful for the items before it.
    pub fn emit_watermark(&mut self, watermark: Timestamp) -> bool {
        self.flush_batch();
        self.broadcast(Element::Watermark(watermark))
    }

    /// `true` once the query has been asked to stop; sources should
    /// poll this between emissions and return promptly.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.disconnected
    }

    fn flush_batch(&mut self) {
        self.deadline = None;
        if self.buf.is_empty() {
            return;
        }
        self.metrics.record_out(self.buf.len() as u64);
        self.metrics.record_batch(self.buf.len() as u64);
        let batch = std::mem::take(&mut self.buf);
        self.broadcast(Element::Batch(batch));
    }

    /// Flushes any partial batch and closes the stream: dropping the
    /// outlets sends one end-of-stream marker per output. Called by the
    /// engine after [`Source::run`] returns.
    pub(crate) fn finish(mut self) {
        self.flush_batch();
    }

    fn broadcast(&mut self, element: Element<T>) -> bool {
        let alive = !self.outputs.is_empty() && runtime::broadcast(&mut self.outputs, element);
        if !alive {
            self.disconnected = true;
        }
        alive
    }
}

/// A [`Source`] draining a Rust [`Iterator`] as fast as downstream
/// backpressure allows.
///
/// If the item type implements [`Timestamped`], construct it with
/// [`IteratorSource::with_watermarks`] to also emit a watermark after
/// every item, which is what event-time operators downstream need.
///
/// ```
/// use strata_spe::IteratorSource;
/// let src = IteratorSource::new(vec![1, 2, 3]);
/// ```
pub struct IteratorSource<I: IntoIterator> {
    iter: Option<I>,
    #[allow(clippy::type_complexity)]
    watermark_of: Option<Box<dyn Fn(&I::Item) -> Timestamp + Send>>,
}

impl<I: IntoIterator> std::fmt::Debug for IteratorSource<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IteratorSource")
            .field("exhausted", &self.iter.is_none())
            .field("watermarks", &self.watermark_of.is_some())
            .finish()
    }
}

impl<I: IntoIterator> IteratorSource<I> {
    /// Creates a source over `iter`, emitting no watermarks.
    pub fn new(iter: I) -> Self {
        IteratorSource {
            iter: Some(iter),
            watermark_of: None,
        }
    }

    /// Creates a source over `iter` that emits, after every item, a
    /// watermark computed by `f` (typically the item's timestamp).
    /// Requires the produced watermarks to be non-decreasing to be
    /// truthful.
    pub fn with_watermark_fn(iter: I, f: impl Fn(&I::Item) -> Timestamp + Send + 'static) -> Self {
        IteratorSource {
            iter: Some(iter),
            watermark_of: Some(Box::new(f)),
        }
    }
}

impl<I> IteratorSource<I>
where
    I: IntoIterator,
    I::Item: Timestamped,
{
    /// Creates a source over `iter` that emits a watermark equal to
    /// each item's timestamp right after the item. Requires the items
    /// to be in non-decreasing timestamp order for the watermarks to
    /// be truthful.
    pub fn with_watermarks(iter: I) -> Self {
        IteratorSource::with_watermark_fn(iter, |item| item.timestamp())
    }
}

impl<I> Source for IteratorSource<I>
where
    I: IntoIterator + Send,
    I::Item: Clone + Send + Sync + 'static,
{
    type Out = I::Item;

    fn run(&mut self, ctx: &mut SourceContext<Self::Out>) -> Result<(), String> {
        let iter = self
            .iter
            .take()
            .ok_or_else(|| "iterator source run twice".to_string())?;
        for item in iter {
            if ctx.should_stop() {
                break;
            }
            let wm = self.watermark_of.as_ref().map(|f| f(&item));
            if !ctx.emit(item) {
                break;
            }
            if let Some(wm) = wm {
                if !ctx.emit_watermark(wm) {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// A [`Source`] that replays pre-timestamped batches, optionally
/// pacing them against the wall clock to mimic a live PBF-LB machine
/// (one OT image per layer, with a recoat gap in between).
///
/// Each batch is a `(Timestamp, Vec<T>)` pair; after a batch is
/// emitted, a watermark equal to the batch timestamp follows. With a
/// [`pace`](TimedBatchSource::paced) factor of 1.0, batch `k` is
/// released `t_k − t_0` wall-clock milliseconds after the first; a
/// factor of 0.0 replays as fast as possible.
pub struct TimedBatchSource<T> {
    batches: std::vec::IntoIter<(Timestamp, Vec<T>)>,
    pace: f64,
}

impl<T> std::fmt::Debug for TimedBatchSource<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedBatchSource")
            .field("pace", &self.pace)
            .finish_non_exhaustive()
    }
}

impl<T> TimedBatchSource<T> {
    /// Creates a source replaying `batches` as fast as possible.
    /// Batches must be in non-decreasing timestamp order.
    pub fn new(batches: Vec<(Timestamp, Vec<T>)>) -> Self {
        TimedBatchSource {
            batches: batches.into_iter(),
            pace: 0.0,
        }
    }

    /// Sets the pacing factor: 1.0 replays in real time, 2.0 at half
    /// speed, 0.5 at double speed, 0.0 (the default) as fast as
    /// possible.
    pub fn paced(mut self, pace: f64) -> Self {
        self.pace = pace.max(0.0);
        self
    }
}

impl<T: Clone + Send + Sync + 'static> Source for TimedBatchSource<T> {
    type Out = T;

    fn run(&mut self, ctx: &mut SourceContext<T>) -> Result<(), String> {
        let started = std::time::Instant::now();
        let mut first: Option<Timestamp> = None;
        for (ts, batch) in self.batches.by_ref() {
            if ctx.should_stop() {
                break;
            }
            let epoch = *first.get_or_insert(ts);
            if self.pace > 0.0 {
                let due_millis = (ts.abs_diff(epoch) as f64 * self.pace) as u64;
                let due = std::time::Duration::from_millis(due_millis);
                let elapsed = started.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            for item in batch {
                if !ctx.emit(item) {
                    return Ok(());
                }
            }
            if !ctx.emit_watermark(ts) {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Inbound;
    use crossbeam::channel::{bounded, Receiver};

    fn test_ctx<T: Clone + Send + Sync + 'static>(
        cap: usize,
    ) -> (SourceContext<T>, Receiver<Inbound<T>>) {
        batched_ctx(cap, 1)
    }

    fn batched_ctx<T: Clone + Send + Sync + 'static>(
        cap: usize,
        max_batch: usize,
    ) -> (SourceContext<T>, Receiver<Inbound<T>>) {
        let (tx, rx) = bounded(cap);
        let ctx = SourceContext::new(
            vec![Outlet::new(&[tx], 0, |e| e, None)],
            Arc::new(AtomicBool::new(false)),
            Arc::new(NodeMetrics::new("test")),
            max_batch,
            Duration::from_secs(1),
        );
        (ctx, rx)
    }

    /// Everything the source sent, once its context is gone.
    fn received<T>(rx: Receiver<Inbound<T>>) -> Vec<Element<T>> {
        rx.iter().map(|(_, element)| element).collect()
    }

    fn one<T>(item: T) -> Element<T> {
        Element::Batch(vec![item])
    }

    #[test]
    fn iterator_source_emits_all_items() {
        let (mut ctx, rx) = test_ctx(16);
        let mut src = IteratorSource::new(vec![1, 2, 3]);
        src.run(&mut ctx).unwrap();
        drop(ctx);
        let got: Vec<_> = received(rx)
            .into_iter()
            .flat_map(Element::into_items)
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn iterator_source_cannot_run_twice() {
        let (mut ctx, _rx) = test_ctx::<i32>(16);
        let mut src = IteratorSource::new(vec![1]);
        src.run(&mut ctx).unwrap();
        assert!(src.run(&mut ctx).is_err());
    }

    #[test]
    fn iterator_source_with_watermarks_interleaves() {
        let (mut ctx, rx) = test_ctx(16);
        let items = vec![Timestamp::from_millis(5), Timestamp::from_millis(9)];
        let mut src = IteratorSource::with_watermarks(items);
        src.run(&mut ctx).unwrap();
        drop(ctx);
        assert_eq!(
            received(rx),
            vec![
                one(Timestamp::from_millis(5)),
                Element::Watermark(Timestamp::from_millis(5)),
                one(Timestamp::from_millis(9)),
                Element::Watermark(Timestamp::from_millis(9)),
                Element::End,
            ]
        );
    }

    #[test]
    fn emit_reports_disconnection() {
        let (mut ctx, rx) = test_ctx(16);
        drop(rx);
        assert!(!ctx.emit(9));
        assert!(ctx.should_stop());
    }

    #[test]
    fn timed_batch_source_interleaves_watermarks() {
        let (mut ctx, rx) = test_ctx(64);
        let mut src = TimedBatchSource::new(vec![
            (Timestamp::from_millis(10), vec!["a", "b"]),
            (Timestamp::from_millis(20), vec!["c"]),
        ]);
        src.run(&mut ctx).unwrap();
        drop(ctx);
        assert_eq!(
            received(rx),
            vec![
                one("a"),
                one("b"),
                Element::Watermark(Timestamp::from_millis(10)),
                one("c"),
                Element::Watermark(Timestamp::from_millis(20)),
                Element::End,
            ]
        );
    }

    #[test]
    fn timed_batch_source_paces_against_wall_clock() {
        let (mut ctx, rx) = test_ctx(64);
        let mut src = TimedBatchSource::new(vec![
            (Timestamp::from_millis(0), vec![1]),
            (Timestamp::from_millis(40), vec![2]),
        ])
        .paced(1.0);
        let started = std::time::Instant::now();
        src.run(&mut ctx).unwrap();
        assert!(started.elapsed() >= std::time::Duration::from_millis(35));
        drop(ctx);
        assert_eq!(received(rx).iter().filter(|e| e.is_data()).count(), 2);
    }

    #[test]
    fn stop_flag_halts_source() {
        let (tx, rx) = bounded(1024);
        let stop = Arc::new(AtomicBool::new(true));
        let mut ctx = SourceContext::new(
            vec![Outlet::new(&[tx], 0, |e| e, None)],
            stop,
            Arc::new(NodeMetrics::new("s")),
            1,
            Duration::ZERO,
        );
        let mut src = IteratorSource::new(0..1_000_000);
        src.run(&mut ctx).unwrap();
        drop(ctx);
        assert_eq!(received(rx), vec![Element::End]);
    }

    #[test]
    fn batched_context_coalesces_and_flushes_on_watermark() {
        let (mut ctx, rx) = batched_ctx(64, 4);
        for item in 0..10 {
            assert!(ctx.emit(item));
        }
        assert!(ctx.emit_watermark(Timestamp::from_millis(99)));
        ctx.finish();
        // 10 items at max_batch 4: two full batches, then the partial
        // pair flushed by the watermark, then the end marker.
        assert_eq!(
            received(rx),
            vec![
                Element::Batch(vec![0, 1, 2, 3]),
                Element::Batch(vec![4, 5, 6, 7]),
                Element::Batch(vec![8, 9]),
                Element::Watermark(Timestamp::from_millis(99)),
                Element::End,
            ]
        );
    }

    #[test]
    fn finish_flushes_a_partial_batch() {
        let (mut ctx, rx) = batched_ctx(64, 8);
        assert!(ctx.emit(7));
        ctx.finish();
        assert_eq!(received(rx), vec![one(7), Element::End]);
    }
}
