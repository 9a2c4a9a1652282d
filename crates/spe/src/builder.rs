//! Declarative construction of continuous queries.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::element::Element;
use crate::error::{Error, Result};
use crate::metrics::NodeMetrics;
use crate::operator::UnaryOperator;
use crate::operators::aggregate::{Aggregate, WindowBounds};
use crate::operators::join::{Join, JoinInput};
use crate::operators::router::{RoutePolicy, Router};
use crate::operators::{Filter, FlatMap, Identity, Map};
use crate::query::Query;
use crate::runtime::{self, Inbound, Outlet};
use crate::sink::{CollectHandle, ElementSink, Sink};
use crate::source::Source;
use crate::time::Timestamped;
use crate::window::WindowSpec;

static BUILDER_IDS: AtomicU64 = AtomicU64::new(1);

/// A typed handle to the output stream of a node under construction,
/// or of the instances of a parallel stage: a run of `count` nodes
/// starting at `first`, which a consumer reads as one stream.
///
/// `Stream` is a lightweight copyable token; it is only valid with
/// the [`QueryBuilder`] that created it (using it with another builder
/// is reported as [`Error::InvalidQuery`] at
/// [`build`](QueryBuilder::build) time).
pub struct Stream<T> {
    first: usize,
    count: usize,
    builder: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for Stream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("first", &self.first)
            .field("count", &self.count)
            .finish()
    }
}

impl<T> Clone for Stream<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Stream<T> {}

type WorkerFn = Box<dyn FnOnce() + Send>;
type Factory = Box<
    dyn FnOnce(Box<dyn Any + Send>, Arc<AtomicBool>, Arc<Mutex<Vec<Error>>>) -> WorkerFn + Send,
>;

struct NodeSpec {
    name: String,
    /// The node's `Vec<Outlet<T>>`, one outlet per consumer.
    outlets: Box<dyn Any + Send>,
    factory: Factory,
    metrics: Arc<NodeMetrics>,
}

/// Builder for a continuous query: declare sources, operators and
/// sinks, then [`build`](QueryBuilder::build) a runnable [`Query`].
///
/// Construction never fails midway — invalid uses (duplicate node
/// names, foreign stream handles, zero parallelism) are recorded and
/// reported together by `build` ([C-BUILDER], deferred validation).
///
/// See the [crate documentation](crate) for a complete example.
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
pub struct QueryBuilder {
    name: String,
    capacity: usize,
    batch_size: usize,
    batch_timeout: Duration,
    nodes: Vec<NodeSpec>,
    errors: Vec<Error>,
    source_count: usize,
    sink_count: usize,
    id: u64,
}

impl std::fmt::Debug for QueryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl QueryBuilder {
    /// Creates a builder for a query called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            capacity: 256,
            batch_size: 1,
            batch_timeout: Duration::from_millis(5),
            nodes: Vec::new(),
            errors: Vec::new(),
            source_count: 0,
            sink_count: 0,
            id: BUILDER_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Sets the per-input buffer of every node created from now on: a
    /// node's inbox holds `capacity` elements for each of its inputs.
    /// Smaller capacities bound memory and tighten backpressure;
    /// larger ones absorb bursts. The default is 256 elements.
    pub fn channel_capacity(&mut self, capacity: usize) -> &mut Self {
        if capacity == 0 {
            self.errors
                .push(Error::InvalidConfig("channel capacity must be > 0".into()));
        } else {
            self.capacity = capacity;
        }
        self
    }

    /// Sets the micro-batch size of every node created from now on:
    /// worker loops drain up to this many buffered items per wakeup
    /// and move them through the graph as shared batches of at most
    /// this many items, trading per-item latency for amortized
    /// synchronization. There is one data path at every size; the
    /// default of 1 sends each item as a batch of one. Watermarks and
    /// end-of-stream are always batch boundaries, so event-time
    /// semantics are unaffected.
    pub fn batch_size(&mut self, batch_size: usize) -> &mut Self {
        if batch_size == 0 {
            self.errors
                .push(Error::InvalidConfig("batch size must be > 0".into()));
        } else {
            self.batch_size = batch_size;
        }
        self
    }

    /// Bounds how long a partially filled source batch may wait for
    /// more items before it is flushed downstream (default 5 ms).
    /// Only meaningful with [`batch_size`](Self::batch_size) > 1.
    pub fn batch_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.batch_timeout = timeout;
        self
    }

    fn check_name(&mut self, name: &str) {
        if self.nodes.iter().any(|n| n.name == name) {
            self.errors
                .push(Error::InvalidQuery(format!("duplicate node name `{name}`")));
        }
    }

    /// Gives each node of stream `s` one outlet feeding `inboxes`, the
    /// `k`-th node on input `first_input + k`, converting elements with
    /// `wrap`. Over several inboxes — the instances of a parallel stage
    /// — each outlet routes items by its own copy of `policy`.
    fn connect<T, X>(
        &mut self,
        s: &Stream<T>,
        inboxes: &[Sender<Inbound<X>>],
        first_input: usize,
        wrap: fn(Element<T>) -> Element<X>,
        policy: Option<&RoutePolicy<T>>,
    ) where
        T: Clone + Send + Sync + 'static,
        X: Send + Sync + 'static,
    {
        if s.builder != self.id {
            self.errors.push(Error::InvalidQuery(
                "stream handle used with a different QueryBuilder".into(),
            ));
            return;
        }
        for (k, node) in self.nodes[s.first..s.first + s.count]
            .iter_mut()
            .enumerate()
        {
            let Some(outlets) = node.outlets.downcast_mut::<Vec<Outlet<T>>>() else {
                let error = format!("stream type mismatch on node `{}`", node.name);
                self.errors.push(Error::InvalidQuery(error));
                return;
            };
            let router = policy.map(|p| Router::new(p.clone(), inboxes.len()));
            outlets.push(Outlet::new(inboxes, first_input + k, wrap, router));
        }
    }

    /// A node's inbox: `channel_capacity` elements per input, so each
    /// input buffers as much as a channel of its own would.
    fn inbox<I>(&self, inputs: usize) -> (Sender<Inbound<I>>, Receiver<Inbound<I>>) {
        bounded(self.capacity * inputs)
    }

    fn stream<T>(&self, first: usize, count: usize) -> Stream<T> {
        Stream {
            first,
            count,
            builder: self.id,
            _marker: PhantomData,
        }
    }

    /// Adds a [`Source`] node; its stream carries whatever the source
    /// emits.
    pub fn source<S>(&mut self, name: impl Into<String>, source: S) -> Stream<S::Out>
    where
        S: Source + 'static,
    {
        let name = name.into();
        self.check_name(&name);
        let metrics = Arc::new(NodeMetrics::new(name.clone()));
        let m = Arc::clone(&metrics);
        let node_name = name.clone();
        let (max_batch, batch_timeout) = (self.batch_size, self.batch_timeout);
        let factory: Factory = Box::new(move |outlets, stop, errors| {
            let outlets = *outlets.downcast().expect("source outlet type");
            Box::new(move || {
                runtime::run_source(
                    source,
                    node_name,
                    outlets,
                    stop,
                    m,
                    errors,
                    max_batch,
                    batch_timeout,
                )
            })
        });
        self.nodes.push(NodeSpec {
            name,
            outlets: Box::new(Vec::<Outlet<S::Out>>::new()),
            factory,
            metrics,
        });
        self.source_count += 1;
        self.stream(self.nodes.len() - 1, 1)
    }

    /// Adds a custom [`UnaryOperator`] node — the escape hatch behind
    /// [`map`](Self::map), [`filter`](Self::filter),
    /// [`flat_map`](Self::flat_map) and
    /// [`aggregate`](Self::aggregate).
    pub fn operator<I, O, Op>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<I>,
        op: Op,
    ) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
        Op: UnaryOperator<I, O> + 'static,
    {
        self.node(name.into(), std::slice::from_ref(input), op)
    }

    /// Adds a node running `op` whose inputs are `inputs`, in order:
    /// one input per node of each stream.
    fn node<I, O, Op>(&mut self, name: String, inputs: &[Stream<I>], op: Op) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
        Op: UnaryOperator<I, O> + 'static,
    {
        let (tx, inbox) = self.inbox(inputs.iter().map(|s| s.count).sum());
        let mut first_input = 0;
        for s in inputs {
            self.connect(s, std::slice::from_ref(&tx), first_input, |e| e, None);
            first_input += s.count;
        }
        self.add_node(name, inbox, first_input, op)
    }

    /// Registers a node that runs `op` over `inbox`, fed by `inputs`
    /// upstream outlets.
    fn add_node<I, O, Op>(
        &mut self,
        name: String,
        inbox: Receiver<Inbound<I>>,
        inputs: usize,
        op: Op,
    ) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
        Op: UnaryOperator<I, O> + 'static,
    {
        self.check_name(&name);
        let metrics = Arc::new(NodeMetrics::new(name.clone()));
        let m = Arc::clone(&metrics);
        let max_batch = self.batch_size;
        let factory: Factory = Box::new(move |outlets, _stop, _errors| {
            let outlets = *outlets.downcast().expect("node outlet type");
            Box::new(move || runtime::run_node(op, inbox, inputs, outlets, m, max_batch))
        });
        self.nodes.push(NodeSpec {
            name,
            outlets: Box::new(Vec::<Outlet<O>>::new()),
            factory,
            metrics,
        });
        self.stream(self.nodes.len() - 1, 1)
    }

    /// Adds a `Map` node: exactly one output per input.
    pub fn map<I, O>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<I>,
        f: impl FnMut(I) -> O + Send + 'static,
    ) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
    {
        self.operator(name, input, Map::new(f))
    }

    /// Adds a `Filter` node: forwards items satisfying the predicate.
    pub fn filter<T>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<T>,
        predicate: impl FnMut(&T) -> bool + Send + 'static,
    ) -> Stream<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        self.operator(name, input, Filter::new(predicate))
    }

    /// Adds a `FlatMap` node: zero or more outputs per input.
    pub fn flat_map<I, O, II>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<I>,
        f: impl FnMut(I) -> II + Send + 'static,
    ) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
        II: IntoIterator<Item = O> + 'static,
    {
        self.operator(name, input, FlatMap::new(f))
    }

    /// Adds an `Aggregate` node: event-time windows of `spec`, grouped
    /// by `key_fn`, reduced by `window_fn` when the watermark closes
    /// each window. See [`Aggregate`] for ordering and lateness
    /// semantics.
    pub fn aggregate<I, K, O>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<I>,
        spec: WindowSpec,
        key_fn: impl FnMut(&I) -> K + Send + 'static,
        window_fn: impl FnMut(&K, WindowBounds, &[I]) -> Vec<O> + Send + 'static,
    ) -> Stream<O>
    where
        I: Timestamped + Clone + Send + Sync + 'static,
        K: Ord + Clone + Send + 'static,
        O: Clone + Send + Sync + 'static,
    {
        self.operator(name, input, Aggregate::new(spec, key_fn, window_fn))
    }

    /// Adds a `Join` node over a `left` and a `right` stream: emits
    /// `join_fn(l, r)` for every pair with `|l.τ − r.τ| ≤ ws_millis`
    /// sharing the same group-by key. See [`Join`].
    #[allow(clippy::too_many_arguments)]
    pub fn join<L, R, K, O>(
        &mut self,
        name: impl Into<String>,
        left: &Stream<L>,
        right: &Stream<R>,
        ws_millis: u64,
        key_left: impl FnMut(&L) -> K + Send + 'static,
        key_right: impl FnMut(&R) -> K + Send + 'static,
        join_fn: impl FnMut(&L, &R) -> Option<O> + Send + 'static,
    ) -> Stream<O>
    where
        L: Timestamped + Clone + Send + Sync + 'static,
        R: Timestamped + Clone + Send + Sync + 'static,
        K: std::hash::Hash + Eq + Clone + Send + 'static,
        O: Clone + Send + Sync + 'static,
    {
        let inputs = left.count + right.count;
        let (tx, inbox) = self.inbox(inputs);
        let tx = std::slice::from_ref(&tx);
        self.connect(left, tx, 0, |e| e.map(JoinInput::Left), None);
        self.connect(right, tx, left.count, |e| e.map(JoinInput::Right), None);
        let op = Join::new(ws_millis, key_left, key_right, join_fn);
        self.add_node(name.into(), inbox, inputs, op)
    }

    /// Adds a `Union` node merging homogeneous streams; watermarks
    /// are merged as the minimum across inputs.
    pub fn union<T>(&mut self, name: impl Into<String>, inputs: &[Stream<T>]) -> Stream<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        if inputs.is_empty() {
            self.errors.push(Error::InvalidQuery(
                "union requires at least one input stream".into(),
            ));
        }
        self.node(name.into(), inputs, Identity::new())
    }

    /// Runs `parallelism` instances of a unary operator side by side,
    /// as the nodes `name.0` … `name.{parallelism-1}`, each produced by
    /// `op_factory(instance_index)`. Every upstream node routes its
    /// items over the instances by its own copy of `policy`, and the
    /// returned stream names all the instances: a consumer reads them
    /// as one stream, merging their watermarks. A single instance needs
    /// no routing: it is one node called `name`, like
    /// [`operator`](Self::operator).
    ///
    /// For stateful operators use [`RoutePolicy::by_key`] with the
    /// operator's group-by key so each instance sees complete groups.
    pub fn parallel_operator<I, O, Op>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<I>,
        parallelism: usize,
        policy: RoutePolicy<I>,
        op_factory: impl Fn(usize) -> Op,
    ) -> Stream<O>
    where
        I: Clone + Send + Sync + 'static,
        O: Clone + Send + Sync + 'static,
        Op: UnaryOperator<I, O> + 'static,
    {
        let name = name.into();
        let parallelism = if parallelism == 0 {
            self.errors
                .push(Error::InvalidConfig("parallelism must be > 0".into()));
            1
        } else {
            parallelism
        };
        if parallelism == 1 {
            return self.operator(name, input, op_factory(0));
        }
        let (senders, inboxes): (Vec<_>, Vec<_>) =
            (0..parallelism).map(|_| self.inbox(input.count)).unzip();
        self.connect(input, &senders, 0, |e| e, Some(&policy));
        let first = self.nodes.len();
        for (i, inbox) in inboxes.into_iter().enumerate() {
            self.add_node::<I, O, Op>(format!("{name}.{i}"), inbox, input.count, op_factory(i));
        }
        self.stream(first, parallelism)
    }

    /// Adds a sink node invoking `f` on every item it receives.
    pub fn sink<T>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<T>,
        f: impl FnMut(T) + Send + 'static,
    ) where
        T: Clone + Send + Sync + 'static,
    {
        self.node::<T, (), _>(name.into(), std::slice::from_ref(input), Sink(f));
        self.sink_count += 1;
    }

    /// Adds an element-level sink: `f` receives the data batches,
    /// merged watermarks and the final end-of-stream marker —
    /// everything a connector needs to republish a stream (control
    /// flow included) into an external system.
    pub fn element_sink<T>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<T>,
        f: impl FnMut(Element<T>) + Send + 'static,
    ) where
        T: Clone + Send + Sync + 'static,
    {
        self.node::<T, (), _>(name.into(), std::slice::from_ref(input), ElementSink(f));
        self.sink_count += 1;
    }

    /// Adds a sink that appends every item to a shared buffer and
    /// returns the [`CollectHandle`] for reading it back.
    pub fn collect_sink<T>(
        &mut self,
        name: impl Into<String>,
        input: &Stream<T>,
    ) -> CollectHandle<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        let handle = CollectHandle::new();
        let sink_handle = handle.clone();
        self.sink(name, input, move |item| sink_handle.push(item));
        handle
    }

    /// Finalizes the graph into a runnable [`Query`].
    ///
    /// # Errors
    ///
    /// Returns the first construction error recorded by the builder
    /// methods, or [`Error::InvalidQuery`] if the graph has no source
    /// or no sink.
    pub fn build(mut self) -> Result<Query> {
        if self.source_count == 0 {
            self.errors
                .push(Error::InvalidQuery("query has no source".into()));
        }
        if self.sink_count == 0 {
            self.errors
                .push(Error::InvalidQuery("query has no sink".into()));
        }
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::with_capacity(self.nodes.len());
        let mut metrics = Vec::with_capacity(self.nodes.len());
        for node in self.nodes {
            metrics.push(Arc::clone(&node.metrics));
            let worker = (node.factory)(node.outlets, Arc::clone(&stop), Arc::clone(&errors));
            workers.push((node.name, worker));
        }
        Ok(Query::new(self.name, workers, stop, metrics, errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::IteratorSource;

    #[test]
    fn rejects_empty_query() {
        let qb = QueryBuilder::new("empty");
        assert!(matches!(qb.build(), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn rejects_query_without_sink() {
        let mut qb = QueryBuilder::new("no-sink");
        let _src = qb.source("s", IteratorSource::new(0..3));
        assert!(matches!(qb.build(), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut qb = QueryBuilder::new("dups");
        let s = qb.source("node", IteratorSource::new(0..3));
        let t = qb.map("node", &s, |x| x);
        let _ = qb.collect_sink("out", &t);
        assert!(matches!(qb.build(), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut qb = QueryBuilder::new("cap");
        qb.channel_capacity(0);
        let s = qb.source("s", IteratorSource::new(0..3));
        let _ = qb.collect_sink("out", &s);
        assert!(matches!(qb.build(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn rejects_foreign_stream_handles() {
        let mut qb1 = QueryBuilder::new("one");
        let foreign = qb1.source("s", IteratorSource::new(0..3));
        let mut qb2 = QueryBuilder::new("two");
        let local = qb2.source("s", IteratorSource::new(0..3));
        let _ = qb2.collect_sink("ok", &local);
        let _ = qb2.collect_sink("bad", &foreign);
        assert!(matches!(qb2.build(), Err(Error::InvalidQuery(_))));
    }

    #[test]
    fn rejects_zero_parallelism() {
        let mut qb = QueryBuilder::new("zero");
        let s = qb.source("s", IteratorSource::new(0..3));
        let instances = qb.parallel_operator("p", &s, 0, RoutePolicy::RoundRobin, |_| Identity);
        assert_eq!(instances.count, 1, "clamped to one instance");
        let _ = qb.collect_sink("out", &instances);
        assert!(matches!(qb.build(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn streams_are_copy() {
        let mut qb = QueryBuilder::new("copy");
        let s = qb.source("s", IteratorSource::new(0..3));
        let s2 = s; // Copy
        let _ = qb.collect_sink("a", &s);
        let _ = qb.collect_sink("b", &s2);
        assert!(qb.build().is_ok());
    }
}
