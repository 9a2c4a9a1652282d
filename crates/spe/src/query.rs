//! Runnable queries and their lifecycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::metrics::{NodeMetrics, QueryMetrics};

type WorkerFn = Box<dyn FnOnce() + Send>;

/// A fully built continuous query, ready to [`run`](Query::run).
pub struct Query {
    name: String,
    workers: Vec<(String, WorkerFn)>,
    stop: Arc<AtomicBool>,
    metrics: Vec<Arc<NodeMetrics>>,
    errors: Arc<Mutex<Vec<Error>>>,
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("name", &self.name)
            .field("nodes", &self.workers.len())
            .finish()
    }
}

impl Query {
    pub(crate) fn new(
        name: String,
        workers: Vec<(String, WorkerFn)>,
        stop: Arc<AtomicBool>,
        metrics: Vec<Arc<NodeMetrics>>,
        errors: Arc<Mutex<Vec<Error>>>,
    ) -> Self {
        Query {
            name,
            workers,
            stop,
            metrics,
            errors,
        }
    }

    /// The query's name, as given to
    /// [`QueryBuilder::new`](crate::builder::QueryBuilder::new).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (threads) this query deploys.
    pub fn node_count(&self) -> usize {
        self.workers.len()
    }

    /// Spawns one thread per node and starts processing.
    ///
    /// Every worker runs under panic supervision: a panic in user
    /// code (an operator closure, a source, a sink) is caught, its
    /// node's inbox closes and its outlets end the inputs it fed, so
    /// the rest of the graph drains normally, and [`join`](RunningQuery::join) reports a
    /// structured [`Error::OperatorPanicked`] instead of the query
    /// hanging or aborting the process.
    pub fn run(self) -> RunningQuery {
        let Query {
            name,
            workers,
            stop,
            metrics,
            errors,
        } = self;
        let handles = workers
            .into_iter()
            .zip(metrics.iter())
            .map(|((node_name, worker), node_metrics)| {
                let errors = Arc::clone(&errors);
                let node_metrics = Arc::clone(node_metrics);
                let node = node_name.clone();
                let supervised = move || {
                    // AssertUnwindSafe: on panic the worker's state
                    // (operators, channels) is dropped wholesale, so
                    // no broken invariants can be observed afterwards.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(worker));
                    if let Err(payload) = result {
                        node_metrics.record_panic();
                        errors.lock().push(Error::OperatorPanicked {
                            node,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                };
                let handle = std::thread::Builder::new()
                    .name(format!("{name}/{node_name}"))
                    .spawn(supervised)
                    .expect("spawning a worker thread cannot fail under normal limits");
                (node_name, handle)
            })
            .collect();
        let metrics = QueryMetrics::new(name.clone(), metrics);
        RunningQuery {
            name,
            handles,
            stop,
            metrics,
            errors,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A deployed query whose node threads are processing data.
///
/// Dropping a `RunningQuery` without calling
/// [`join`](RunningQuery::join) detaches the threads; they finish on
/// their own when the sources end. Call [`stop`](RunningQuery::stop)
/// followed by `join` for a prompt, clean shutdown.
pub struct RunningQuery {
    name: String,
    handles: Vec<(String, JoinHandle<()>)>,
    stop: Arc<AtomicBool>,
    metrics: QueryMetrics,
    errors: Arc<Mutex<Vec<Error>>>,
}

impl std::fmt::Debug for RunningQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningQuery")
            .field("name", &self.name)
            .field("nodes", &self.handles.len())
            .finish()
    }
}

impl RunningQuery {
    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Asks the sources to stop; downstream nodes drain and flush
    /// their state, then every thread exits. Follow with
    /// [`join`](RunningQuery::join) to wait for that to happen.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Live per-node metrics.
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Waits for every node thread to finish.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OperatorPanicked`] if supervision caught a
    /// panic in any node's user code, [`Error::WorkerPanicked`] if a
    /// thread died outside supervision (should not happen), or the
    /// first error reported by a source ([`Error::SourceFailed`]).
    pub fn join(self) -> Result<QueryMetrics> {
        let mut panicked = None;
        for (name, handle) in self.handles {
            if handle.join().is_err() && panicked.is_none() {
                panicked = Some(name);
            }
        }
        if let Some(node) = panicked {
            return Err(Error::WorkerPanicked { node });
        }
        let errors = self.errors.lock();
        // A caught panic explains any secondary errors; report it
        // first so callers see the root cause deterministically.
        if let Some(panic) = errors
            .iter()
            .find(|e| matches!(e, Error::OperatorPanicked { .. }))
        {
            return Err(panic.clone());
        }
        if let Some(err) = errors.first().cloned() {
            return Err(err);
        }
        drop(errors);
        Ok(self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::QueryBuilder;
    use crate::source::{IteratorSource, Source, SourceContext};

    #[test]
    fn runs_a_linear_query_end_to_end() {
        let mut qb = QueryBuilder::new("linear");
        let src = qb.source("src", IteratorSource::new(0u32..100));
        let evens = qb.filter("evens", &src, |x| x % 2 == 0);
        let strings = qb.map("fmt", &evens, |x| format!("#{x}"));
        let out = qb.collect_sink("out", &strings);
        let query = qb.build().unwrap();
        assert_eq!(query.node_count(), 4);
        assert_eq!(query.name(), "linear");
        let metrics = query.run().join().unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out.take()[0], "#0");
        assert_eq!(metrics.node("evens").unwrap().items_in(), 100);
        assert_eq!(metrics.node("evens").unwrap().items_out(), 50);
    }

    #[test]
    fn stop_interrupts_an_infinite_source() {
        struct Endless;
        impl Source for Endless {
            type Out = u64;
            fn run(&mut self, ctx: &mut SourceContext<u64>) -> Result<(), String> {
                let mut i = 0;
                while !ctx.should_stop() {
                    if !ctx.emit(i) {
                        break;
                    }
                    i += 1;
                }
                Ok(())
            }
        }
        let mut qb = QueryBuilder::new("endless");
        let src = qb.source("src", Endless);
        let out = qb.collect_sink("out", &src);
        let running = qb.build().unwrap().run();
        while out.len() < 100 {
            std::thread::yield_now();
        }
        running.stop();
        running.join().unwrap();
        assert!(out.len() >= 100);
    }

    #[test]
    fn source_errors_surface_at_join() {
        struct Broken;
        impl Source for Broken {
            type Out = u8;
            fn run(&mut self, _ctx: &mut SourceContext<u8>) -> Result<(), String> {
                Err("sensor unplugged".into())
            }
        }
        let mut qb = QueryBuilder::new("broken");
        let src = qb.source("src", Broken);
        let _out = qb.collect_sink("out", &src);
        let err = qb.build().unwrap().run().join().unwrap_err();
        assert!(err.to_string().contains("sensor unplugged"));
    }

    #[test]
    fn operator_panics_surface_at_join() {
        let mut qb = QueryBuilder::new("panics");
        let src = qb.source("src", IteratorSource::new(0..10));
        let bad = qb.map("bad", &src, |x: i32| {
            assert!(x < 5, "boom");
            x
        });
        let _out = qb.collect_sink("out", &bad);
        let running = qb.build().unwrap().run();
        let metrics = running.metrics().clone();
        let err = running.join().unwrap_err();
        match err {
            crate::error::Error::OperatorPanicked { node, message } => {
                assert_eq!(node, "bad");
                assert!(message.contains("boom"), "payload preserved: {message}");
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
        assert_eq!(metrics.node("bad").unwrap().panics(), 1);
        assert_eq!(metrics.total_panics(), 1);
        // The user-visible summary surfaces the caught panic.
        let summary = metrics.snapshot().to_string();
        assert!(summary.contains("query `panics`"), "{summary}");
        assert!(summary.contains("panics 1"), "{summary}");
        assert!(
            summary
                .lines()
                .any(|l| l.contains("bad:") && l.contains("panics=1")),
            "the panicking node is flagged in its row: {summary}"
        );
    }
}
