//! Sinks: the exit points of a continuous query. A sink node is an
//! operator with no outlets.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::element::{Batch, Element};
use crate::operator::UnaryOperator;
use crate::time::Timestamp;

/// The operator of a [`sink`](crate::builder::QueryBuilder::sink)
/// node: hands every item to the callback.
pub(crate) struct Sink<F>(pub(crate) F);

impl<T, F: FnMut(T) + Send> UnaryOperator<T, ()> for Sink<F> {
    fn on_item(&mut self, item: T, _out: &mut Vec<()>) {
        (self.0)(item);
    }
}

/// The operator of an
/// [`element_sink`](crate::builder::QueryBuilder::element_sink) node:
/// hands the callback each batch, each merged watermark and the final
/// end-of-stream marker.
pub(crate) struct ElementSink<F>(pub(crate) F);

impl<T, F: FnMut(Element<T>) + Send> UnaryOperator<T, ()> for ElementSink<F> {
    fn on_item(&mut self, item: T, out: &mut Vec<()>) {
        self.on_batch(vec![item], out);
    }

    fn on_batch(&mut self, items: Vec<T>, _out: &mut Vec<()>) {
        (self.0)(Element::Batch(Batch::new(items)));
    }

    fn on_watermark(&mut self, watermark: Timestamp, _out: &mut Vec<()>) {
        (self.0)(Element::Watermark(watermark));
    }

    fn on_end(&mut self, _out: &mut Vec<()>) {
        (self.0)(Element::End);
    }
}

/// A shared handle to the items accumulated by a
/// [`collect_sink`](crate::builder::QueryBuilder::collect_sink).
///
/// Cloning the handle is cheap; all clones observe the same buffer.
/// Typical use is to keep one clone while the query runs and call
/// [`take`](CollectHandle::take) (or [`snapshot`](CollectHandle::snapshot))
/// after [`RunningQuery::join`](crate::query::RunningQuery::join).
#[derive(Debug)]
pub struct CollectHandle<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T> Clone for CollectHandle<T> {
    fn clone(&self) -> Self {
        CollectHandle {
            items: Arc::clone(&self.items),
        }
    }
}

impl<T> Default for CollectHandle<T> {
    fn default() -> Self {
        CollectHandle::new()
    }
}

impl<T> CollectHandle<T> {
    /// Creates an empty handle.
    pub fn new() -> Self {
        CollectHandle {
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Number of items collected so far.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// `true` if nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }

    /// Removes and returns everything collected so far.
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock())
    }

    pub(crate) fn push(&self, item: T) {
        self.items.lock().push(item);
    }
}

impl<T: Clone> CollectHandle<T> {
    /// Returns a copy of everything collected so far, leaving the
    /// buffer intact.
    pub fn snapshot(&self) -> Vec<T> {
        self.items.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_takes() {
        let h = CollectHandle::new();
        assert!(h.is_empty());
        h.push(1);
        h.push(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.snapshot(), vec![1, 2]);
        assert_eq!(h.take(), vec![1, 2]);
        assert!(h.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = CollectHandle::new();
        let b = a.clone();
        a.push("x");
        assert_eq!(b.len(), 1);
        assert_eq!(b.take(), vec!["x"]);
        assert!(a.is_empty());
    }
}
