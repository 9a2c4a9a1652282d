//! Stream elements: data items plus in-band control markers.

use std::sync::Arc;

use crate::time::Timestamp;

/// A shared micro-batch of data items.
///
/// The data plane moves items through channels in batches to amortize
/// per-element synchronization. The payload is reference-counted:
/// broadcasting a batch to N downstream channels clones the `Arc`, not
/// the items, and the *last* (or sole) consumer that calls
/// [`into_vec`](Batch::into_vec) takes the items by move.
///
/// ```
/// use strata_spe::Batch;
/// let batch = Batch::new(vec![1, 2, 3]);
/// let shared = batch.clone(); // Arc bump, items not copied
/// assert_eq!(batch.len(), 3);
/// assert_eq!(shared.into_vec(), vec![1, 2, 3]); // batch still holds an Arc
/// assert_eq!(batch.into_vec(), vec![1, 2, 3]); // sole owner: moved, not cloned
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Batch<T>(Arc<Vec<T>>);

impl<T> Batch<T> {
    /// Wraps `items` into a shared batch.
    pub fn new(items: Vec<T>) -> Self {
        Batch(Arc::new(items))
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the batch holds no items. The engine never sends
    /// empty batches; this exists for completeness.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The items as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// Iterates over the items by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }
}

impl<T: Clone> Batch<T> {
    /// Takes the items out. When this handle is the last owner the
    /// items are moved for free; otherwise they are cloned — which is
    /// why broadcast fan-out hands the *moved* original to the final
    /// consumer.
    pub fn into_vec(self) -> Vec<T> {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

/// Cloning a batch bumps the reference count; items are never copied.
/// (Manual impl: `derive` would needlessly require `T: Clone`.)
impl<T> Clone for Batch<T> {
    fn clone(&self) -> Self {
        Batch(Arc::clone(&self.0))
    }
}

impl<T> From<Vec<T>> for Batch<T> {
    fn from(items: Vec<T>) -> Self {
        Batch::new(items)
    }
}

impl<T> std::ops::Deref for Batch<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<'a, T> IntoIterator for &'a Batch<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A single unit flowing through a node's inbox: data (a shared
/// micro-batch; a single item is a batch of one) or an in-band control
/// marker.
///
/// Watermarks and end-of-stream markers travel through the same
/// bounded inboxes as data, so control information can never overtake
/// the data it describes. Control markers are always batch boundaries:
/// the engine flushes buffered data before forwarding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element<T> {
    /// A micro-batch of data tuples, shared by reference count across
    /// fan-out.
    Batch(Batch<T>),
    /// A promise from the upstream node that no future data element on
    /// this input will carry an event time **strictly lower** than
    /// the carried timestamp. Watermarks drive window closing in
    /// stateful operators.
    Watermark(Timestamp),
    /// End of stream: the upstream node has finished and will send
    /// nothing further. Receiving `End` on every input causes a node
    /// to flush its state and propagate `End` downstream.
    End,
}

impl<T> Element<T> {
    /// Returns `true` for data ([`Element::Batch`]).
    pub fn is_data(&self) -> bool {
        matches!(self, Element::Batch(_))
    }

    /// Returns `true` for [`Element::End`].
    pub fn is_end(&self) -> bool {
        matches!(self, Element::End)
    }
}

impl<T: Clone> Element<T> {
    /// Extracts the data items of a batch; none for control markers.
    pub fn into_items(self) -> Vec<T> {
        match self {
            Element::Batch(batch) => batch.into_vec(),
            _ => Vec::new(),
        }
    }

    /// Maps the contained items with `f`, preserving control markers.
    ///
    /// ```
    /// use strata_spe::{Batch, Element, Timestamp};
    /// let e = Element::Batch(Batch::new(vec![1, 2])).map(|x| x * 10);
    /// assert_eq!(e, Element::Batch(Batch::new(vec![10, 20])));
    /// let w: Element<i32> = Element::Watermark(Timestamp::from_millis(5));
    /// assert_eq!(w.map(|x| x * 10), Element::Watermark(Timestamp::from_millis(5)));
    /// ```
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Element<U> {
        match self {
            Element::Batch(batch) => {
                Element::Batch(Batch::new(batch.into_vec().into_iter().map(f).collect()))
            }
            Element::Watermark(w) => Element::Watermark(w),
            Element::End => Element::End,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Element::Batch(Batch::new(vec![1])).is_data());
        assert!(!Element::Batch(Batch::new(vec![1])).is_end());
        assert!(Element::<u32>::End.is_end());
        assert!(!Element::<u32>::End.is_data());
        assert!(!Element::<u32>::Watermark(Timestamp::MIN).is_data());
    }

    #[test]
    fn into_items_extracts_batch_data_only() {
        assert_eq!(
            Element::Batch(Batch::new(vec![1, 2])).into_items(),
            vec![1, 2]
        );
        assert_eq!(Element::<u8>::End.into_items(), Vec::<u8>::new());
        assert_eq!(
            Element::<u8>::Watermark(Timestamp::from_millis(1)).into_items(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn map_preserves_markers() {
        let end: Element<u32> = Element::End;
        assert_eq!(end.map(|x| x + 1), Element::End);
        assert_eq!(
            Element::Batch(Batch::new(vec![1u32, 2])).map(|x| x * 2),
            Element::Batch(Batch::new(vec![2u32, 4]))
        );
    }

    #[test]
    fn batch_clone_is_shared_not_copied() {
        let batch = Batch::new(vec![String::from("a"), String::from("b")]);
        let clone = batch.clone();
        assert_eq!(batch.as_slice(), clone.as_slice());
        // The clone still shares, so the original's into_vec clones...
        assert_eq!(clone.into_vec(), vec!["a", "b"]);
        // ...but once it is the sole owner, into_vec moves.
        assert_eq!(batch.into_vec(), vec!["a", "b"]);
    }
}
