//! Stream elements: data items plus in-band control markers.

use crate::time::Timestamp;

/// A single unit flowing through a node's inbox: data (a micro-batch;
/// a single item is a batch of one) or an in-band control marker.
///
/// Watermarks and end-of-stream markers travel through the same
/// bounded inboxes as data, so control information can never overtake
/// the data it describes. Control markers are always batch boundaries:
/// the engine flushes buffered data before forwarding them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element<T> {
    /// A micro-batch of data tuples, in arrival order.
    Batch(Vec<T>),
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

    /// Extracts the data items of a batch; none for control markers.
    pub fn into_items(self) -> Vec<T> {
        match self {
            Element::Batch(items) => items,
            _ => Vec::new(),
        }
    }

    /// Maps the contained items with `f`, preserving control markers.
    ///
    /// ```
    /// use strata_spe::{Element, Timestamp};
    /// let e = Element::Batch(vec![1, 2]).map(|x| x * 10);
    /// assert_eq!(e, Element::Batch(vec![10, 20]));
    /// let w: Element<i32> = Element::Watermark(Timestamp::from_millis(5));
    /// assert_eq!(w.map(|x| x * 10), Element::Watermark(Timestamp::from_millis(5)));
    /// ```
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Element<U> {
        match self {
            Element::Batch(items) => Element::Batch(items.into_iter().map(f).collect()),
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
        assert!(Element::Batch(vec![1]).is_data());
        assert!(!Element::Batch(vec![1]).is_end());
        assert!(Element::<u32>::End.is_end());
        assert!(!Element::<u32>::End.is_data());
        assert!(!Element::<u32>::Watermark(Timestamp::MIN).is_data());
    }

    #[test]
    fn into_items_extracts_batch_data_only() {
        assert_eq!(Element::Batch(vec![1, 2]).into_items(), vec![1, 2]);
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
            Element::Batch(vec![1u32, 2]).map(|x| x * 2),
            Element::Batch(vec![2u32, 4])
        );
    }
}
