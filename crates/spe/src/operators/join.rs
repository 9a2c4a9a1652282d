//! The stateful `Join` operator: event-time band join with optional
//! group-by.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::operator::UnaryOperator;
use crate::time::{Timestamp, Timestamped};

/// Joins a left stream `L` and a right stream `R`, producing an
/// output for every pair `⟨tL, tR⟩` such that
/// `|tL.τ − tR.τ| ≤ WS` and the join function returns `Some` (§2 of
/// the STRATA paper). When a group-by key is used, only pairs sharing
/// the same key are considered.
///
/// `WS == 0` joins exactly the tuples carrying the same timestamp,
/// which is how STRATA's `fuse` behaves when no window is specified.
///
/// State is bounded by watermarks: a buffered tuple is evicted once
/// the combined watermark passes `τ + WS`, because no future tuple of
/// the other stream can still match it.
///
/// A join node has one inbox like every other node: its two inputs
/// arrive tagged as [`JoinInput::Left`] and [`JoinInput::Right`], and
/// the join is an ordinary [`UnaryOperator`] over the tagged items.
pub struct Join<L, R, K, O, KL, KR, JF> {
    ws: u64,
    key_left: KL,
    key_right: KR,
    join_fn: JF,
    left: HashMap<K, VecDeque<L>>,
    right: HashMap<K, VecDeque<R>>,
    buffered: usize,
    _out: std::marker::PhantomData<fn() -> O>,
}

/// An item on one of a [`Join`]'s two inputs, tagged with its side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinInput<L, R> {
    /// A tuple of the left stream.
    Left(L),
    /// A tuple of the right stream.
    Right(R),
}

impl<L, R, K, O, KL, KR, JF> std::fmt::Debug for Join<L, R, K, O, KL, KR, JF> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Join")
            .field("ws", &self.ws)
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl<L, R, K, O, KL, KR, JF> Join<L, R, K, O, KL, KR, JF>
where
    L: Timestamped,
    R: Timestamped,
    K: Hash + Eq + Clone,
    KL: FnMut(&L) -> K + Send,
    KR: FnMut(&R) -> K + Send,
    JF: FnMut(&L, &R) -> Option<O> + Send,
{
    /// Creates a join with band width `ws_millis` (`WS`), group-by key
    /// extractors for both sides and the pair-combining function.
    pub fn new(ws_millis: u64, key_left: KL, key_right: KR, join_fn: JF) -> Self {
        Join {
            ws: ws_millis,
            key_left,
            key_right,
            join_fn,
            left: HashMap::new(),
            right: HashMap::new(),
            buffered: 0,
            _out: std::marker::PhantomData,
        }
    }

    /// Number of tuples currently buffered on both sides.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    fn evict(&mut self, watermark: Timestamp) {
        // A tuple with timestamp τ can still match future tuples with
        // timestamps ≥ watermark only if τ + WS ≥ watermark.
        let keep_from = watermark.saturating_sub(self.ws);
        let mut evicted = 0usize;
        self.left.retain(|_, buf| {
            let before = buf.len();
            buf.retain(|t| t.timestamp() >= keep_from);
            evicted += before - buf.len();
            !buf.is_empty()
        });
        self.right.retain(|_, buf| {
            let before = buf.len();
            buf.retain(|t| t.timestamp() >= keep_from);
            evicted += before - buf.len();
            !buf.is_empty()
        });
        self.buffered -= evicted;
    }
}

impl<L, R, K, O, KL, KR, JF> UnaryOperator<JoinInput<L, R>, O> for Join<L, R, K, O, KL, KR, JF>
where
    L: Timestamped + Send,
    R: Timestamped + Send,
    K: Hash + Eq + Clone + Send,
    O: Send,
    KL: FnMut(&L) -> K + Send,
    KR: FnMut(&R) -> K + Send,
    JF: FnMut(&L, &R) -> Option<O> + Send,
{
    fn on_item(&mut self, item: JoinInput<L, R>, out: &mut Vec<O>) {
        match item {
            JoinInput::Left(l) => {
                let key = (self.key_left)(&l);
                for r in self.right.get(&key).into_iter().flatten() {
                    if l.timestamp().abs_diff(r.timestamp()) <= self.ws {
                        out.extend((self.join_fn)(&l, r));
                    }
                }
                self.left.entry(key).or_default().push_back(l);
            }
            JoinInput::Right(r) => {
                let key = (self.key_right)(&r);
                for l in self.left.get(&key).into_iter().flatten() {
                    if l.timestamp().abs_diff(r.timestamp()) <= self.ws {
                        out.extend((self.join_fn)(l, &r));
                    }
                }
                self.right.entry(key).or_default().push_back(r);
            }
        }
        self.buffered += 1;
    }

    fn on_watermark(&mut self, watermark: Timestamp, _out: &mut Vec<O>) {
        self.evict(watermark);
    }

    fn on_end(&mut self, _out: &mut Vec<O>) {
        self.left.clear();
        self.right.clear();
        self.buffered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::JoinInput::{Left, Right};
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Tup {
        ts: u64,
        key: u32,
        val: &'static str,
    }

    impl Timestamped for Tup {
        fn timestamp(&self) -> Timestamp {
            Timestamp::from_millis(self.ts)
        }
    }

    fn tup(ts: u64, key: u32, val: &'static str) -> Tup {
        Tup { ts, key, val }
    }

    type PairJoin = Join<
        Tup,
        Tup,
        u32,
        (&'static str, &'static str),
        fn(&Tup) -> u32,
        fn(&Tup) -> u32,
        fn(&Tup, &Tup) -> Option<(&'static str, &'static str)>,
    >;

    fn pair_join(ws: u64) -> PairJoin {
        Join::new(
            ws,
            |t: &Tup| t.key,
            |t: &Tup| t.key,
            |l: &Tup, r: &Tup| Some((l.val, r.val)),
        )
    }

    #[test]
    fn joins_within_band_and_key() {
        let mut j = pair_join(10);
        let mut out = Vec::new();
        j.on_item(Left(tup(100, 1, "l1")), &mut out);
        j.on_item(Right(tup(105, 1, "r1")), &mut out); // in band, same key
        j.on_item(Right(tup(150, 1, "r2")), &mut out); // out of band
        j.on_item(Right(tup(105, 2, "r3")), &mut out); // different key
        assert_eq!(out, vec![("l1", "r1")]);
    }

    #[test]
    fn zero_band_matches_equal_timestamps_only() {
        let mut j = pair_join(0);
        let mut out = Vec::new();
        j.on_item(Left(tup(100, 1, "l")), &mut out);
        j.on_item(Right(tup(100, 1, "r=")), &mut out);
        j.on_item(Right(tup(101, 1, "r+")), &mut out);
        assert_eq!(out, vec![("l", "r=")]);
    }

    #[test]
    fn both_arrival_orders_match() {
        let mut j = pair_join(5);
        let mut out = Vec::new();
        j.on_item(Right(tup(10, 7, "r")), &mut out);
        j.on_item(Left(tup(12, 7, "l")), &mut out);
        assert_eq!(out, vec![("l", "r")]);
    }

    #[test]
    fn predicate_can_reject_pairs() {
        let mut j: Join<Tup, Tup, u32, (), _, _, _> = Join::new(
            100,
            |t: &Tup| t.key,
            |t: &Tup| t.key,
            |_l: &Tup, _r: &Tup| None,
        );
        let mut out = Vec::new();
        j.on_item(Left(tup(1, 1, "l")), &mut out);
        j.on_item(Right(tup(1, 1, "r")), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn watermark_bounds_state() {
        let mut j = pair_join(10);
        let mut out = Vec::new();
        j.on_item(Left(tup(100, 1, "old")), &mut out);
        j.on_item(Left(tup(200, 1, "new")), &mut out);
        assert_eq!(j.buffered(), 2);
        // Watermark 150: tuples with τ + 10 < 150 can never match again.
        j.on_watermark(Timestamp::from_millis(150), &mut out);
        assert_eq!(j.buffered(), 1);
        // A right tuple at 111 would have matched "old" (|100-111|>10 →
        // no), at 105 it would — but 105 is below the watermark anyway,
        // so dropping "old" was safe.
        j.on_item(Right(tup(205, 1, "r")), &mut out);
        assert_eq!(out, vec![("new", "r")]);
        j.on_end(&mut out);
        assert_eq!(j.buffered(), 0);
    }

    #[test]
    fn eviction_keeps_still_matchable_tuples() {
        let mut j = pair_join(50);
        let mut out = Vec::new();
        j.on_item(Left(tup(100, 1, "l")), &mut out);
        j.on_watermark(Timestamp::from_millis(120), &mut out);
        // τ=100 with WS=50 can still match right tuples up to τ=150,
        // and watermark 120 < 150, so "l" must survive.
        j.on_item(Right(tup(130, 1, "r")), &mut out);
        assert_eq!(out, vec![("l", "r")]);
    }
}
