//! Routing policies for parallel operator instances.
//!
//! STRATA exploits the disjointness of specimen/portion analysis to
//! run event detection in parallel (§4 of the paper). A parallel stage
//! is just its instances: each upstream node sends every item to the
//! one instance its router picks, and watermarks and end-of-stream to
//! all of them — except that a round-robin stage behind a stage of the
//! same width is chained, instance `i` running on upstream `i`'s items
//! in upstream `i`'s thread.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Decides which instance of a parallel stage an item is routed to.
///
/// Cloning a policy shares its key function, so every upstream node
/// of a stage routes a key to the same instance.
pub enum RoutePolicy<T> {
    /// Cycle through the instances: item `k` of each upstream node goes
    /// to instance `k mod n`. Only safe for stateless operators.
    ///
    /// Over an input of exactly `n` nodes (a parallel stage of the same
    /// width) instance `i` instead takes every item of upstream node
    /// `i`, and runs chained in that node's thread (see
    /// [`QueryBuilder::parallel_operator`](crate::QueryBuilder::parallel_operator)).
    /// Either way each item reaches exactly one instance; only which
    /// one differs, and that is immaterial to a stateless operator.
    RoundRobin,
    /// Route by a key extracted from the item, so that all items with
    /// the same key share an instance — required for keyed stateful
    /// operators.
    ByKey(Arc<dyn Fn(&T) -> u64 + Send + Sync>),
}

impl<T> Clone for RoutePolicy<T> {
    fn clone(&self) -> Self {
        match self {
            RoutePolicy::RoundRobin => RoutePolicy::RoundRobin,
            RoutePolicy::ByKey(f) => RoutePolicy::ByKey(Arc::clone(f)),
        }
    }
}

impl<T> std::fmt::Debug for RoutePolicy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutePolicy::RoundRobin => f.write_str("RoutePolicy::RoundRobin"),
            RoutePolicy::ByKey(_) => f.write_str("RoutePolicy::ByKey(_)"),
        }
    }
}

impl<T> RoutePolicy<T> {
    /// Builds a [`RoutePolicy::ByKey`] from a hashable key extractor.
    ///
    /// ```
    /// use strata_spe::operators::RoutePolicy;
    /// let policy = RoutePolicy::by_key(|s: &String| s.len());
    /// ```
    pub fn by_key<K: Hash>(key_fn: impl Fn(&T) -> K + Send + Sync + 'static) -> Self {
        RoutePolicy::ByKey(Arc::new(move |item| {
            let mut hasher = DefaultHasher::new();
            key_fn(item).hash(&mut hasher);
            hasher.finish()
        }))
    }
}

/// Runtime state of a routed outlet: applies the policy to pick an
/// instance.
#[derive(Debug)]
pub(crate) struct Router<T> {
    policy: RoutePolicy<T>,
    ports: usize,
    next: usize,
}

impl<T> Router<T> {
    pub(crate) fn new(policy: RoutePolicy<T>, ports: usize) -> Self {
        debug_assert!(ports > 0);
        Router {
            policy,
            ports,
            next: 0,
        }
    }

    /// The instance for `item`.
    pub(crate) fn route(&mut self, item: &T) -> usize {
        match &self.policy {
            RoutePolicy::RoundRobin => {
                let port = self.next;
                self.next = (self.next + 1) % self.ports;
                port
            }
            RoutePolicy::ByKey(f) => (f(item) % self.ports as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut r: Router<u32> = Router::new(RoutePolicy::RoundRobin, 3);
        let ports: Vec<usize> = (0..6).map(|x| r.route(&x)).collect();
        assert_eq!(ports, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn by_key_is_stable_per_key() {
        let mut r: Router<u32> = Router::new(RoutePolicy::by_key(|x: &u32| *x), 4);
        let a1 = r.route(&42);
        let b = r.route(&7);
        let a2 = r.route(&42);
        assert_eq!(a1, a2);
        assert!(a1 < 4 && b < 4);
    }

    #[test]
    fn by_key_spreads_distinct_keys() {
        let mut r: Router<u64> = Router::new(RoutePolicy::by_key(|x: &u64| *x), 8);
        let mut used = std::collections::HashSet::new();
        for k in 0..1_000u64 {
            used.insert(r.route(&k));
        }
        assert!(used.len() >= 7, "hash routing should use most ports");
    }
}
