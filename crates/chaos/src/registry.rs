//! The process-wide failpoint registry.
//!
//! A *failpoint* is a named hook compiled into a production code path
//! (e.g. `"kv.wal.write"`). At runtime a test arms points through a
//! [`Scenario`]; the instrumented code calls [`hit`] and receives the
//! [`Fault`] to act out, if any. Without the `failpoints` cargo
//! feature, [`hit`] constant-folds to `None` and the registry is dead
//! code — the hooks cost nothing in release builds.
//!
//! Determinism: trigger decisions depend only on the per-point hit
//! counter and (for probabilistic triggers) a seeded RNG, never on
//! wall-clock time or global entropy. The same scenario against the
//! same workload fires the same faults.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fault a failpoint inflicts when it fires.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Fail with an injected I/O error of this kind.
    Io(std::io::ErrorKind),
    /// Write only the first `keep` bytes of the buffer, then fail
    /// with `kind` — a torn write, as after power loss mid-append.
    Torn {
        /// Bytes of the buffer that reach the file before the fault.
        keep: usize,
        /// The error kind reported for the lost remainder.
        kind: std::io::ErrorKind,
    },
    /// Sever the connection after `after` more bytes cross it
    /// (net-level; treated like [`Fault::Io`] on files).
    Sever {
        /// Bytes allowed through before the socket is shut down.
        after: usize,
    },
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Panic with this message (exercises supervision paths).
    Panic(String),
}

/// When an armed failpoint actually fires.
#[derive(Debug)]
enum Trigger {
    /// Every hit.
    Always,
    /// Only the `n`-th hit (1-based).
    Nth(u64),
    /// Every hit strictly after the first `n`.
    After(u64),
    /// The first `k` hits.
    Times(u64),
    /// Each hit independently with probability `p`, drawn from an RNG
    /// seeded per point — deterministic for a fixed seed and hit order.
    Probability { p: f64, rng: StdRng },
}

#[derive(Debug)]
struct Point {
    trigger: Trigger,
    fault: Fault,
    hits: u64,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, Point>,
    /// Cumulative fire counts; survive `Scenario` drop so tests can
    /// assert on them after the run, cleared by the next `setup`.
    fired: HashMap<String, u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` when the crate was built with the `failpoints` feature, i.e.
/// when arming a [`Scenario`] can actually inject faults.
#[must_use]
pub const fn is_compiled() -> bool {
    cfg!(feature = "failpoints")
}

/// Consults the registry at a named failpoint. Returns the fault to
/// act out, or `None` (the overwhelmingly common case).
///
/// Compiles to a constant `None` without the `failpoints` feature.
#[inline]
#[must_use]
pub fn hit(name: &str) -> Option<Fault> {
    if !is_compiled() || !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(name)
}

#[cold]
fn hit_slow(name: &str) -> Option<Fault> {
    let mut reg = lock_registry();
    let point = reg.points.get_mut(name)?;
    point.hits += 1;
    let fires = match &mut point.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => point.hits == *n,
        Trigger::After(n) => point.hits > *n,
        Trigger::Times(k) => point.hits <= *k,
        Trigger::Probability { p, rng } => rng.gen_bool(*p),
    };
    if !fires {
        return None;
    }
    let fault = point.fault.clone();
    *reg.fired.entry(name.to_string()).or_insert(0) += 1;
    Some(fault)
}

/// Acts out a fault at a plain (non-I/O-facade) call site: injected
/// errors return `Err`, delays sleep, panics panic. `Torn` and
/// `Sever` degrade to their error kind — they only make sense inside
/// the file/net facades.
///
/// # Errors
///
/// The injected [`std::io::Error`] when the point fires with an
/// error-carrying fault.
#[inline]
pub fn fail_point(name: &str) -> std::io::Result<()> {
    let Some(fault) = hit(name) else {
        return Ok(());
    };
    match fault {
        Fault::Io(kind) | Fault::Torn { kind, .. } => Err(std::io::Error::new(
            kind,
            format!("injected fault at {name}"),
        )),
        Fault::Sever { .. } => Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            format!("injected sever at {name}"),
        )),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        Fault::Panic(msg) => panic!("injected panic at {name}: {msg}"),
    }
}

/// Times the failpoint `name` has fired since the last
/// [`Scenario::setup`].
#[must_use]
pub fn fired(name: &str) -> u64 {
    lock_registry().fired.get(name).copied().unwrap_or(0)
}

/// Total faults fired across all failpoints since the last
/// [`Scenario::setup`]. Zero in builds without the `failpoints`
/// feature — callers may surface this unconditionally in metrics.
#[must_use]
pub fn total_fired() -> u64 {
    if !is_compiled() {
        return 0;
    }
    lock_registry().fired.values().sum()
}

fn scenario_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// An armed fault-injection scenario.
///
/// Holding a `Scenario` serializes chaos tests process-wide (the
/// registry is global state): `setup` blocks until any previous
/// scenario drops, then clears all points and counters. Dropping the
/// scenario disarms every point. While it is armed, though, a point
/// fires in every thread that reaches it: a concurrent test that runs
/// through an armed point without holding a scenario of its own can
/// take the fault. Tests that share instrumented code paths with a
/// chaos test therefore hold a `Scenario` too, armed or not.
#[must_use = "faults are disarmed when the Scenario drops"]
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts a fresh scenario: waits for exclusive ownership of the
    /// registry, clears all previously armed points and counters, and
    /// enables fault lookups.
    pub fn setup() -> Self {
        let guard = scenario_lock()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        {
            let mut reg = lock_registry();
            reg.points.clear();
            reg.fired.clear();
        }
        crate::vfs::reset_sync_tracking();
        ENABLED.store(true, Ordering::SeqCst);
        Scenario { _guard: guard }
    }

    fn arm(&self, name: &str, trigger: Trigger, fault: Fault) -> &Self {
        lock_registry().points.insert(
            name.to_string(),
            Point {
                trigger,
                fault,
                hits: 0,
            },
        );
        self
    }

    /// Arms `name` to fire on every hit.
    pub fn fail(&self, name: &str, fault: Fault) -> &Self {
        self.arm(name, Trigger::Always, fault)
    }

    /// Arms `name` to fire on exactly the `n`-th hit (1-based).
    pub fn fail_nth(&self, name: &str, n: u64, fault: Fault) -> &Self {
        self.arm(name, Trigger::Nth(n), fault)
    }

    /// Arms `name` to fire on every hit after the first `n`.
    pub fn fail_after(&self, name: &str, n: u64, fault: Fault) -> &Self {
        self.arm(name, Trigger::After(n), fault)
    }

    /// Arms `name` to fire on the first `k` hits only.
    pub fn fail_times(&self, name: &str, k: u64, fault: Fault) -> &Self {
        self.arm(name, Trigger::Times(k), fault)
    }

    /// Arms `name` to fire each hit independently with probability
    /// `p`, using an RNG seeded with `seed` — same seed, same
    /// workload, same faults.
    pub fn fail_with_probability(&self, name: &str, p: f64, seed: u64, fault: Fault) -> &Self {
        self.arm(
            name,
            Trigger::Probability {
                p,
                rng: StdRng::seed_from_u64(seed),
            },
            fault,
        )
    }

    /// Disarms a single point mid-scenario (e.g. after the recovery
    /// phase of a kill-and-reopen loop).
    pub fn clear(&self, name: &str) -> &Self {
        lock_registry().points.remove(name);
        self
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        lock_registry().points.clear();
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn disarmed_points_never_fire() {
        let _s = Scenario::setup();
        assert!(hit("registry.nothing-armed").is_none());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let s = Scenario::setup();
        s.fail_nth("registry.nth", 3, Fault::Io(ErrorKind::Other));
        let fired: Vec<bool> = (0..5).map(|_| hit("registry.nth").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(super::fired("registry.nth"), 1);
    }

    #[test]
    fn after_trigger_fires_from_then_on() {
        let s = Scenario::setup();
        s.fail_after("registry.after", 2, Fault::Io(ErrorKind::Other));
        let fired: Vec<bool> = (0..4).map(|_| hit("registry.after").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, true]);
    }

    #[test]
    fn probability_is_deterministic_for_a_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let s = Scenario::setup();
            s.fail_with_probability("registry.prob", 0.5, seed, Fault::Io(ErrorKind::Other));
            (0..64).map(|_| hit("registry.prob").is_some()).collect()
        };
        assert_eq!(pattern(7), pattern(7));
        assert_ne!(pattern(7), pattern(8), "different seeds should diverge");
    }

    #[test]
    fn drop_disarms_everything() {
        {
            let s = Scenario::setup();
            s.fail("registry.drop", Fault::Io(ErrorKind::Other));
            assert!(hit("registry.drop").is_some());
        }
        assert!(hit("registry.drop").is_none());
    }

    #[test]
    fn fail_point_returns_injected_error() {
        let s = Scenario::setup();
        s.fail("registry.fp", Fault::Io(ErrorKind::PermissionDenied));
        let err = fail_point("registry.fp").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert!(fail_point("registry.unarmed").is_ok());
    }
}
