//! The engine's native operators (§2 of the STRATA paper).
//!
//! STRATA's API methods are implemented as *compositions* of these
//! operators, which is what gives the framework its portability and
//! its access to parallel execution ([paper §4, Implementation]).
//!
//! * Stateless: [`map`], [`filter`], [`flat_map`], [`identity`].
//! * Stateful: [`aggregate`] (event-time windows), [`join`]
//!   (band join on event time with optional group-by).
//! * Routing: [`router`] (hash/round-robin partitioning used to build
//!   parallel operator instances).

pub mod aggregate;
pub mod filter;
pub mod flat_map;
pub mod identity;
pub mod join;
pub mod map;
pub mod router;

pub use aggregate::Aggregate;
pub use filter::Filter;
pub use flat_map::FlatMap;
pub use identity::Identity;
pub use join::{Join, JoinInput};
pub use map::Map;
pub use router::RoutePolicy;
