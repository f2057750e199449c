//! End-to-end and per-layer benchmark of the `pq-service` stack.
//!
//! Each run starts a `QueryService` with a pinned configuration
//! ([`spec::service_config`]), serves it with `pq_service::serve` on a
//! loopback port, and drives it over the wire protocol from a closed-loop
//! client with seeded requests ([`gen`]). Answers are checked outside the
//! measured window. A traced run replays each request through the public
//! function of every layer the service ran and derives per-layer metrics
//! from the recorded spans ([`replay`], [`trace`]).

pub mod gen;
pub mod replay;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire;
