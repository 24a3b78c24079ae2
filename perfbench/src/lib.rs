//! Open-loop benchmark for the wsrep registry and the Figure-4 mechanism
//! market.
//!
//! One binary (`perfbench`) runs one workload per invocation:
//!
//! - `query` — read-only Score/TopK traffic against a server recovered
//!   from a seeded journal;
//! - `replicated` — durable writes (keyed Ingest batches, each followed by
//!   a Flush) to a primary beside reads on its replica;
//! - `market` — every Figure-4 mechanism plus random choice driving the
//!   simulated service market, no server.
//!
//! The load generator ([`driver`]) is open-loop: requests leave on a fixed
//! schedule and every latency is measured from the request's intended
//! send time, so a stall is charged to every request queued behind it.
//! Servers run in the benchmark process and are started through their
//! public constructors; a traced run (`--trace 1`) replays the same op
//! stream at each layer's public functions and reports per-layer self
//! times ([`trace`]).

pub mod checks;
pub mod driver;
pub mod host;
pub mod json;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
