//! Crash-safe, backpressured campaign serving.
//!
//! The paper's measurements were campaigns: many workload ×
//! configuration points, each an independent simulation. This crate
//! turns the batch campaign into a *service* that survives its own
//! death:
//!
//! - [`spec::JobSpec`] — one request (workload × CPU config × memory
//!   config × fault plan × seed) on one strict `key=value` line;
//! - [`journal::Journal`] — the persistent queue and the repository's
//!   one durable record log: every lifecycle transition
//!   (`enqueue`/`start`/`complete`/`fail`) is one appended, flushed
//!   record in the `vax-queue-journal v2` codec; settled jobs compact
//!   into a snapshot segment behind an offset index, so replay and
//!   result streaming are O(unsettled) in memory and the live tail
//!   stays small no matter how long the queue's history grows;
//! - [`queue`] — the in-process executor (one attempt on the worker's
//!   own thread, stopped at its per-attempt deadline) and the
//!   `vax-job-result v1` blob remote workers send back;
//! - [`wire`] — the line protocol (Unix socket or TCP) and client;
//! - [`server`] — the worker pool with bounded-capacity backpressure,
//!   per-client quotas, bounded retry with deterministic backoff,
//!   `drain` streaming, and remote `claim` workers over TCP.
//!
//! The durability contract, end to end: `kill -9` the server at any
//! instant, restart it on the same journal, and the merged results are
//! bit-identical to an uninterrupted run — completed jobs replay from
//! disk, unsettled jobs re-run, and `Experiment::run`'s determinism
//! makes the re-runs indistinguishable from first runs. Appends are
//! flushed, not synced, so that contract covers process death, not an
//! OS crash or power loss (see [`journal`]). `vax780 run --checkpoint`
//! drives the five-workload composite through this same queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod queue;
pub mod server;
pub mod spec;
pub mod wire;

pub use journal::{valid_client_name, JobId, JobState, Journal, JournalError};
pub use queue::{Executor, InProcessExecutor};
pub use server::{run_server, ServeConfig, ServeError, ServerReport};
pub use spec::{JobSpec, Tier};
pub use wire::{Client, Endpoint};
