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
//!   record in the one-file `vax-queue-journal v3` codec; compaction
//!   moves settled jobs behind an index at the head of the file, so
//!   replay and result streaming are O(unsettled) in memory and the
//!   live records stay few no matter how long the queue's history
//!   grows;
//! - [`queue`] — the in-process executor (one attempt on the worker's
//!   own thread, stopped at its per-attempt deadline) and the
//!   `vax-job-result v1` blob remote workers send back;
//! - [`wire`] — the line protocol (Unix socket or TCP) and client;
//! - [`server`] — the worker pool with bounded-capacity backpressure,
//!   per-client quotas, bounded retry with deterministic backoff,
//!   `drain` streaming, and remote `claim` workers over TCP;
//! - [`campaign`] — the repository's one campaign engine: enqueue a
//!   list of specs, drain the journal offline, read the measurements
//!   back in spec order. `vax780 run` and `vax780 sweep` run through it,
//!   with a journal file (`run --checkpoint`) or a private temporary one.
//!
//! The server's worker pool is the only one in the repository, and
//! [`InProcessExecutor`] the one place that catches a panicking job.
//!
//! The durability contract, end to end: `kill -9` the server at any
//! instant, restart it on the same journal, and the merged results are
//! bit-identical to an uninterrupted run — completed jobs replay from
//! disk, unsettled jobs re-run, and `Experiment::run`'s determinism
//! makes the re-runs indistinguishable from first runs. Appends are
//! flushed, not synced, so that contract covers process death, not an
//! OS crash or power loss (see [`journal`]). `vax780 run --checkpoint`
//! keeps a campaign's journal in a named file, so a killed campaign
//! resumes from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod journal;
pub mod queue;
pub mod server;
pub mod spec;
pub mod wire;

pub use campaign::{default_workers, run_campaign, Campaign};
pub use journal::{valid_client_name, JobId, JobState, Journal, JournalError};
pub use queue::{Executor, InProcessExecutor};
pub use server::{run_server, ServeConfig, ServeError, ServerReport};
pub use spec::{JobSpec, Tier};
pub use wire::{Client, Endpoint};
