//! The characterization study, end to end.
//!
//! Reproduces the paper's experimental procedure: build a workload
//! machine, let it reach steady state, attach the (passive) µPC histogram
//! monitor, measure, exclude the Null process, and reduce the histogram —
//! for each of the five workloads and for their composite, "the sum of
//! the five µPC histograms" (§2.2).
//!
//! This crate is the simulation and its reductions only: it starts no
//! threads and touches no files. A workload fault comes back as a typed
//! [`RunError`]. Campaigns with workers, retries or a journal run through
//! the `vax-serve` queue; [`CompositeStudy::run`] and
//! [`sweep::SweepGrid`] are the serial reference and the what-if grid it
//! measures.
//!
//! # Example
//!
//! ```no_run
//! use vax780_core::Experiment;
//! use vax_workloads::WorkloadKind;
//!
//! let measured = Experiment::new(WorkloadKind::TimesharingLight)
//!     .instructions(200_000)
//!     .run();
//! let analysis = measured.analysis();
//! println!("CPI = {:.2}", analysis.cpi());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod study;
pub mod sweep;

pub use experiment::{measure, Experiment, MeasuredWorkload, RunError};
pub use study::{CampaignMetrics, CompositeStudy, RetryPolicy, MAX_JOB_ATTEMPTS};
