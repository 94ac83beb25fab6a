//! The characterization study, end to end.
//!
//! Reproduces the paper's experimental procedure: build a workload
//! machine, let it reach steady state, attach the (passive) µPC histogram
//! monitor, measure, exclude the Null process, and reduce the histogram —
//! for each of the five workloads and for their composite, "the sum of
//! the five µPC histograms" (§2.2).
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

pub use experiment::{measure, Experiment, MeasuredWorkload};
pub use study::{
    default_workers, CampaignMetrics, CampaignOutcome, CompositeStudy, JobFailure, RetryPolicy,
    MAX_JOB_ATTEMPTS,
};
