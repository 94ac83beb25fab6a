//! Job execution: how one [`JobSpec`] becomes one measurement.
//!
//! The server runs work two ways. [`InProcessExecutor`] runs the
//! experiment on the calling worker thread; a remote `vax780 worker`
//! process claims the job over the wire and sends back a
//! `vax-job-result v1` blob ([`render_result_blob`]), which gives
//! process isolation and multi-host sharding. Both run the same
//! `Experiment::run`, so both return the same bit-deterministic
//! [`MeasuredWorkload`].

use crate::spec::JobSpec;
use std::time::{Duration, Instant};
use upc_monitor::codec;
use vax780_core::MeasuredWorkload;

const BLOB_HEADER: &str = "vax-job-result v1";

/// Why one execution attempt failed.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The simulation panicked.
    Failed(String),
    /// The attempt exceeded its deadline and gave up.
    Timeout(Duration),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Failed(msg) => write!(f, "{msg}"),
            ExecError::Timeout(limit) => {
                write!(f, "timed out after {:.1}s", limit.as_secs_f64())
            }
        }
    }
}

/// Runs one attempt of one job.
pub trait Executor: Send + Sync {
    /// Run the spec to completion, or fail/time out.
    ///
    /// # Errors
    ///
    /// [`ExecError`] on panic or deadline overrun.
    fn run(&self, spec: &JobSpec, timeout: Option<Duration>)
        -> Result<MeasuredWorkload, ExecError>;
}

/// Render a measurement as the `vax-job-result v1` blob a remote worker
/// sends back on its claim connection.
pub fn render_result_blob(m: &MeasuredWorkload) -> String {
    let mut out = format!(
        "{BLOB_HEADER}\nresult instructions {} cycles {}\n",
        m.instructions, m.cycles
    );
    out.push_str(&codec::to_text_with_counters(
        &m.histogram,
        &m.counters.to_pairs(),
    ));
    out.push_str("end\n");
    out
}

/// Parse a `vax-job-result v1` blob back into a measurement. `name`
/// restores the workload label (the blob itself carries only numbers).
///
/// # Errors
///
/// A description of the first malformed line.
pub fn parse_result_blob(text: &str, name: &'static str) -> Result<MeasuredWorkload, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l.trim() == BLOB_HEADER => {}
        other => return Err(format!("missing `{BLOB_HEADER}` header (got {other:?})")),
    }
    let head = lines.next().unwrap_or("");
    let (instructions, cycles) = match head.split_ascii_whitespace().collect::<Vec<_>>().as_slice()
    {
        ["result", "instructions", i, "cycles", c] => i
            .parse::<u64>()
            .ok()
            .zip(c.parse::<u64>().ok())
            .ok_or_else(|| format!("bad result line `{head}`"))?,
        _ => return Err(format!("bad result line `{head}`")),
    };
    let mut body = String::new();
    let mut closed = false;
    for l in lines {
        if l.trim() == "end" {
            closed = true;
            break;
        }
        body.push_str(l);
        body.push('\n');
    }
    if !closed {
        return Err("result blob has no `end` line".to_string());
    }
    let (histogram, counter_pairs) =
        codec::from_text_with_counters(&body).map_err(|e| e.to_string())?;
    let counters =
        vax_mem::HwCounters::from_pairs(counter_pairs.iter().map(|(n, v)| (n.as_str(), *v)));
    Ok(MeasuredWorkload {
        name,
        histogram,
        counters,
        instructions,
        cycles,
    })
}

/// Run the job on the calling thread. The experiment reads the clock
/// between simulation steps and gives up at the attempt's deadline, so
/// a timed-out attempt stops simulating when it is reported.
///
/// Every attempt validates its spec first ([`JobSpec::validate`]): a job
/// that reached a journal without validation fails its attempt with the
/// reason instead of building a machine it cannot allocate.
#[derive(Debug, Default)]
pub struct InProcessExecutor;

impl Executor for InProcessExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        spec.validate().map_err(ExecError::Failed)?;
        // A deadline past the clock's range is no deadline.
        let deadline = timeout.and_then(|limit| Instant::now().checked_add(limit));
        let exp = spec.experiment();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run_until(deadline)))
            .map_err(|p| ExecError::Failed(panic_message(&p)))?
            .ok_or(ExecError::Timeout(timeout.unwrap_or_default()))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_workloads::WorkloadKind;

    #[test]
    fn blob_round_trips() {
        let mut spec = JobSpec::new(WorkloadKind::TimesharingLight);
        spec.instructions = 2_000;
        spec.warmup = 500;
        let m = InProcessExecutor.run(&spec, None).expect("runs");
        let blob = render_result_blob(&m);
        let back = parse_result_blob(&blob, m.name).expect("parses");
        assert_eq!(back.instructions, m.instructions);
        assert_eq!(back.cycles, m.cycles);
        assert_eq!(back.histogram, m.histogram);
        assert_eq!(back.counters, m.counters);
    }

    #[test]
    fn blob_parse_rejects_damage() {
        for bad in [
            "",
            "wrong header\n",
            "vax-job-result v1\nresult instructions x cycles 2\nend\n",
            "vax-job-result v1\nresult instructions 1 cycles 2\nupc-histogram v1\n",
        ] {
            assert!(parse_result_blob(bad, "x").is_err(), "{bad:?}");
        }
    }

    /// A spec that skipped validation (say, one already in a journal)
    /// fails its attempt naming the key; the machine is never built —
    /// unvalidated, this write buffer alone would ask for about 34 GB.
    #[test]
    fn in_process_attempt_rejects_an_unbounded_spec() {
        let mut spec = JobSpec::new(WorkloadKind::Educational);
        spec.write_buffer = Some(u32::MAX);
        for timeout in [None, Some(Duration::from_secs(60))] {
            match InProcessExecutor.run(&spec, timeout) {
                Err(ExecError::Failed(msg)) => assert!(msg.starts_with("write-buffer"), "{msg}"),
                other => panic!(
                    "expected a failed attempt, got {:?}",
                    other.map(|m| m.cycles)
                ),
            }
        }
    }

    #[test]
    fn in_process_timeout_abandons_the_attempt() {
        let mut spec = JobSpec::new(WorkloadKind::TimesharingHeavy);
        spec.instructions = 50_000_000;
        spec.warmup = 0;
        let err = InProcessExecutor
            .run(&spec, Some(Duration::from_millis(20)))
            .expect_err("cannot finish in 20ms");
        assert!(matches!(err, ExecError::Timeout(_)), "{err}");
    }
}
