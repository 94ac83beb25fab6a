//! `campaign`: short jobs through an in-process `vax_serve::run_server`.
//!
//! A round starts a server on a fresh journal and a Unix socket, then
//! one closed-loop client enqueues every job over the socket, each
//! followed by a `status` (writes beside reads), while the workers run
//! them, and finally drains: the server streams each result as it
//! settles and stops. The server compacts its journal mid-round. Host
//! threads doing work never exceed the host's cores: the client plus
//! `cores - 1` workers (at least one).

use crate::check::{digest, Checker};
use crate::sim::{prepare, record_tier_stats};
use crate::stats::{least, median, quantile, ratio, Spans};
use crate::{inputs, layers, Metric, Options, Outcome, E2E_METRICS, MIN_ROUNDS};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vax780_core::{measure, MeasuredWorkload, RetryPolicy};
use vax_cpu::CpuConfig;
use vax_serve::queue::ExecError;
use vax_serve::{run_server, Client, Endpoint, Executor, InProcessExecutor, JobSpec, ServeConfig};

/// Cores this host offers the benchmark.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Server worker threads: one core is the client's.
fn workers() -> usize {
    host_threads().saturating_sub(1).max(1)
}

/// How long a client waits for the server's socket to accept.
const PATIENCE: Duration = Duration::from_secs(10);

/// Name of the job the journal numbers `id`: the `i`-th job a round
/// enqueues has id `i + 1`.
pub fn job_name(id: usize) -> String {
    format!("job-{id}")
}

/// CPI as the journal's result line prints it.
pub fn journal_cpi(m: &MeasuredWorkload) -> String {
    format!("{:.6}", ratio(m.cycles as f64, m.instructions as f64))
}

/// Runs each job as `Experiment::run` would, one layer call at a time,
/// so the traced run sees build, warm-up and measurement separately.
struct TracedExecutor {
    spans: Mutex<Spans>,
}

impl Executor for TracedExecutor {
    fn run(&self, spec: &JobSpec, _: Option<Duration>) -> Result<MeasuredWorkload, ExecError> {
        let mut spans = Spans::new(true);
        let t = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut machine = prepare(spec, spec.cpu_config(), &mut spans)?;
            let m = spans.time("monitor.measure", || {
                measure(&mut machine, spec.instructions)
            });
            spans.add("monitor.instructions", m.instructions);
            record_tier_stats(&machine, &mut spans);
            layers::record_counters(&m, &mut spans);
            Ok::<_, String>(m)
        }));
        spans.record("campaign.job", t.elapsed().as_secs_f64());
        self.spans
            .lock()
            .expect("no span holder panics while holding the lock")
            .merge(spans);
        match result {
            Ok(Ok(m)) => Ok(m),
            Ok(Err(e)) => Err(ExecError::Failed(e)),
            Err(_) => Err(ExecError::Failed("job panicked".to_string())),
        }
    }
}

/// One drained result line, reduced to what the checks compare.
#[derive(Debug, PartialEq)]
struct Settled {
    job: usize,
    digest: u64,
    cpi: String,
}

/// The value of `"key":` in one flat JSON result line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

fn parse_settled(line: &str) -> Result<Settled, String> {
    if field(line, "failed") == Some("true") {
        return Err(format!("job failed: {line}"));
    }
    let parsed = (|| {
        Some(Settled {
            job: field(line, "job")?.parse().ok()?,
            digest: u64::from_str_radix(field(line, "digest")?, 16).ok()?,
            cpi: field(line, "cpi")?.to_string(),
        })
    })();
    parsed.ok_or_else(|| format!("unreadable result line: {line}"))
}

/// Wait until the server has bound its socket, so the first request
/// does not pay the client's connect-retry sleep.
fn await_socket(path: &Path) {
    let deadline = Instant::now() + PATIENCE;
    while !path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What the client saw in one round.
#[derive(Debug, Default)]
struct Round {
    setup: f64,
    timed: f64,
    settled: Vec<Settled>,
    request_secs: Vec<f64>,
    refused: u64,
    errors: Vec<String>,
}

fn client_side(
    specs: &[JobSpec],
    client: &Client,
    round: &mut Round,
    timed_start: Instant,
) -> Result<(), String> {
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        let reply = client
            .request_line(&format!("enqueue {}", spec.render()))
            .map_err(|e| format!("enqueue: {e}"))?;
        round.request_secs.push(t.elapsed().as_secs_f64());
        if !reply.starts_with("ok ") {
            round.refused += 1;
            round
                .errors
                .push(format!("{} refused: {reply}", job_name(i + 1)));
        }
        let t = Instant::now();
        client
            .request_stream("status", &mut std::io::sink())
            .map_err(|e| format!("status: {e}"))?;
        round.request_secs.push(t.elapsed().as_secs_f64());
    }
    let mut drained = Vec::new();
    client
        .request_stream("drain", &mut drained)
        .map_err(|e| format!("drain: {e}"))?;
    round.timed = timed_start.elapsed().as_secs_f64();
    for line in String::from_utf8_lossy(&drained).lines() {
        match parse_settled(line) {
            Ok(settled) => round.settled.push(settled),
            Err(e) => round.errors.push(e),
        }
    }
    Ok(())
}

/// One campaign round on a fresh journal under `dir`.
fn round(
    options: &Options,
    specs: &[JobSpec],
    dir: &Path,
    setup_start: Instant,
    executor: Arc<dyn Executor>,
    spans: &mut Spans,
    checker: &mut Checker,
) -> Round {
    let mut result = Round::default();
    if let Err(e) = std::fs::create_dir_all(dir) {
        result
            .errors
            .push(format!("work dir {}: {e}", dir.display()));
        return result;
    }
    // Warm-up: one job per profile through `Experiment::run`, checked
    // against the same job's drained result.
    for (i, spec) in specs.iter().enumerate().take(inputs::PROFILES) {
        let m = spans.time("core.experiment", || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.experiment().run()))
        });
        match m {
            Ok(m) => checker.check(&job_name(i + 1), digest(&m), &journal_cpi(&m)),
            Err(_) => result
                .errors
                .push(format!("{}: warm-up job panicked", job_name(i + 1))),
        }
    }
    let socket = dir.join("s.sock");
    let config = ServeConfig {
        journal: dir.join("q.journal"),
        workers: workers(),
        capacity: specs.len() + 1,
        client_quota: None,
        compact_every: options.size.compact_every,
        retry: RetryPolicy::default(),
        timeout: None,
        drain_on_start: false,
    };
    let endpoint = Endpoint::Unix(socket.clone());
    let client = Client::new(endpoint.clone(), PATIENCE);
    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&config, Some(&endpoint), executor));
        await_socket(&socket);
        let timed_start = Instant::now();
        result.setup = (timed_start - setup_start).as_secs_f64();
        if let Err(e) = client_side(specs, &client, &mut result, timed_start) {
            result.errors.push(e);
            // Stop the server so the round ends instead of hanging.
            let _ = client.request_line("shutdown");
        }
        match server.join() {
            Ok(Ok(report)) if report.failed > 0 => result
                .errors
                .push(format!("server settled {} job(s) as failed", report.failed)),
            Ok(Ok(_)) => {}
            Ok(Err(e)) => result.errors.push(format!("server: {e}")),
            Err(_) => result.errors.push("server thread panicked".to_string()),
        }
    });
    let _ = std::fs::remove_dir_all(dir);
    result
}

pub fn run(options: &Options, started: Instant, deadline: Instant) -> Outcome {
    let size = &options.size;
    let specs = inputs::campaign(options.seed, size);
    let mut checker = Checker::new(options);
    let mut outcome = Outcome::default();
    let mut spans = Spans::new(false);
    let traced_executor = Arc::new(TracedExecutor {
        spans: Mutex::new(Spans::new(true)),
    });
    let job_insns: u64 = specs.iter().map(|s| s.warmup + s.instructions).sum();
    // Every round runs the same jobs, so the fastest round is the
    // campaign's cost on an uncontended host.
    let (mut setups, mut timed, mut request_secs) = (vec![], vec![], vec![]);
    let (mut traced_timed, mut traced_wall) = (vec![], 0.0);

    for index in 0.. {
        if index >= MIN_ROUNDS && Instant::now() >= deadline {
            break;
        }
        let traced = options.trace && index % 2 == 1;
        spans.set_enabled(traced);
        let executor: Arc<dyn Executor> = if traced {
            traced_executor.clone()
        } else {
            Arc::new(InProcessExecutor)
        };
        let setup_start = if index == 0 { started } else { Instant::now() };
        let dir = options.work_dir.join(format!("r{index}"));
        let r = round(
            options,
            &specs,
            &dir,
            setup_start,
            executor,
            &mut spans,
            &mut checker,
        );
        outcome.attempted += (specs.len() + r.request_secs.len()) as u64;
        outcome.failed += r.refused + (specs.len() - r.settled.len().min(specs.len())) as u64;
        for s in &r.settled {
            checker.check(&job_name(s.job), s.digest, &s.cpi);
        }
        for e in &r.errors {
            checker.fail("round", e);
        }
        if !r.errors.is_empty() || r.settled.len() != specs.len() {
            break;
        }
        if traced {
            traced_timed.push(r.timed);
            traced_wall += r.timed;
            spans.add("rounds", 1);
        } else {
            setups.push(r.setup);
            timed.push(r.timed);
            request_secs.extend(r.request_secs);
        }
    }
    spans.set_enabled(false);

    if options.seed != inputs::DEFAULT_SEED {
        for (i, spec) in specs.iter().enumerate().take(inputs::PROFILES) {
            let naive = prepare(spec, CpuConfig::naive_loop(), &mut spans)
                .map(|mut machine| measure(&mut machine, spec.instructions));
            match naive {
                Ok(m) => checker.cross_check(&job_name(i + 1), digest(&m), "the naive loop"),
                Err(e) => checker.fail(&job_name(i + 1), &format!("naive loop: {e}")),
            }
        }
    }

    let best = least(&timed);
    let values = [
        least(&setups),
        ratio(job_insns as f64, best) / 1e6,
        ratio(specs.len() as f64, best),
        median(&request_secs) * 1e3,
        crate::peak_rss_mb(),
        1.0 - ratio(outcome.failed as f64, outcome.attempted as f64),
    ];
    outcome.e2e = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    outcome.notes.push(format!(
        "{} untraced rounds of {} jobs, {} workers; {} request latency samples, p99 {:.3} ms",
        timed.len(),
        specs.len(),
        workers(),
        request_secs.len(),
        quantile(&request_secs, 0.99) * 1e3,
    ));
    if options.trace {
        let executor_spans = std::mem::take(
            &mut *traced_executor
                .spans
                .lock()
                .expect("no span holder panics while holding the lock"),
        );
        spans.merge(executor_spans);
        let overhead = ratio(least(&traced_timed), best) - 1.0;
        // Thread-seconds of the traced rounds: the workers' and the
        // client's, whose every request is a call into vax-serve.
        let thread_secs = traced_wall * (workers() + 1) as f64;
        outcome.layers =
            layers::report(options, &specs, spans, thread_secs, overhead, &mut checker);
    }
    outcome.pins = checker.pin_lines();
    outcome.mismatches = checker.mismatches;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse() {
        let line =
            "{\"job\":7,\"spec\":\"workload=sci-eng instructions=5\",\"workload\":\"sci-eng\",\
                    \"instructions\":5,\"cycles\":50,\"cpi\":10.000000,\"machine_checks\":0,\
                    \"digest\":\"00000000000000ff\"}";
        assert_eq!(
            parse_settled(line),
            Ok(Settled {
                job: 7,
                digest: 255,
                cpi: "10.000000".to_string()
            })
        );
        let failed = "{\"job\":2,\"spec\":\"x\",\"failed\":true,\"attempts\":3,\"message\":\"m\"}";
        assert!(parse_settled(failed).unwrap_err().contains("job failed"));
        assert!(parse_settled("{}").is_err());
    }
}
