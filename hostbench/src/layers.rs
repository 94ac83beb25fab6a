//! The traced run's per-layer metrics.
//!
//! Spans come from the benchmark's own calls into each layer's public
//! functions during the traced rounds. A layer the workload does not
//! exercise in its rounds is timed afterwards by a short layer pass on
//! the workload's own job specs, so every metric exists on every
//! workload and each one's figure is this workload's.

use crate::check::{digest, Checker};
use crate::sim::{chunk_job, measure_chunk, prepare};
use crate::stats::{median, ratio, Spans};
use crate::{campaign, inputs, Metric, Options, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vax780_core::MeasuredWorkload;
use vax_serve::queue::{parse_result_blob, render_result_blob};
use vax_serve::{run_server, Client, Endpoint, InProcessExecutor, JobSpec, Journal, ServeConfig};

/// The per-layer metrics, printed by every traced run, as (name, unit).
pub const METRICS: [(&str, &str); 27] = [
    ("workloads.build_ms", "ms"),
    ("cpu.ns_per_inst", "ns"),
    ("cpu.ns_per_cycle", "ns"),
    ("cpu.predecode_hit_ratio", "ratio"),
    ("cpu.block_replayed_share", "ratio"),
    ("monitor.ns_per_inst", "ns"),
    ("monitor.overhead_ns_per_inst", "ns"),
    ("sim.cpi", "cycles/inst"),
    ("mem.cache_miss_ratio", "ratio"),
    ("mem.tb_miss_per_kinst", "1/kinst"),
    ("mem.sbi_ops_per_kinst", "1/kinst"),
    ("fault.machine_checks", "count"),
    ("fault.ns_per_inst", "ns"),
    ("analysis.reduce_ms", "ms"),
    ("core.experiment_ms", "ms"),
    ("serve.spec_codec_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.result_blob_us", "us"),
    ("serve.stream_us_per_result", "us"),
    ("serve.compact_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.wire_rtt_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("host.mem_probe_ms", "ms"),
    ("share.interp", "ratio"),
    ("share.build_serve", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Exact simulated counts of one measurement, into `spans` counts.
pub fn record_counters(m: &MeasuredWorkload, spans: &mut Spans) {
    let c = &m.counters;
    spans.add("sim.instructions", m.instructions);
    spans.add("sim.cycles", m.cycles);
    spans.add(
        "mem.cache_reads",
        c.cache_hit_i + c.cache_hit_d + c.cache_read_misses(),
    );
    spans.add("mem.cache_misses", c.cache_read_misses());
    spans.add("mem.tb_misses", c.tb_misses());
    spans.add("mem.sbi_ops", c.sbi_reads + c.sbi_writes);
    spans.add("fault.machine_checks", c.machine_checks);
}

/// Iterations of the host calibration loop.
const CALIB_ITERS: u64 = 20_000_000;

/// A fixed pure-CPU loop that calls no code of this repository: its time
/// moves only with the host.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Words in the memory probe's ring: 16 MiB, beyond the host's
/// last-level cache.
const PROBE_WORDS: usize = 4 << 20;

/// Dependent loads per memory probe.
const PROBE_STEPS: usize = 200_000;

/// A single random cycle through `PROBE_WORDS` slots (Sattolo's
/// algorithm), so every load of the walk misses the caches.
fn probe_ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..PROBE_WORDS as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    for i in (1..ring.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ring.swap(i, (x % i as u64) as usize);
    }
    ring
}

/// A fixed walk of dependent loads through `ring`: its time moves with
/// the host's memory system (a neighbour's cache and bandwidth use),
/// which the pure-CPU loop does not see but the simulator does.
fn memory_probe(ring: &[u32]) -> f64 {
    let t = Instant::now();
    let mut at = black_box(0u32);
    for _ in 0..PROBE_STEPS {
        at = ring[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64()
}

/// Status round trips timed against an idle in-process server.
const IDLE_STATUS_REQUESTS: usize = 25;

/// The layer pass: time the layers `workload`'s rounds leave out, on
/// its first job spec per profile. Spans land in a recorder of their
/// own; results that repeat a measured job are checked against it.
fn layer_pass(options: &Options, specs: &[JobSpec], checker: &mut Checker) -> Spans {
    let mut spans = Spans::new(true);
    let heads = &specs[..specs.len().min(inputs::PROFILES)];
    let name = |i: usize, spec: &JobSpec| match options.workload {
        Workload::Campaign => campaign::job_name(i + 1),
        _ => chunk_job(i, spec, 0),
    };
    let mut results = Vec::new();
    for (i, spec) in heads.iter().enumerate() {
        // `Experiment::run` is the measured job's first chunk again.
        let m = spans.time("core.experiment", || spec.experiment().run());
        checker.cross_check(&name(i, spec), digest(&m), "Experiment::run");
        results.push(m);
        // The other side of the fault plan: armed where the workload
        // runs fault-free, removed where it runs armed.
        let mut other = spec.clone();
        if other.faults.is_empty() {
            other = inputs::arm(other, inputs::DEFAULT_SEED + i as u64);
        } else {
            other.faults.clear();
        }
        let armed = !other.faults.is_empty();
        match prepare(&other, other.cpu_config(), &mut Spans::new(false)).and_then(|mut machine| {
            measure_chunk(&mut machine, other.instructions, armed, &mut spans)
        }) {
            Ok((m, _)) => record_counters(&m, &mut spans),
            Err(e) => checker.fail(&name(i, spec), &format!("layer pass: {e}")),
        }
    }
    if let Err(e) = serve_pass(options, specs, &results, &mut spans) {
        checker.fail("layer pass", &e);
    }
    let ring = probe_ring();
    for _ in 0..7 {
        spans.record("host.calib", calibrate());
        spans.record("host.mem_probe", memory_probe(&ring));
    }
    spans
}

/// Time the serve layer's codecs, journal and wire on this workload's
/// specs and measurements.
fn serve_pass(
    options: &Options,
    specs: &[JobSpec],
    results: &[MeasuredWorkload],
    spans: &mut Spans,
) -> Result<(), String> {
    let jobs = options.size.jobs.max(specs.len());
    for spec in specs.iter().cycle().take(jobs) {
        let back = spans.time("serve.spec_codec", || JobSpec::parse(&spec.render()));
        if back.as_ref() != Ok(spec) {
            return Err(format!("spec codec changed {}", spec.render()));
        }
    }
    for m in results.iter().cycle().take(jobs) {
        let back = spans.time("serve.result_blob", || {
            parse_result_blob(&render_result_blob(m), m.name)
        })?;
        if digest(&back) != digest(m) {
            return Err(format!("result blob changed a {} measurement", m.name));
        }
    }

    let dir = options.work_dir.join("layers");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("q.journal");
    let mut journal = Journal::open(&path).map_err(|e| e.to_string())?;
    for (spec, m) in specs.iter().cycle().zip(results.iter().cycle()).take(jobs) {
        let id = spans
            .time("serve.journal_append", || journal.append_enqueue(spec))
            .map_err(|e| e.to_string())?;
        spans
            .time("serve.journal_append", || journal.append_start(id, 1))
            .map_err(|e| e.to_string())?;
        spans
            .time("serve.journal_append", || journal.append_complete(id, m))
            .map_err(|e| e.to_string())?;
    }
    spans
        .time("serve.compact", || journal.compact())
        .map_err(|e| e.to_string())?;
    drop(journal);
    let journal = spans
        .time("serve.replay", || Journal::open(&path))
        .map_err(|e| e.to_string())?;
    let streamed = spans
        .time("serve.stream", || {
            journal.stream_results(&mut std::io::sink())
        })
        .map_err(|e| e.to_string())?;
    spans.add("serve.streamed", streamed as u64);
    drop(journal);

    // A status round trip against a server with nothing to do.
    let socket = dir.join("s.sock");
    let config = ServeConfig {
        journal: dir.join("idle.journal"),
        workers: 1,
        ..ServeConfig::default()
    };
    let endpoint = Endpoint::Unix(socket.clone());
    let client = Client::new(endpoint.clone(), Duration::from_secs(10));
    let outcome = std::thread::scope(|s| {
        let server = s.spawn(|| {
            run_server(
                &config,
                Some(&endpoint),
                std::sync::Arc::new(InProcessExecutor),
            )
        });
        let mut result = Ok(());
        for _ in 0..IDLE_STATUS_REQUESTS {
            let t = Instant::now();
            if let Err(e) = client.request_stream("status", &mut std::io::sink()) {
                result = Err(format!("idle status: {e}"));
                break;
            }
            spans.record("serve.wire_rtt", t.elapsed().as_secs_f64());
        }
        let _ = client.request_line("shutdown");
        let joined = server.join();
        result.and(match joined {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("idle server: {e}")),
            Err(_) => Err("idle server panicked".to_string()),
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The per-layer metrics of one traced run. `rounds` holds the traced
/// rounds' spans; `busy_secs` is the host time those rounds' threads had;
/// `overhead` is how much longer the traced rounds' timed work took than
/// the untraced rounds' in the same run.
pub fn report(
    options: &Options,
    specs: &[JobSpec],
    rounds: Spans,
    busy_secs: f64,
    overhead: f64,
    checker: &mut Checker,
) -> Vec<Metric> {
    // Shares come from the rounds alone, before the layer pass adds
    // spans the rounds never had.
    let interp: f64 = [
        "cpu.warmup",
        "monitor.measure",
        "fault.measure",
        "analysis.reduce",
    ]
    .iter()
    .map(|s| rounds.total(s))
    .sum();
    let mut build_serve = rounds.total("workloads.build");
    if options.workload == Workload::Campaign {
        // A thread not running a job is in vax-serve: a worker claiming,
        // journaling, compacting or waiting for the wire, the client in
        // its requests.
        build_serve += busy_secs - rounds.total("campaign.job");
    }
    let probe = layer_pass(options, specs, checker);
    // Each figure from the rounds when they exercised the span,
    // otherwise from the layer pass.
    let from = |span: &str| {
        if rounds.calls(span).is_empty() {
            &probe
        } else {
            &rounds
        }
    };
    let per = |span: &str, count: &str, scale: f64| {
        let s = from(span);
        ratio(s.total(span), s.count(count) as f64) * scale
    };
    let per_call = |span: &str, scale: f64| median(from(span).calls(span)) * scale;
    let sim = |name: &str| rounds.count(name) as f64;
    let kinst = sim("sim.instructions") / 1e3;
    let cpu_ns = per("cpu.warmup", "cpu.instructions", 1e9);
    let monitor_ns = per("monitor.measure", "monitor.instructions", 1e9);
    let faults = from("fault.measure");
    let values = [
        per_call("workloads.build", 1e3),
        cpu_ns,
        per("cpu.warmup", "cpu.cycles", 1e9),
        ratio(sim("cpu.predecode_hits"), sim("cpu.predecode_lookups")),
        ratio(sim("cpu.block_replayed"), sim("cpu.retired")),
        monitor_ns,
        monitor_ns - cpu_ns,
        ratio(sim("sim.cycles"), sim("sim.instructions")),
        ratio(sim("mem.cache_misses"), sim("mem.cache_reads")),
        ratio(sim("mem.tb_misses"), kinst),
        ratio(sim("mem.sbi_ops"), kinst),
        // Per round (or per layer pass): every round repeats the same work.
        ratio(
            faults.count("fault.machine_checks") as f64,
            faults.count("rounds").max(1) as f64,
        ),
        per("fault.measure", "fault.instructions", 1e9),
        per_call("analysis.reduce", 1e3),
        per_call("core.experiment", 1e3),
        per_call("serve.spec_codec", 1e6),
        per_call("serve.journal_append", 1e6),
        per_call("serve.result_blob", 1e6),
        per("serve.stream", "serve.streamed", 1e6),
        per_call("serve.compact", 1e3),
        per_call("serve.replay", 1e3),
        per_call("serve.wire_rtt", 1e3),
        per_call("host.calib", 1e3),
        per_call("host.mem_probe", 1e3),
        ratio(interp, busy_secs),
        ratio(build_serve, busy_secs),
        overhead,
    ];
    METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}
