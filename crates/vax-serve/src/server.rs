//! The campaign server: a worker pool over the journal-backed queue.
//!
//! One [`Shared`] state — journal, in-memory queue, running set —
//! behind a mutex/condvar pair. Worker threads claim job ids, append
//! `start`/`complete`/`fail` transitions (each flushed before the
//! in-memory state advances), and run attempts outside the lock.
//! Connection handlers mutate the same state: `enqueue` applies
//! backpressure against a fixed capacity of unsettled jobs (plus an
//! optional per-client quota), `claim` hands a job to a remote worker
//! and records its returned `vax-job-result v1` blob, and `drain`
//! streams every result in id order as it settles and then stops the
//! server. Because every transition is journaled first, a `kill -9`
//! at any instant loses nothing: the next `serve` replays the journal
//! and re-runs exactly the unsettled jobs.
//!
//! Results are never held in memory: `results`/`drain` stream each
//! line straight from the journal's record spans, and every
//! `compact_every` settlements the journal is compacted, so the live
//! records it replays stay O(unsettled).

use crate::journal::{valid_client_name, JobId, JobState, Journal, JournalError};
use crate::queue::{parse_result_blob, ExecError, Executor};
use crate::spec::JobSpec;
use crate::wire::{last_on_connection, Conn, Endpoint};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vax780_core::{CampaignMetrics, RetryPolicy};
use vax_trace::SelfMetrics;

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The queue journal path.
    pub journal: PathBuf,
    /// Worker threads (each runs one job attempt at a time). `0` is
    /// allowed when listening: all execution then comes from remote
    /// `claim` workers.
    pub workers: usize,
    /// Maximum unsettled (queued + running) jobs before `enqueue`
    /// requests are rejected with a reason.
    pub capacity: usize,
    /// Maximum unsettled jobs per client identity (the `client=` token
    /// on `enqueue`), layered under the global capacity. `None` = no
    /// per-client bound.
    pub client_quota: Option<usize>,
    /// Compact the journal once this many jobs have settled among its
    /// live records (0 = never compact automatically).
    pub compact_every: usize,
    /// Retry policy for failing jobs.
    pub retry: RetryPolicy,
    /// Per-attempt deadline (None = unbounded).
    pub timeout: Option<Duration>,
    /// Finish the replayed queue and exit instead of waiting for
    /// clients (offline drain mode).
    pub drain_on_start: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            journal: PathBuf::from("queue.journal"),
            workers: 2,
            capacity: 256,
            client_quota: None,
            compact_every: 10_000,
            retry: RetryPolicy::default(),
            timeout: None,
            drain_on_start: false,
        }
    }
}

/// Why the server stopped (beyond a requested shutdown).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The journal could not be opened or replayed.
    Journal(JournalError),
    /// The listening socket could not be bound.
    Bind {
        /// The endpoint that failed.
        endpoint: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A journal append failed mid-run; the server stopped rather than
    /// run work it could not make durable.
    Fatal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::Bind { endpoint, source } => {
                write!(f, "bind {endpoint}: {source}")
            }
            ServeError::Fatal(msg) => write!(f, "fatal: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> ServeError {
        ServeError::Journal(e)
    }
}

/// What a finished server run settled. Result lines are not collected
/// here — they stream from the journal on request, so a million-job
/// campaign's report stays a few words. Reopen the journal and
/// [`Journal::stream_results`] to render them.
#[derive(Debug)]
pub struct ServerReport {
    /// Jobs with a `complete` record.
    pub done: usize,
    /// Jobs with a `fail` record.
    pub failed: usize,
    /// Per-worker self-metrics.
    pub metrics: CampaignMetrics,
}

struct State {
    journal: Journal,
    queue: VecDeque<JobId>,
    running: BTreeSet<JobId>,
    draining: bool,
    /// `drain` replies still being written. The request that started
    /// one stops the server once it has ended.
    drains: usize,
    shutdown: bool,
    fatal: Option<String>,
    worker_metrics: Vec<SelfMetrics>,
}

impl State {
    /// A draining queue has settled completely and no `drain` reply is
    /// still being written: the server has nothing left to do.
    fn drained(&self) -> bool {
        self.draining && self.drains == 0 && self.queue.is_empty() && self.running.is_empty()
    }
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    capacity: usize,
    client_quota: Option<usize>,
    compact_every: usize,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    started: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a fatal journal failure and stop the server.
    fn fail_fatal(&self, st: &mut State, msg: String) {
        eprintln!("vax780 serve: {msg}");
        st.fatal.get_or_insert(msg);
        st.shutdown = true;
        self.cv.notify_all();
    }

    /// Pop the next queued job the journal still holds pending, with its
    /// spec and the attempts it has already started. A queued id that is
    /// no longer pending is dropped with a notification, as every change
    /// that empties the queue or the running set must notify: the
    /// supervisor waits without a timeout for a draining queue to settle.
    fn pop_pending(&self, st: &mut State) -> Option<(JobId, JobSpec, u32)> {
        while let Some(id) = st.queue.pop_front() {
            if let Some((spec, starts)) = st.journal.pending_job(id) {
                return Some((id, spec.clone(), starts));
            }
            self.cv.notify_all();
        }
        None
    }

    /// Compact the journal once enough jobs have settled among its live
    /// records. Best-effort: a failed compaction leaves the journal
    /// exactly as it was (write-new-then-rename), so the server keeps
    /// running.
    fn maybe_compact(&self, st: &mut State) {
        if self.compact_every > 0 && st.journal.settled_in_tail() >= self.compact_every {
            if let Err(e) = st.journal.compact() {
                eprintln!("vax780 serve: compaction failed (continuing uncompacted): {e}");
            }
        }
    }
}

/// Run a server over `config.journal`, optionally listening on
/// `endpoint`. Blocks until the server shuts down (a `drain` or
/// `shutdown` request, or — in `drain_on_start` mode — the queue
/// settling).
///
/// # Errors
///
/// [`ServeError`] on journal/bind failure at startup or a journal
/// append failure mid-run.
pub fn run_server(
    config: &ServeConfig,
    endpoint: Option<&Endpoint>,
    executor: Arc<dyn Executor>,
) -> Result<ServerReport, ServeError> {
    let journal = Journal::open(&config.journal)?;
    for w in journal.warnings() {
        eprintln!(
            "vax780 serve: queue journal {}: {w}",
            config.journal.display()
        );
    }
    let queue: VecDeque<JobId> = journal.pending().into();
    // Zero local workers is meaningful only when remote workers can
    // claim over a socket; an offline drain with no workers would hang.
    let workers = if config.workers == 0 && endpoint.is_some() && !config.drain_on_start {
        0
    } else {
        config.workers.max(1)
    };
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            journal,
            queue,
            running: BTreeSet::new(),
            draining: config.drain_on_start,
            drains: 0,
            shutdown: false,
            fatal: None,
            worker_metrics: vec![SelfMetrics::new(); workers],
        }),
        cv: Condvar::new(),
        capacity: config.capacity.max(1),
        client_quota: config.client_quota,
        compact_every: config.compact_every,
        retry: config.retry,
        timeout: config.timeout,
        started: Instant::now(),
    });

    let listener = match endpoint {
        Some(endpoint) => Some(endpoint.bind().map_err(|source| ServeError::Bind {
            endpoint: endpoint.to_string(),
            source,
        })?),
        None => None,
    };

    let worker_handles: Vec<_> = (0..workers)
        .map(|index| {
            let shared = Arc::clone(&shared);
            let executor = Arc::clone(&executor);
            std::thread::spawn(move || worker_loop(&shared, executor.as_ref(), index))
        })
        .collect();
    // The listener blocks in `accept` and checks for a shutdown after
    // each one returns; once the server stops, one connection of the
    // supervisor's own wakes it.
    let listener_thread = listener.map(|listener| {
        let wake = listener.local_endpoint();
        let shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || loop {
            let conn = listener.accept();
            if shared.lock().shutdown {
                break;
            }
            match conn {
                Ok(conn) => {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_conn(&shared, conn));
                }
                // Out of descriptors and the like: back off rather
                // than spin a core on an accept that keeps failing.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        });
        (handle, wake)
    });

    await_stop(&shared, shared.lock());
    for handle in worker_handles {
        let _ = handle.join();
    }
    if let Some((handle, wake)) = listener_thread {
        // A listener that cannot be dialed (its socket file deleted,
        // say) stays blocked in `accept`: leave it rather than hang.
        if wake.and_then(|e| e.connect(Duration::ZERO)).is_ok() {
            let _ = handle.join();
        }
    }
    if let Some(Endpoint::Unix(path)) = endpoint {
        let _ = std::fs::remove_file(path);
    }

    let st = shared.lock();
    if let Some(fatal) = &st.fatal {
        return Err(ServeError::Fatal(fatal.clone()));
    }
    let (_, done, failed) = st.journal.counts();
    Ok(ServerReport {
        done,
        failed,
        metrics: CampaignMetrics {
            workers: st.worker_metrics.clone(),
            wall: shared.started.elapsed(),
        },
    })
}

/// Block, starting from the locked state `st`, until the server should
/// stop: a shutdown, or a draining queue [`State::drained`], which this
/// call turns into the shutdown. Every change that can make either true
/// notifies the condvar, so the wait has no timeout.
fn await_stop(shared: &Shared, mut st: MutexGuard<'_, State>) {
    while !st.shutdown {
        if st.drained() {
            st.shutdown = true;
            shared.cv.notify_all();
            break;
        }
        st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

fn worker_loop(shared: &Shared, executor: &dyn Executor, index: usize) {
    let mut metrics = SelfMetrics::new();
    let mut cum_cycles = 0u64;
    let mut cum_instructions = 0u64;
    loop {
        // Claim the next job id, or exit on shutdown.
        let (id, spec, prior_starts) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    st.worker_metrics[index] = metrics;
                    return;
                }
                if let Some((id, spec, starts)) = shared.pop_pending(&mut st) {
                    st.running.insert(id);
                    break (id, spec, starts);
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        let max_attempts = shared.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            {
                let mut st = shared.lock();
                if let Err(e) = st.journal.append_start(id, prior_starts + attempt) {
                    shared.fail_fatal(&mut st, e.to_string());
                    st.worker_metrics[index] = metrics;
                    return;
                }
            }
            metrics.begin_phase(&format!("job-{id}"), cum_cycles, cum_instructions);
            let outcome = executor.run(&spec, shared.timeout);
            match outcome {
                Ok(m) => {
                    cum_cycles += m.cycles;
                    cum_instructions += m.instructions;
                    metrics.end_phase(cum_cycles, cum_instructions);
                    let mut st = shared.lock();
                    if let Err(e) = st.journal.append_complete(id, &m) {
                        shared.fail_fatal(&mut st, e.to_string());
                        st.worker_metrics[index] = metrics;
                        return;
                    }
                    st.running.remove(&id);
                    st.worker_metrics[index] = metrics.clone();
                    shared.maybe_compact(&mut st);
                    shared.cv.notify_all();
                    break;
                }
                Err(e) => {
                    metrics.end_phase(cum_cycles, cum_instructions);
                    // A workload fault would repeat on every attempt of
                    // the same deterministic simulation: settle it now.
                    if attempt < max_attempts && !matches!(e, ExecError::Fault(_)) {
                        // Shutdown may have arrived while the attempt
                        // ran: abandon the claim instead of sleeping
                        // through the backoff. No `fail` record is
                        // written — the journal still holds the job
                        // pending, so a restart re-runs it.
                        {
                            let mut st = shared.lock();
                            if st.shutdown {
                                st.running.remove(&id);
                                st.worker_metrics[index] = metrics;
                                shared.cv.notify_all();
                                return;
                            }
                        }
                        // Deterministic linear backoff: a fixed
                        // schedule, so reruns behave identically.
                        std::thread::sleep(shared.retry.backoff * attempt);
                        continue;
                    }
                    let message = format!("attempt {attempt}/{max_attempts}: {e}");
                    let mut st = shared.lock();
                    if let Err(e) = st.journal.append_fail(id, attempt, &message) {
                        shared.fail_fatal(&mut st, e.to_string());
                        st.worker_metrics[index] = metrics;
                        return;
                    }
                    st.running.remove(&id);
                    st.worker_metrics[index] = metrics.clone();
                    shared.maybe_compact(&mut st);
                    shared.cv.notify_all();
                    break;
                }
            }
        }
    }
}

/// How many reply bytes a connection gathers before they go out. Each
/// reply is flushed once, when it is complete, so a reply that fits
/// leaves in one write: `status` on a 60-job queue (hostbench's
/// `campaign`) is about 7 KB, and 16 KiB leaves room for specs that set
/// every key. A longer reply goes out in buffer-sized writes.
const REPLY_BUFFER: usize = 16 * 1024;

fn handle_conn(shared: &Shared, conn: Conn) {
    if let Ok((mut reader, writer)) = conn.split() {
        serve_conn(shared, &mut reader, writer);
    }
}

/// Answer request lines in order until the client closes the
/// connection, a reply cannot be written, or a request that ends its
/// connection (`claim`, `drain`, `shutdown`) has been answered.
fn serve_conn(shared: &Shared, reader: &mut BufReader<Conn>, writer: impl Write) {
    let mut writer = BufWriter::with_capacity(REPLY_BUFFER, writer);
    let mut line = String::new();
    let mut first = true;
    loop {
        line.clear();
        if matches!(reader.read_line(&mut line), Ok(0) | Err(_)) {
            return;
        }
        // A stopped server answers nothing more on a kept-alive
        // connection: a late `compact` or `enqueue` would change the
        // journal of a stopped server, which a new one may already hold.
        if !first && shared.lock().shutdown {
            return;
        }
        first = false;
        let request = line.trim();
        let replied = serve_request(shared, request, reader, &mut writer);
        if replied.and_then(|()| writer.flush()).is_err() || last_on_connection(request) {
            return;
        }
    }
}

fn serve_request(
    shared: &Shared,
    request: &str,
    reader: &mut BufReader<Conn>,
    writer: &mut dyn Write,
) -> std::io::Result<()> {
    let (verb, rest) = match request.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (request, ""),
    };
    match verb {
        "enqueue" => {
            let reply = handle_enqueue(shared, rest);
            writeln!(writer, "{reply}")
        }
        "status" => handle_status(shared, writer),
        "results" => handle_results(shared, writer),
        "metrics" => handle_metrics(shared, writer),
        "drain" => handle_drain(shared, writer),
        "claim" => handle_claim(shared, reader, writer),
        "compact" => {
            let reply = {
                let mut st = shared.lock();
                let before = st.journal.settled_in_tail();
                match st.journal.compact() {
                    Ok(()) => format!("ok compacted {before} settled record(s)"),
                    Err(e) => format!("reject {e}"),
                }
            };
            writeln!(writer, "{reply}")
        }
        "shutdown" => {
            // The reply leaves before the server stops: once stopped,
            // `vax780 serve` exits its process and drops whatever is
            // still in the connection's reply buffer.
            let replied = writeln!(writer, "ok").and_then(|()| writer.flush());
            shared.lock().shutdown = true;
            shared.cv.notify_all();
            replied
        }
        _ => writeln!(
            writer,
            "reject unknown request {verb:?} (expected enqueue, status, results, metrics, \
             drain, claim, compact, or shutdown)"
        ),
    }
}

/// Enqueue with backpressure: parse strictly, validate, and admit only
/// while the unsettled count is below capacity — and, when a
/// per-client quota is configured, below the quota for the `client=`
/// identity leading the spec line.
fn handle_enqueue(shared: &Shared, request: &str) -> String {
    let (client, spec_line) = match request.split_once(' ') {
        Some((first, rest)) if first.starts_with("client=") => {
            let name = &first["client=".len()..];
            if !valid_client_name(name) {
                return format!(
                    "reject bad client name `{name}` (one token of [A-Za-z0-9._@-], at most \
                     64 bytes)"
                );
            }
            (name, rest.trim())
        }
        _ => ("", request),
    };
    let spec = match JobSpec::parse(spec_line) {
        Ok(spec) => spec,
        Err(e) => return format!("reject bad spec: {e}"),
    };
    if let Err(e) = spec.validate() {
        return format!("reject bad spec: {e}");
    }
    let mut st = shared.lock();
    if st.shutdown || st.draining {
        return "reject server is draining; enqueue to a fresh queue".to_string();
    }
    let unsettled = st.queue.len() + st.running.len();
    if unsettled >= shared.capacity {
        return format!(
            "reject queue full: {unsettled} unsettled job(s) at capacity {}; retry after \
             some settle",
            shared.capacity
        );
    }
    if let Some(quota) = shared.client_quota {
        let held = st.journal.unsettled_for(client);
        if held >= quota {
            let who = if client.is_empty() {
                "anonymous client".to_string()
            } else {
                format!("client {client}")
            };
            return format!(
                "reject quota exceeded: {who} holds {held} unsettled job(s) at quota \
                 {quota}; retry after some settle"
            );
        }
    }
    match st.journal.append_enqueue_for(client, &spec) {
        Ok(id) => {
            st.queue.push_back(id);
            shared.cv.notify_all();
            format!("ok {id}")
        }
        Err(e) => format!("reject {e}"),
    }
}

fn handle_status(shared: &Shared, writer: &mut dyn Write) -> std::io::Result<()> {
    let st = shared.lock();
    let (_, done, failed) = st.journal.counts();
    writeln!(
        writer,
        "ok capacity {} pending {} running {} done {done} failed {failed} draining {}",
        shared.capacity,
        st.queue.len(),
        st.running.len(),
        u8::from(st.draining),
    )?;
    for job in st.journal.job_specs() {
        let (id, state, spec) = job.map_err(|e| std::io::Error::other(e.to_string()))?;
        let name = match state {
            JobState::Pending if st.running.contains(&id) => "running",
            state => state.name(),
        };
        writeln!(writer, "job {id} {name} {spec}")?;
    }
    writeln!(writer, "end")
}

fn handle_results(shared: &Shared, writer: &mut dyn Write) -> std::io::Result<()> {
    let st = shared.lock();
    st.journal
        .stream_results(writer)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    writeln!(writer, "end")
}

fn handle_metrics(shared: &Shared, writer: &mut dyn Write) -> std::io::Result<()> {
    let st = shared.lock();
    let (_, done, failed) = st.journal.counts();
    let metrics = CampaignMetrics {
        workers: st.worker_metrics.clone(),
        wall: shared.started.elapsed(),
    };
    writeln!(
        writer,
        "ok wall_us {} speedup {:.2} aggregate_mips {:.3} done {done} failed {failed}",
        metrics.wall.as_micros(),
        metrics.speedup(),
        metrics.aggregate_mips(),
    )?;
    for worker in &metrics.workers {
        writeln!(writer, "worker {}", worker.to_json())?;
    }
    writeln!(writer, "end")
}

/// Stream every job's result in id order as it settles, then stop the
/// server. New enqueues are rejected from the moment draining starts,
/// so the id range snapshotted here is complete. Each line is read
/// back from the journal's offset index one at a time — the drain
/// never holds more than one result in memory. The server stops only
/// after the closing `end` has been flushed: once stopped, `vax780
/// serve` exits its process and drops whatever is still unsent. A drain
/// whose client goes away leaves the supervisor to stop the server
/// once the queue has settled.
fn handle_drain(shared: &Shared, writer: &mut dyn Write) -> std::io::Result<()> {
    let last = {
        let mut st = shared.lock();
        st.draining = true;
        st.drains += 1;
        shared.cv.notify_all();
        st.journal.last_id()
    };
    let streamed = stream_as_settled(shared, writer, last);
    let mut st = shared.lock();
    st.drains -= 1;
    if streamed.is_ok() {
        st.shutdown = true;
    }
    shared.cv.notify_all();
    streamed
}

/// Write the result lines of jobs `1..=last` as each settles, then
/// `end`, and flush.
fn stream_as_settled(shared: &Shared, writer: &mut dyn Write, last: JobId) -> std::io::Result<()> {
    'ids: for id in 1..=last {
        let line = {
            let mut st = shared.lock();
            loop {
                match st.journal.state(id) {
                    // Ids can have gaps only if the journal predates
                    // this server; skip silently.
                    None => continue 'ids,
                    Some(JobState::Pending) if st.shutdown => break None,
                    Some(JobState::Pending) => {
                        st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(_) => {
                        break st
                            .journal
                            .result_line(id)
                            .map_err(|e| std::io::Error::other(e.to_string()))?
                    }
                }
            }
        };
        match line {
            Some(line) => {
                writeln!(writer, "{line}")?;
                writer.flush()?;
            }
            // Fatal shutdown mid-drain: stop streaming, terminate the
            // reply so the client is not left hanging.
            None => break,
        }
    }
    writeln!(writer, "end")?;
    writer.flush()
}

/// Hand one job to a remote worker and record what it sends back.
///
/// The connection stays open for the duration of the attempt: the
/// server replies `job <id> <spec>` and then reads `result <id>`
/// followed by a `vax-job-result v1` blob, `fail <id> <message>`, or
/// `fault <id> <message>`. A `fault` settles the job at once, as a
/// local worker's workload fault does. A `fail` line, a dropped
/// connection, a read timeout (the per-attempt deadline applied to the
/// socket), or an unparseable blob all count as one failed, *retryable*
/// attempt — the job returns to the queue until the retry policy
/// exhausts, exactly as if a local worker's attempt had failed.
fn handle_claim(
    shared: &Shared,
    reader: &mut BufReader<Conn>,
    writer: &mut dyn Write,
) -> std::io::Result<()> {
    let max_attempts = shared.retry.max_attempts.max(1);
    let (id, spec, attempt) = {
        let mut st = shared.lock();
        if st.shutdown {
            return writeln!(writer, "gone");
        }
        let Some((id, spec, starts)) = shared.pop_pending(&mut st) else {
            // `drain` only finishes once running jobs settle, so tell a
            // draining server's workers to leave rather than idle.
            return if st.draining {
                writeln!(writer, "gone")
            } else {
                writeln!(writer, "idle")
            };
        };
        let attempt = starts + 1;
        if let Err(e) = st.journal.append_start(id, attempt) {
            st.queue.push_front(id);
            shared.fail_fatal(&mut st, e.to_string());
            return writeln!(writer, "gone");
        }
        st.running.insert(id);
        (id, spec, attempt)
    };
    writeln!(writer, "job {id} {}", spec.render())?;
    writer.flush()?;

    // The attempt runs on the worker's machine; bound how long we hold
    // the claim by applying the per-attempt deadline to the socket.
    let _ = reader.get_ref().set_read_timeout(shared.timeout);
    let outcome = read_claim_outcome(reader, id, &spec);
    let mut st = shared.lock();
    let (detail, retryable) = match outcome {
        Ok(ClaimOutcome::Done(m)) => {
            if let Err(e) = st.journal.append_complete(id, &m) {
                shared.fail_fatal(&mut st, e.to_string());
                return Ok(());
            }
            st.running.remove(&id);
            shared.maybe_compact(&mut st);
            shared.cv.notify_all();
            drop(st);
            return writeln!(writer, "ok");
        }
        Ok(ClaimOutcome::Failed(msg)) => (msg, true),
        // A workload fault would repeat on every attempt of the same
        // deterministic simulation: settle it now, as a local worker
        // does.
        Ok(ClaimOutcome::Fault(msg)) => (msg, false),
        Err(e) => (format!("worker connection lost: {e}"), true),
    };
    let detail = if detail.is_empty() {
        "worker reported failure".to_string()
    } else {
        detail
    };
    st.running.remove(&id);
    if attempt >= max_attempts || !retryable {
        let message = format!("attempt {attempt}/{max_attempts}: {detail}");
        if let Err(e) = st.journal.append_fail(id, attempt, &message) {
            shared.fail_fatal(&mut st, e.to_string());
            return Ok(());
        }
        shared.maybe_compact(&mut st);
    } else {
        // Retryable: back onto the queue for any worker, local or
        // remote.
        st.queue.push_back(id);
    }
    shared.cv.notify_all();
    drop(st);
    writeln!(writer, "ok")
}

/// What a remote worker sent back for one claim.
enum ClaimOutcome {
    /// A parsed `vax-job-result v1` blob.
    Done(vax780_core::MeasuredWorkload),
    /// A `fail <id> <message>` report: a retryable attempt.
    Failed(String),
    /// A `fault <id> <message>` report: the workload faulted, so the
    /// job settles without a retry.
    Fault(String),
}

/// Read the worker's half of a claim; `Err` means connection
/// loss/timeout/garbage (a retryable attempt, like a local failure).
fn read_claim_outcome(
    reader: &mut BufReader<Conn>,
    id: JobId,
    spec: &JobSpec,
) -> std::io::Result<ClaimOutcome> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a result".to_string()));
    }
    let head = line.trim();
    // `<verb> <id> <message>`: the message of a `fail` or `fault` line.
    let report = |verb: &str| {
        head.strip_prefix(&format!("{verb} {id}"))
            .filter(|r| r.is_empty() || r.starts_with(' '))
            .map(|r| r.trim().to_string())
    };
    if head == format!("result {id}") {
        let mut blob = String::new();
        loop {
            let mut l = String::new();
            if reader.read_line(&mut l)? == 0 {
                return Err(bad("connection closed mid-blob".to_string()));
            }
            let done = l.trim_end() == "end";
            blob.push_str(&l);
            if done {
                break;
            }
        }
        let m = parse_result_blob(&blob, spec.workload.name()).map_err(bad)?;
        Ok(ClaimOutcome::Done(m))
    } else if let Some(msg) = report("fail") {
        Ok(ClaimOutcome::Failed(msg))
    } else if let Some(msg) = report("fault") {
        Ok(ClaimOutcome::Fault(msg))
    } else {
        Err(bad(format!("unexpected worker reply `{head}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::InProcessExecutor;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vax780_core::MeasuredWorkload;
    use vax_workloads::WorkloadKind;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_spec(kind: WorkloadKind, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(kind);
        spec.instructions = 2_000;
        spec.warmup = 500;
        spec.seed = Some(seed);
        spec
    }

    fn results_of(path: &Path) -> Vec<String> {
        let j = Journal::open(path).unwrap();
        let mut out = Vec::new();
        j.stream_results(&mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// Counts executor invocations per job spec; fails the jobs seeded
    /// with `fail_seeds` and faults those seeded with `fault_seeds`.
    struct CountingExecutor {
        runs: AtomicUsize,
        fail_seeds: Vec<u64>,
        fault_seeds: Vec<u64>,
    }

    impl Executor for CountingExecutor {
        fn run(
            &self,
            spec: &JobSpec,
            _timeout: Option<Duration>,
        ) -> Result<MeasuredWorkload, ExecError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            if spec.seed.is_some_and(|s| self.fail_seeds.contains(&s)) {
                return Err(ExecError::Failed("synthetic failure".to_string()));
            }
            if spec.seed.is_some_and(|s| self.fault_seeds.contains(&s)) {
                return Err(ExecError::Fault("synthetic fault".to_string()));
            }
            InProcessExecutor.run(spec, None)
        }
    }

    fn test_shared(journal: Journal, capacity: usize, client_quota: Option<usize>) -> Shared {
        Shared {
            state: Mutex::new(State {
                journal,
                queue: VecDeque::new(),
                running: BTreeSet::new(),
                draining: false,
                drains: 0,
                shutdown: false,
                fatal: None,
                worker_metrics: Vec::new(),
            }),
            cv: Condvar::new(),
            capacity,
            client_quota,
            compact_every: 0,
            retry: RetryPolicy::default(),
            timeout: None,
            started: Instant::now(),
        }
    }

    #[test]
    fn offline_drain_settles_the_queue_and_reports() {
        let dir = tempdir("vax-serve-offline");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            for seed in 1..=3 {
                j.append_enqueue(&quick_spec(WorkloadKind::TimesharingLight, seed))
                    .unwrap();
            }
        }
        let config = ServeConfig {
            journal: journal_path.clone(),
            workers: 2,
            retry: RetryPolicy::from_retries(0, 0),
            drain_on_start: true,
            ..ServeConfig::default()
        };
        let report = run_server(&config, None, Arc::new(InProcessExecutor)).unwrap();
        assert_eq!(report.done, 3);
        assert_eq!(report.failed, 0);
        let results = results_of(&journal_path);
        assert_eq!(results.len(), 3);
        // The journal now holds the settled queue.
        let j = Journal::open(&journal_path).unwrap();
        assert_eq!(j.counts(), (0, 3, 0));
        // A second drain replays without re-running anything.
        run_server(&config, None, Arc::new(InProcessExecutor)).unwrap();
        assert_eq!(results_of(&journal_path), results);
    }

    #[test]
    fn resumed_queue_never_reruns_settled_jobs() {
        let dir = tempdir("vax-serve-resume");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            for seed in 1..=4 {
                j.append_enqueue(&quick_spec(WorkloadKind::Educational, seed))
                    .unwrap();
            }
            // Jobs 1 and 3 already settled in a previous server life.
            let m = InProcessExecutor
                .run(&quick_spec(WorkloadKind::Educational, 1), None)
                .unwrap();
            j.append_start(1, 1).unwrap();
            j.append_complete(1, &m).unwrap();
            j.append_start(3, 1).unwrap();
            j.append_fail(3, 1, "poisoned").unwrap();
        }
        let executor = Arc::new(CountingExecutor {
            runs: AtomicUsize::new(0),
            fail_seeds: Vec::new(),
            fault_seeds: Vec::new(),
        });
        let config = ServeConfig {
            journal: journal_path,
            workers: 2,
            retry: RetryPolicy::from_retries(0, 0),
            drain_on_start: true,
            ..ServeConfig::default()
        };
        let report = run_server(&config, None, executor.clone()).unwrap();
        // Only jobs 2 and 4 ran; 1 and 3 were replayed from the journal.
        assert_eq!(executor.runs.load(Ordering::SeqCst), 2);
        assert_eq!(report.done, 3);
        assert_eq!(report.failed, 1);
    }

    /// A failing job settles as one `fail` record after its attempts run
    /// out, while its siblings complete. With no retries (`run`'s and
    /// `sweep`'s policy) each poisoned job runs exactly once. A workload
    /// fault settles on its first attempt under any budget: the same
    /// deterministic simulation would fault again.
    #[test]
    fn retries_exhaust_into_one_fail_record() {
        for (retries, attempts) in [(2u32, 3usize), (0, 1)] {
            let dir = tempdir(&format!("vax-serve-retry-{retries}"));
            let journal_path = dir.join("queue.journal");
            {
                let mut j = Journal::open(&journal_path).unwrap();
                for seed in 7..=12 {
                    j.append_enqueue(&quick_spec(WorkloadKind::SciEng, seed))
                        .unwrap();
                }
            }
            let executor = Arc::new(CountingExecutor {
                runs: AtomicUsize::new(0),
                fail_seeds: vec![7, 9],
                fault_seeds: vec![12],
            });
            let config = ServeConfig {
                journal: journal_path.clone(),
                workers: 3,
                retry: RetryPolicy::from_retries(retries, 0),
                drain_on_start: true,
                ..ServeConfig::default()
            };
            let report = run_server(&config, None, executor.clone()).unwrap();
            assert_eq!((report.done, report.failed), (3, 3), "retry {retries}");
            // Each poisoned job runs `attempts` times, the faulting job
            // and each sibling once.
            assert_eq!(executor.runs.load(Ordering::SeqCst), 2 * attempts + 4);
            let j = Journal::open(&journal_path).unwrap();
            for (id, state) in j.states() {
                let line = j.result_line(id).unwrap().unwrap();
                if id == 6 {
                    assert!(line.contains("\"attempts\":1,"), "{line}");
                    assert!(line.contains("synthetic fault"), "{line}");
                } else if state == JobState::Failed {
                    assert!(
                        line.contains(&format!("\"attempts\":{attempts},")),
                        "{line}"
                    );
                    assert!(line.contains("synthetic failure"), "{line}");
                } else {
                    assert_eq!(state, JobState::Done, "{line}");
                }
            }
        }
    }

    /// A remote worker that answers its claim with `fault` settles the
    /// job at once under `retry 2`: one `fail` record with the local
    /// fault's `attempt k/max:` message and `"attempts":1`, and the job
    /// is never claimed again. A `fail` line keeps the retry budget.
    #[test]
    fn a_remote_fault_settles_on_its_first_attempt() {
        let dir = tempdir("vax-serve-remote-fault");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            for seed in 1..=2 {
                j.append_enqueue(&quick_spec(WorkloadKind::SciEng, seed))
                    .unwrap();
            }
        }
        let config = ServeConfig {
            journal: journal_path.clone(),
            workers: 0,
            retry: RetryPolicy::from_retries(2, 0),
            ..ServeConfig::default()
        };
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let server = {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                run_server(&config, Some(&endpoint), Arc::new(InProcessExecutor))
            })
        };
        // One claim from a fake worker: the server's reply, and the id
        // it handed out, answered with `<verb> <id> <message>`.
        let claim = |verb: &str, message: &str| -> String {
            let conn = endpoint.connect(Duration::from_secs(5)).unwrap();
            let (mut reader, mut writer) = conn.split().unwrap();
            writer.write_all(b"claim\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            if let Some(rest) = reply.strip_prefix("job ") {
                let id = rest.split(' ').next().unwrap();
                writeln!(writer, "{verb} {id} {message}").unwrap();
                let mut ack = String::new();
                reader.read_line(&mut ack).unwrap();
                assert_eq!(ack, "ok\n");
            }
            reply
        };
        assert!(claim("fault", "workload fault: synthetic").starts_with("job 1 "));
        for _ in 0..3 {
            assert!(claim("fail", "worker trouble").starts_with("job 2 "));
        }
        assert_eq!(claim("fail", "unused"), "idle\n");
        let client = crate::wire::Client::new(endpoint, Duration::from_secs(5));
        assert_eq!(client.request_line("shutdown").unwrap(), "ok");
        server.join().unwrap().unwrap();

        let text = std::fs::read_to_string(&journal_path).unwrap();
        assert_eq!(text.matches("\nstart 1 ").count(), 1, "{text}");
        assert_eq!(text.matches("\nfail 1 ").count(), 1, "{text}");
        let j = Journal::open(&journal_path).unwrap();
        let fault = j.result_line(1).unwrap().unwrap();
        assert!(
            fault.contains(
                "\"failed\":true,\"attempts\":1,\
                 \"message\":\"attempt 1/3: workload fault: synthetic\""
            ),
            "{fault}"
        );
        let fail = j.result_line(2).unwrap().unwrap();
        assert!(
            fail.contains("\"attempts\":3,\"message\":\"attempt 3/3: worker trouble\""),
            "{fail}"
        );
    }

    #[test]
    fn backpressure_rejects_beyond_capacity() {
        let dir = tempdir("vax-serve-backpressure");
        let journal_path = dir.join("queue.journal");
        let journal = Journal::open(&journal_path).unwrap();
        let shared = test_shared(journal, 2, None);
        let spec_line = quick_spec(WorkloadKind::Commercial, 1).render();
        assert_eq!(handle_enqueue(&shared, &spec_line), "ok 1");
        assert_eq!(handle_enqueue(&shared, &spec_line), "ok 2");
        let reject = handle_enqueue(&shared, &spec_line);
        assert!(reject.starts_with("reject queue full"), "{reject}");
        assert!(reject.contains("capacity 2"), "{reject}");
        // Bad specs are rejected with the parse error.
        let reject = handle_enqueue(&shared, "workload=warp-drive");
        assert!(reject.starts_with("reject bad spec"), "{reject}");
        // Draining servers admit nothing.
        shared.lock().draining = true;
        let reject = handle_enqueue(&shared, &spec_line);
        assert!(reject.contains("draining"), "{reject}");
    }

    #[test]
    fn client_quota_rejects_with_a_reason() {
        let dir = tempdir("vax-serve-quota");
        let journal_path = dir.join("queue.journal");
        let journal = Journal::open(&journal_path).unwrap();
        let shared = test_shared(journal, 100, Some(2));
        let spec_line = quick_spec(WorkloadKind::Commercial, 1).render();
        // Alice fills her quota; Bob and anonymous still get in.
        assert_eq!(
            handle_enqueue(&shared, &format!("client=alice {spec_line}")),
            "ok 1"
        );
        assert_eq!(
            handle_enqueue(&shared, &format!("client=alice {spec_line}")),
            "ok 2"
        );
        let reject = handle_enqueue(&shared, &format!("client=alice {spec_line}"));
        assert!(reject.starts_with("reject quota exceeded"), "{reject}");
        assert!(reject.contains("client alice"), "{reject}");
        assert!(reject.contains("quota 2"), "{reject}");
        assert_eq!(
            handle_enqueue(&shared, &format!("client=bob {spec_line}")),
            "ok 3"
        );
        assert_eq!(handle_enqueue(&shared, &spec_line), "ok 4");
        // Settling one of Alice's jobs frees her quota.
        {
            let mut st = shared.lock();
            st.journal.append_start(1, 1).unwrap();
            st.journal.append_fail(1, 1, "give up").unwrap();
        }
        assert_eq!(
            handle_enqueue(&shared, &format!("client=alice {spec_line}")),
            "ok 5"
        );
        // Bad client names are rejected before the journal sees them.
        let reject = handle_enqueue(&shared, &format!("client=a b {spec_line}"));
        assert!(reject.starts_with("reject bad client name") || reject.contains("bad spec"));
        let reject = handle_enqueue(&shared, &format!("client= {spec_line}"));
        assert!(reject.starts_with("reject bad client name"), "{reject}");
    }

    /// Bug-sweep pin: `shutdown` arriving while a worker holds a claim
    /// must neither hang the server nor write a `fail` record — the
    /// claim is abandoned and the job replays as pending on restart.
    #[test]
    fn shutdown_mid_claim_abandons_without_a_fail_record() {
        let dir = tempdir("vax-serve-shutdown-claim");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            j.append_enqueue(&quick_spec(WorkloadKind::SciEng, 1))
                .unwrap();
        }
        // Always fails, generous retry budget with real backoff: the
        // worker would sit in backoff sleeps for ~100s if shutdown did
        // not cut the retry loop short.
        struct FailingExecutor(AtomicUsize);
        impl Executor for FailingExecutor {
            fn run(
                &self,
                _spec: &JobSpec,
                _timeout: Option<Duration>,
            ) -> Result<MeasuredWorkload, ExecError> {
                self.0.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                Err(ExecError::Failed("always fails".to_string()))
            }
        }
        let executor = Arc::new(FailingExecutor(AtomicUsize::new(0)));
        let config = ServeConfig {
            journal: journal_path.clone(),
            workers: 1,
            retry: RetryPolicy::from_retries(1000, 100),
            drain_on_start: false,
            ..ServeConfig::default()
        };
        let exec = executor.clone();
        let path = journal_path.clone();
        let handle = std::thread::spawn(move || {
            let dir = path.parent().unwrap().to_path_buf();
            let endpoint = Endpoint::Unix(dir.join("s.sock"));
            run_server(&config, Some(&endpoint), exec)
        });
        // Let the first attempt start, then ask for shutdown.
        while executor.0.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let client =
            crate::wire::Client::new(Endpoint::Unix(dir.join("s.sock")), Duration::from_secs(5));
        client.request_line("shutdown").unwrap();
        let report = handle.join().unwrap().unwrap();
        // No fail record was written; the job is still pending.
        assert_eq!((report.done, report.failed), (0, 0));
        let j = Journal::open(&journal_path).unwrap();
        assert_eq!(j.counts(), (1, 0, 0));
        assert_eq!(j.state(1), Some(JobState::Pending));
    }

    /// Bug-sweep pin: a condvar wakeup with an already-drained queue
    /// (drain snapshotting ids while workers race) must terminate —
    /// the drain of an all-settled queue returns immediately and
    /// spurious wakeups re-check the predicate rather than popping.
    #[test]
    fn drain_of_settled_queue_terminates() {
        let dir = tempdir("vax-serve-drain-empty");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            let spec = quick_spec(WorkloadKind::TimesharingLight, 1);
            let id = j.append_enqueue(&spec).unwrap();
            let m = InProcessExecutor.run(&spec, None).unwrap();
            j.append_start(id, 1).unwrap();
            j.append_complete(id, &m).unwrap();
        }
        let journal = Journal::open(&journal_path).unwrap();
        let shared = test_shared(journal, 10, None);
        let mut out = Vec::new();
        handle_drain(&shared, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.ends_with("end\n"), "{text}");
        assert!(shared.lock().shutdown);
    }

    /// Run `pop` against a draining server whose queue holds one id the
    /// journal already settled, while the supervisor waits: dropping
    /// that id must wake the supervisor, which has no timeout to fall
    /// back on.
    fn assert_stale_pop_wakes_supervisor(name: &str, pop: impl FnOnce(&Shared) + Send + 'static) {
        let dir = tempdir(name);
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            let id = j
                .append_enqueue(&quick_spec(WorkloadKind::TimesharingLight, 1))
                .unwrap();
            j.append_start(id, 1).unwrap();
            j.append_fail(id, 1, "settled elsewhere").unwrap();
        }
        let shared = Arc::new(test_shared(Journal::open(&journal_path).unwrap(), 10, None));
        {
            let mut st = shared.lock();
            st.draining = true;
            st.queue.push_back(1);
            st.worker_metrics = vec![SelfMetrics::new()];
        }
        // The supervisor holds the lock from before it signals `ready`
        // until its wait releases it, so the pop lands while it waits.
        let (ready, await_ready) = std::sync::mpsc::channel();
        let (stopped, await_stopped) = std::sync::mpsc::channel();
        let supervisor = Arc::clone(&shared);
        let supervisor = std::thread::spawn(move || {
            let st = supervisor.lock();
            ready.send(()).unwrap();
            await_stop(&supervisor, st);
            stopped.send(()).unwrap();
        });
        let popper = Arc::clone(&shared);
        let popped = std::thread::spawn(move || {
            await_ready.recv().unwrap();
            pop(&popper);
        });
        await_stopped
            .recv_timeout(Duration::from_secs(2))
            .expect("the supervisor stops once the queue empties");
        supervisor.join().unwrap();
        popped.join().unwrap();
        let st = shared.lock();
        assert!(st.shutdown && st.queue.is_empty() && st.running.is_empty());
    }

    /// Bug-sweep pin: popping a queued id the journal no longer holds
    /// pending empties the queue, so it must notify — from a local
    /// worker and from a remote `claim` alike.
    #[test]
    fn dropping_a_settled_queued_id_wakes_the_supervisor() {
        assert_stale_pop_wakes_supervisor("vax-serve-stale-worker", |shared| {
            // The worker returns once the supervisor declares shutdown.
            worker_loop(shared, &InProcessExecutor, 0);
        });
        assert_stale_pop_wakes_supervisor("vax-serve-stale-claim", |shared| {
            let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
            let mut reader = BufReader::new(Conn::Unix(ours));
            handle_claim(shared, &mut reader, &mut Conn::Unix(theirs)).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, "gone\n");
        });
    }

    /// Start an idle listening server on `endpoint`; the handle returns
    /// `run_server`'s result over a channel.
    fn spawn_idle_server(
        dir: &Path,
        endpoint: &Endpoint,
    ) -> std::sync::mpsc::Receiver<Result<ServerReport, ServeError>> {
        let config = ServeConfig {
            journal: dir.join("queue.journal"),
            workers: 1,
            ..ServeConfig::default()
        };
        let endpoint = endpoint.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_server(
                &config,
                Some(&endpoint),
                Arc::new(InProcessExecutor),
            ));
        });
        rx
    }

    /// `shutdown` ends a server blocked in `accept` promptly: the
    /// supervisor's own connection wakes the listener, over a Unix
    /// socket and over TCP.
    #[test]
    fn shutdown_wakes_the_blocked_listener() {
        let dir = tempdir("vax-serve-wake");
        for endpoint in [Endpoint::Unix(dir.join("s.sock")), loopback_tcp()] {
            let server = spawn_idle_server(&dir, &endpoint);
            let client = crate::wire::Client::new(endpoint.clone(), Duration::from_secs(5));
            assert_eq!(client.request_line("shutdown").unwrap(), "ok");
            let report = server
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("{endpoint}: run_server still running 2 s on"))
                .unwrap();
            assert_eq!((report.done, report.failed), (0, 0));
        }
        assert!(!dir.join("s.sock").exists(), "the socket file is removed");
    }

    /// No sleep on the request path: an idle server answers each
    /// request as soon as it connects, so 100 round trips, each on a
    /// connection of its own, take far less than 100 accept polls would.
    #[test]
    fn status_round_trips_pay_no_sleep_floor() {
        let dir = tempdir("vax-serve-rtt");
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let server = spawn_idle_server(&dir, &endpoint);
        let client = || crate::wire::Client::new(endpoint.clone(), Duration::from_secs(5));
        // The first request also waits for the server to bind.
        client()
            .request_stream("status", &mut std::io::sink())
            .unwrap();
        let started = Instant::now();
        for _ in 0..100 {
            client()
                .request_stream("status", &mut std::io::sink())
                .unwrap();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "100 round trips took {elapsed:?}"
        );
        client().request_line("shutdown").unwrap();
        server
            .recv_timeout(Duration::from_secs(2))
            .unwrap()
            .unwrap();
    }

    #[test]
    fn auto_compaction_triggers_and_preserves_results() {
        let dir = tempdir("vax-serve-autocompact");
        let journal_path = dir.join("queue.journal");
        {
            let mut j = Journal::open(&journal_path).unwrap();
            for seed in 1..=4 {
                j.append_enqueue(&quick_spec(WorkloadKind::TimesharingLight, seed))
                    .unwrap();
            }
        }
        let config = ServeConfig {
            journal: journal_path.clone(),
            workers: 2,
            compact_every: 2,
            retry: RetryPolicy::from_retries(0, 0),
            drain_on_start: true,
            ..ServeConfig::default()
        };
        run_server(&config, None, Arc::new(InProcessExecutor)).unwrap();
        let j = Journal::open(&journal_path).unwrap();
        assert_eq!(j.counts(), (0, 4, 0));
        let header = std::fs::read_to_string(&journal_path).unwrap();
        let header = header.lines().next().unwrap();
        assert!(
            header.starts_with("vax-queue-journal v3 next 5 settled ")
                && !header.ends_with(" settled 0"),
            "compaction never ran: {header}"
        );
        // Reference: the same queue drained without compaction.
        let ref_path = dir.join("ref.journal");
        {
            let mut j = Journal::open(&ref_path).unwrap();
            for seed in 1..=4 {
                j.append_enqueue(&quick_spec(WorkloadKind::TimesharingLight, seed))
                    .unwrap();
            }
        }
        let ref_config = ServeConfig {
            journal: ref_path.clone(),
            compact_every: 0,
            workers: 1,
            retry: RetryPolicy::from_retries(0, 0),
            drain_on_start: true,
            ..ServeConfig::default()
        };
        run_server(&ref_config, None, Arc::new(InProcessExecutor)).unwrap();
        assert_eq!(results_of(&journal_path), results_of(&ref_path));
    }

    /// A loopback TCP endpoint on a port that was free a moment ago.
    fn loopback_tcp() -> Endpoint {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        Endpoint::Tcp(format!("127.0.0.1:{port}"))
    }

    /// A journal at `path` with `jobs` jobs shaped like hostbench's
    /// `campaign` (full-width seeds, every memory key set), returning
    /// their specs in id order. The first `settled` settle, alternately
    /// done and failed: the first half of them compacted, the rest among
    /// the live records. The others stay pending.
    fn campaign_journal(path: &Path, jobs: usize, settled: usize) -> Vec<JobSpec> {
        let mut j = Journal::open(path).unwrap();
        let specs: Vec<JobSpec> = (0..jobs as u64)
            .map(|i| {
                let mut spec =
                    quick_spec(WorkloadKind::ALL[i as usize % 5], 0x9e37_79b9_7f4a_7c15 ^ i);
                spec.cache_kb = Some(4 << (i % 4));
                spec.cache_ways = Some(1 << (i % 3));
                spec.tb_entries = Some(64 << (i % 3));
                spec.write_buffer = Some(1 + i as u32 % 4);
                spec
            })
            .collect();
        for spec in &specs {
            j.append_enqueue(spec).unwrap();
        }
        let m = InProcessExecutor.run(&specs[0], None).unwrap();
        for id in 1..=settled as JobId {
            if id == settled as JobId / 2 + 1 {
                j.compact().unwrap();
            }
            j.append_start(id, 1).unwrap();
            if id.is_multiple_of(2) {
                j.append_fail(id, 1, "synthetic failure").unwrap();
            } else {
                j.append_complete(id, &m).unwrap();
            }
        }
        specs
    }

    /// `status` on a 60-job queue whose settled jobs are compacted and
    /// live (plus pending and running jobs), with its expected bytes
    /// spelled out from the specs.
    fn sixty_job_status(name: &str) -> (Shared, String) {
        let dir = tempdir(name);
        let specs = campaign_journal(&dir.join("queue.journal"), 60, 40);
        let shared = test_shared(
            Journal::open(&dir.join("queue.journal")).unwrap(),
            256,
            None,
        );
        {
            let mut st = shared.lock();
            st.queue.extend(43..=60);
            st.running.extend([41, 42]);
        }
        let mut expected =
            "ok capacity 256 pending 18 running 2 done 20 failed 20 draining 0\n".to_string();
        for (id, spec) in (1u64..).zip(&specs) {
            let state = match id {
                41 | 42 => "running",
                id if id > 40 => "pending",
                id if id.is_multiple_of(2) => "failed",
                _ => "done",
            };
            expected.push_str(&format!("job {id} {state} {}\n", spec.render()));
        }
        expected.push_str("end\n");
        (shared, expected)
    }

    /// `status` reads each settled spec alone, through one handle per
    /// pass; the reply is the same bytes the spec lines always gave,
    /// for compacted jobs and for jobs settled among the live records.
    #[test]
    fn status_lists_settled_specs_compacted_and_live_unchanged() {
        let (shared, expected) = sixty_job_status("vax-serve-status-specs");
        assert_eq!(shared.lock().journal.settled_in_tail(), 20);
        let mut out = Vec::new();
        handle_status(&shared, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    /// Counts the writes that reach the connection.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `status` reply on a queue the size of hostbench's `campaign`
    /// (about 7 KB) leaves the connection handler in one write.
    #[test]
    fn a_sixty_job_status_reply_leaves_in_one_write() {
        let (shared, expected) = sixty_job_status("vax-serve-status-one-write");
        assert!(expected.len() > 6_000, "{} bytes", expected.len());
        let (mut client, server) = std::os::unix::net::UnixStream::pair().unwrap();
        client.write_all(b"status\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut writer = CountingWriter {
            bytes: Vec::new(),
            writes: 0,
        };
        serve_conn(
            &shared,
            &mut BufReader::new(Conn::Unix(server)),
            &mut writer,
        );
        assert_eq!(String::from_utf8(writer.bytes).unwrap(), expected);
        assert_eq!(writer.writes, 1);
    }

    /// Records the bytes that reach the connection, and how many of them
    /// arrived while the server was still running.
    struct StopWatchingWriter<'s> {
        shared: &'s Shared,
        sent: Vec<u8>,
        sent_while_running: usize,
    }

    impl Write for StopWatchingWriter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.sent.extend_from_slice(buf);
            if !self.shared.lock().shutdown {
                self.sent_while_running = self.sent.len();
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `drain` and `shutdown` put their last reply line on the
    /// connection before they stop the server: a stopped `vax780 serve`
    /// exits its process, and a line still in the reply buffer would be
    /// lost (seen as `drain --socket` failing with "connection closed
    /// before `end`").
    #[test]
    fn the_last_reply_leaves_before_the_server_stops() {
        for (request, last) in [("drain", "end\n"), ("shutdown", "ok\n")] {
            let dir = tempdir(&format!("vax-serve-last-reply-{request}"));
            let shared = test_shared(Journal::open(&dir.join("queue.journal")).unwrap(), 4, None);
            let (mut client, server) = std::os::unix::net::UnixStream::pair().unwrap();
            client.write_all(format!("{request}\n").as_bytes()).unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let mut writer = StopWatchingWriter {
                shared: &shared,
                sent: Vec::new(),
                sent_while_running: 0,
            };
            serve_conn(
                &shared,
                &mut BufReader::new(Conn::Unix(server)),
                &mut writer,
            );
            assert!(shared.lock().shutdown, "{request}");
            assert_eq!(writer.sent, last.as_bytes(), "{request}");
            assert_eq!(writer.sent_while_running, last.len(), "{request}");
        }
    }

    /// Blocks its first write until released, so a test can look at
    /// the server while a reply is half written.
    struct GatedWriter {
        started: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
        bytes: Vec<u8>,
    }

    impl Write for GatedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() {
                self.started.send(()).unwrap();
                self.release.recv().unwrap();
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `drain` of a settled queue keeps the server up until its reply
    /// has ended: a supervisor that stopped a draining server as soon as
    /// the queue settled let `vax780 serve` exit under a half-written
    /// reply (seen as `drain --socket` failing with "connection closed
    /// before `end`" after 0 lines).
    #[test]
    fn a_drain_reply_keeps_a_settled_server_up_until_its_end() {
        let dir = tempdir("vax-serve-drain-settled");
        campaign_journal(&dir.join("queue.journal"), 2, 2);
        let shared = &test_shared(Journal::open(&dir.join("queue.journal")).unwrap(), 4, None);
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion drops
            // `release_tx` and the blocked writer returns.
            let (started, started_rx) = std::sync::mpsc::channel();
            let (release_tx, release) = std::sync::mpsc::channel();
            let drain = s.spawn(move || {
                let mut writer = GatedWriter {
                    started,
                    release,
                    bytes: Vec::new(),
                };
                handle_drain(shared, &mut writer).unwrap();
                writer.bytes
            });
            started_rx.recv().unwrap();
            assert!(
                !shared.lock().drained(),
                "the server may stop under a half-written drain"
            );
            release_tx.send(()).unwrap();
            let reply = String::from_utf8(drain.join().unwrap()).unwrap();
            assert_eq!(reply.lines().count(), 3, "{reply}");
            assert!(reply.ends_with("end\n"), "{reply}");
        });
        assert!(shared.lock().shutdown);
    }

    /// Read one reply from a raw connection: its first line, or
    /// everything through `end` if `multi_line`.
    fn read_reply(reader: &mut impl BufRead, multi_line: bool) -> String {
        let mut reply = String::new();
        loop {
            let start = reply.len();
            if reader.read_line(&mut reply).unwrap() == 0 || !multi_line {
                return reply;
            }
            if &reply[start..] == "end\n" {
                return reply;
            }
        }
    }

    /// Send `request` on a fresh connection, half-close it, and read
    /// everything the server sends until it closes the connection.
    fn one_shot_to_eof(endpoint: &Endpoint, request: &str) -> String {
        let mut conn = endpoint.connect(Duration::from_secs(5)).unwrap();
        conn.write_all(format!("{request}\n").as_bytes()).unwrap();
        match &conn {
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write).unwrap(),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write).unwrap(),
        }
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut conn, &mut reply).unwrap();
        reply
    }

    /// A client that sends one line and reads the reply, or half-closes
    /// and reads to EOF, gets the bytes a one-request connection always
    /// got, on a Unix socket and on TCP; the server keeps serving.
    #[test]
    fn a_one_shot_client_gets_the_same_bytes() {
        let dir = tempdir("vax-serve-one-shot");
        let idle = "ok capacity 256 pending 0 running 0 done 0 failed 0 draining 0\nend\n";
        let unknown = "reject unknown request \"bogus\" (expected enqueue, status, results, \
                       metrics, drain, claim, compact, or shutdown)\n";
        for endpoint in [Endpoint::Unix(dir.join("s.sock")), loopback_tcp()] {
            let server = spawn_idle_server(&dir, &endpoint);
            for (request, reply, multi_line) in [("status", idle, true), ("bogus", unknown, false)]
            {
                // Connect, one line, read the reply, close.
                let mut conn = BufReader::new(endpoint.connect(Duration::from_secs(5)).unwrap());
                conn.get_mut()
                    .write_all(format!("{request}\n").as_bytes())
                    .unwrap();
                assert_eq!(read_reply(&mut conn, multi_line), reply, "{endpoint}");
                drop(conn);
                assert_eq!(one_shot_to_eof(&endpoint, request), reply, "{endpoint}");
            }
            let client = crate::wire::Client::new(endpoint.clone(), Duration::from_secs(5));
            assert_eq!(client.request_line("shutdown").unwrap(), "ok");
            server
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap();
        }
    }

    /// Once the server has stopped, a line on a kept-alive connection
    /// gets no reply and changes nothing: the handler closes the
    /// connection before a late `compact` could rewrite the journal.
    #[test]
    fn a_stopped_server_answers_nothing_more_on_a_kept_connection() {
        let dir = tempdir("vax-serve-stopped-kept");
        campaign_journal(&dir.join("queue.journal"), 4, 4);
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let server = spawn_idle_server(&dir, &endpoint);
        let mut kept = BufReader::new(endpoint.connect(Duration::from_secs(5)).unwrap());
        kept.get_mut().write_all(b"status\n").unwrap();
        let status = read_reply(&mut kept, true);
        assert!(status.starts_with("ok capacity"), "{status}");
        let client = crate::wire::Client::new(endpoint, Duration::from_secs(5));
        assert_eq!(client.request_line("shutdown").unwrap(), "ok");
        server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        let files = || {
            ["queue.journal", "queue.journal.tmp"]
                .map(|name| std::fs::read(dir.join(name)).unwrap_or_default())
        };
        let before = files();
        kept.get_mut().write_all(b"compact\n").unwrap();
        kept.get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = String::new();
        assert_eq!(kept.read_line(&mut reply).unwrap(), 0, "{reply}");
        assert_eq!(files(), before);
    }

    /// A sink that fails on the first line it is given.
    struct FailingSink;

    impl Write for FailingSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink full"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reply left half read (its sink failed) takes its connection
    /// with it: the next request dials again and reads its own reply,
    /// not the rest of the last one.
    #[test]
    fn a_failed_sink_leaves_no_kept_connection() {
        let dir = tempdir("vax-serve-failed-sink");
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let server = spawn_idle_server(&dir, &endpoint);
        let client = crate::wire::Client::new(endpoint, Duration::from_secs(5));
        let err = client
            .request_stream("status", &mut FailingSink)
            .unwrap_err();
        assert_eq!(err.to_string(), "sink full");
        let mut out = Vec::new();
        assert_eq!(client.request_stream("status", &mut out).unwrap(), 1);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "ok capacity 256 pending 0 running 0 done 0 failed 0 draining 0\n"
        );
        assert_eq!(client.request_line("shutdown").unwrap(), "ok");
        server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
    }

    /// On one kept-alive TCP connection, 100 `status` replies and a
    /// 60-line `drain` take far less than one 40 ms delayed-ACK stall
    /// per reply would add (4 s for the statuses alone).
    #[test]
    fn kept_alive_tcp_requests_pay_no_delayed_ack_stall() {
        let dir = tempdir("vax-serve-tcp-kept");
        campaign_journal(&dir.join("queue.journal"), 60, 60);
        let endpoint = loopback_tcp();
        let server = spawn_idle_server(&dir, &endpoint);
        let client = crate::wire::Client::new(endpoint, Duration::from_secs(5));
        // The first request also waits for the server to bind.
        client
            .request_stream("status", &mut std::io::sink())
            .unwrap();
        let started = Instant::now();
        for _ in 0..100 {
            assert_eq!(
                client
                    .request_stream("status", &mut std::io::sink())
                    .unwrap(),
                61
            );
        }
        assert_eq!(
            client
                .request_stream("drain", &mut std::io::sink())
                .unwrap(),
            60
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "100 statuses and a drain took {elapsed:?}"
        );
        server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
    }
}
