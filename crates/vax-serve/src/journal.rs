//! The persistent job-queue journal, `vax-queue-journal v2`.
//!
//! The journal splits the queue across **two segments** so it stays
//! sublinear in its own history:
//!
//! - the **tail** (`<path>`) is the append-only live segment, one
//!   flushed record per lifecycle transition:
//!
//!   ```text
//!   vax-queue-journal v2 generation <G> next <N>
//!   enqueue <id> [client=<name>] <spec line>
//!   start <id> attempt <k>
//!   complete <id> instructions <N> cycles <C>
//!   <upc-monitor codec body>
//!   end
//!   fail <id> attempts <k> message <escaped text>
//!   ```
//!
//! - the **snapshot** (`<path>.snap`) holds compacted settled jobs in
//!   final form behind an offset index, so neither replay nor result
//!   streaming ever needs to read their bodies into memory:
//!
//!   ```text
//!   vax-queue-snapshot v2 generation <G> jobs <N>
//!   index
//!   entry <id> <rel-offset> <len> done|failed
//!   ...
//!   end
//!   job <id> <spec line>
//!   complete <id> instructions <N> cycles <C>
//!   <upc-monitor codec body>
//!   end
//!   ...
//!   ```
//!
//! **Durability.** Each append is written and `flush()`ed before the
//! caller's in-memory state advances, so every transition the server
//! acted on survives the death of the process (`kill -9`, a panic, an
//! OOM kill). Appends are not `fsync`ed: an OS crash or power loss can
//! lose the most recent transitions, and replay then re-runs those
//! jobs. Compaction is the one synced path: both replacement files are
//! synced before either is renamed into place.
//!
//! [`Journal::compact`] migrates every settled job from the tail into
//! a fresh snapshot and rewrites the tail with only the unsettled
//! records. Compaction is crash-safe by write-new-then-rename: both
//! replacement files are fully written and synced to temporaries,
//! then the snapshot is renamed into place *before* the tail. A
//! `kill -9` at any byte offset therefore leaves one of three states —
//! old pair, new snapshot + old tail, or new pair — and
//! [`Journal::open`] replays each to the identical queue: a tail whose
//! generation lags the snapshot is the pre-compaction tail, so its
//! records for jobs the snapshot already settled are skipped as the
//! expected overlap rather than corruption.
//!
//! Replay is **O(unsettled)** in memory: the tail is consumed through
//! a buffered line reader one record at a time (a partial trailing
//! append is dropped and truncated, damage anywhere else is a hard
//! [`JournalError::Corrupt`]), settled jobs collapse to fixed-size
//! offset-table entries, and only unsettled jobs keep their parsed
//! spec in memory. Result lines for `results`/`drain` are re-derived by
//! seeking to the recorded offsets, so a fully settled million-job
//! queue streams without ever materializing the settled set.
//!
//! Any other header — a `vax-queue-journal v1` file, or a retired
//! `vax-campaign-checkpoint v1` — is refused as corrupt, with the header
//! it found echoed in the error.

use crate::spec::JobSpec;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use upc_monitor::codec;
use vax780_core::MeasuredWorkload;

const HEADER_V2: &str = "vax-queue-journal v2";
const SNAP_HEADER: &str = "vax-queue-snapshot v2";

/// Monotonic job identifier, assigned at enqueue time.
pub type JobId = u64;

/// Why the journal could not be loaded or extended.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The file could not be read or written.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file's contents did not parse.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "queue journal {}: {source}", path.display())
            }
            JournalError::Corrupt { path, detail } => {
                write!(f, "queue journal {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Replayed state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// No settled outcome yet; the job must (re-)run.
    Pending,
    /// A `complete` record exists.
    Done,
    /// A `fail` record exists; the job is quarantined.
    Failed,
}

impl JobState {
    /// The state name as printed by `status`.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// An unsettled job: the only kind whose spec stays in memory.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// What to run.
    pub spec: JobSpec,
    /// Client that enqueued the job (empty = anonymous).
    pub client: String,
    /// `start` records seen (attempts begun, across all server lives).
    pub starts: u32,
    /// Byte offset of the `enqueue` record in the tail.
    enqueue_at: u64,
    /// Byte length of the `enqueue` record (newline included).
    enqueue_len: u32,
}

/// Which segment a settled record lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Snapshot,
    Tail,
}

/// One settled job, reduced to an offset-table entry. The record
/// bodies stay on disk; this is all the memory a settled job costs.
#[derive(Debug, Clone, Copy)]
struct SettledRef {
    seg: Segment,
    /// Tail: offset/length of the `enqueue` record carrying the spec.
    /// Snapshot: unused (the record's own `job` line carries it).
    spec_at: u64,
    spec_len: u32,
    /// Offset of the settle record (`complete`/`fail` in the tail, the
    /// whole `job ...` record in the snapshot).
    at: u64,
    len: u64,
    kind: JobState,
}

/// FNV-1a 64-bit digest (stable, dependency-free).
pub fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape a failure message onto one journal line.
fn escape_message(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unescape_message(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Is `name` usable as a per-client identity on an `enqueue` record?
/// One token, so it survives the one-line journal and wire codecs.
pub fn valid_client_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'@'))
}

/// The deterministic JSON result line for one settled job. Field
/// order and formatting are pinned: they are the bytes the kill -9
/// idempotence proof diffs.
fn render_done(
    id: JobId,
    spec_render: &str,
    workload: &str,
    instructions: u64,
    cycles: u64,
    machine_checks: u64,
    digest: u64,
) -> String {
    let cpi = if instructions > 0 {
        cycles as f64 / instructions as f64
    } else {
        0.0
    };
    format!(
        "{{\"job\":{id},\"spec\":\"{}\",\"workload\":\"{workload}\",\"instructions\":{instructions},\
         \"cycles\":{cycles},\"cpi\":{cpi:.6},\"machine_checks\":{machine_checks},\
         \"digest\":\"{digest:016x}\"}}",
        json_escape(spec_render),
    )
}

fn render_failed(id: JobId, spec_render: &str, attempts: u32, message: &str) -> String {
    format!(
        "{{\"job\":{id},\"spec\":\"{}\",\"failed\":true,\"attempts\":{attempts},\
         \"message\":\"{}\"}}",
        json_escape(spec_render),
        json_escape(message),
    )
}

/// Buffered line reader that tracks byte offsets and whether each line
/// was newline-terminated — the streaming replacement for the v1
/// whole-file `read_to_string` walk. Invalid UTF-8 is surfaced as a
/// lossy line so the caller's torn-vs-corrupt logic decides its fate.
struct LineReader<R> {
    inner: R,
    pos: u64,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            pos: 0,
            buf: Vec::new(),
        }
    }

    /// `(start_offset, line_without_newline, terminated)`, or `None`
    /// at EOF.
    fn next_line(&mut self) -> std::io::Result<Option<(u64, String, bool)>> {
        self.buf.clear();
        let start = self.pos;
        let n = self.inner.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.pos += n as u64;
        let terminated = self.buf.last() == Some(&b'\n');
        if terminated {
            self.buf.pop();
        }
        Ok(Some((
            start,
            String::from_utf8_lossy(&self.buf).into_owned(),
            terminated,
        )))
    }
}

fn snap_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".snap");
    PathBuf::from(os)
}

fn is_record_start(t: &str) -> bool {
    t == "end"
        || t.starts_with("enqueue ")
        || t.starts_with("start ")
        || t.starts_with("complete ")
        || t.starts_with("fail ")
}

/// Read `len` bytes at `at` from an open file.
fn read_span(file: &mut File, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(at))?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

/// Read the first line, newline included, of the `len`-byte record at
/// `at` — the whole record if it holds no newline. It reads in small
/// chunks, so a head line costs one short read however long its record.
fn read_head(file: &mut File, at: u64, len: u64) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(at))?;
    let mut head = Vec::new();
    BufReader::with_capacity(512, Read::take(&*file, len)).read_until(b'\n', &mut head)?;
    Ok(head)
}

/// What one settled record streams back as, before JSON rendering.
enum StreamedOutcome {
    Done {
        instructions: u64,
        cycles: u64,
        machine_checks: u64,
        digest: u64,
    },
    Failed {
        attempts: u32,
        message: String,
    },
}

/// A loaded (or freshly created) queue journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    snap_path: PathBuf,
    generation: u64,
    next_id: JobId,
    tail_len: u64,
    pending: BTreeMap<JobId, PendingJob>,
    settled: BTreeMap<JobId, SettledRef>,
    done: usize,
    failed: usize,
    settled_in_tail: usize,
    clients: BTreeMap<String, usize>,
    warnings: Vec<String>,
}

impl Journal {
    /// Open `path`, creating the v2 pair if missing or replaying it if
    /// present. A torn trailing tail append is dropped with a warning
    /// and the tail truncated back to the last good byte.
    ///
    /// One writer at a time: the journal has no cross-process lock, so
    /// a server and an offline `enqueue` must not extend the same file
    /// concurrently.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure, an unknown header, or mid-file
    /// corruption.
    pub fn open(path: &Path) -> Result<Journal, JournalError> {
        let mut journal = Journal {
            path: path.to_path_buf(),
            snap_path: snap_path_for(path),
            generation: 0,
            next_id: 1,
            tail_len: 0,
            pending: BTreeMap::new(),
            settled: BTreeMap::new(),
            done: 0,
            failed: 0,
            settled_in_tail: 0,
            clients: BTreeMap::new(),
            warnings: Vec::new(),
        };
        let snap_generation = match File::open(&journal.snap_path) {
            Ok(file) => Some(journal.load_snapshot(file)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(source) => {
                return Err(JournalError::Io {
                    path: journal.snap_path.clone(),
                    source,
                })
            }
        };
        match File::open(path) {
            Ok(file) => journal.replay_tail(file, snap_generation)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                journal.generation = snap_generation.unwrap_or(0);
                journal.next_id = journal.id_after(journal.max_settled_id())?;
                journal.write_fresh_tail()?;
            }
            Err(source) => {
                return Err(JournalError::Io {
                    path: path.to_path_buf(),
                    source,
                })
            }
        }
        Ok(journal)
    }

    fn io_err(&self, source: std::io::Error) -> JournalError {
        JournalError::Io {
            path: self.path.clone(),
            source,
        }
    }

    fn corrupt(&self, detail: String) -> JournalError {
        JournalError::Corrupt {
            path: self.path.clone(),
            detail,
        }
    }

    fn snap_corrupt(&self, detail: String) -> JournalError {
        JournalError::Corrupt {
            path: self.snap_path.clone(),
            detail,
        }
    }

    fn max_settled_id(&self) -> JobId {
        self.settled.keys().next_back().copied().unwrap_or(0)
    }

    /// The id after `id`; the largest id has none, so a journal naming
    /// it is corrupt (replay could never assign a fresh id after it).
    fn id_after(&self, id: JobId) -> Result<JobId, JournalError> {
        id.checked_add(1)
            .ok_or_else(|| self.corrupt(format!("job id {id} leaves no id to assign next")))
    }

    /// Load the snapshot segment: header plus offset index only — the
    /// record bodies are never read at open. Snapshots are written
    /// atomically (rename), so any damage is a hard error, never a
    /// torn tail.
    fn load_snapshot(&mut self, file: File) -> Result<u64, JournalError> {
        let file_len = file
            .metadata()
            .map_err(|e| JournalError::Io {
                path: self.snap_path.clone(),
                source: e,
            })?
            .len();
        let mut reader = LineReader::new(BufReader::new(file));
        let mut next = || {
            reader.next_line().map_err(|e| JournalError::Io {
                path: self.snap_path.clone(),
                source: e,
            })
        };
        let (generation, jobs): (u64, usize) = match next()? {
            Some((_, line, true)) => {
                let words: Vec<&str> = line.split_ascii_whitespace().collect();
                match words.as_slice() {
                    ["vax-queue-snapshot", "v2", "generation", g, "jobs", n] => g
                        .parse()
                        .ok()
                        .zip(n.parse().ok())
                        .ok_or_else(|| self.snap_corrupt(format!("bad header `{line}`")))?,
                    _ => {
                        return Err(self.snap_corrupt(format!(
                            "missing `{SNAP_HEADER}` header (got `{line}`)"
                        )))
                    }
                }
            }
            _ => return Err(self.snap_corrupt(format!("missing `{SNAP_HEADER}` header"))),
        };
        match next()? {
            Some((_, line, true)) if line.trim() == "index" => {}
            other => {
                return Err(self.snap_corrupt(format!("missing `index` section (got {other:?})")))
            }
        }
        // The header's count is checked after the index is read, never
        // trusted as an allocation size.
        let mut entries: Vec<(JobId, u64, u64, JobState)> = Vec::new();
        loop {
            match next()? {
                Some((_, line, true)) if line.trim() == "end" => break,
                Some((_, line, true)) => {
                    let words: Vec<&str> = line.split_ascii_whitespace().collect();
                    let parsed = match words.as_slice() {
                        ["entry", id, rel, len, kind] => {
                            let kind = match *kind {
                                "done" => Some(JobState::Done),
                                "failed" => Some(JobState::Failed),
                                _ => None,
                            };
                            id.parse().ok().zip(rel.parse().ok()).zip(
                                len.parse()
                                    .ok()
                                    .zip(kind)
                                    .map(|(l, k): (u64, JobState)| (l, k)),
                            )
                        }
                        _ => None,
                    };
                    let Some(((id, rel), (len, kind))) = parsed else {
                        return Err(self.snap_corrupt(format!("bad index entry `{line}`")));
                    };
                    if let Some(&(last, ..)) = entries.last() {
                        if id <= last {
                            return Err(
                                self.snap_corrupt(format!("index not strictly increasing at {id}"))
                            );
                        }
                    }
                    entries.push((id, rel, len, kind));
                }
                _ => return Err(self.snap_corrupt("index has no `end` line".to_string())),
            }
        }
        if entries.len() != jobs {
            return Err(self.snap_corrupt(format!(
                "header claims {jobs} job(s) but the index holds {}",
                entries.len()
            )));
        }
        let base = reader.pos;
        for (id, rel, len, kind) in entries {
            let at = base.checked_add(rel).filter(|at| {
                at.checked_add(len)
                    .is_some_and(|record_end| record_end <= file_len)
            });
            let Some(at) = at else {
                return Err(self.snap_corrupt(format!(
                    "index entry for job {id} points past the end of the file"
                )));
            };
            match kind {
                JobState::Done => self.done += 1,
                JobState::Failed => self.failed += 1,
                JobState::Pending => unreachable!(),
            }
            self.settled.insert(
                id,
                SettledRef {
                    seg: Segment::Snapshot,
                    spec_at: at,
                    spec_len: 0,
                    at,
                    len,
                    kind,
                },
            );
        }
        Ok(generation)
    }

    /// Replay the tail through a buffered line reader — O(one record)
    /// memory — applying the v1 torn-vs-corrupt policy and, when the
    /// tail's generation lags the snapshot's (the mid-compaction crash
    /// window), skipping records for jobs the snapshot already
    /// settled.
    fn replay_tail(
        &mut self,
        file: File,
        snap_generation: Option<u64>,
    ) -> Result<(), JournalError> {
        let mut reader = LineReader::new(BufReader::new(file));
        let io = |this: &Journal, e| this.io_err(e);

        // Header: v2 with generation + next-id.
        let mut header_next = match reader.next_line().map_err(|e| io(self, e))? {
            Some((_, line, true)) => {
                let words: Vec<&str> = line.split_ascii_whitespace().collect();
                match words.as_slice() {
                    ["vax-queue-journal", "v2", "generation", g, "next", n] => {
                        let parsed: Option<(u64, JobId)> = g.parse().ok().zip(n.parse().ok());
                        let Some((generation, next)) = parsed else {
                            return Err(self.corrupt(format!("bad header `{line}`")));
                        };
                        self.generation = generation;
                        next
                    }
                    _ => {
                        return Err(
                            self.corrupt(format!("missing `{HEADER_V2}` header (got `{line}`)"))
                        )
                    }
                }
            }
            _ => return Err(self.corrupt(format!("missing `{HEADER_V2}` header"))),
        };
        if header_next == 0 {
            header_next = 1;
        }

        // Reconcile the tail against the snapshot. A lagging tail is
        // the expected state after a kill between the two compaction
        // renames: its records for snapshot-settled jobs are replayed
        // as no-ops.
        let stale_tail = match snap_generation {
            Some(snap_gen) => {
                if self.generation > snap_gen {
                    return Err(self.corrupt(format!(
                        "tail generation {} is newer than snapshot generation {snap_gen}",
                        self.generation
                    )));
                }
                let stale = self.generation < snap_gen;
                self.generation = snap_gen;
                stale
            }
            None => {
                if self.generation > 0 {
                    return Err(self.corrupt(format!(
                        "tail generation {} but the snapshot segment {} is missing",
                        self.generation,
                        self.snap_path.display()
                    )));
                }
                false
            }
        };

        // Torn-vs-corrupt: appends are sequential, so a torn
        // write leaves a prefix of ONE record. If any fully terminated
        // record-start line exists after the failure point, the damage
        // is not a truncation and we refuse to guess.
        let mut good = reader.pos;
        let mut torn: Option<(u64, String)> = None;
        'records: loop {
            let (record_start, raw, terminated) =
                match reader.next_line().map_err(|e| io(self, e))? {
                    None => break,
                    Some(x) => x,
                };
            let trimmed = raw.trim().to_string();
            if trimmed.is_empty() && terminated {
                good = reader.pos;
                continue;
            }
            // Resolve a record-level failure: torn if nothing
            // record-shaped follows (`saw_more` covers lines already
            // consumed by this record), corrupt otherwise.
            macro_rules! fail {
                ($saw_more:expr, $detail:expr) => {{
                    let detail: String = $detail;
                    let mut saw = $saw_more;
                    while let Some((_, line, term)) = reader.next_line().map_err(|e| io(self, e))? {
                        if term && is_record_start(line.trim()) {
                            saw = true;
                        }
                    }
                    if saw {
                        return Err(self.corrupt(detail));
                    }
                    torn = Some((record_start, detail));
                    break 'records;
                }};
            }
            if !terminated {
                fail!(false, format!("incomplete trailing line `{trimmed}`"));
            }
            let mut words = trimmed.splitn(3, ' ');
            let keyword = words.next().unwrap_or("").to_string();
            let id: Option<JobId> = words.next().and_then(|w| w.parse().ok());
            let rest = words.next().unwrap_or("").to_string();
            match (keyword.as_str(), id) {
                ("enqueue", Some(id)) => {
                    let (client, spec_line) = match rest.split_once(' ') {
                        Some((first, tail_rest)) if first.starts_with("client=") => {
                            let name = &first["client=".len()..];
                            if !valid_client_name(name) {
                                fail!(false, format!("enqueue {id}: bad client name `{name}`"));
                            }
                            (name.to_string(), tail_rest)
                        }
                        _ => (String::new(), rest.as_str()),
                    };
                    let spec = match JobSpec::parse(spec_line) {
                        Ok(s) => s,
                        Err(e) => fail!(false, format!("enqueue {id}: {e}")),
                    };
                    let after = self.id_after(id)?;
                    if stale_tail && self.settled.contains_key(&id) {
                        // Pre-compaction tail: the snapshot already
                        // holds this job in settled form.
                        good = reader.pos;
                        self.next_id = self.next_id.max(after);
                        continue;
                    }
                    if self.pending.contains_key(&id) || self.settled.contains_key(&id) {
                        return Err(self.corrupt(format!("duplicate enqueue for job {id}")));
                    }
                    *self.clients.entry(client.clone()).or_insert(0) += 1;
                    self.pending.insert(
                        id,
                        PendingJob {
                            spec,
                            client,
                            starts: 0,
                            enqueue_at: record_start,
                            enqueue_len: (reader.pos - record_start) as u32,
                        },
                    );
                    self.next_id = self.next_id.max(after);
                }
                ("start", Some(id)) => {
                    let attempt: Option<u32> =
                        match rest.split_ascii_whitespace().collect::<Vec<_>>().as_slice() {
                            ["attempt", k] => k.parse().ok(),
                            _ => None,
                        };
                    let Some(attempt) = attempt else {
                        fail!(false, format!("bad start record `{trimmed}`"));
                    };
                    if stale_tail && self.settled.contains_key(&id) {
                        good = reader.pos;
                        continue;
                    }
                    if self.settled.contains_key(&id) {
                        return Err(self.corrupt(format!("start for settled job {id}")));
                    }
                    let Some(job) = self.pending.get_mut(&id) else {
                        return Err(self.corrupt(format!("start for unknown job {id}")));
                    };
                    job.starts = job.starts.max(attempt);
                }
                ("fail", Some(id)) => {
                    let parsed = rest
                        .strip_prefix("attempts ")
                        .and_then(|r| r.split_once(" message "))
                        .and_then(|(k, _msg)| k.parse::<u32>().ok());
                    if parsed.is_none() {
                        fail!(false, format!("bad fail record `{trimmed}`"));
                    }
                    if stale_tail && self.settled.contains_key(&id) {
                        good = reader.pos;
                        continue;
                    }
                    self.settle_from_tail(
                        id,
                        record_start,
                        reader.pos - record_start,
                        JobState::Failed,
                    )?;
                }
                ("complete", Some(id)) => {
                    let lens: Option<(u64, u64)> =
                        match rest.split_ascii_whitespace().collect::<Vec<_>>().as_slice() {
                            ["instructions", i, "cycles", c] => i.parse().ok().zip(c.parse().ok()),
                            _ => None,
                        };
                    if lens.is_none() {
                        fail!(false, format!("bad complete record `{trimmed}`"));
                    }
                    let mut body = String::new();
                    let mut closed = false;
                    let mut saw_more = false;
                    while let Some((_, l, term)) = reader.next_line().map_err(|e| io(self, e))? {
                        if l.trim() == "end" && term {
                            closed = true;
                            break;
                        }
                        if !term {
                            break;
                        }
                        if is_record_start(l.trim()) {
                            saw_more = true;
                        }
                        body.push_str(&l);
                        body.push('\n');
                    }
                    if !closed {
                        fail!(saw_more, format!("complete {id} has no `end` line"));
                    }
                    // Fully terminated section: anything wrong inside
                    // is real corruption, not a torn append. Parse to
                    // validate, then discard — only offsets are kept.
                    codec::from_text_with_counters(&body)
                        .map_err(|e| self.corrupt(format!("complete {id}: {e}")))?;
                    if stale_tail && self.settled.contains_key(&id) {
                        good = reader.pos;
                        continue;
                    }
                    self.settle_from_tail(
                        id,
                        record_start,
                        reader.pos - record_start,
                        JobState::Done,
                    )?;
                }
                _ => {
                    fail!(false, format!("unparseable record `{trimmed}`"));
                }
            }
            good = reader.pos;
        }
        self.next_id = self
            .next_id
            .max(header_next)
            .max(self.id_after(self.max_settled_id())?);
        let end = reader.pos;
        self.tail_len = good;
        if let Some((at, detail)) = torn {
            self.warnings.push(format!(
                "dropped torn trailing record ({} byte(s) after the last complete \
                 record): {detail}; the transition will be replayed",
                end - at
            ));
            let file = OpenOptions::new()
                .write(true)
                .open(&self.path)
                .map_err(|e| self.io_err(e))?;
            file.set_len(good).map_err(|e| self.io_err(e))?;
        }
        Ok(())
    }

    /// Move a pending job to the settled offset table during replay.
    fn settle_from_tail(
        &mut self,
        id: JobId,
        at: u64,
        len: u64,
        kind: JobState,
    ) -> Result<(), JournalError> {
        if self.settled.contains_key(&id) {
            return Err(self.corrupt(format!("{} for settled job {id}", kind.name())));
        }
        let Some(job) = self.pending.remove(&id) else {
            return Err(self.corrupt(format!("{} for unknown job {id}", kind.name())));
        };
        self.client_settled(&job.client);
        match kind {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Pending => unreachable!(),
        }
        self.settled_in_tail += 1;
        self.settled.insert(
            id,
            SettledRef {
                seg: Segment::Tail,
                spec_at: job.enqueue_at,
                spec_len: job.enqueue_len,
                at,
                len,
                kind,
            },
        );
        Ok(())
    }

    fn client_settled(&mut self, client: &str) {
        if let Some(count) = self.clients.get_mut(client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.clients.remove(client);
            }
        }
    }

    fn tail_header(&self) -> String {
        format!(
            "{HEADER_V2} generation {} next {}\n",
            self.generation, self.next_id
        )
    }

    fn write_fresh_tail(&mut self) -> Result<(), JournalError> {
        let header = self.tail_header();
        std::fs::write(&self.path, &header).map_err(|e| self.io_err(e))?;
        self.tail_len = header.len() as u64;
        Ok(())
    }

    /// Warnings produced while opening (a torn trailing record dropped).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The journal's tail path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The snapshot segment's path.
    pub fn snapshot_path(&self) -> &Path {
        &self.snap_path
    }

    /// The compaction generation (0 until the first compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Settled jobs whose records still live in the tail — the work a
    /// compaction would migrate.
    pub fn settled_in_tail(&self) -> usize {
        self.settled_in_tail
    }

    /// The highest job id ever assigned (0 if none).
    pub fn last_id(&self) -> JobId {
        self.next_id - 1
    }

    /// One job's replayed state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        if self.pending.contains_key(&id) {
            Some(JobState::Pending)
        } else {
            self.settled.get(&id).map(|r| r.kind)
        }
    }

    /// Every job in id order, as `(id, state)` — an iterator, not a
    /// materialized list, so a million-job status walk stays flat.
    pub fn states(&self) -> impl Iterator<Item = (JobId, JobState)> + '_ {
        let mut pending = self.pending.iter().peekable();
        let mut settled = self.settled.iter().peekable();
        std::iter::from_fn(move || match (pending.peek(), settled.peek()) {
            (Some((&p, _)), Some((&s, _))) if p < s => {
                pending.next();
                Some((p, JobState::Pending))
            }
            (Some(_), Some((&s, r))) => {
                let kind = r.kind;
                settled.next();
                Some((s, kind))
            }
            (Some((&p, _)), None) => {
                pending.next();
                Some((p, JobState::Pending))
            }
            (None, Some((&s, r))) => {
                let kind = r.kind;
                settled.next();
                Some((s, kind))
            }
            (None, None) => None,
        })
    }

    /// An unsettled job's spec and start count, for claiming.
    pub fn pending_job(&self, id: JobId) -> Option<(&JobSpec, u32)> {
        self.pending.get(&id).map(|j| (&j.spec, j.starts))
    }

    /// Ids of jobs with no settled outcome, id order — exactly the work
    /// a restarted server must (re-)run.
    pub fn pending(&self) -> Vec<JobId> {
        self.pending.keys().copied().collect()
    }

    /// `(unsettled, done, failed)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.pending.len(), self.done, self.failed)
    }

    /// Unsettled jobs enqueued by `client` (empty = anonymous), the
    /// quantity per-client quotas bound.
    pub fn unsettled_for(&self, client: &str) -> usize {
        self.clients.get(client).copied().unwrap_or(0)
    }

    fn append(&mut self, record: &str) -> Result<(), JournalError> {
        let mut file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| self.io_err(e))?;
        file.write_all(record.as_bytes())
            .map_err(|e| self.io_err(e))?;
        file.flush().map_err(|e| self.io_err(e))?;
        self.tail_len += record.len() as u64;
        Ok(())
    }

    /// Append an `enqueue` record and return the new job's id.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_enqueue(&mut self, spec: &JobSpec) -> Result<JobId, JournalError> {
        self.append_enqueue_for("", spec)
    }

    /// Append an `enqueue` record attributed to `client` (empty =
    /// anonymous) and return the new job's id.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails, [`JournalError::Corrupt`]
    /// if the client name cannot ride the one-line codec or the job ids
    /// are exhausted.
    pub fn append_enqueue_for(
        &mut self,
        client: &str,
        spec: &JobSpec,
    ) -> Result<JobId, JournalError> {
        if !client.is_empty() && !valid_client_name(client) {
            return Err(self.corrupt(format!("bad client name `{client}`")));
        }
        let id = self.next_id;
        let next_id = self.id_after(id)?;
        let record = if client.is_empty() {
            format!("enqueue {id} {}\n", spec.render())
        } else {
            format!("enqueue {id} client={client} {}\n", spec.render())
        };
        let enqueue_at = self.tail_len;
        self.append(&record)?;
        self.next_id = next_id;
        *self.clients.entry(client.to_string()).or_insert(0) += 1;
        self.pending.insert(
            id,
            PendingJob {
                spec: spec.clone(),
                client: client.to_string(),
                starts: 0,
                enqueue_at,
                enqueue_len: record.len() as u32,
            },
        );
        Ok(id)
    }

    /// Append a `start` record for an attempt on a pending job.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_start(&mut self, id: JobId, attempt: u32) -> Result<(), JournalError> {
        self.append(&format!("start {id} attempt {attempt}\n"))?;
        if let Some(job) = self.pending.get_mut(&id) {
            job.starts = job.starts.max(attempt);
        }
        Ok(())
    }

    /// Append a `complete` record with the full measurement.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_complete(
        &mut self,
        id: JobId,
        result: &MeasuredWorkload,
    ) -> Result<(), JournalError> {
        let mut section = format!(
            "complete {id} instructions {} cycles {}\n",
            result.instructions, result.cycles
        );
        section.push_str(&codec::to_text_with_counters(
            &result.histogram,
            &result.counters.to_pairs(),
        ));
        section.push_str("end\n");
        let at = self.tail_len;
        self.append(&section)?;
        self.settle_append(id, at, section.len() as u64, JobState::Done);
        Ok(())
    }

    /// Append a `fail` record quarantining the job.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_fail(
        &mut self,
        id: JobId,
        attempts: u32,
        message: &str,
    ) -> Result<(), JournalError> {
        let record = format!(
            "fail {id} attempts {attempts} message {}\n",
            escape_message(message)
        );
        let at = self.tail_len;
        self.append(&record)?;
        self.settle_append(id, at, record.len() as u64, JobState::Failed);
        Ok(())
    }

    fn settle_append(&mut self, id: JobId, at: u64, len: u64, kind: JobState) {
        let Some(job) = self.pending.remove(&id) else {
            return;
        };
        self.client_settled(&job.client);
        match kind {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Pending => unreachable!(),
        }
        self.settled_in_tail += 1;
        self.settled.insert(
            id,
            SettledRef {
                seg: Segment::Tail,
                spec_at: job.enqueue_at,
                spec_len: job.enqueue_len,
                at,
                len,
                kind,
            },
        );
    }

    /// Migrate every settled job into a fresh snapshot segment and
    /// rewrite the tail with only the unsettled records, bumping the
    /// generation. Crash-safe: both replacement files are fully
    /// written and synced before the snapshot, then the tail, are
    /// renamed into place — a kill at any byte offset replays to the
    /// identical queue state.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure or an unreadable settled record.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let new_generation = self.generation.checked_add(1).ok_or_else(|| {
            self.corrupt(format!("generation {} cannot advance", self.generation))
        })?;
        let snap_tmp = {
            let mut os = self.snap_path.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let tail_tmp = {
            let mut os = self.path.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let records_tmp = {
            let mut os = self.snap_path.as_os_str().to_os_string();
            os.push(".records.tmp");
            PathBuf::from(os)
        };
        let snap_io = |e| JournalError::Io {
            path: self.snap_path.clone(),
            source: e,
        };

        // 1. Stream every settled record into the records scratch
        // file, collecting the offset index. Records already in the
        // snapshot copy verbatim; tail records are re-keyed to the
        // snapshot's `job` form.
        let mut entries: Vec<(JobId, u64, u64, JobState)> = Vec::with_capacity(self.settled.len());
        let mut records = BufWriter::new(File::create(&records_tmp).map_err(snap_io)?);
        let mut snap_read: Option<File> = None;
        let mut tail_read: Option<File> = None;
        let mut rel = 0u64;
        for (&id, r) in &self.settled {
            let bytes = match r.seg {
                Segment::Snapshot => {
                    let file = match &mut snap_read {
                        Some(f) => f,
                        None => {
                            snap_read = Some(File::open(&self.snap_path).map_err(snap_io)?);
                            snap_read.as_mut().unwrap()
                        }
                    };
                    read_span(file, r.at, r.len).map_err(snap_io)?
                }
                Segment::Tail => {
                    let file = match &mut tail_read {
                        Some(f) => f,
                        None => {
                            tail_read = Some(File::open(&self.path).map_err(|e| self.io_err(e))?);
                            tail_read.as_mut().unwrap()
                        }
                    };
                    let enqueue = read_span(file, r.spec_at, u64::from(r.spec_len))
                        .map_err(|e| self.io_err(e))?;
                    let spec_line = self.spec_from_enqueue(&enqueue, id)?;
                    let settle = read_span(file, r.at, r.len).map_err(|e| self.io_err(e))?;
                    let mut record = format!("job {id} {spec_line}\n").into_bytes();
                    record.extend_from_slice(&settle);
                    record
                }
            };
            let len = bytes.len() as u64;
            records.write_all(&bytes).map_err(snap_io)?;
            entries.push((id, rel, len, r.kind));
            rel += len;
        }
        records.flush().map_err(snap_io)?;
        drop(records);

        // 2. Assemble the snapshot: header, index, then the records
        // streamed in after it. Synced before rename.
        let mut base = 0u64;
        {
            let mut snap = BufWriter::new(File::create(&snap_tmp).map_err(snap_io)?);
            let header = format!(
                "{SNAP_HEADER} generation {new_generation} jobs {}\nindex\n",
                entries.len()
            );
            snap.write_all(header.as_bytes()).map_err(snap_io)?;
            base += header.len() as u64;
            for &(id, rel, len, kind) in &entries {
                let line = format!("entry {id} {rel} {len} {}\n", kind.name());
                snap.write_all(line.as_bytes()).map_err(snap_io)?;
                base += line.len() as u64;
            }
            snap.write_all(b"end\n").map_err(snap_io)?;
            base += 4;
            let mut records = File::open(&records_tmp).map_err(snap_io)?;
            std::io::copy(&mut records, &mut snap).map_err(snap_io)?;
            let snap = snap.into_inner().map_err(|e| snap_io(e.into_error()))?;
            snap.sync_all().map_err(snap_io)?;
        }

        // 3. The replacement tail: header with the preserved next-id,
        // then the unsettled records (enqueue + highest start seen).
        let mut pending_offsets: BTreeMap<JobId, (u64, u32)> = BTreeMap::new();
        let mut new_tail_len;
        {
            let mut tail = BufWriter::new(File::create(&tail_tmp).map_err(|e| self.io_err(e))?);
            let header = format!(
                "{HEADER_V2} generation {new_generation} next {}\n",
                self.next_id
            );
            tail.write_all(header.as_bytes())
                .map_err(|e| self.io_err(e))?;
            new_tail_len = header.len() as u64;
            for (&id, job) in &self.pending {
                let record = if job.client.is_empty() {
                    format!("enqueue {id} {}\n", job.spec.render())
                } else {
                    format!("enqueue {id} client={} {}\n", job.client, job.spec.render())
                };
                tail.write_all(record.as_bytes())
                    .map_err(|e| self.io_err(e))?;
                pending_offsets.insert(id, (new_tail_len, record.len() as u32));
                new_tail_len += record.len() as u64;
                if job.starts > 0 {
                    let start = format!("start {id} attempt {}\n", job.starts);
                    tail.write_all(start.as_bytes())
                        .map_err(|e| self.io_err(e))?;
                    new_tail_len += start.len() as u64;
                }
            }
            let tail = tail.into_inner().map_err(|e| self.io_err(e.into_error()))?;
            tail.sync_all().map_err(|e| self.io_err(e))?;
        }

        // 4. Publish: snapshot first, then tail. A kill between the
        // renames leaves the new snapshot with the old tail, which
        // replay reconciles by generation.
        std::fs::rename(&snap_tmp, &self.snap_path).map_err(snap_io)?;
        std::fs::rename(&tail_tmp, &self.path).map_err(|e| self.io_err(e))?;
        let _ = std::fs::remove_file(&records_tmp);

        // 5. Swing the in-memory offset table to the new files.
        self.generation = new_generation;
        self.tail_len = new_tail_len;
        self.settled_in_tail = 0;
        for (id, rel, len, _) in entries {
            if let Some(r) = self.settled.get_mut(&id) {
                r.seg = Segment::Snapshot;
                r.at = base + rel;
                r.spec_at = base + rel;
                r.spec_len = 0;
                r.len = len;
            }
        }
        for (id, (at, len)) in pending_offsets {
            if let Some(job) = self.pending.get_mut(&id) {
                job.enqueue_at = at;
                job.enqueue_len = len;
            }
        }
        Ok(())
    }

    /// Extract the canonical spec line from a raw `enqueue` record.
    fn spec_from_enqueue(&self, bytes: &[u8], id: JobId) -> Result<String, JournalError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| self.corrupt(format!("enqueue record for job {id} is not UTF-8")))?;
        let line = text.trim_end_matches('\n');
        let rest = line
            .strip_prefix(&format!("enqueue {id} "))
            .ok_or_else(|| self.corrupt(format!("bad enqueue record for job {id}: `{line}`")))?;
        let spec = match rest.split_once(' ') {
            Some((first, tail)) if first.starts_with("client=") => tail,
            _ => rest,
        };
        Ok(spec.to_string())
    }

    /// Every job in id order as `(id, state, canonical spec line)` —
    /// what `status` lists. A settled job's spec is read back alone,
    /// without its settle record, and the whole pass shares one set of
    /// segment handles.
    ///
    /// # Errors
    ///
    /// Each item is [`JournalError`] if that job's record cannot be
    /// read back.
    pub fn job_specs(
        &self,
    ) -> impl Iterator<Item = Result<(JobId, JobState, String), JournalError>> + '_ {
        let mut files = SegmentFiles::default();
        self.states().map(move |(id, state)| {
            let spec = match (self.pending.get(&id), self.settled.get(&id)) {
                (Some(job), _) => job.spec.render(),
                (None, Some(r)) => self.read_settled_spec(&mut files, id, *r)?,
                (None, None) => unreachable!("states() lists only known jobs"),
            };
            Ok((id, state, spec))
        })
    }

    /// Read a settled job's spec line back from disk: the head line of
    /// its snapshot record, or its `enqueue` record in the tail.
    fn read_settled_spec(
        &self,
        files: &mut SegmentFiles,
        id: JobId,
        r: SettledRef,
    ) -> Result<String, JournalError> {
        match r.seg {
            Segment::Snapshot => {
                let file = files.snapshot(&self.snap_path)?;
                let head = read_head(file, r.at, r.len).map_err(|e| JournalError::Io {
                    path: self.snap_path.clone(),
                    source: e,
                })?;
                let head = String::from_utf8(head)
                    .map_err(|_| self.snap_corrupt(format!("record for job {id} is not UTF-8")))?;
                let head = head
                    .strip_suffix('\n')
                    .ok_or_else(|| self.snap_corrupt(format!("truncated record for job {id}")))?;
                self.snapshot_spec(id, head)
            }
            Segment::Tail => {
                let file = files.tail(&self.path)?;
                let enqueue = read_span(file, r.spec_at, u64::from(r.spec_len))
                    .map_err(|e| self.io_err(e))?;
                self.spec_from_enqueue(&enqueue, id)
            }
        }
    }

    /// The spec carried by a snapshot record's `job <id> <spec>` head.
    fn snapshot_spec(&self, id: JobId, head: &str) -> Result<String, JournalError> {
        head.strip_prefix(&format!("job {id} "))
            .map(str::to_string)
            .ok_or_else(|| self.snap_corrupt(format!("bad record head for job {id}: `{head}`")))
    }

    /// Read a settled record back from disk: `(spec line, raw settle
    /// record)`.
    fn read_settled(&self, id: JobId, r: SettledRef) -> Result<(String, String), JournalError> {
        let mut files = SegmentFiles::default();
        self.read_settled_with(&mut files, id, r)
    }

    fn read_settled_with(
        &self,
        files: &mut SegmentFiles,
        id: JobId,
        r: SettledRef,
    ) -> Result<(String, String), JournalError> {
        match r.seg {
            Segment::Snapshot => {
                let file = files.snapshot(&self.snap_path)?;
                let bytes = read_span(file, r.at, r.len).map_err(|e| JournalError::Io {
                    path: self.snap_path.clone(),
                    source: e,
                })?;
                let mut text = String::from_utf8(bytes)
                    .map_err(|_| self.snap_corrupt(format!("record for job {id} is not UTF-8")))?;
                let newline = text
                    .find('\n')
                    .ok_or_else(|| self.snap_corrupt(format!("truncated record for job {id}")))?;
                let spec = self.snapshot_spec(id, &text[..newline])?;
                // What remains is the settle record, in place.
                text.replace_range(..=newline, "");
                Ok((spec, text))
            }
            Segment::Tail => {
                let spec = self.read_settled_spec(files, id, r)?;
                let file = files.tail(&self.path)?;
                let bytes = read_span(file, r.at, r.len).map_err(|e| self.io_err(e))?;
                let text = String::from_utf8(bytes).map_err(|_| {
                    self.corrupt(format!("settle record for job {id} is not UTF-8"))
                })?;
                Ok((spec, text))
            }
        }
    }

    /// Split a raw `complete` section into `(instructions, cycles, codec
    /// body)`; `None` if `text` is not a `complete` record.
    fn complete_parts<'t>(
        &self,
        id: JobId,
        text: &'t str,
    ) -> Result<Option<(u64, u64, &'t str)>, JournalError> {
        let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
        let Some(complete) = head.strip_prefix(&format!("complete {id} ")) else {
            return Ok(None);
        };
        let lens: Option<(u64, u64)> = match complete
            .split_ascii_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["instructions", i, "cycles", c] => i.parse().ok().zip(c.parse().ok()),
            _ => None,
        };
        let Some((instructions, cycles)) = lens else {
            return Err(self.corrupt(format!("bad complete record for job {id}: `{head}`")));
        };
        let body = rest
            .strip_suffix("end\n")
            .ok_or_else(|| self.corrupt(format!("complete {id} has no `end` line")))?;
        Ok(Some((instructions, cycles, body)))
    }

    /// Parse a raw settle record (`complete` section or `fail` line)
    /// into the streamed outcome. The digest is computed over the raw
    /// body bytes — exactly the bytes `append_complete` wrote, so it
    /// is bit-identical to the digest of the original measurement.
    fn parse_settle(&self, id: JobId, text: &str) -> Result<StreamedOutcome, JournalError> {
        if let Some((instructions, cycles, body)) = self.complete_parts(id, text)? {
            let machine_checks = body
                .lines()
                .find_map(|l| l.trim().strip_prefix("counter machine_checks "))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            return Ok(StreamedOutcome::Done {
                instructions,
                cycles,
                machine_checks,
                digest: fnv64(body),
            });
        }
        let head = text.split_once('\n').map_or(text, |(h, _)| h);
        if let Some(fail) = head.strip_prefix(&format!("fail {id} attempts ")) {
            let parsed = fail
                .split_once(" message ")
                .and_then(|(k, msg)| k.parse::<u32>().ok().map(|k| (k, unescape_message(msg))));
            let Some((attempts, message)) = parsed else {
                return Err(self.corrupt(format!("bad fail record for job {id}: `{head}`")));
            };
            Ok(StreamedOutcome::Failed { attempts, message })
        } else {
            Err(self.corrupt(format!("unrecognized settle record for job {id}: `{head}`")))
        }
    }

    /// A completed job's measurement — histogram, hardware counters and
    /// lengths — parsed back from its `complete` record; `None` if the
    /// job is unknown, unsettled, or failed. A campaign
    /// ([`crate::run_campaign`]) reads its results back here for the
    /// composite merge.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the record cannot be read back or parsed.
    pub fn measurement(&self, id: JobId) -> Result<Option<MeasuredWorkload>, JournalError> {
        let Some(r) = self.settled.get(&id).filter(|r| r.kind == JobState::Done) else {
            return Ok(None);
        };
        let (spec_line, settle) = self.read_settled(id, *r)?;
        let spec = JobSpec::parse(&spec_line)
            .map_err(|e| self.corrupt(format!("spec for job {id}: {e}")))?;
        let Some((instructions, cycles, body)) = self.complete_parts(id, &settle)? else {
            return Err(self.corrupt(format!("job {id} is done but has no complete record")));
        };
        let (histogram, pairs) = codec::from_text_with_counters(body)
            .map_err(|e| self.corrupt(format!("complete {id}: {e}")))?;
        Ok(Some(MeasuredWorkload {
            name: spec.workload.name(),
            histogram,
            counters: vax_mem::HwCounters::from_pairs(pairs.iter().map(|(n, v)| (n.as_str(), *v))),
            instructions,
            cycles,
        }))
    }

    /// One settled job's deterministic JSON result line, re-derived
    /// from the on-disk record (`None` if the job is unsettled or
    /// unknown). The line depends only on the spec and the simulation
    /// outputs, so a killed-and-resumed parallel queue renders
    /// bit-identical lines to an uninterrupted serial run. The
    /// `digest` is FNV-1a 64 over the full histogram+counters codec
    /// text.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the record cannot be read back.
    pub fn result_line(&self, id: JobId) -> Result<Option<String>, JournalError> {
        let Some(r) = self.settled.get(&id) else {
            return Ok(None);
        };
        let (spec_line, settle) = self.read_settled(id, *r)?;
        let outcome = self.parse_settle(id, &settle)?;
        Ok(Some(self.render_result(id, &spec_line, outcome)?))
    }

    fn render_result(
        &self,
        id: JobId,
        spec_line: &str,
        outcome: StreamedOutcome,
    ) -> Result<String, JournalError> {
        let spec = JobSpec::parse(spec_line)
            .map_err(|e| self.corrupt(format!("spec for job {id}: {e}")))?;
        Ok(match outcome {
            StreamedOutcome::Done {
                instructions,
                cycles,
                machine_checks,
                digest,
            } => render_done(
                id,
                &spec.render(),
                spec.workload.name(),
                instructions,
                cycles,
                machine_checks,
                digest,
            ),
            StreamedOutcome::Failed { attempts, message } => {
                render_failed(id, &spec.render(), attempts, &message)
            }
        })
    }

    /// Stream every settled job's result line into `out`, id order,
    /// one seek-and-read per record — memory stays bounded by one
    /// record regardless of how many jobs have settled. Returns the
    /// number of lines written.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on a read failure, or an `Io` wrapping the
    /// write error if `out` fails.
    pub fn stream_results(&self, out: &mut dyn Write) -> Result<usize, JournalError> {
        let mut files = SegmentFiles::default();
        let mut lines = 0usize;
        for (&id, r) in &self.settled {
            let (spec_line, settle) = self.read_settled_with(&mut files, id, *r)?;
            let outcome = self.parse_settle(id, &settle)?;
            let line = self.render_result(id, &spec_line, outcome)?;
            writeln!(out, "{line}").map_err(|e| self.io_err(e))?;
            lines += 1;
        }
        Ok(lines)
    }
}

/// Lazily opened read handles, one per segment, shared across a
/// streaming pass.
#[derive(Default)]
struct SegmentFiles {
    snapshot: Option<File>,
    tail: Option<File>,
}

impl SegmentFiles {
    fn snapshot(&mut self, path: &Path) -> Result<&mut File, JournalError> {
        if self.snapshot.is_none() {
            self.snapshot = Some(File::open(path).map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?);
        }
        Ok(self.snapshot.as_mut().unwrap())
    }

    fn tail(&mut self, path: &Path) -> Result<&mut File, JournalError> {
        if self.tail.is_none() {
            self.tail = Some(File::open(path).map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?);
        }
        Ok(self.tail.as_mut().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upc_monitor::Histogram;
    use vax_mem::HwCounters;
    use vax_ucode::MicroAddr;
    use vax_workloads::WorkloadKind;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(kind: WorkloadKind) -> MeasuredWorkload {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(0x22));
        h.bump_stall(MicroAddr::new(0x22), 2);
        let mut c = HwCounters::new();
        c.sbi_reads = 3;
        MeasuredWorkload {
            name: kind.name(),
            histogram: h,
            counters: c,
            instructions: 500,
            cycles: 2100,
        }
    }

    fn all_results(j: &Journal) -> String {
        let mut out = Vec::new();
        j.stream_results(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn journal_round_trips_the_queue() {
        let dir = tempdir("vax-journal-roundtrip");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec_a = JobSpec::new(WorkloadKind::TimesharingLight);
        let mut spec_b = JobSpec::new(WorkloadKind::SciEng);
        spec_b.seed = Some(9);
        let a = j.append_enqueue(&spec_a).unwrap();
        let b = j.append_enqueue_for("alice", &spec_b).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(j.unsettled_for("alice"), 1);
        j.append_start(a, 1).unwrap();
        j.append_complete(a, &sample(WorkloadKind::TimesharingLight))
            .unwrap();
        j.append_start(b, 1).unwrap();
        j.append_fail(b, 4, "worker panicked:\nboom").unwrap();
        assert_eq!(j.unsettled_for("alice"), 0);
        let live = all_results(&j);

        let back = Journal::open(&path).unwrap();
        assert!(back.warnings().is_empty());
        assert_eq!(back.pending(), Vec::<JobId>::new());
        assert_eq!(back.counts(), (0, 1, 1));
        assert_eq!(back.state(a), Some(JobState::Done));
        assert_eq!(back.state(b), Some(JobState::Failed));
        // Result lines replay bit-identical from the offset index.
        assert_eq!(all_results(&back), live);
        let ra = back.result_line(a).unwrap().unwrap();
        assert!(ra.contains("\"job\":1"), "{ra}");
        assert!(ra.contains("\"cycles\":2100"), "{ra}");
        let rb = back.result_line(b).unwrap().unwrap();
        assert!(rb.contains("\"attempts\":4"), "{rb}");
        assert!(rb.contains("worker panicked:\\nboom"), "{rb}");
        // Ids keep growing; settled specs read back from disk.
        let specs: Vec<_> = back.job_specs().map(Result::unwrap).collect();
        assert_eq!(specs[1], (b, JobState::Failed, spec_b.render()));
        let mut back = back;
        assert_eq!(back.append_enqueue(&spec_a).unwrap(), 3);
        assert_eq!(back.pending(), vec![3]);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_byte_offset() {
        let dir = tempdir("vax-journal-torn");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Commercial);
        j.append_enqueue(&spec).unwrap();
        j.append_start(1, 1).unwrap();
        let good_text = std::fs::read_to_string(&path).unwrap();
        let good_len = good_text.len();
        j.append_complete(1, &sample(WorkloadKind::Commercial))
            .unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();

        for cut in good_len..full_text.len() {
            std::fs::write(&path, &full_text[..cut]).unwrap();
            let j = Journal::open(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(j.pending(), vec![1], "cut at {cut}");
            if cut == good_len {
                assert!(j.warnings().is_empty(), "clean cut at {cut}");
            } else {
                assert_eq!(j.warnings().len(), 1, "cut at {cut}");
                assert_eq!(std::fs::read_to_string(&path).unwrap(), good_text);
            }
        }
        // Untouched file: settled, no warnings.
        std::fs::write(&path, &full_text).unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.warnings().is_empty());
        assert_eq!(j.counts(), (0, 1, 0));
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tempdir("vax-journal-corrupt");
        let path = dir.join("queue.journal");
        for bad in [
            "nope\n",
            "vax-queue-journal v2 generation 0 next 1\nstart 7 attempt 1\n",
            "vax-queue-journal v2 generation 0 next 1\n\
             complete 7 instructions 1 cycles 2\nupc-histogram v1\nend\n",
            "vax-queue-journal v2 generation 0 next 1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
            "vax-queue-journal v2 generation 0 next 1\ngarbage\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
            // A generation with no snapshot segment to back it.
            "vax-queue-journal v2 generation 3 next 1\n",
        ] {
            std::fs::write(&path, bad).unwrap();
            let _ = std::fs::remove_file(snap_path_for(&path));
            let err = Journal::open(&path).unwrap_err();
            assert!(
                matches!(err, JournalError::Corrupt { .. }),
                "{bad:?}: {err}"
            );
        }
        // A terminated complete section with a bad codec body is real
        // corruption even at the tail.
        std::fs::write(
            &path,
            "vax-queue-journal v2 generation 0 next 1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n\
             complete 1 instructions 1 cycles 2\nnot a histogram\nend\n",
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        // A damaged snapshot is always a hard error: snapshots are
        // written atomically, so torn-tail forgiveness never applies.
        std::fs::write(&path, "vax-queue-journal v2 generation 1 next 1\n").unwrap();
        std::fs::write(
            snap_path_for(&path),
            "vax-queue-snapshot v2 generation 1 jobs 1\n",
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn result_lines_are_deterministic() {
        let dir = tempdir("vax-journal-deterministic");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let id = j
            .append_enqueue(&JobSpec::new(WorkloadKind::Educational))
            .unwrap();
        j.append_start(id, 1).unwrap();
        j.append_complete(id, &sample(WorkloadKind::Educational))
            .unwrap();
        let a = j.result_line(id).unwrap().unwrap();
        let b = j.result_line(id).unwrap().unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"cpi\":4.200000"), "{a}");
        assert!(a.contains("\"digest\":\""), "{a}");
    }

    #[test]
    fn compaction_migrates_settled_jobs_and_preserves_results() {
        let dir = tempdir("vax-journal-compact");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        for seed in 1..=5 {
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed % 2 == 0 { "even" } else { "" }, &spec)
                .unwrap();
        }
        // Settle 1..=3; 4 pending with a start; 5 untouched.
        for id in 1..=3u64 {
            j.append_start(id, 1).unwrap();
        }
        j.append_complete(1, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_fail(2, 2, "boom").unwrap();
        j.append_complete(3, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_start(4, 1).unwrap();
        let before = all_results(&j);
        let tail_before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(j.settled_in_tail(), 3);

        j.compact().unwrap();
        assert_eq!(j.generation(), 1);
        assert_eq!(j.settled_in_tail(), 0);
        // The tail shed the settled history.
        let tail_after = std::fs::metadata(&path).unwrap().len();
        assert!(tail_after < tail_before, "{tail_after} !< {tail_before}");
        // Results identical through the live journal and a reopen.
        assert_eq!(all_results(&j), before);
        let back = Journal::open(&path).unwrap();
        assert_eq!(all_results(&back), before);
        assert_eq!(back.counts(), (2, 2, 1));
        assert_eq!(back.unsettled_for("even"), 1);
        let (_, starts) = back.pending_job(4).unwrap();
        assert_eq!(starts, 1, "start count must survive compaction");
        // A second compaction (snapshot -> snapshot copy) still holds.
        let mut back = back;
        back.append_start(4, 2).unwrap();
        back.append_complete(4, &sample(WorkloadKind::SciEng))
            .unwrap();
        back.compact().unwrap();
        assert_eq!(back.generation(), 2);
        let reread = Journal::open(&path).unwrap();
        assert_eq!(reread.counts(), (1, 3, 1));
        assert!(all_results(&reread).starts_with(&before[..before.len() - 1]));
    }

    /// `job_specs` reads each settled spec alone through one set of
    /// handles; it must list exactly the specs the whole-record path
    /// reads back, for jobs in the snapshot, in the tail, and pending.
    #[test]
    fn job_specs_match_the_whole_record_path_across_segments() {
        let dir = tempdir("vax-journal-job-specs");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut specs = Vec::new();
        for seed in 1..=9u64 {
            let mut spec = JobSpec::new(WorkloadKind::ALL[seed as usize % 5]);
            spec.seed = Some(seed);
            spec.cache_kb = Some(4 << (seed % 3));
            let client = if seed.is_multiple_of(2) { "even" } else { "" };
            assert_eq!(j.append_enqueue_for(client, &spec).unwrap(), seed);
            specs.push(spec);
        }
        let settle = |j: &mut Journal, id: JobId| {
            j.append_start(id, 1).unwrap();
            if id.is_multiple_of(3) {
                j.append_fail(id, 1, "boom").unwrap();
            } else {
                j.append_complete(id, &sample(WorkloadKind::SciEng))
                    .unwrap();
            }
        };
        // Jobs 1-4 settle into the snapshot, 5-7 settle in the tail,
        // and 8-9 stay pending.
        for id in 1..=4 {
            settle(&mut j, id);
        }
        j.compact().unwrap();
        for id in 5..=7 {
            settle(&mut j, id);
        }
        for journal in [j, Journal::open(&path).unwrap()] {
            let listed: Vec<_> = journal.job_specs().map(Result::unwrap).collect();
            assert_eq!(listed.len(), 9);
            for (id, state, spec) in listed {
                assert_eq!(Some(state), journal.state(id));
                assert_eq!(spec, specs[id as usize - 1].render(), "job {id}");
                if let Some(r) = journal.settled.get(&id) {
                    let segment = if id <= 4 {
                        Segment::Snapshot
                    } else {
                        Segment::Tail
                    };
                    assert_eq!(r.seg, segment, "job {id}");
                    assert_eq!(spec, journal.read_settled(id, *r).unwrap().0, "job {id}");
                }
            }
        }
    }

    #[test]
    fn id_watermark_survives_a_fully_settled_compaction() {
        let dir = tempdir("vax-journal-watermark");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Commercial);
        for _ in 0..3 {
            let id = j.append_enqueue(&spec).unwrap();
            j.append_start(id, 1).unwrap();
            j.append_fail(id, 1, "x").unwrap();
        }
        j.compact().unwrap();
        // Compact again: now the snapshot holds everything and the
        // tail is empty of records. The `next` watermark in the tail
        // header must stop id reuse.
        j.compact().unwrap();
        let mut back = Journal::open(&path).unwrap();
        assert_eq!(back.append_enqueue(&spec).unwrap(), 4);
    }

    /// Retired formats are refused, never upgraded or guessed at: the
    /// error names the header the file actually carries, so an old
    /// `vax-queue-journal v1` or a `vax-campaign-checkpoint v1` left by
    /// an earlier `run --checkpoint` says what it is.
    #[test]
    fn retired_headers_are_refused_naming_the_header() {
        let dir = tempdir("vax-journal-retired");
        let path = dir.join("queue.journal");
        for (text, header) in [
            (
                "vax-queue-journal v1\n\
                 enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
                "vax-queue-journal v1",
            ),
            (
                "vax-campaign-checkpoint v1\nconfig instructions 2000 warmup 800\n",
                "vax-campaign-checkpoint v1",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
            let message = err.to_string();
            assert!(message.contains(HEADER_V2), "{message}");
            assert!(message.contains(&format!("got `{header}`")), "{message}");
            // Refusing leaves the file as it was.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
    }

    /// Counts, offsets and ids near `u64::MAX` must be refused as
    /// corruption: trusted, they overflow the offset arithmetic or the
    /// next-id watermark, or ask the allocator for the whole address
    /// space.
    #[test]
    fn hostile_counts_offsets_and_ids_are_corrupt_not_a_panic() {
        let dir = tempdir("vax-journal-hostile");
        let path = dir.join("queue.journal");
        let tail_g1 = "vax-queue-journal v2 generation 1 next 2\n";
        let record =
            "job 1 workload=sci-eng instructions=10 warmup=1\nfail 1 attempts 1 message x\n";
        for (snapshot, tail) in [
            (
                Some(format!(
                    "vax-queue-snapshot v2 generation 1 jobs 1\nindex\n\
                     entry 1 18446744073709551615 5 done\nend\n{record}"
                )),
                tail_g1,
            ),
            (
                Some(format!(
                    "vax-queue-snapshot v2 generation 1 jobs 1\nindex\n\
                     entry 1 0 18446744073709551615 done\nend\n{record}"
                )),
                tail_g1,
            ),
            (
                Some(format!(
                    "vax-queue-snapshot v2 generation 1 jobs 18446744073709551615\nindex\n\
                     entry 1 0 {} failed\nend\n{record}",
                    record.len()
                )),
                tail_g1,
            ),
            (
                None,
                "vax-queue-journal v2 generation 0 next 1\n\
                 enqueue 18446744073709551615 workload=sci-eng instructions=10 warmup=1\n",
            ),
        ] {
            match &snapshot {
                Some(text) => std::fs::write(snap_path_for(&path), text).unwrap(),
                None => {
                    let _ = std::fs::remove_file(snap_path_for(&path));
                }
            }
            std::fs::write(&path, tail).unwrap();
            let opened = std::panic::catch_unwind(|| Journal::open(&path));
            let Ok(result) = opened else {
                panic!("open panicked on {snapshot:?} + {tail:?}");
            };
            let err = result.err().unwrap_or_else(|| {
                panic!("open accepted {snapshot:?} + {tail:?}");
            });
            assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        }
    }

    /// Deterministic hostile-bytes sweep: substitute every byte of a
    /// two-segment journal (snapshot + tail, settled and pending jobs,
    /// a client name, a complete and a fail record in each) with a few
    /// values. `open` and `stream_results` may refuse the result but
    /// must never panic.
    #[test]
    fn byte_substitution_never_panics_open_or_stream() {
        let dir = tempdir("vax-journal-byte-sweep");
        let path = dir.join("queue.journal");
        let snap_path = snap_path_for(&path);
        let mut j = Journal::open(&path).unwrap();
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        for seed in 1..=4 {
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed == 2 { "alice" } else { "" }, &spec)
                .unwrap();
        }
        j.append_start(1, 1).unwrap();
        j.append_complete(1, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_start(2, 1).unwrap();
        j.append_fail(2, 1, "boom\nline two").unwrap();
        j.compact().unwrap();
        j.append_start(3, 1).unwrap();
        j.append_complete(3, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_start(4, 1).unwrap();
        j.append_fail(4, 2, "late").unwrap();
        drop(j);
        let snap = std::fs::read(&snap_path).unwrap();
        let tail = std::fs::read(&path).unwrap();

        let mut panicked = Vec::new();
        for (segment, original) in [("snapshot", &snap), ("tail", &tail)] {
            for at in 0..original.len() {
                for value in [b'0', b'9', b' ', b'\n', 0xff] {
                    if original[at] == value {
                        continue;
                    }
                    let mut mutated = original.clone();
                    mutated[at] = value;
                    let (snap_bytes, tail_bytes) = if segment == "snapshot" {
                        (&mutated, &tail)
                    } else {
                        (&snap, &mutated)
                    };
                    std::fs::write(&snap_path, snap_bytes).unwrap();
                    std::fs::write(&path, tail_bytes).unwrap();
                    let outcome = std::panic::catch_unwind(|| {
                        if let Ok(j) = Journal::open(&path) {
                            let _ = j.stream_results(&mut std::io::sink());
                        }
                    });
                    if outcome.is_err() {
                        panicked.push(format!("{segment} byte {at} -> {value:#04x}"));
                    }
                }
            }
        }
        assert!(panicked.is_empty(), "panicked on: {panicked:?}");
    }

    #[test]
    fn stale_tail_after_mid_compaction_crash_is_reconciled() {
        let dir = tempdir("vax-journal-stale-tail");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Educational);
        j.append_enqueue(&spec).unwrap();
        j.append_enqueue(&spec).unwrap();
        j.append_start(1, 1).unwrap();
        j.append_complete(1, &sample(WorkloadKind::Educational))
            .unwrap();
        let old_tail = std::fs::read(&path).unwrap();
        let before = all_results(&j);
        j.compact().unwrap();
        drop(j);
        // Simulate dying between the two renames: new snapshot on
        // disk, pre-compaction tail restored.
        std::fs::write(&path, &old_tail).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.counts(), (1, 1, 0));
        assert_eq!(all_results(&j), before);
        // The settled job's tail records were skipped as stale, not
        // double-applied; the pending job survived.
        assert_eq!(j.pending(), vec![2]);
    }
}
