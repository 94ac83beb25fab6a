//! The persistent job-queue journal, `vax-queue-journal v3`.
//!
//! One file holds the whole queue. A header and an index describe the
//! jobs the last compaction settled; their records follow back to back,
//! and after them come the live records, one flushed append per
//! lifecycle transition:
//!
//! ```text
//! vax-queue-journal v3 next <N> settled <S>
//! entry <id> <enqueue-len> <settle-len> done|failed
//! ...                                   (S index lines, ids increasing)
//! enqueue <id> [client=<name>] <spec line>
//! complete <id> instructions <N> cycles <C>
//! <upc-monitor codec body>
//! end
//! ...                                   (the S compacted jobs, id order:
//!                                        each its `enqueue` record, then
//!                                        its `complete` section or `fail`
//!                                        line, copied verbatim)
//! enqueue <id> [client=<name>] <spec line>
//! start <id> attempt <k>
//! complete <id> instructions <N> cycles <C>
//! <upc-monitor codec body>
//! end
//! fail <id> attempts <k> message <escaped text>
//! ...                                   (live records, appended)
//! ```
//!
//! The index carries lengths, not offsets: the compacted records are
//! contiguous, so a job's offset is the running sum of the lengths
//! before it.
//!
//! **Durability.** Each append is written and `flush()`ed before the
//! caller's in-memory state advances, so every transition the server
//! acted on survives the death of the process (`kill -9`, a panic, an
//! OOM kill). Appends are not `fsync`ed: an OS crash or power loss can
//! lose the most recent transitions, and replay then re-runs those
//! jobs. Compaction is the one synced path: [`Journal::compact`] writes
//! the whole new journal to `<path>.tmp`, syncs it, and renames it over
//! the journal. A kill at any byte leaves the old journal (and a stray
//! `.tmp` the next compaction overwrites) or the new one, and both
//! replay to the same queue. An OS crash can also undo the rename,
//! which leaves the old journal and, again, the same queue.
//!
//! Replay is **O(unsettled)** in memory: [`Journal::open`] reads the
//! header and the index, seeks past the compacted records without
//! reading them, and consumes the live records through a buffered line
//! reader one record at a time (a partial trailing append is dropped
//! and truncated, damage anywhere else is a hard
//! [`JournalError::Corrupt`]). Every settled job, compacted or live,
//! is the byte spans of its two records, its `enqueue` record and its
//! settle record; only unsettled jobs keep their parsed spec in memory.
//! Result lines for `results`/`drain` are re-derived by seeking to
//! those spans, so a fully settled million-job queue streams without
//! ever materializing the settled set.
//!
//! Any other header — a `vax-queue-journal v2` or `v1` file, or a
//! retired `vax-campaign-checkpoint v1` — is refused as corrupt, with
//! the header it found echoed in the error.

use crate::spec::JobSpec;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use upc_monitor::codec;
use vax780_core::MeasuredWorkload;

const HEADER: &str = "vax-queue-journal v3";

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
    /// Byte offset of the `enqueue` record.
    enqueue_at: u64,
    /// Byte length of the `enqueue` record (newline included).
    enqueue_len: u32,
}

/// One settled job, reduced to the byte spans of its two records. The
/// records stay on disk; this is all the memory a settled job costs.
#[derive(Debug, Clone, Copy)]
struct SettledRef {
    /// Offset and length of the `enqueue` record carrying the spec.
    enqueue_at: u64,
    enqueue_len: u32,
    /// Offset and length of the settle record: the `complete` section
    /// or the `fail` line.
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

/// The `enqueue` record for one job.
fn enqueue_record(id: JobId, client: &str, spec: &JobSpec) -> String {
    if client.is_empty() {
        format!("enqueue {id} {}\n", spec.render())
    } else {
        format!("enqueue {id} client={client} {}\n", spec.render())
    }
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

impl<R: BufRead + Seek> LineReader<R> {
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

    /// Continue at byte `at`.
    fn seek(&mut self, at: u64) -> std::io::Result<()> {
        self.inner.seek(SeekFrom::Start(at))?;
        self.pos = at;
        Ok(())
    }
}

/// One index line: `entry <id> <enqueue-len> <settle-len> done|failed`.
fn parse_entry(line: &str) -> Option<(JobId, u32, u64, JobState)> {
    let mut words = line.split_ascii_whitespace();
    if words.next()? != "entry" {
        return None;
    }
    let id = words.next()?.parse().ok()?;
    let enqueue_len = words.next()?.parse().ok()?;
    let len = words.next()?.parse().ok()?;
    let kind = match words.next()? {
        "done" => JobState::Done,
        "failed" => JobState::Failed,
        _ => return None,
    };
    words
        .next()
        .is_none()
        .then_some((id, enqueue_len, len, kind))
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

/// Read a settled job's two records into one buffer, its `enqueue`
/// record first. A compacted job's records are adjacent: one read.
fn read_records(file: &mut File, r: &SettledRef) -> std::io::Result<Vec<u8>> {
    let head = r.enqueue_len as usize;
    let mut bytes = vec![0u8; head + r.len as usize];
    file.seek(SeekFrom::Start(r.enqueue_at))?;
    if r.enqueue_at + u64::from(r.enqueue_len) == r.at {
        file.read_exact(&mut bytes)?;
    } else {
        file.read_exact(&mut bytes[..head])?;
        file.seek(SeekFrom::Start(r.at))?;
        file.read_exact(&mut bytes[head..])?;
    }
    Ok(bytes)
}

/// Copy `len` bytes at `at` from an open file into `out`.
fn copy_span(file: &mut File, at: u64, len: u64, out: &mut impl Write) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    if std::io::copy(&mut Read::take(&mut *file, len), out)? != len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
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
    next_id: JobId,
    /// Bytes of the file that replay accepted, plus every append since.
    len: u64,
    pending: BTreeMap<JobId, PendingJob>,
    settled: BTreeMap<JobId, SettledRef>,
    done: usize,
    failed: usize,
    settled_live: usize,
    clients: BTreeMap<String, usize>,
    warnings: Vec<String>,
}

impl Journal {
    /// Open `path`, creating an empty journal if missing or replaying
    /// it if present. A torn trailing append is dropped with a warning
    /// and the file truncated back to the last good byte.
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
            next_id: 1,
            len: 0,
            pending: BTreeMap::new(),
            settled: BTreeMap::new(),
            done: 0,
            failed: 0,
            settled_live: 0,
            clients: BTreeMap::new(),
            warnings: Vec::new(),
        };
        match File::open(path) {
            Ok(file) => journal.replay(file)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let header = format!("{HEADER} next 1 settled 0\n");
                std::fs::write(path, &header).map_err(|e| journal.io_err(e))?;
                journal.len = header.len() as u64;
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

    fn max_settled_id(&self) -> JobId {
        self.settled.keys().next_back().copied().unwrap_or(0)
    }

    /// The id after `id`; the largest id has none, so a journal naming
    /// it is corrupt (replay could never assign a fresh id after it).
    fn id_after(&self, id: JobId) -> Result<JobId, JournalError> {
        id.checked_add(1)
            .ok_or_else(|| self.corrupt(format!("job id {id} leaves no id to assign next")))
    }

    /// Replay the journal: the header and the index of compacted jobs,
    /// whose records are skipped unread, then the live records through
    /// a buffered line reader — O(one record) memory — under the
    /// torn-vs-corrupt policy. The compacted section is only ever
    /// written whole (rename), so any damage there is a hard error.
    fn replay(&mut self, file: File) -> Result<(), JournalError> {
        let file_len = file.metadata().map_err(|e| self.io_err(e))?.len();
        let mut reader = LineReader::new(BufReader::new(file));
        let io = |this: &Journal, e| this.io_err(e);

        let (header_next, compacted): (JobId, u64) =
            match reader.next_line().map_err(|e| io(self, e))? {
                Some((_, line, true)) => {
                    let words: Vec<&str> = line.split_ascii_whitespace().collect();
                    match words.as_slice() {
                        ["vax-queue-journal", "v3", "next", n, "settled", s] => n
                            .parse()
                            .ok()
                            .zip(s.parse().ok())
                            .ok_or_else(|| self.corrupt(format!("bad header `{line}`")))?,
                        _ => {
                            return Err(
                                self.corrupt(format!("missing `{HEADER}` header (got `{line}`)"))
                            )
                        }
                    }
                }
                _ => return Err(self.corrupt(format!("missing `{HEADER}` header"))),
            };

        // The index. Its count bounds this loop, never an allocation:
        // a count past the file's lines runs into EOF and is refused.
        // Offsets are relative to the end of the index until it is read.
        let mut rel = 0u64;
        for _ in 0..compacted {
            let line = match reader.next_line().map_err(|e| io(self, e))? {
                Some((_, line, true)) => line,
                _ => {
                    return Err(
                        self.corrupt(format!("the index ends before its {compacted} entries"))
                    )
                }
            };
            let Some((id, enqueue_len, len, kind)) = parse_entry(&line) else {
                return Err(self.corrupt(format!("bad index entry `{line}`")));
            };
            if self
                .settled
                .last_key_value()
                .is_some_and(|(&last, _)| id <= last)
            {
                return Err(self.corrupt(format!("index not strictly increasing at job {id}")));
            }
            let Some(end) = rel
                .checked_add(u64::from(enqueue_len))
                .and_then(|at| at.checked_add(len))
            else {
                return Err(self.corrupt(format!("index lengths overflow at job {id}")));
            };
            self.insert_settled(
                id,
                SettledRef {
                    enqueue_at: rel,
                    enqueue_len,
                    at: end - len,
                    len,
                    kind,
                },
            );
            rel = end;
        }
        let base = reader.pos;
        let Some(live_at) = base.checked_add(rel).filter(|&end| end <= file_len) else {
            return Err(self.corrupt(format!(
                "the index's {compacted} compacted job(s) run past the end of the file"
            )));
        };
        // Every compacted span ends at or before `live_at`, so the
        // rebasing cannot overflow.
        for r in self.settled.values_mut() {
            r.enqueue_at += base;
            r.at += base;
        }
        reader.seek(live_at).map_err(|e| io(self, e))?;

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
                    self.settle_replayed(
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
                    self.settle_replayed(
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
        self.len = good;
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

    /// Count a settled job and add it to the settled table.
    fn insert_settled(&mut self, id: JobId, r: SettledRef) {
        match r.kind {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Pending => unreachable!("a settled job is done or failed"),
        }
        self.settled.insert(id, r);
    }

    /// Move a pending job to the settled table, its settle record the
    /// `len` bytes at `at`; `false` if `id` is not pending.
    fn settle_pending(&mut self, id: JobId, at: u64, len: u64, kind: JobState) -> bool {
        let Some(job) = self.pending.remove(&id) else {
            return false;
        };
        self.client_settled(&job.client);
        self.settled_live += 1;
        self.insert_settled(
            id,
            SettledRef {
                enqueue_at: job.enqueue_at,
                enqueue_len: job.enqueue_len,
                at,
                len,
                kind,
            },
        );
        true
    }

    /// [`Journal::settle_pending`] for a replayed settle record, which
    /// must name a pending job.
    fn settle_replayed(
        &mut self,
        id: JobId,
        at: u64,
        len: u64,
        kind: JobState,
    ) -> Result<(), JournalError> {
        if self.settle_pending(id, at, len, kind) {
            return Ok(());
        }
        let whose = if self.settled.contains_key(&id) {
            "settled"
        } else {
            "unknown"
        };
        Err(self.corrupt(format!("{} for {whose} job {id}", kind.name())))
    }

    fn client_settled(&mut self, client: &str) {
        if let Some(count) = self.clients.get_mut(client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.clients.remove(client);
            }
        }
    }

    /// Warnings produced while opening (a torn trailing record dropped).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Settled jobs among the live records — the work a compaction
    /// would fold into the compacted section.
    pub fn settled_in_tail(&self) -> usize {
        self.settled_live
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
        self.len += record.len() as u64;
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
        let record = enqueue_record(id, client, spec);
        let enqueue_at = self.len;
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
        let at = self.len;
        self.append(&section)?;
        self.settle_pending(id, at, section.len() as u64, JobState::Done);
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
        let at = self.len;
        self.append(&record)?;
        self.settle_pending(id, at, record.len() as u64, JobState::Failed);
        Ok(())
    }

    /// Rewrite the journal with every settled job in the compacted
    /// section and only the unsettled jobs' records after it: their
    /// `enqueue` record and, if an attempt began, one `start` record
    /// with the highest attempt seen. The new journal is written and
    /// synced to `<path>.tmp`, then renamed over the journal, so a kill
    /// at any byte offset replays to the identical queue state.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure; the journal is then unchanged.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let tmp = {
            let mut os = self.path.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let io = |e| self.io_err(e);
        let mut out = BufWriter::new(File::create(&tmp).map_err(io)?);
        let header = format!(
            "{HEADER} next {} settled {}\n",
            self.next_id,
            self.settled.len()
        );
        out.write_all(header.as_bytes()).map_err(io)?;
        let mut base = header.len() as u64;
        for (&id, r) in &self.settled {
            let line = format!("entry {id} {} {} {}\n", r.enqueue_len, r.len, r.kind.name());
            out.write_all(line.as_bytes()).map_err(io)?;
            base += line.len() as u64;
        }
        let mut end = base;
        let mut source = None;
        for r in self.settled.values() {
            let file = self.reader(&mut source)?;
            copy_span(file, r.enqueue_at, u64::from(r.enqueue_len), &mut out).map_err(io)?;
            copy_span(file, r.at, r.len, &mut out).map_err(io)?;
            end += u64::from(r.enqueue_len) + r.len;
        }
        let mut enqueued = Vec::with_capacity(self.pending.len());
        for (&id, job) in &self.pending {
            let record = enqueue_record(id, &job.client, &job.spec);
            out.write_all(record.as_bytes()).map_err(io)?;
            enqueued.push((end, record.len() as u32));
            end += record.len() as u64;
            if job.starts > 0 {
                let start = format!("start {id} attempt {}\n", job.starts);
                out.write_all(start.as_bytes()).map_err(io)?;
                end += start.len() as u64;
            }
        }
        let out = out.into_inner().map_err(|e| io(e.into_error()))?;
        out.sync_all().map_err(io)?;
        std::fs::rename(&tmp, &self.path).map_err(io)?;

        // The new file holds the same records, laid out afresh.
        self.len = end;
        self.settled_live = 0;
        let mut at = base;
        for r in self.settled.values_mut() {
            r.enqueue_at = at;
            r.at = at + u64::from(r.enqueue_len);
            at = r.at + r.len;
        }
        for (job, (at, len)) in self.pending.values_mut().zip(enqueued) {
            job.enqueue_at = at;
            job.enqueue_len = len;
        }
        Ok(())
    }

    /// The journal's read handle for one pass, opened on first use.
    fn reader<'f>(&self, file: &'f mut Option<File>) -> Result<&'f mut File, JournalError> {
        if file.is_none() {
            *file = Some(File::open(&self.path).map_err(|e| self.io_err(e))?);
        }
        Ok(file.as_mut().expect("opened above"))
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
    /// what `status` lists. A settled job's spec is read back from its
    /// `enqueue` record alone, and the whole pass shares one handle.
    ///
    /// # Errors
    ///
    /// Each item is [`JournalError`] if that job's record cannot be
    /// read back.
    pub fn job_specs(
        &self,
    ) -> impl Iterator<Item = Result<(JobId, JobState, String), JournalError>> + '_ {
        let mut file = None;
        self.states().map(move |(id, state)| {
            let spec = match (self.pending.get(&id), self.settled.get(&id)) {
                (Some(job), _) => job.spec.render(),
                (None, Some(r)) => {
                    let file = self.reader(&mut file)?;
                    let enqueue = read_span(file, r.enqueue_at, u64::from(r.enqueue_len))
                        .map_err(|e| self.io_err(e))?;
                    self.spec_from_enqueue(&enqueue, id)?
                }
                (None, None) => unreachable!("states() lists only known jobs"),
            };
            Ok((id, state, spec))
        })
    }

    /// Read a settled job's two records back from disk through the
    /// pass's handle: `(spec line, raw settle record)`.
    fn read_settled(
        &self,
        file: &mut Option<File>,
        id: JobId,
        r: SettledRef,
    ) -> Result<(String, String), JournalError> {
        let file = self.reader(file)?;
        let mut bytes = read_records(file, &r).map_err(|e| self.io_err(e))?;
        let head = r.enqueue_len as usize;
        let spec = self.spec_from_enqueue(&bytes[..head], id)?;
        bytes.drain(..head);
        let settle = String::from_utf8(bytes)
            .map_err(|_| self.corrupt(format!("settle record for job {id} is not UTF-8")))?;
        Ok((spec, settle))
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
        let (spec_line, settle) = self.read_settled(&mut None, id, *r)?;
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
        let (spec_line, settle) = self.read_settled(&mut None, id, *r)?;
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
        let mut file = None;
        let mut lines = 0usize;
        for (&id, r) in &self.settled {
            let (spec_line, settle) = self.read_settled(&mut file, id, *r)?;
            let outcome = self.parse_settle(id, &settle)?;
            let line = self.render_result(id, &spec_line, outcome)?;
            writeln!(out, "{line}").map_err(|e| self.io_err(e))?;
            lines += 1;
        }
        Ok(lines)
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

    /// The live section starts where the compacted records end, so a
    /// torn append after a compaction must be found and cut at its
    /// absolute offset, leaving the compacted jobs' results as they were.
    #[test]
    fn torn_append_after_a_compacted_section_is_dropped_at_every_byte_offset() {
        let dir = tempdir("vax-journal-torn-compacted");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Commercial);
        for _ in 0..3 {
            j.append_enqueue_for("alice", &spec).unwrap();
        }
        j.append_start(1, 1).unwrap();
        j.append_complete(1, &sample(WorkloadKind::Commercial))
            .unwrap();
        j.append_start(2, 1).unwrap();
        j.append_fail(2, 1, "boom").unwrap();
        j.compact().unwrap();
        let compacted = all_results(&j);
        j.append_start(3, 1).unwrap();
        let good_text = std::fs::read_to_string(&path).unwrap();
        let good_len = good_text.len();
        j.append_complete(3, &sample(WorkloadKind::Commercial))
            .unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();

        for cut in good_len..full_text.len() {
            std::fs::write(&path, &full_text[..cut]).unwrap();
            let j = Journal::open(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(j.pending(), vec![3], "cut at {cut}");
            assert_eq!(j.counts(), (1, 1, 1), "cut at {cut}");
            if cut == good_len {
                assert!(j.warnings().is_empty(), "clean cut at {cut}");
            } else {
                assert_eq!(j.warnings().len(), 1, "cut at {cut}");
                assert_eq!(std::fs::read_to_string(&path).unwrap(), good_text);
            }
            assert_eq!(all_results(&j), compacted, "cut at {cut}");
        }
        std::fs::write(&path, &full_text).unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.warnings().is_empty());
        assert_eq!(j.counts(), (0, 2, 1));
        assert!(all_results(&j).starts_with(&compacted));
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tempdir("vax-journal-corrupt");
        let path = dir.join("queue.journal");
        let enqueue = "enqueue 1 workload=sci-eng instructions=10 warmup=1\n";
        let fail = "fail 1 attempts 1 message x\n";
        let compacted = format!(
            "vax-queue-journal v3 next 2 settled 1\nentry 1 {} {} failed\n{enqueue}{fail}",
            enqueue.len(),
            fail.len()
        );
        for bad in [
            "nope\n".to_string(),
            "vax-queue-journal v3 next 1 settled 0\nstart 7 attempt 1\n".to_string(),
            "vax-queue-journal v3 next 1 settled 0\n\
             complete 7 instructions 1 cycles 2\nupc-histogram v1\nend\n"
                .to_string(),
            format!("vax-queue-journal v3 next 1 settled 0\n{enqueue}{enqueue}"),
            format!("vax-queue-journal v3 next 1 settled 0\ngarbage\n{enqueue}"),
            // The compacted section is only ever written whole, so a
            // short index is damage, never a torn append.
            "vax-queue-journal v3 next 1 settled 1\n".to_string(),
            "vax-queue-journal v3 next 1 settled 1\nentry 1 10\n".to_string(),
            // Live records for a compacted job.
            format!("{compacted}start 1 attempt 2\n"),
            format!("{compacted}{enqueue}"),
        ] {
            std::fs::write(&path, &bad).unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert!(
                matches!(err, JournalError::Corrupt { .. }),
                "{bad:?}: {err}"
            );
            // Refusing leaves the file as it was.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), bad);
        }
        // A terminated complete section with a bad codec body is real
        // corruption even at the end of the file.
        std::fs::write(
            &path,
            "vax-queue-journal v3 next 1 settled 0\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n\
             complete 1 instructions 1 cycles 2\nnot a histogram\nend\n",
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

    /// A compacted journal at `path` split into `(header and index,
    /// compacted records, live records)`, located the way `open` locates
    /// them: by the header's count and the running sum of the lengths.
    fn sections(path: &Path) -> (String, String, String) {
        let text = std::fs::read_to_string(path).unwrap();
        let header = text.lines().next().unwrap();
        let count: usize = header.rsplit(' ').next().unwrap().parse().unwrap();
        let index: usize = text
            .split_inclusive('\n')
            .take(count + 1)
            .map(str::len)
            .sum();
        let compacted: usize = text
            .lines()
            .skip(1)
            .take(count)
            .map(|entry| {
                let words: Vec<&str> = entry.split(' ').collect();
                words[2].parse::<usize>().unwrap() + words[3].parse::<usize>().unwrap()
            })
            .sum();
        (
            text[..index].to_string(),
            text[index..index + compacted].to_string(),
            text[index + compacted..].to_string(),
        )
    }

    #[test]
    fn compaction_migrates_settled_jobs_and_preserves_results() {
        let dir = tempdir("vax-journal-compact");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        let mut specs = Vec::new();
        for seed in 1..=5 {
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed % 2 == 0 { "even" } else { "" }, &spec)
                .unwrap();
            specs.push(spec.render());
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
        assert_eq!(j.settled_in_tail(), 3);

        j.compact().unwrap();
        assert_eq!(j.settled_in_tail(), 0);
        // After the compacted section come only the pending jobs'
        // `enqueue`/`start` records.
        let (index, _, live) = sections(&path);
        assert!(
            index.starts_with("vax-queue-journal v3 next 6 settled 3\n"),
            "{index}"
        );
        assert_eq!(
            live,
            format!(
                "enqueue 4 client=even {}\nstart 4 attempt 1\nenqueue 5 {}\n",
                specs[3], specs[4]
            )
        );
        // Results identical through the live journal and a reopen.
        assert_eq!(all_results(&j), before);
        let back = Journal::open(&path).unwrap();
        assert_eq!(all_results(&back), before);
        assert_eq!(back.counts(), (2, 2, 1));
        assert_eq!(back.unsettled_for("even"), 1);
        let (_, starts) = back.pending_job(4).unwrap();
        assert_eq!(starts, 1, "start count must survive compaction");
        // A second compaction copies the compacted jobs over again.
        let mut back = back;
        back.append_start(4, 2).unwrap();
        back.append_complete(4, &sample(WorkloadKind::SciEng))
            .unwrap();
        back.compact().unwrap();
        let reread = Journal::open(&path).unwrap();
        assert_eq!(reread.counts(), (1, 3, 1));
        assert!(all_results(&reread).starts_with(&before[..before.len() - 1]));
        assert_eq!(sections(&path).2, format!("enqueue 5 {}\n", specs[4]));
    }

    /// `job_specs` reads each settled spec alone through one handle; it
    /// must list exactly the specs the whole-record path reads back, for
    /// compacted jobs (their two records adjacent), jobs settled among
    /// the live records (their two records apart), and pending jobs.
    #[test]
    fn job_specs_match_the_whole_record_path_compacted_and_live() {
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
        // Jobs 1-4 settle into the compacted section, 5-7 settle among
        // the live records, and 8-9 stay pending.
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
                    let adjacent = r.enqueue_at + u64::from(r.enqueue_len) == r.at;
                    assert_eq!(adjacent, id <= 4, "job {id}");
                    let (read, _) = journal.read_settled(&mut None, id, *r).unwrap();
                    assert_eq!(spec, read, "job {id}");
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
        // Compact again: now every job is compacted and no live record
        // names an id. The header's `next` watermark must stop id reuse.
        j.compact().unwrap();
        let mut back = Journal::open(&path).unwrap();
        assert_eq!(back.append_enqueue(&spec).unwrap(), 4);
    }

    /// Retired formats are refused, never upgraded or guessed at: the
    /// error names the header the file actually carries, so an old
    /// `vax-queue-journal` v2 or v1 or a `vax-campaign-checkpoint v1`
    /// left by an earlier `run --checkpoint` says what it is.
    #[test]
    fn retired_headers_are_refused_naming_the_header() {
        let dir = tempdir("vax-journal-retired");
        let path = dir.join("queue.journal");
        for (text, header) in [
            (
                "vax-queue-journal v2 generation 1 next 2\n\
                 enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
                "vax-queue-journal v2 generation 1 next 2",
            ),
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
            assert!(message.contains(HEADER), "{message}");
            assert!(message.contains(&format!("got `{header}`")), "{message}");
            // Refusing leaves the file as it was.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
    }

    /// Counts, lengths and ids near `u64::MAX` must be refused as
    /// corruption: trusted, they overflow the offset arithmetic or the
    /// next-id watermark, or ask the allocator for the whole address
    /// space.
    #[test]
    fn hostile_counts_offsets_and_ids_are_corrupt_not_a_panic() {
        let dir = tempdir("vax-journal-hostile");
        let path = dir.join("queue.journal");
        let enqueue = "enqueue 1 workload=sci-eng instructions=10 warmup=1\n";
        let fail = "fail 1 attempts 1 message x\n";
        let (e, f) = (enqueue.len(), fail.len());
        let max = u64::MAX;
        let half = max / 2 + 1;
        for text in [
            // A count past the file's lines runs into EOF.
            format!("vax-queue-journal v3 next 2 settled {max}\nentry 1 {e} {f} failed\n"),
            format!(
                "vax-queue-journal v3 next 2 settled {max}\n\
                 entry 1 {e} {f} failed\n{enqueue}{fail}"
            ),
            // Lengths past the end of the file.
            format!("vax-queue-journal v3 next 2 settled 1\nentry 1 {e} 999 failed\n{enqueue}{fail}"),
            format!("vax-queue-journal v3 next 2 settled 1\nentry 1 {e} {max} failed\n{enqueue}{fail}"),
            // Lengths that overflow `u64`, in one entry and in the sum.
            format!("vax-queue-journal v3 next 2 settled 1\nentry 1 4294967295 {max} done\n"),
            format!(
                "vax-queue-journal v3 next 2 settled 1\nentry 1 0 {} done\n",
                u128::from(max) + 1
            ),
            format!(
                "vax-queue-journal v3 next 3 settled 2\n\
                 entry 1 0 {half} done\nentry 2 0 {half} done\n"
            ),
            // Ids that do not increase.
            format!(
                "vax-queue-journal v3 next 3 settled 2\nentry 2 0 {f} failed\n\
                 entry 1 {e} {f} failed\n{fail}{enqueue}{fail}"
            ),
            format!(
                "vax-queue-journal v3 next 3 settled 2\nentry 1 {e} {f} failed\n\
                 entry 1 {e} {f} failed\n{enqueue}{fail}{enqueue}{fail}"
            ),
            // Ids that leave no id to assign next.
            format!("vax-queue-journal v3 next 2 settled 1\nentry {max} {e} {f} failed\n{enqueue}{fail}"),
            format!(
                "vax-queue-journal v3 next 1 settled 0\n\
                 enqueue {max} workload=sci-eng instructions=10 warmup=1\n"
            ),
        ] {
            std::fs::write(&path, &text).unwrap();
            let opened = std::panic::catch_unwind(|| Journal::open(&path));
            let Ok(result) = opened else {
                panic!("open panicked on {text:?}");
            };
            let err = result.err().unwrap_or_else(|| {
                panic!("open accepted {text:?}");
            });
            assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        }
    }

    /// Deterministic hostile-bytes sweep: substitute every byte of one
    /// journal holding compacted and live jobs (a client name, a
    /// complete and a fail record in each section, and a pending job)
    /// with a few values. `open` and `stream_results` may refuse the
    /// result but must never panic.
    #[test]
    fn byte_substitution_never_panics_open_or_stream() {
        let dir = tempdir("vax-journal-byte-sweep");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        for seed in 1..=5 {
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed % 2 == 0 { "alice" } else { "" }, &spec)
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
        let original = std::fs::read(&path).unwrap();
        let (index, compacted, live) = sections(&path);
        assert!(index.contains("settled 2\n"), "{index}");
        assert!(compacted.contains("client=alice"), "{compacted}");
        assert!(live.contains("client=alice"), "{live}");

        let mut panicked = Vec::new();
        for at in 0..original.len() {
            for value in [b'0', b'9', b' ', b'\n', 0xff] {
                if original[at] == value {
                    continue;
                }
                let mut mutated = original.clone();
                mutated[at] = value;
                std::fs::write(&path, &mutated).unwrap();
                let outcome = std::panic::catch_unwind(|| {
                    if let Ok(j) = Journal::open(&path) {
                        let _ = j.stream_results(&mut std::io::sink());
                        j.job_specs().for_each(drop);
                    }
                });
                if outcome.is_err() {
                    panicked.push(format!("byte {at} -> {value:#04x}"));
                }
            }
        }
        assert!(panicked.is_empty(), "panicked on: {panicked:?}");
    }
}
