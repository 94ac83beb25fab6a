//! Correctness checks. Every measured job's digest and CPI must equal
//! the values pinned in `pinned.txt` (default seed, full size) and its
//! own first run (every seed); the head of each workload must also agree
//! with the reference interpreter.

use crate::inputs::DEFAULT_SEED;
use crate::{Options, Size};
use std::collections::BTreeMap;
use upc_monitor::codec;
use vax780_core::MeasuredWorkload;
use vax_serve::journal::fnv64;

const PINNED: &str = include_str!("../pinned.txt");

/// A job's digest and CPI text.
type Expected = (u64, String);

/// FNV-1a 64 over the histogram + counters codec text: the digest the
/// serve journal prints for the same measurement.
pub fn digest(m: &MeasuredWorkload) -> u64 {
    fnv64(&codec::to_text_with_counters(
        &m.histogram,
        &m.counters.to_pairs(),
    ))
}

/// Collects every mismatch a run finds, naming workload and job.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    pinned: Option<BTreeMap<String, Expected>>,
    first: BTreeMap<String, Expected>,
    /// One line per mismatch; empty when the run is correct.
    pub mismatches: Vec<String>,
}

impl Checker {
    /// The checks for one run: pinned values apply to the default seed
    /// at full size.
    pub fn new(options: &Options) -> Checker {
        let pinned = (options.pinned && options.seed == DEFAULT_SEED && options.size == Size::FULL)
            .then(|| load_pins(options.workload.name()));
        Checker::with_pins(options.workload.name(), pinned)
    }

    /// The checks with explicit pinned values (`None`: pin nothing).
    pub fn with_pins(
        workload: &'static str,
        pinned: Option<BTreeMap<String, Expected>>,
    ) -> Checker {
        Checker {
            workload,
            pinned,
            first: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    /// Check one measured job.
    pub fn check(&mut self, job: &str, digest: u64, cpi: &str) {
        let seen = (digest, cpi.to_string());
        let pinned = self.pinned.as_ref().map(|pins| pins.get(job).cloned());
        match pinned {
            Some(Some(want)) if want != seen => {
                self.mismatch(job, format!("{}, pinned {}", show(&seen), show(&want)))
            }
            Some(None) => self.mismatch(job, format!("{}, no pinned value", show(&seen))),
            _ => {}
        }
        match self.first.get(job).cloned() {
            None => {
                self.first.insert(job.to_string(), seen);
            }
            Some(want) if want != seen => {
                self.mismatch(job, format!("{}, first run {}", show(&seen), show(&want)))
            }
            Some(_) => {}
        }
    }

    /// Compare the digest another execution path produced for `job` with
    /// the job's measured run.
    pub fn cross_check(&mut self, job: &str, digest: u64, path: &str) {
        match self.first.get(job).map(|(d, _)| *d) {
            Some(d) if d == digest => {}
            Some(d) => self.mismatch(
                job,
                format!("digest {digest:016x} on {path}, {d:016x} on the measured path"),
            ),
            None => self.mismatch(job, format!("never measured, so {path} has no reference")),
        }
    }

    /// Record a job that produced no measurement.
    pub fn fail(&mut self, job: &str, why: &str) {
        self.mismatch(job, why.to_string());
    }

    /// Every job's first digest and CPI, as `pinned.txt` lines.
    pub fn pin_lines(&self) -> Vec<String> {
        self.first
            .iter()
            .map(|(job, (digest, cpi))| format!("{} {job} {digest:016x} {cpi}", self.workload))
            .collect()
    }

    fn mismatch(&mut self, job: &str, detail: String) {
        self.mismatches
            .push(format!("{} job {job}: {detail}", self.workload));
    }
}

fn show((digest, cpi): &Expected) -> String {
    format!("digest {digest:016x} cpi {cpi}")
}

/// The pinned values of one workload, keyed by job name.
fn load_pins(workload: &str) -> BTreeMap<String, Expected> {
    let mut pins = BTreeMap::new();
    for line in PINNED.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let &[w, job, digest, cpi] = fields.as_slice() {
            if let (true, Ok(digest)) = (w == workload, u64::from_str_radix(digest, 16)) {
                pins.insert(job.to_string(), (digest, cpi.to_string()));
            }
        }
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_digest_names_the_workload_and_job() {
        let pins = BTreeMap::from([("sci-eng/chunk0".to_string(), (1, "9.000000".to_string()))]);
        let mut c = Checker::with_pins("characterize", Some(pins));
        c.check("sci-eng/chunk0", 1, "9.000000");
        assert!(c.mismatches.is_empty(), "{:?}", c.mismatches);
        // Differs from both the pin and the first run.
        c.check("sci-eng/chunk0", 2, "9.000000");
        assert_eq!(c.mismatches.len(), 2, "{:?}", c.mismatches);
        assert!(c.mismatches[0].starts_with("characterize job sci-eng/chunk0: "));
        c.cross_check("sci-eng/chunk0", 3, "the naive loop");
        assert!(c.mismatches[2].contains("the naive loop"));
        c.check("commercial/chunk0", 5, "1.000000");
        assert!(c.mismatches[3].contains("no pinned value"));
    }

    #[test]
    fn every_pinned_line_parses() {
        let lines = PINNED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .count();
        let parsed: usize = crate::Workload::ALL
            .iter()
            .map(|w| load_pins(w.name()).len())
            .sum();
        assert_eq!(lines, parsed);
    }
}
