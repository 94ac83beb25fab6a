//! The job specification: one simulation request on one line.
//!
//! A [`JobSpec`] names everything a worker needs to reproduce a
//! measurement bit-for-bit: workload, instruction budget, CPU/memory
//! configuration overrides, fault plan, and seed. It renders to a
//! single `key=value` line — the payload of the journal's `enqueue`
//! record and of the wire protocol's `enqueue` request — and parsing
//! is strict: unknown or duplicate keys are errors, so a typo is a
//! reject at enqueue time, not a silently-default simulation.

use vax780_core::Experiment;
use vax_cpu::CpuConfig;
use vax_fault::{FaultClass, FaultPlan};
use vax_mem::MemConfig;
use vax_workloads::{profile, WorkloadKind};

/// Which execution loop the job's CPU model uses. Results are
/// bit-identical either way; the tier only picks the host-side loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Reference interpreter (`CpuConfig::naive_loop`).
    Naive,
    /// The default loop, host fast paths on (`CpuConfig::default`).
    #[default]
    Default,
}

impl Tier {
    /// Parse a `tier=` value. `naive` is the only tier a rendered spec
    /// names; `fast` and `block`, the retired names of loops the default
    /// replaced, still parse as the default so existing journals and
    /// scripts replay unchanged.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "naive" => Some(Tier::Naive),
            "fast" | "block" => Some(Tier::Default),
            _ => None,
        }
    }
}

/// Largest `cache-kb` a spec may ask for (1 MiB; the sweep's largest
/// cache is 32 KB).
const MAX_CACHE_KB: u32 = 1024;
/// Largest `tb-entries` a spec may ask for (the sweep's largest TB has
/// 256 entries).
const MAX_TB_ENTRIES: u32 = 4096;
/// Largest `write-buffer` depth a spec may ask for (the sweep's deepest
/// buffer has 8 entries).
const MAX_WRITE_BUFFER: u32 = 64;
/// Largest fault plan a spec may ask for: fault classes × `fault-count`
/// (campaigns inject 2 per class).
const MAX_FAULTS: u64 = 1024;

/// One simulation request: workload × configuration × fault plan × seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Which of the paper's workloads to build.
    pub workload: WorkloadKind,
    /// Measured instruction count.
    pub instructions: u64,
    /// Warm-up instruction count.
    pub warmup: u64,
    /// Override the profile's RNG seed (None = the profile default).
    pub seed: Option<u64>,
    /// Execution tier for the CPU model.
    pub tier: Tier,
    /// Model the decode/execute overlap optimisation.
    pub decode_overlap: bool,
    /// Override cache size in KiB.
    pub cache_kb: Option<u32>,
    /// Override cache associativity.
    pub cache_ways: Option<u32>,
    /// Override translation-buffer entry count.
    pub tb_entries: Option<u32>,
    /// Override write-buffer depth.
    pub write_buffer: Option<u32>,
    /// Fault classes to inject (empty = fault-free run).
    pub faults: Vec<FaultClass>,
    /// Seed for the scattered fault plan.
    pub fault_seed: u64,
    /// Faults injected per class.
    pub fault_count: u32,
    /// Cycle window the faults are scattered over (None = 3× the
    /// instruction budget, a loose whole-run window).
    pub fault_window: Option<u64>,
}

impl JobSpec {
    /// A plain, fault-free job on one workload with short test-friendly
    /// lengths.
    pub fn new(workload: WorkloadKind) -> JobSpec {
        JobSpec {
            workload,
            instructions: 20_000,
            warmup: 5_000,
            seed: None,
            tier: Tier::Default,
            decode_overlap: false,
            cache_kb: None,
            cache_ways: None,
            tb_entries: None,
            write_buffer: None,
            faults: Vec::new(),
            fault_seed: 0x780,
            fault_count: 2,
            fault_window: None,
        }
    }

    /// Render to the canonical one-line `key=value` form. Fields at
    /// their defaults are omitted, so `render` ∘ `parse` is the
    /// identity on canonical lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload={} instructions={} warmup={}",
            self.workload.name(),
            self.instructions,
            self.warmup
        );
        if let Some(seed) = self.seed {
            out.push_str(&format!(" seed={seed}"));
        }
        if self.tier == Tier::Naive {
            out.push_str(" tier=naive");
        }
        if self.decode_overlap {
            out.push_str(" decode-overlap=1");
        }
        if let Some(kb) = self.cache_kb {
            out.push_str(&format!(" cache-kb={kb}"));
        }
        if let Some(ways) = self.cache_ways {
            out.push_str(&format!(" cache-ways={ways}"));
        }
        if let Some(entries) = self.tb_entries {
            out.push_str(&format!(" tb-entries={entries}"));
        }
        if let Some(depth) = self.write_buffer {
            out.push_str(&format!(" write-buffer={depth}"));
        }
        if !self.faults.is_empty() {
            let names: Vec<&str> = self.faults.iter().map(|c| c.name()).collect();
            out.push_str(&format!(
                " faults={} fault-seed={} fault-count={}",
                names.join("+"),
                self.fault_seed,
                self.fault_count
            ));
            if let Some(window) = self.fault_window {
                out.push_str(&format!(" fault-window={window}"));
            }
        }
        out
    }

    /// Parse a one-line spec. Strict: every token must be a known
    /// `key=value`, keys may not repeat, and `workload=` is required.
    pub fn parse(line: &str) -> Result<JobSpec, String> {
        let mut workload = None;
        let mut spec = JobSpec::new(WorkloadKind::TimesharingLight);
        let mut seen: Vec<&str> = Vec::new();
        for token in line.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!("malformed token {token:?}: expected key=value"));
            };
            if seen.contains(&key) {
                return Err(format!("duplicate key {key:?}"));
            }
            let number = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{key}: expected {what}, got {value:?}"))
            };
            let small = |what: &str| -> Result<u32, String> {
                value
                    .parse::<u32>()
                    .map_err(|_| format!("{key}: expected {what}, got {value:?}"))
            };
            match key {
                "workload" => {
                    workload = Some(WorkloadKind::parse(value).ok_or_else(|| {
                        format!(
                            "workload: unknown workload {value:?} (expected one of {})",
                            WorkloadKind::ALL.map(WorkloadKind::name).join(", ")
                        )
                    })?);
                }
                "instructions" => spec.instructions = number("an instruction count")?,
                "warmup" => spec.warmup = number("an instruction count")?,
                "seed" => spec.seed = Some(number("a seed")?),
                "tier" => {
                    spec.tier = Tier::parse(value)
                        .ok_or_else(|| format!("tier: unknown tier {value:?} (expected naive)"))?;
                }
                "decode-overlap" => {
                    spec.decode_overlap = match value {
                        "1" => true,
                        "0" => false,
                        _ => return Err(format!("decode-overlap: expected 0 or 1, got {value:?}")),
                    };
                }
                "cache-kb" => spec.cache_kb = Some(small("a size in KiB")?),
                "cache-ways" => spec.cache_ways = Some(small("a way count")?),
                "tb-entries" => spec.tb_entries = Some(small("an entry count")?),
                "write-buffer" => spec.write_buffer = Some(small("a depth")?),
                "faults" => {
                    for name in value.split('+') {
                        let class = FaultClass::parse(name).ok_or_else(|| {
                            format!(
                                "faults: unknown fault class {name:?} (expected one of {})",
                                FaultClass::ALL.map(FaultClass::name).join(", ")
                            )
                        })?;
                        spec.faults.push(class);
                    }
                }
                "fault-seed" => spec.fault_seed = number("a seed")?,
                "fault-count" => spec.fault_count = small("a count")?,
                "fault-window" => spec.fault_window = Some(number("a cycle count")?),
                _ => return Err(format!("unknown key {key:?}")),
            }
            seen.push(key);
        }
        let Some(workload) = workload else {
            return Err("missing required key workload=".to_string());
        };
        spec.workload = workload;
        if spec.instructions == 0 {
            return Err("instructions: must be at least 1".to_string());
        }
        Ok(spec)
    }

    /// Cheap structural validation beyond what [`parse`](JobSpec::parse)
    /// enforces: the memory-geometry overrides must describe a buildable
    /// cache/TB, and every override that sizes an allocation (cache, TB,
    /// write buffer, fault plan) must stay within its `MAX_*` bound. An
    /// impossible job is rejected at enqueue time instead of panicking a
    /// worker, and a hostile one instead of aborting the whole process
    /// on a failed allocation.
    pub fn validate(&self) -> Result<(), String> {
        for (key, value, max) in [
            ("cache-kb", self.cache_kb, MAX_CACHE_KB),
            ("tb-entries", self.tb_entries, MAX_TB_ENTRIES),
            ("write-buffer", self.write_buffer, MAX_WRITE_BUFFER),
        ] {
            if let Some(v) = value.filter(|&v| v > max) {
                return Err(format!("{key}: at most {max}, got {v}"));
            }
        }
        let faults = (self.faults.len() as u64).saturating_mul(u64::from(self.fault_count));
        if faults > MAX_FAULTS {
            return Err(format!(
                "fault-count: {} class(es) x {} is {faults} faults, at most {MAX_FAULTS}",
                self.faults.len(),
                self.fault_count
            ));
        }
        let mem = self.mem_config();
        // Mirror MemConfig::validate's asserts, reported as errors.
        let c = mem.cache;
        let cache_ok = c.size_bytes.is_power_of_two()
            && c.ways >= 1
            && c.ways
                .checked_mul(c.block_bytes)
                .is_some_and(|set| c.size_bytes >= set && (c.size_bytes / set).is_power_of_two());
        if !cache_ok {
            return Err(format!(
                "cache geometry {} bytes / {} way(s) is not buildable",
                c.size_bytes, c.ways
            ));
        }
        let tb = mem.tb;
        let halves = if tb.split { 2 } else { 1 };
        let tb_ok = tb.entries.is_power_of_two()
            && tb.ways >= 1
            && tb
                .ways
                .checked_mul(halves)
                .is_some_and(|d| tb.entries / d >= 1 && (tb.entries / d).is_power_of_two());
        if !tb_ok {
            return Err(format!(
                "tb geometry {} entries is not buildable",
                tb.entries
            ));
        }
        if mem.write_buffer_entries == 0 {
            return Err("write-buffer: must be at least 1".to_string());
        }
        Ok(())
    }

    /// The CPU configuration this spec asks for.
    pub fn cpu_config(&self) -> CpuConfig {
        let mut cpu = match self.tier {
            Tier::Naive => CpuConfig::naive_loop(),
            Tier::Default => CpuConfig::default(),
        };
        cpu.decode_overlap = self.decode_overlap;
        cpu
    }

    /// The memory configuration this spec asks for.
    pub fn mem_config(&self) -> MemConfig {
        let mut mem = MemConfig::default();
        if let Some(kb) = self.cache_kb {
            mem.cache.size_bytes = kb.saturating_mul(1024);
        }
        if let Some(ways) = self.cache_ways {
            mem.cache.ways = ways;
        }
        if let Some(entries) = self.tb_entries {
            mem.tb.entries = entries;
        }
        if let Some(depth) = self.write_buffer {
            mem.write_buffer_entries = depth;
        }
        mem
    }

    /// The fault plan this spec asks for (None for fault-free jobs).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.faults.is_empty() {
            return None;
        }
        let window = self
            .fault_window
            .unwrap_or(self.instructions.saturating_mul(3));
        Some(FaultPlan::seeded(
            &self.faults,
            self.fault_seed,
            self.fault_count,
            window,
        ))
    }

    /// Build the runnable experiment. `Experiment::run` is
    /// bit-deterministic in the spec, which is what makes journal
    /// replay and the kill-and-resume guarantee possible.
    pub fn experiment(&self) -> Experiment {
        let mut params = profile(self.workload);
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
        let mut exp = Experiment::with_params(params)
            .instructions(self.instructions)
            .warmup(self.warmup)
            .cpu_config(self.cpu_config())
            .mem_config(self.mem_config());
        if let Some(plan) = self.fault_plan() {
            exp = exp.fault_plan(plan);
        }
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        spec.instructions = 4_000;
        spec.warmup = 1_000;
        spec.seed = Some(42);
        spec.tier = Tier::Naive;
        spec.decode_overlap = true;
        spec.cache_kb = Some(4);
        spec.tb_entries = Some(64);
        spec.faults = vec![FaultClass::CacheParity, FaultClass::SbiTimeout];
        spec.fault_window = Some(50_000);
        let line = spec.render();
        let back = JobSpec::parse(&line).expect("canonical line parses");
        assert_eq!(back, spec);
        assert_eq!(back.render(), line);
    }

    #[test]
    fn minimal_line_parses_with_defaults() {
        let spec = JobSpec::parse("workload=commercial instructions=8000 warmup=2000")
            .expect("minimal line");
        assert_eq!(spec.workload, WorkloadKind::Commercial);
        assert_eq!(spec.tier, Tier::Default);
        assert!(spec.faults.is_empty());
        assert!(spec.fault_plan().is_none());
    }

    /// The retired tier names parse as the default and render away, so
    /// journals and scripts that name them replay unchanged — with
    /// bit-identical results, by the loops' equivalence contract.
    #[test]
    fn retired_tier_names_parse_as_the_default() {
        let plain = JobSpec::parse("workload=sci-eng instructions=4000").expect("plain");
        for name in ["fast", "block"] {
            let line = format!("workload=sci-eng instructions=4000 tier={name}");
            let spec = JobSpec::parse(&line).expect("retired tier name parses");
            assert_eq!(spec.tier, Tier::Default, "tier={name}");
            assert_eq!(spec, plain, "tier={name}");
            assert_eq!(
                spec.render(),
                "workload=sci-eng instructions=4000 warmup=5000"
            );
            assert_eq!(spec.cpu_config(), CpuConfig::default(), "tier={name}");
        }
        let naive = JobSpec::parse("workload=sci-eng instructions=4000 tier=naive").expect("naive");
        assert_eq!(naive.cpu_config(), CpuConfig::naive_loop());
        assert!(naive.render().ends_with(" tier=naive"));
    }

    #[test]
    fn strict_parse_rejects_bad_lines() {
        for (line, needle) in [
            ("instructions=100", "workload"),
            ("workload=nope", "unknown workload"),
            ("workload=sci-eng bogus=1", "unknown key"),
            ("workload=sci-eng instructions=abc", "instructions"),
            ("workload=sci-eng workload=commercial", "duplicate"),
            ("workload=sci-eng notakv", "key=value"),
            ("workload=sci-eng faults=warp-core", "fault class"),
            ("workload=sci-eng instructions=0", "at least 1"),
            ("workload=sci-eng tier=turbo", "tier"),
            ("workload=sci-eng tier=default", "tier"),
        ] {
            let err = JobSpec::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn validate_rejects_impossible_geometry() {
        let mut spec = JobSpec::new(WorkloadKind::Educational);
        assert!(spec.validate().is_ok());
        spec.cache_kb = Some(3);
        assert!(spec.validate().is_err());
        spec.cache_kb = None;
        spec.write_buffer = Some(0);
        assert!(spec.validate().is_err());
    }

    /// Overrides that size an allocation are bounded, and the error
    /// names the key. Each of these specs, unvalidated, asks the machine
    /// build for gigabytes — a failed allocation aborts the process, which
    /// `catch_unwind` cannot catch — so none of them may ever be built.
    #[test]
    fn validate_bounds_allocation_sizes_naming_the_key() {
        for (line, key) in [
            ("workload=sci-eng write-buffer=4294967295", "write-buffer"),
            ("workload=sci-eng tb-entries=2147483648", "tb-entries"),
            ("workload=sci-eng cache-kb=2097152", "cache-kb"),
            (
                "workload=sci-eng faults=cache-parity+tb-corrupt+sbi-timeout+write-buffer+cs-bit-flip \
                 fault-count=4294967295",
                "fault-count",
            ),
        ] {
            let spec = JobSpec::parse(line).expect(line);
            let err = spec.validate().expect_err(line);
            assert!(err.starts_with(key), "{line}: {err}");
        }
        // The largest values in use stay valid, as do the bounds.
        for line in [
            "workload=sci-eng cache-kb=32 tb-entries=256 write-buffer=8",
            "workload=sci-eng cache-kb=1024 tb-entries=4096 write-buffer=64",
            "workload=sci-eng faults=cache-parity+sbi-timeout fault-count=2",
            "workload=sci-eng faults=cache-parity+sbi-timeout fault-count=512",
        ] {
            let spec = JobSpec::parse(line).expect(line);
            assert_eq!(spec.validate(), Ok(()), "{line}");
        }
        let over =
            JobSpec::parse("workload=sci-eng faults=cache-parity+sbi-timeout fault-count=513")
                .expect("parses");
        assert!(over.validate().is_err(), "1026 faults");
    }

    #[test]
    fn fault_plan_is_deterministic_in_the_spec() {
        let mut spec = JobSpec::new(WorkloadKind::TimesharingLight);
        spec.faults = vec![FaultClass::TbCorrupt];
        let a = spec.fault_plan().expect("plan").render();
        let b = spec.fault_plan().expect("plan").render();
        assert_eq!(a, b);
    }
}
