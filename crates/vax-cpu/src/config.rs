//! CPU model configuration.

/// Tunable microcode/pipeline parameters.
///
/// Defaults model the 11/780; the ablation sweeps flip individual fields
/// (e.g. `decode_overlap` models the 11/750's folding of the decode cycle,
/// discussed in the paper's §5: "the later VAX model 11/750 did [save the
/// non-overlapped I-Decode cycle]").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Overlap the initial decode with the previous instruction's last
    /// cycle for non-PC-changing instructions (11/750-style). The 11/780
    /// does not (`false`).
    pub decode_overlap: bool,
    /// Compute cycles in the TB-miss routine before the PTE read
    /// (probe, region dispatch, address formation).
    pub tb_miss_head_cycles: u32,
    /// Compute cycles in the TB-miss routine after the PTE read
    /// (validity check, TB write, restart).
    pub tb_miss_tail_cycles: u32,
    /// Extra compute cycles when the miss double-faults into a system
    /// page-table fill.
    pub tb_miss_double_cycles: u32,
    /// Compute cycles of interrupt-service microcode around its memory
    /// references (vector fetch, stack pushes).
    pub int_service_body_cycles: u32,
    /// Compute cycles of exception-service microcode.
    pub exc_service_body_cycles: u32,
    /// Compute cycles inserted between a character-string loop's read and
    /// write ("microprogrammed to reduce write stalls by writing only in
    /// every sixth cycle", §4.3).
    pub char_loop_spacing: u32,
    /// One abort cycle is charged every this many instructions, modelling
    /// the paper's "one \[abort\] for each microcode patch" — the WCS
    /// patches on production machines executed at a steady rate. 0
    /// disables.
    pub patch_abort_period: u32,
    /// Use the host fast paths, all default-on and all host-side only:
    ///
    /// * the predecode cache: parse each static instruction once and
    ///   replay the decoded form on re-execution, charging the identical
    ///   IB/decode cycles;
    /// * sink batching: coalesce consecutive same-µPC issues into one
    ///   batched histogram call and skip prefetcher ticks that provably
    ///   mutate nothing;
    /// * host shortcuts: the prefetcher's cheap-gate tick and the
    ///   one-entry translation shortcuts (IB and EBOX) that skip a TB
    ///   set scan while the TB generation proves the scan's outcome;
    /// * the continuation loop: `Cpu::step_budgeted` keeps executing
    ///   after a resume-safe instruction, skipping the provably no-op
    ///   fault poll, interrupt arbitration, and event pump between
    ///   instructions, bounded by the budget and the event horizon.
    ///
    /// None has a simulated effect: histograms, hardware counters, and
    /// trace streams are bit-identical to the naive loop
    /// (`tests/perf_equivalence.rs` proves it; `vax780 bench` measures
    /// the speedup). `false` selects the naive byte-by-byte, per-cycle,
    /// one-instruction-per-step loop, kept as the executable reference.
    pub fast_paths: bool,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            decode_overlap: false,
            tb_miss_head_cycles: 9,
            tb_miss_tail_cycles: 7,
            tb_miss_double_cycles: 4,
            int_service_body_cycles: 30,
            exc_service_body_cycles: 12,
            char_loop_spacing: 5,
            patch_abort_period: 12,
            fast_paths: true,
        }
    }
}

impl CpuConfig {
    /// The 11/750-style decode-overlap ablation configuration.
    pub fn with_decode_overlap() -> CpuConfig {
        CpuConfig {
            decode_overlap: true,
            ..CpuConfig::default()
        }
    }

    /// The naive reference loop: byte-by-byte decode on every dynamic
    /// execution, per-cycle sink calls, full TB scans, and one
    /// instruction per step. This is the pre-optimization interpreter,
    /// kept as the executable reference; `vax780 bench` and the
    /// equivalence suite compare against it.
    pub fn naive_loop() -> CpuConfig {
        CpuConfig {
            fast_paths: false,
            ..CpuConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_780() {
        let c = CpuConfig::default();
        assert!(!c.decode_overlap);
        // Nominal TB service path: entry + head + read + tail ≈ 18 issue
        // cycles, landing near the paper's 21.6 with stalls.
        assert_eq!(1 + c.tb_miss_head_cycles + 1 + c.tb_miss_tail_cycles, 18);
    }

    #[test]
    fn naive_loop_differs_only_in_fast_paths() {
        let naive = CpuConfig::naive_loop();
        assert!(!naive.fast_paths);
        assert!(CpuConfig::default().fast_paths);
        // The simulated-machine parameters are identical in both loops.
        assert_eq!(
            CpuConfig {
                fast_paths: true,
                ..naive
            },
            CpuConfig::default()
        );
    }

    #[test]
    fn ablation_flips_overlap_only() {
        let a = CpuConfig::with_decode_overlap();
        assert!(a.decode_overlap);
        assert_eq!(
            a.tb_miss_head_cycles,
            CpuConfig::default().tb_miss_head_cycles
        );
    }
}
