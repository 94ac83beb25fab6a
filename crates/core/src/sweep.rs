//! Configuration sweep grid: the §6 what-if analyses, re-simulated.
//!
//! The paper asks "what if the cache were bigger / the TB unified / the
//! write buffer deeper / decode overlapped?" and answers by arithmetic
//! on Table 8. Here we answer by *measurement*: a [`SweepGrid`] fans a
//! set of [`CpuConfig`]/[`MemConfig`] ablations into [`SweepPoint`]s.
//! The campaign engine in `vax-serve` measures each point's workload
//! composite as one job per workload and reduces every point to a
//! [`SweepRow`] for the table/CSV/JSONL reports.
//!
//! Determinism: points are generated in a fixed order and every
//! experiment is seeded, so repeated sweeps of the same grid produce
//! identical rows (host wall-time fields aside).

use vax_cpu::CpuConfig;
use vax_mem::MemConfig;

/// The reduced row of one measured point (re-exported from
/// `vax-analysis`, so an engine that runs a sweep can build rows
/// without depending on the analysis crate).
pub use vax_analysis::sweep::SweepRow;

/// One ablation axis of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Data-cache total size (11/780: 8 KB).
    CacheSize,
    /// Data-cache associativity (11/780: 2-way).
    CacheWays,
    /// Translation-buffer entries (11/780: 128).
    TbEntries,
    /// Unified vs split TB (11/780: split system/process halves).
    TbSplit,
    /// Write-buffer depth (11/780: 1 entry).
    WriteBuffer,
    /// 11/750-style decode overlap (11/780: off).
    DecodeOverlap,
}

impl SweepAxis {
    /// Every axis, grid order.
    pub const ALL: [SweepAxis; 6] = [
        SweepAxis::CacheSize,
        SweepAxis::CacheWays,
        SweepAxis::TbEntries,
        SweepAxis::TbSplit,
        SweepAxis::WriteBuffer,
        SweepAxis::DecodeOverlap,
    ];

    /// CLI name of the axis.
    pub const fn name(self) -> &'static str {
        match self {
            SweepAxis::CacheSize => "cache-size",
            SweepAxis::CacheWays => "cache-ways",
            SweepAxis::TbEntries => "tb-entries",
            SweepAxis::TbSplit => "tb-split",
            SweepAxis::WriteBuffer => "write-buffer",
            SweepAxis::DecodeOverlap => "decode-overlap",
        }
    }

    /// Parse a CLI axis name.
    pub fn parse(s: &str) -> Option<SweepAxis> {
        SweepAxis::ALL.into_iter().find(|a| a.name() == s)
    }

    /// The ablated points this axis contributes (baseline excluded).
    fn points(self) -> Vec<SweepPoint> {
        let base_cpu = CpuConfig::default();
        let base_mem = MemConfig::default();
        let mut out = Vec::new();
        match self {
            SweepAxis::CacheSize => {
                for kb in [2u32, 4, 16, 32] {
                    let mut mem = base_mem;
                    mem.cache.size_bytes = kb * 1024;
                    out.push(SweepPoint::new(
                        format!("cache-size={kb}KB"),
                        self,
                        base_cpu,
                        mem,
                    ));
                }
            }
            SweepAxis::CacheWays => {
                for ways in [1u32, 4] {
                    let mut mem = base_mem;
                    mem.cache.ways = ways;
                    out.push(SweepPoint::new(
                        format!("cache-ways={ways}"),
                        self,
                        base_cpu,
                        mem,
                    ));
                }
            }
            SweepAxis::TbEntries => {
                for entries in [64u32, 256] {
                    let mut mem = base_mem;
                    mem.tb.entries = entries;
                    out.push(SweepPoint::new(
                        format!("tb-entries={entries}"),
                        self,
                        base_cpu,
                        mem,
                    ));
                }
            }
            SweepAxis::TbSplit => {
                let mut mem = base_mem;
                mem.tb.split = false;
                out.push(SweepPoint::new(
                    "tb-unified".to_string(),
                    self,
                    base_cpu,
                    mem,
                ));
            }
            SweepAxis::WriteBuffer => {
                for depth in [2u32, 4, 8] {
                    let mut mem = base_mem;
                    mem.write_buffer_entries = depth;
                    out.push(SweepPoint::new(
                        format!("write-buffer={depth}"),
                        self,
                        base_cpu,
                        mem,
                    ));
                }
            }
            SweepAxis::DecodeOverlap => {
                out.push(SweepPoint::new(
                    "decode-overlap".to_string(),
                    self,
                    CpuConfig::with_decode_overlap(),
                    base_mem,
                ));
            }
        }
        out
    }
}

/// One configuration to measure.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human/machine label, e.g. `cache-size=4KB`.
    pub label: String,
    /// Axis name (`baseline` for the reference point).
    pub axis: &'static str,
    /// CPU configuration for this point.
    pub cpu: CpuConfig,
    /// Memory configuration for this point.
    pub mem: MemConfig,
}

impl SweepPoint {
    fn new(label: String, axis: SweepAxis, cpu: CpuConfig, mem: MemConfig) -> SweepPoint {
        SweepPoint {
            label,
            axis: axis.name(),
            cpu,
            mem,
        }
    }

    /// The unmodified 11/780.
    pub fn baseline() -> SweepPoint {
        SweepPoint {
            label: "baseline".to_string(),
            axis: "baseline",
            cpu: CpuConfig::default(),
            mem: MemConfig::default(),
        }
    }
}

/// A grid of sweep points: the baseline plus one-factor-at-a-time
/// ablations along the selected axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    points: Vec<SweepPoint>,
}

impl SweepGrid {
    /// The full grid: baseline + every axis.
    pub fn all() -> SweepGrid {
        SweepGrid::with_axes(&SweepAxis::ALL)
    }

    /// Baseline + the given axes, in the given order.
    pub fn with_axes(axes: &[SweepAxis]) -> SweepGrid {
        let mut points = vec![SweepPoint::baseline()];
        for axis in axes {
            points.extend(axis.points());
        }
        SweepGrid { points }
    }

    /// The points, baseline first.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Number of points (baseline included).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A grid is never empty (the baseline is always present).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_baseline_plus_axes() {
        let g = SweepGrid::all();
        assert_eq!(g.points()[0].axis, "baseline");
        // 1 + 4 cache sizes + 2 ways + 2 tb sizes + 1 unified + 3 wb + 1 overlap
        assert_eq!(g.len(), 14);
        let g2 = SweepGrid::with_axes(&[SweepAxis::WriteBuffer]);
        assert_eq!(g2.len(), 4);
        assert!(g2.points()[1].label.starts_with("write-buffer="));
    }

    #[test]
    fn axis_names_round_trip() {
        for axis in SweepAxis::ALL {
            assert_eq!(SweepAxis::parse(axis.name()), Some(axis));
        }
        assert_eq!(SweepAxis::parse("nonesuch"), None);
    }

    #[test]
    fn every_grid_config_validates() {
        for p in SweepGrid::all().points() {
            p.mem.validate();
        }
    }
}
