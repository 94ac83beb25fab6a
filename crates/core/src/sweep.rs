//! Configuration sweep engine: the §6 what-if analyses, re-simulated.
//!
//! The paper asks "what if the cache were bigger / the TB unified / the
//! write buffer deeper / decode overlapped?" and answers by arithmetic
//! on Table 8. Here we answer by *measurement*: a [`SweepGrid`] fans a
//! set of [`CpuConfig`]/[`MemConfig`] ablations into [`SweepPoint`]s, a
//! [`Sweep`] runs each point's workload composite across a bounded
//! worker pool (every point owns its machines, seeds, and sinks — the
//! fan-out is embarrassingly parallel), and the results reduce to
//! [`vax_analysis::sweep::SweepRow`]s for the table/CSV/JSONL reports.
//!
//! Determinism: points are generated in a fixed order, every experiment
//! is seeded, and results land in per-point slots — repeated runs of the
//! same grid produce identical rows (host wall-time fields aside).

use crate::study::{default_workers, run_jobs, CampaignMetrics, HasSimWork};
use crate::{CompositeStudy, MeasuredWorkload};
use std::time::Instant;
use vax_analysis::sweep::SweepRow;
use vax_analysis::Analysis;
use vax_cpu::CpuConfig;
use vax_mem::{HwCounters, MemConfig};
use vax_workloads::WorkloadKind;

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

/// The sweep runner: a grid, the workloads to measure at each point, and
/// the worker budget.
#[derive(Debug, Clone)]
pub struct Sweep {
    grid: SweepGrid,
    kinds: Vec<WorkloadKind>,
    instructions_each: u64,
    warmup_each: u64,
    workers: Option<usize>,
}

impl Sweep {
    /// Sweep the grid measuring all five workloads per point.
    pub fn new(grid: SweepGrid, instructions_each: u64) -> Sweep {
        Sweep {
            grid,
            kinds: WorkloadKind::ALL.to_vec(),
            instructions_each,
            warmup_each: 30_000,
            workers: None,
        }
    }

    /// Restrict the per-point composite to a subset of workloads.
    pub fn with_kinds(mut self, kinds: &[WorkloadKind]) -> Sweep {
        self.kinds = kinds.to_vec();
        self
    }

    /// Set the per-workload warmup at each point.
    pub fn warmup(mut self, n: u64) -> Sweep {
        self.warmup_each = n;
        self
    }

    /// Cap the worker pool (default: one worker per host core, at most
    /// one per point). `1` forces the serial path.
    pub fn max_workers(mut self, n: usize) -> Sweep {
        self.workers = Some(n.max(1));
        self
    }

    /// Run every point and reduce. Points fan across the worker pool;
    /// within a point the workloads run serially (the grid, not the
    /// composite, is the parallel axis — sweeps have far more points
    /// than a composite has workloads).
    pub fn run(&self) -> SweepOutcome {
        let n = self.grid.len();
        let workers = self
            .workers
            .unwrap_or_else(|| default_workers(n))
            .clamp(1, n.max(1));
        let started = Instant::now();
        let (points, worker_metrics) = run_jobs(
            workers,
            n,
            |i| self.grid.points[i].label.clone(),
            |i| self.run_point(&self.grid.points[i]),
        );
        let metrics = CampaignMetrics {
            workers: worker_metrics,
            wall: started.elapsed(),
        };
        let rows = points
            .iter()
            .map(|p| {
                SweepRow::from_analysis(
                    p.point.label.clone(),
                    p.point.axis,
                    &p.analysis,
                    p.wall,
                    p.sim_instructions,
                )
            })
            .collect();
        SweepOutcome {
            rows,
            points,
            metrics,
        }
    }

    fn run_point(&self, point: &SweepPoint) -> PointResult {
        let started = Instant::now();
        let (results, analysis) = CompositeStudy::new(self.instructions_each)
            .warmup(self.warmup_each)
            .with_kinds(&self.kinds)
            .cpu_config(point.cpu)
            .mem_config(point.mem)
            .max_workers(1)
            .run_serial();
        // Simulated work includes warmup: the host paid for it.
        let sim_instructions: u64 = results
            .iter()
            .map(|r| r.instructions + self.warmup_each)
            .sum();
        PointResult {
            point: point.clone(),
            sim_cycles: results.iter().map(|r| r.cycles).sum(),
            sim_instructions,
            analysis,
            results,
            wall: started.elapsed(),
        }
    }
}

/// One measured sweep point: the composite analysis plus the raw
/// per-workload measurements.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The configuration measured.
    pub point: SweepPoint,
    /// Composite analysis at this point.
    pub analysis: Analysis,
    /// Per-workload measurements (workload order).
    pub results: Vec<MeasuredWorkload>,
    /// Simulated cycles across the point's workloads (measured phase).
    pub sim_cycles: u64,
    /// Simulated instructions including warmup (self-metrics).
    pub sim_instructions: u64,
    /// Host wall time spent on this point.
    pub wall: std::time::Duration,
}

impl HasSimWork for PointResult {
    fn sim_work(&self) -> (u64, u64) {
        (self.sim_cycles, self.sim_instructions)
    }
}

/// Everything a sweep produces.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Reduced rows, grid order, baseline first.
    pub rows: Vec<SweepRow>,
    /// Full per-point results, grid order.
    pub points: Vec<PointResult>,
    /// Host-side self-metrics: per-worker phases, wall, speedup.
    pub metrics: CampaignMetrics,
}

impl SweepOutcome {
    /// The merged hardware counters of one point (diagnostics).
    pub fn counters(&self, index: usize) -> HwCounters {
        let mut c = HwCounters::new();
        for r in &self.points[index].results {
            c.merge(&r.counters);
        }
        c
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

    #[test]
    fn small_sweep_runs_and_orders_rows() {
        let grid = SweepGrid::with_axes(&[SweepAxis::DecodeOverlap]);
        let outcome = Sweep::new(grid, 4_000)
            .warmup(1_500)
            .with_kinds(&[WorkloadKind::TimesharingLight])
            .max_workers(2)
            .run();
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[0].label, "baseline");
        assert_eq!(outcome.rows[1].label, "decode-overlap");
        assert!(outcome.rows[0].cpi > 2.0);
        // Decode overlap saves the non-overlapped decode cycle.
        assert!(outcome.rows[1].cpi < outcome.rows[0].cpi);
        assert!(outcome.metrics.wall.as_nanos() > 0);
    }
}
