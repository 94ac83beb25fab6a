//! Robust summaries, and the span recorder the traced run uses.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolating between the closest
/// ranks (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The smallest of `values` (0 for none).
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host time the benchmark spent inside each layer's public functions.
///
/// A span is named `<layer>.<call>` and holds one duration per call;
/// counts (instructions, lookups, ...) ride beside the spans so per-unit
/// costs are computed where the work happened. A disabled recorder keeps
/// nothing: an untraced round pays one branch per call.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    secs: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Start or stop keeping spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64());
        out
    }

    /// Add one call of `secs` seconds to the span `name`.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        if self.enabled {
            self.secs.entry(name).or_default().push(secs);
        }
    }

    /// Add `n` to the count `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Seconds per call of the span `name`.
    pub fn calls(&self, name: &str) -> &[f64] {
        self.secs.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total seconds in the span `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.calls(name).iter().sum()
    }

    /// The count `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Add every span call and count of `other` to this recorder.
    pub fn merge(&mut self, other: Spans) {
        for (name, calls) in other.secs {
            self.secs.entry(name).or_default().extend(calls);
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ignore_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(least(&v), 1.0);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing_and_merge_adds() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("cpu.warmup", || 7), 7);
        off.add("cpu.instructions", 3);
        assert!(off.calls("cpu.warmup").is_empty());
        assert_eq!(off.count("cpu.instructions"), 0);

        let mut on = Spans::new(true);
        on.record("serve.wire", 0.5);
        on.add("cpu.instructions", 2);
        let mut other = Spans::new(true);
        other.record("serve.wire", 0.25);
        other.record("core.experiment", 2.0);
        other.add("cpu.instructions", 3);
        on.merge(other);
        assert_eq!(on.total("serve.wire"), 0.75);
        assert_eq!(on.calls("core.experiment"), &[2.0]);
        assert_eq!(on.count("cpu.instructions"), 5);
    }
}
