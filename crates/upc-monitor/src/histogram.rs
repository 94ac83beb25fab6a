//! Raw histogram data: the board's counters, read out.

use vax_ucode::MicroAddr;

/// A snapshot of both count planes.
///
/// This is the *entire* input the µPC analysis gets from the instrument —
/// interpretation requires the microcode listing (`vax_ucode::ControlStore`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    issue: Vec<u64>,
    stall: Vec<u64>,
}

impl Histogram {
    /// An all-zero histogram covering the full control store.
    pub fn new() -> Histogram {
        Histogram {
            issue: vec![0; MicroAddr::SPACE],
            stall: vec![0; MicroAddr::SPACE],
        }
    }

    /// Non-stalled execution count at `addr`.
    #[inline]
    pub fn issue(&self, addr: MicroAddr) -> u64 {
        self.issue[addr.index()]
    }

    /// Stall-cycle count at `addr`.
    #[inline]
    pub fn stall(&self, addr: MicroAddr) -> u64 {
        self.stall[addr.index()]
    }

    /// Add one issue at `addr`.
    #[inline]
    pub fn bump_issue(&mut self, addr: MicroAddr) {
        self.issue[addr.index()] += 1;
    }

    /// Add `cycles` stall cycles at `addr`.
    #[inline]
    pub fn bump_stall(&mut self, addr: MicroAddr, cycles: u32) {
        self.stall[addr.index()] += u64::from(cycles);
    }

    /// Add `n` issues at `addr` (bulk form, used by deserialization).
    #[inline]
    pub fn add_issue(&mut self, addr: MicroAddr, n: u64) {
        self.issue[addr.index()] += n;
    }

    /// Add `n` stall cycles at `addr` (bulk form).
    #[inline]
    pub fn add_stall(&mut self, addr: MicroAddr, n: u64) {
        self.stall[addr.index()] += n;
    }

    /// Sum both planes: every processor cycle lands in exactly one bucket
    /// of one plane, so this is total machine cycles while collecting.
    pub fn total_cycles(&self) -> u64 {
        self.issue.iter().sum::<u64>() + self.stall.iter().sum::<u64>()
    }

    /// Total non-stalled microinstructions.
    pub fn total_issues(&self) -> u64 {
        self.issue.iter().sum()
    }

    /// Total stall cycles.
    pub fn total_stalls(&self) -> u64 {
        self.stall.iter().sum()
    }

    /// Add another histogram into this one — the paper's "composite of all
    /// five \[workloads\], that is, the sum of the five µPC histograms" (§2.2).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.issue.iter_mut().zip(&other.issue) {
            *a += b;
        }
        for (a, b) in self.stall.iter_mut().zip(&other.stall) {
            *a += b;
        }
    }

    /// Zero both planes.
    pub fn clear(&mut self) {
        self.issue.fill(0);
        self.stall.fill(0);
    }

    /// Iterate over non-zero buckets: (address, issues, stalls).
    pub fn nonzero(&self) -> impl Iterator<Item = (MicroAddr, u64, u64)> + '_ {
        (0..MicroAddr::SPACE).filter_map(move |i| {
            let (iss, st) = (self.issue[i], self.stall[i]);
            (iss != 0 || st != 0).then(|| (MicroAddr::new(i as u16), iss, st))
        })
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut h = Histogram::new();
        let a = MicroAddr::new(100);
        h.bump_issue(a);
        h.bump_issue(a);
        h.bump_stall(a, 5);
        assert_eq!(h.issue(a), 2);
        assert_eq!(h.stall(a), 5);
        assert_eq!(h.total_cycles(), 7);
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.bump_issue(MicroAddr::new(1));
        b.bump_issue(MicroAddr::new(1));
        b.bump_stall(MicroAddr::new(2), 3);
        a.merge(&b);
        assert_eq!(a.issue(MicroAddr::new(1)), 2);
        assert_eq!(a.stall(MicroAddr::new(2)), 3);
        assert_eq!(a.total_cycles(), 5);
    }

    #[test]
    fn nonzero_iterates_only_touched_buckets() {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(10));
        h.bump_stall(MicroAddr::new(20), 2);
        let v: Vec<_> = h.nonzero().collect();
        assert_eq!(
            v,
            vec![(MicroAddr::new(10), 1, 0), (MicroAddr::new(20), 0, 2)]
        );
    }

    #[test]
    fn clear_zeroes() {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(3));
        h.clear();
        assert_eq!(h.total_cycles(), 0);
    }
}
