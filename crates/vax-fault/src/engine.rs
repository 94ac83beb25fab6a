//! The fault engine: arms a plan, decides when a scheduled fault
//! becomes pending, and publishes the earliest cycle at which one can.

use crate::{FaultClass, FaultPlan, FaultTrigger};
use std::collections::VecDeque;

/// One fault the machine actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The injected class.
    pub class: FaultClass,
    /// Cycle at which the machine-check microcode was entered.
    pub at_cycle: u64,
}

/// Executes a [`FaultPlan`] deterministically. The memory subsystem
/// owns it and the CPU polls it at instruction boundaries; between
/// polls the CPU only reads [`FaultEngine::due`].
#[derive(Debug, Clone)]
pub struct FaultEngine {
    plan: FaultPlan,
    /// Unspent `@cycle` triggers while armed: (absolute cycle, class).
    at_cycle: Vec<(u64, FaultClass)>,
    /// Unspent `@upc` triggers while armed: (address, hits to go, class).
    at_upc: Vec<(u16, u32, FaultClass)>,
    pending: VecDeque<FaultClass>,
    fired: Vec<FiredFault>,
    due: u64,
}

impl FaultEngine {
    /// An engine that will execute `plan` once armed.
    pub fn new(plan: &FaultPlan) -> FaultEngine {
        FaultEngine {
            plan: plan.clone(),
            at_cycle: Vec::new(),
            at_upc: Vec::new(),
            pending: VecDeque::new(),
            fired: Vec::new(),
            due: u64::MAX,
        }
    }

    /// Start (or restart) the schedule: triggers are interpreted
    /// relative to `now` from here on. Called at the measurement
    /// boundary so `@cycle` offsets land inside the measured region.
    pub fn arm(&mut self, now: u64) {
        self.at_cycle.clear();
        self.at_upc.clear();
        for f in &self.plan.faults {
            match f.trigger {
                FaultTrigger::AtCycle(c) => self.at_cycle.push((now.saturating_add(c), f.class)),
                FaultTrigger::AtMicroPc { addr, hits } => self.at_upc.push((addr, hits, f.class)),
            }
        }
        self.pending.clear();
        self.fired.clear();
        self.refresh_due();
    }

    /// The earliest cycle at which [`FaultEngine::poll`] can return a
    /// fault: `u64::MAX` while unarmed or with nothing left to fire,
    /// `0` while a matured fault is pending, and otherwise the arm
    /// cycle plus the smallest unspent `@cycle` offset. A poll before
    /// this cycle is a no-op, so the CPU may skip it.
    #[inline]
    pub fn due(&self) -> u64 {
        self.due
    }

    /// Observe `n` consecutive issues from micro-address `upc` (drives
    /// `@upc` triggers; returns at once when none is live). A trigger
    /// whose hit count falls inside the batch matures, and the engine
    /// becomes due at once. Triggers maturing in one batch queue in the
    /// order `n` single issues would have queued them.
    #[inline]
    pub fn observe_issue(&mut self, upc: u16, n: u32) {
        if self.at_upc.is_empty() {
            return;
        }
        // (issue of the batch it matures on, class)
        let mut matured = Vec::new();
        self.at_upc.retain_mut(|(addr, to_go, class)| {
            if *addr != upc {
                true
            } else if n < *to_go {
                *to_go -= n;
                true
            } else {
                matured.push((*to_go, *class));
                false
            }
        });
        if !matured.is_empty() {
            // Stable: plan order within one issue.
            matured.sort_by_key(|&(nth, _)| nth);
            self.pending
                .extend(matured.into_iter().map(|(_, class)| class));
            self.due = 0;
        }
    }

    /// Has any trigger matured by cycle `now`? Returns at most one
    /// fault per call; the CPU polls at instruction boundaries, so a
    /// matured fault is latched here until the machine can take it.
    pub fn poll(&mut self, now: u64) -> Option<FaultClass> {
        if now < self.due {
            return None;
        }
        let pending = &mut self.pending;
        self.at_cycle.retain(|&(at, class)| {
            if at <= now {
                pending.push_back(class);
            }
            at > now
        });
        let fault = self.pending.pop_front();
        self.refresh_due();
        fault
    }

    /// The log of faults actually taken (class, cycle the CPU accepted
    /// it at). [`FaultEngine::record_taken`] appends to this.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// The CPU reports back the cycle at which it accepted a polled
    /// fault (the machine-check entry cycle).
    pub fn record_taken(&mut self, class: FaultClass, at_cycle: u64) {
        self.fired.push(FiredFault { class, at_cycle });
    }

    fn refresh_due(&mut self) {
        self.due = if self.pending.is_empty() {
            self.at_cycle
                .iter()
                .map(|&(at, _)| at)
                .min()
                .unwrap_or(u64::MAX)
        } else {
            0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upc(addr: u16, hits: u32) -> FaultTrigger {
        FaultTrigger::AtMicroPc { addr, hits }
    }

    #[test]
    fn cycle_triggers_mature_in_order() {
        let plan = FaultPlan::new()
            .with(FaultClass::CacheParity, FaultTrigger::AtCycle(100))
            .with(FaultClass::SbiTimeout, FaultTrigger::AtCycle(50));
        let mut e = FaultEngine::new(&plan);
        e.arm(1_000);
        assert_eq!(e.poll(1_010), None, "nothing matured yet");
        // Both matured by 1_200; plan order within a single poll batch.
        assert_eq!(e.poll(1_200), Some(FaultClass::CacheParity));
        assert_eq!(e.poll(1_200), Some(FaultClass::SbiTimeout));
        assert_eq!(e.poll(2_000), None, "each fault fires once");
    }

    #[test]
    fn upc_triggers_count_hits() {
        let plan = FaultPlan::new().with(
            FaultClass::TbCorrupt,
            FaultTrigger::AtMicroPc {
                addr: 0x42,
                hits: 3,
            },
        );
        let mut e = FaultEngine::new(&plan);
        e.arm(0);
        e.observe_issue(0x42, 1);
        e.observe_issue(0x41, 1);
        e.observe_issue(0x42, 1);
        assert_eq!(e.poll(10), None, "two hits of three");
        e.observe_issue(0x42, 1);
        assert_eq!(e.poll(11), Some(FaultClass::TbCorrupt));
    }

    #[test]
    fn unarmed_engine_is_inert_and_rearm_resets() {
        let plan = FaultPlan::new().with(FaultClass::CacheParity, FaultTrigger::AtCycle(0));
        let mut e = FaultEngine::new(&plan);
        assert_eq!(e.poll(u64::MAX), None, "not armed");
        e.observe_issue(0x0, 1);
        e.arm(500);
        assert_eq!(e.poll(500), Some(FaultClass::CacheParity));
        e.record_taken(FaultClass::CacheParity, 501);
        assert_eq!(e.fired().len(), 1);
        e.arm(600);
        assert_eq!(e.fired().len(), 0, "re-arming clears the log");
        assert_eq!(e.poll(600), Some(FaultClass::CacheParity), "schedule reset");
    }

    #[test]
    fn due_is_never_while_unarmed_empty_or_spent() {
        let plan = FaultPlan::new().with(FaultClass::CacheParity, FaultTrigger::AtCycle(10));
        let mut e = FaultEngine::new(&plan);
        assert_eq!(e.due(), u64::MAX, "unarmed");
        e.arm(100);
        assert_eq!(e.poll(110), Some(FaultClass::CacheParity));
        assert_eq!(e.due(), u64::MAX, "every fault has fired");

        let mut empty = FaultEngine::new(&FaultPlan::new());
        empty.arm(0);
        empty.arm(50);
        assert_eq!(empty.due(), u64::MAX, "re-armed empty plan");
    }

    #[test]
    fn due_is_arm_cycle_plus_smallest_unspent_offset() {
        let plan = FaultPlan::new()
            .with(FaultClass::CacheParity, FaultTrigger::AtCycle(300))
            .with(FaultClass::SbiTimeout, upc(7, 1))
            .with(FaultClass::TbCorrupt, FaultTrigger::AtCycle(200));
        let mut e = FaultEngine::new(&plan);
        e.arm(1_000);
        assert_eq!(e.due(), 1_200, "@upc triggers have no cycle");
        assert_eq!(e.poll(1_199), None, "a poll before due is a no-op");
        assert_eq!(e.due(), 1_200);
        assert_eq!(e.poll(1_200), Some(FaultClass::TbCorrupt));
        assert_eq!(e.due(), 1_300, "the next unspent offset");
        e.arm(5_000);
        assert_eq!(e.due(), 5_200, "re-arming restores every offset");
    }

    #[test]
    fn due_is_zero_from_upc_maturity_until_the_poll_that_returns_it() {
        let plan = FaultPlan::new()
            .with(FaultClass::TbCorrupt, upc(0x42, 2))
            .with(FaultClass::CacheParity, FaultTrigger::AtCycle(1_000));
        let mut e = FaultEngine::new(&plan);
        e.arm(0);
        e.observe_issue(0x42, 1);
        assert_eq!(e.due(), 1_000, "one hit of two");
        e.observe_issue(0x42, 1);
        assert_eq!(e.due(), 0, "matured: due at once");
        assert_eq!(e.poll(5), Some(FaultClass::TbCorrupt));
        assert_eq!(e.due(), 1_000, "back to the @cycle deadline");
    }

    #[test]
    fn a_batched_issue_run_matures_a_trigger_inside_it() {
        let plan = FaultPlan::new()
            .with(FaultClass::CacheParity, upc(0x42, 7))
            .with(FaultClass::SbiTimeout, upc(0x42, 5))
            .with(FaultClass::TbCorrupt, upc(0x42, 9));
        let mut e = FaultEngine::new(&plan);
        e.arm(0);
        e.observe_issue(0x42, 3);
        assert_eq!(e.due(), u64::MAX, "hits 3 of 5, 7 and 9");
        e.observe_issue(0x42, 5);
        assert_eq!(e.due(), 0, "the 5th and 7th hits fall inside the batch");
        // Queued in issue order, as eight single issues would have.
        assert_eq!(e.poll(1), Some(FaultClass::SbiTimeout));
        assert_eq!(e.poll(1), Some(FaultClass::CacheParity));
        assert_eq!(e.poll(1), None);
        e.observe_issue(0x42, 1);
        assert_eq!(e.poll(2), Some(FaultClass::TbCorrupt), "the 9th hit");
    }
}
