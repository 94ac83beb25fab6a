//! Core histogram digestion.

use upc_monitor::Histogram;
use vax_arch::{BranchClass, Opcode, OpcodeGroup, SpecModeClass};
use vax_mem::HwCounters;
use vax_ucode::{ControlStore, EventTag, MemOp, Row, SpecPosition};

/// The six columns of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Autonomous EBOX operation.
    Compute,
    /// D-stream read microinstructions.
    Read,
    /// Read-stall cycles.
    RStall,
    /// D-stream write microinstructions.
    Write,
    /// Write-stall cycles.
    WStall,
    /// IB-stall cycles.
    IbStall,
}

impl Column {
    /// All columns, Table 8 order.
    pub const ALL: [Column; 6] = [
        Column::Compute,
        Column::Read,
        Column::RStall,
        Column::Write,
        Column::WStall,
        Column::IbStall,
    ];

    /// Column header as printed.
    pub const fn name(self) -> &'static str {
        match self {
            Column::Compute => "Compute",
            Column::Read => "Read",
            Column::RStall => "R-Stall",
            Column::Write => "Write",
            Column::WStall => "W-Stall",
            Column::IbStall => "IB-Stall",
        }
    }

    /// Stable index 0–5.
    pub const fn index(self) -> usize {
        match self {
            Column::Compute => 0,
            Column::Read => 1,
            Column::RStall => 2,
            Column::Write => 3,
            Column::WStall => 4,
            Column::IbStall => 5,
        }
    }
}

/// Everything derived from (histogram, listing, hardware counters).
///
/// All `per_instruction` quantities divide by the instruction count, which
/// is the sum of execute-routine entry counts — one per instruction, the
/// way the paper counts through the microcode.
#[derive(Debug, Clone)]
pub struct Analysis {
    instructions: u64,
    /// Raw cycles per (row, column).
    row_col: [[u64; 6]; Row::COUNT],
    /// Execute-entry counts per opcode byte.
    opcode_counts: [u64; 256],
    /// Per Table 1 group.
    group_counts: [u64; 7],
    /// Taken-branch redirect counts per Table 2 class.
    branch_taken: [u64; 9],
    /// Specifier-entry counts per (position, mode class).
    spec_counts: [[u64; 10]; 2],
    /// Index-prefix counts per position.
    spec_index: [u64; 2],
    /// Branch-displacement processing count.
    bdisp_count: u64,
    /// TB-miss routine entries.
    tb_miss_entries: u64,
    /// Total cycles in the TB-miss routine (issue + stall).
    tb_miss_cycles: u64,
    /// Read-stall cycles within the TB-miss routine.
    tb_miss_read_stall: u64,
    /// Interrupt service entries.
    interrupt_entries: u64,
    /// Exception service entries.
    exception_entries: u64,
    /// Software-interrupt request events.
    soft_int_requests: u64,
    /// Machine-check (injected fault) entries.
    machine_check_entries: u64,
    /// Read/write microinstruction counts per Table 8 row.
    reads_by_row: [u64; Row::COUNT],
    writes_by_row: [u64; Row::COUNT],
    /// The hardware counters (second instrument).
    counters: HwCounters,
    total_cycles: u64,
}

impl Analysis {
    /// Digest a measurement.
    pub fn new(hist: &Histogram, cs: &ControlStore, counters: &HwCounters) -> Analysis {
        let mut a = Analysis {
            instructions: 0,
            row_col: [[0; 6]; Row::COUNT],
            opcode_counts: [0; 256],
            group_counts: [0; 7],
            branch_taken: [0; 9],
            spec_counts: [[0; 10]; 2],
            spec_index: [0; 2],
            bdisp_count: 0,
            tb_miss_entries: 0,
            tb_miss_cycles: 0,
            tb_miss_read_stall: 0,
            interrupt_entries: 0,
            exception_entries: 0,
            soft_int_requests: 0,
            machine_check_entries: 0,
            reads_by_row: [0; Row::COUNT],
            writes_by_row: [0; Row::COUNT],
            counters: *counters,
            total_cycles: hist.total_cycles(),
        };
        let tb_addrs = [
            cs.tb_miss_entry(),
            cs.tb_miss_body(),
            cs.tb_miss_pte_read(),
            cs.tb_miss_sys_read(),
            cs.tb_miss_insert(),
        ];
        for (addr, class) in cs.iter() {
            let issues = hist.issue(addr);
            let stalls = hist.stall(addr);
            if issues == 0 && stalls == 0 {
                continue;
            }
            let row = class.row.index();
            // Column classification: exactly the paper's rules (§4.3).
            match class.op {
                MemOp::Compute => {
                    if matches!(class.tag, EventTag::IbStall(_)) {
                        a.row_col[row][Column::IbStall.index()] += issues;
                    } else {
                        a.row_col[row][Column::Compute.index()] += issues;
                    }
                }
                MemOp::Read => {
                    a.row_col[row][Column::Read.index()] += issues;
                    a.row_col[row][Column::RStall.index()] += stalls;
                    a.reads_by_row[row] += issues;
                }
                MemOp::Write => {
                    a.row_col[row][Column::Write.index()] += issues;
                    a.row_col[row][Column::WStall.index()] += stalls;
                    a.writes_by_row[row] += issues;
                }
            }
            // Event tags.
            match class.tag {
                EventTag::ExecEntry(op) => {
                    a.opcode_counts[op.to_byte() as usize] += issues;
                    a.group_counts[op.group().index()] += issues;
                    a.instructions += issues;
                }
                EventTag::BranchTaken(class) => a.branch_taken[class.index()] += issues,
                EventTag::SpecEntry(pos, mode) => {
                    a.spec_counts[pos.index()][mode.index()] += issues;
                }
                EventTag::SpecIndex(pos) => a.spec_index[pos.index()] += issues,
                EventTag::BranchDispatch => a.bdisp_count += issues,
                EventTag::TbMissEntry => a.tb_miss_entries += issues,
                EventTag::InterruptEntry => a.interrupt_entries += issues,
                EventTag::ExceptionEntry => a.exception_entries += issues,
                EventTag::SoftIntRequest => a.soft_int_requests += issues,
                EventTag::MachineCheckEntry => a.machine_check_entries += issues,
                _ => {}
            }
            if tb_addrs.contains(&addr) {
                a.tb_miss_cycles += issues + stalls;
                if class.op == MemOp::Read {
                    a.tb_miss_read_stall += stalls;
                }
            }
        }
        a
    }

    /// Instructions executed while measuring (execute-entry sum).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Replace the instruction count used for per-instruction
    /// normalization (CPI, frequencies). The histogram-derived count is
    /// the paper's definition; this override exists for re-analyses of
    /// saved histograms where the caller knows the true retired count
    /// (`vax780 report --instructions-hint`).
    pub fn with_instructions(mut self, n: u64) -> Analysis {
        self.instructions = n;
        self
    }

    /// Total classified cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Cycles per average instruction — the headline number.
    pub fn cpi(&self) -> f64 {
        self.per_instr(self.total_cycles)
    }

    /// Cycles/instruction in one Table 8 cell.
    pub fn cell(&self, row: Row, col: Column) -> f64 {
        self.per_instr(self.row_col[row.index()][col.index()])
    }

    /// Row total, cycles/instruction.
    pub fn row_total(&self, row: Row) -> f64 {
        self.per_instr(self.row_col[row.index()].iter().sum())
    }

    /// Column total, cycles/instruction.
    pub fn col_total(&self, col: Column) -> f64 {
        let sum: u64 = self.row_col.iter().map(|r| r[col.index()]).sum();
        self.per_instr(sum)
    }

    /// Dynamic count of one opcode.
    pub fn opcode_count(&self, op: Opcode) -> u64 {
        self.opcode_counts[op.to_byte() as usize]
    }

    /// Dynamic count of a Table 1 group.
    pub fn group_count(&self, group: OpcodeGroup) -> u64 {
        self.group_counts[group.index()]
    }

    /// Dynamic frequency (fraction) of a Table 1 group.
    pub fn group_frequency(&self, group: OpcodeGroup) -> f64 {
        self.per_instr(self.group_counts[group.index()])
    }

    /// Dynamic count of a Table 2 class (sum of its opcodes).
    pub fn branch_class_count(&self, class: BranchClass) -> u64 {
        Opcode::ALL
            .iter()
            .filter(|o| o.branch_class() == Some(class))
            .map(|&o| self.opcode_count(o))
            .sum()
    }

    /// Taken count of a Table 2 class.
    pub fn branch_taken_count(&self, class: BranchClass) -> u64 {
        self.branch_taken[class.index()]
    }

    /// Specifier count per (position, mode class).
    pub fn spec_count(&self, pos: SpecPosition, class: SpecModeClass) -> u64 {
        self.spec_counts[pos.index()][class.index()]
    }

    /// All specifiers at a position.
    pub fn spec_total(&self, pos: SpecPosition) -> u64 {
        self.spec_counts[pos.index()].iter().sum()
    }

    /// Indexed-specifier count at a position.
    pub fn spec_indexed(&self, pos: SpecPosition) -> u64 {
        self.spec_index[pos.index()]
    }

    /// Branch displacements per instruction stream: every executed
    /// instance of a displacement-branch opcode carries one (the B-Disp
    /// *cycle* is spent only when taken, §5, so this is derived from
    /// opcode frequencies, not from the B-Disp routine count).
    pub fn bdisp_count(&self) -> u64 {
        Opcode::ALL
            .iter()
            .filter(|o| o.branch_displacement().is_some())
            .map(|&o| self.opcode_count(o))
            .sum()
    }

    /// TB-miss service entries.
    pub fn tb_miss_entries(&self) -> u64 {
        self.tb_miss_entries
    }

    /// Average cycles per TB-miss service (paper: 21.6).
    pub fn tb_miss_service_cycles(&self) -> f64 {
        if self.tb_miss_entries == 0 {
            0.0
        } else {
            self.tb_miss_cycles as f64 / self.tb_miss_entries as f64
        }
    }

    /// Average read-stall cycles per TB miss (paper: 3.5).
    pub fn tb_miss_read_stall_cycles(&self) -> f64 {
        if self.tb_miss_entries == 0 {
            0.0
        } else {
            self.tb_miss_read_stall as f64 / self.tb_miss_entries as f64
        }
    }

    /// Interrupt service entries.
    pub fn interrupt_entries(&self) -> u64 {
        self.interrupt_entries
    }

    /// Exception service entries.
    pub fn exception_entries(&self) -> u64 {
        self.exception_entries
    }

    /// Software-interrupt requests posted.
    pub fn soft_int_requests(&self) -> u64 {
        self.soft_int_requests
    }

    /// Machine-check entries (injected faults taken).
    pub fn machine_check_entries(&self) -> u64 {
        self.machine_check_entries
    }

    /// Total cycles attributed to the fault-handling control-store
    /// region (recovery microcode), all columns.
    pub fn fault_handling_cycles(&self) -> u64 {
        self.row_col[Row::FaultHandling.index()].iter().sum()
    }

    /// D-stream read microinstructions in a row, per instruction.
    pub fn reads_per_instr(&self, row: Row) -> f64 {
        self.per_instr(self.reads_by_row[row.index()])
    }

    /// D-stream write microinstructions in a row, per instruction.
    pub fn writes_per_instr(&self, row: Row) -> f64 {
        self.per_instr(self.writes_by_row[row.index()])
    }

    /// Total reads per instruction.
    pub fn total_reads_per_instr(&self) -> f64 {
        self.per_instr(self.reads_by_row.iter().sum())
    }

    /// Total writes per instruction.
    pub fn total_writes_per_instr(&self) -> f64 {
        self.per_instr(self.writes_by_row.iter().sum())
    }

    /// The second instrument's counters.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Normalize a count by instructions.
    pub fn per_instr(&self, count: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            count as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upc_monitor::Histogram;

    fn toy() -> (Histogram, ControlStore, HwCounters) {
        let cs = ControlStore::build();
        let mut h = Histogram::new();
        // Two MOVL instructions: decode, spec (reg + reg), exec.
        for _ in 0..2 {
            h.bump_issue(cs.ird1());
            h.bump_issue(cs.spec_entry(SpecPosition::First, SpecModeClass::Register));
            h.bump_issue(cs.spec_entry(SpecPosition::Rest, SpecModeClass::Register));
            h.bump_issue(cs.exec_entry(Opcode::Movl));
        }
        // One of them had a memory destination with a 3-cycle write stall.
        h.bump_issue(cs.spec_write(SpecPosition::Rest, SpecModeClass::Displacement));
        h.bump_stall(
            cs.spec_write(SpecPosition::Rest, SpecModeClass::Displacement),
            3,
        );
        (h, cs, HwCounters::new())
    }

    #[test]
    fn digests_instruction_and_spec_counts() {
        let (h, cs, c) = toy();
        let a = Analysis::new(&h, &cs, &c);
        assert_eq!(a.instructions(), 2);
        assert_eq!(a.opcode_count(Opcode::Movl), 2);
        assert_eq!(a.group_count(OpcodeGroup::Simple), 2);
        assert_eq!(
            a.spec_count(SpecPosition::First, SpecModeClass::Register),
            2
        );
        assert_eq!(a.spec_total(SpecPosition::Rest), 2);
    }

    #[test]
    fn classifies_write_stall_into_spec_row() {
        let (h, cs, c) = toy();
        let a = Analysis::new(&h, &cs, &c);
        assert_eq!(a.cell(Row::Spec2to6, Column::Write), 0.5);
        assert_eq!(a.cell(Row::Spec2to6, Column::WStall), 1.5);
        assert_eq!(a.writes_per_instr(Row::Spec2to6), 0.5);
    }

    #[test]
    fn cpi_accounts_all_cycles() {
        let (h, cs, c) = toy();
        let a = Analysis::new(&h, &cs, &c);
        // 2 decode + 4 spec entries + 2 exec + 1 write + 3 stall = 12.
        assert_eq!(a.total_cycles(), 12);
        assert_eq!(a.cpi(), 6.0);
        // Row and column totals agree with the grand total.
        let row_sum: f64 = Row::ALL.iter().map(|&r| a.row_total(r)).sum();
        let col_sum: f64 = Column::ALL.iter().map(|&c| a.col_total(c)).sum();
        assert!((row_sum - a.cpi()).abs() < 1e-9);
        assert!((col_sum - a.cpi()).abs() < 1e-9);
    }
}
