//! Static decode and control-flow checks over a generated image.
//!
//! The image is decoded region by region (dispatcher, then each
//! function body past its 2-byte entry mask) with the total static
//! decoder, then checked against the generator's documented safety
//! invariants: decode totality, in-bounds branch targets, no
//! privileged opcodes, adjacent push/pop idioms, sized case tables,
//! reachability, and worst-case walker/bias/pointer-arena consumption.

use crate::diag::{Diagnostic, Report, Rule};
use crate::image::ImageModel;
use vax_arch::sdecode::{decode_range, LocatedInst};
use vax_arch::{AddrMode, BranchClass, Opcode, Reg};

/// One contiguous decoded code region of the image.
#[derive(Debug, Clone)]
pub struct Region {
    /// Display name (`dispatcher`, `fn3`, ...).
    pub name: String,
    /// Byte offset of the first instruction (entry masks excluded).
    pub start: usize,
    /// Byte offset one past the last instruction.
    pub end: usize,
    /// The instructions, in address order, tiling `[start, end)`.
    pub insts: Vec<LocatedInst>,
    /// Is this a function body (subject to arena-budget analysis)?
    pub is_function: bool,
}

/// A fully decoded image: every region, every instruction located.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    /// All regions in address order, dispatcher first.
    pub regions: Vec<Region>,
}

impl DecodedImage {
    /// Iterate over every located instruction in every region.
    pub fn insts(&self) -> impl Iterator<Item = &LocatedInst> {
        self.regions.iter().flat_map(|r| r.insts.iter())
    }
}

/// The generator's register conventions (mirrors `codegen::regs`; the
/// lint recomputes budgets from the instruction stream alone).
mod regs {
    use vax_arch::Reg;
    pub const BIAS: Reg = Reg::R10;
    pub const WALK_UP: Reg = Reg::R6;
    pub const WALK_DOWN: Reg = Reg::R7;
    pub const PTR_WALKER: Reg = Reg::R8;
}

/// Opcodes that must never appear in a user-mode stream.
const PRIVILEGED: &[Opcode] = &[
    Opcode::Halt,
    Opcode::Rei,
    Opcode::Ldpctx,
    Opcode::Svpctx,
    Opcode::Mtpr,
    Opcode::Mfpr,
];

/// Decode the image into regions and run every image-family check.
///
/// Returns the decoded image (when total decode succeeded everywhere)
/// so downstream analyses (the static mix) can reuse it.
pub fn check_image(model: &ImageModel) -> (Option<DecodedImage>, Report) {
    let mut report = Report::new();
    let ctx = &model.name;

    // ----- region boundaries -------------------------------------------------
    let len = model.bytes.len();
    let entry_off = match rel_offset(model, model.entry) {
        Some(off) => off,
        None => {
            report.push(Diagnostic::error(
                Rule::ImageBranchTarget,
                ctx.clone(),
                format!("entry {:#x} lies outside the image", model.entry),
            ));
            return (None, report);
        }
    };
    let mut fn_offs = Vec::with_capacity(model.functions.len());
    for (i, &f) in model.functions.iter().enumerate() {
        match rel_offset(model, f) {
            // +2 skips the procedure entry mask word.
            Some(off) if off + 2 <= len => fn_offs.push(off),
            _ => {
                report.push(Diagnostic::error(
                    Rule::ImageBranchTarget,
                    ctx.clone(),
                    format!("function {i} entry {f:#x} lies outside the image"),
                ));
                return (None, report);
            }
        }
    }
    if fn_offs.windows(2).any(|w| w[0] >= w[1]) || fn_offs.first().is_some_and(|&f| f < entry_off) {
        report.push(Diagnostic::error(
            Rule::ImageBranchTarget,
            ctx.clone(),
            "function entries are not in ascending address order past the entry".to_string(),
        ));
        return (None, report);
    }

    let mut bounds = Vec::new();
    let first_end = fn_offs.first().copied().unwrap_or(len);
    bounds.push(("dispatcher".to_string(), entry_off, first_end, false));
    for (i, &off) in fn_offs.iter().enumerate() {
        let end = fn_offs.get(i + 1).copied().unwrap_or(len);
        bounds.push((format!("fn{i}"), off + 2, end, true));
    }

    // ----- totality decode ---------------------------------------------------
    let mut regions = Vec::new();
    let mut decode_ok = true;
    for (name, start, end, is_function) in bounds {
        match decode_range(&model.bytes, start, end) {
            Ok(insts) => regions.push(Region {
                name,
                start,
                end,
                insts,
                is_function,
            }),
            Err((decoded, bad_off, e)) => {
                decode_ok = false;
                let rule = if format!("{e}").contains("case limit") {
                    Rule::ImageCaseTable
                } else {
                    Rule::ImageDecode
                };
                report.push(
                    Diagnostic::error(
                        rule,
                        format!("{ctx}/{name}"),
                        format!("decode fails at byte {bad_off:#x}: {e}"),
                    )
                    .at(bad_off as u64),
                );
                regions.push(Region {
                    name,
                    start,
                    end: decoded.last().map_or(start, LocatedInst::end),
                    insts: decoded,
                    is_function,
                });
            }
        }
    }
    let image = DecodedImage { regions };

    // ----- per-instruction checks -------------------------------------------
    let starts: std::collections::BTreeSet<usize> = image.insts().map(|inst| inst.offset).collect();
    for region in &image.regions {
        check_privileged(ctx, region, &mut report);
        check_push_pop(ctx, region, &mut report);
        check_branch_targets(ctx, region, &starts, len, &mut report);
    }
    check_reachability(ctx, &image, entry_off, &fn_offs, &mut report);
    // Walker/bias/pointer budgets apply per region: the walkers are
    // re-based at every function entry, and the dispatcher (which never
    // touches them) vacuously passes.
    for region in &image.regions {
        check_budgets(ctx, region, model, &mut report);
    }

    (decode_ok.then_some(image), report)
}

fn rel_offset(model: &ImageModel, va: u32) -> Option<usize> {
    if va >= model.base && va < model.end() {
        Some((va - model.base) as usize)
    } else {
        None
    }
}

fn check_privileged(ctx: &str, region: &Region, report: &mut Report) {
    for inst in &region.insts {
        if PRIVILEGED.contains(&inst.inst.opcode) {
            report.push(
                Diagnostic::error(
                    Rule::ImagePrivileged,
                    format!("{ctx}/{}", region.name),
                    format!(
                        "privileged opcode {} in a user-mode stream",
                        inst.inst.opcode.mnemonic()
                    ),
                )
                .at(inst.offset as u64),
            );
        }
    }
}

/// Both stack idioms the generator claims are always balanced:
/// `PUSHR mask` immediately followed by `POPR` of the same mask, and
/// `PUSHL` immediately consumed by another push, a `CALLS`, or a
/// `MOVL (SP)+, dst` pop.
fn check_push_pop(ctx: &str, region: &Region, report: &mut Report) {
    for pair in region.insts.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        match a.inst.opcode {
            Opcode::Pushr => {
                let balanced = b.inst.opcode == Opcode::Popr
                    && a.inst.specs.first().map(|s| &s.mode)
                        == b.inst.specs.first().map(|s| &s.mode);
                if !balanced {
                    report.push(
                        Diagnostic::error(
                            Rule::ImagePushPop,
                            format!("{ctx}/{}", region.name),
                            format!(
                                "PUSHR is not followed by a POPR of the same mask (next is {})",
                                b.inst.opcode.mnemonic()
                            ),
                        )
                        .at(a.offset as u64),
                    );
                }
            }
            Opcode::Pushl => {
                let consumed = match b.inst.opcode {
                    Opcode::Pushl | Opcode::Calls => true,
                    Opcode::Movl => matches!(
                        b.inst.specs.first().map(|s| &s.mode),
                        Some(AddrMode::AutoIncrement(Reg::Sp))
                    ),
                    _ => false,
                };
                if !consumed {
                    report.push(
                        Diagnostic::error(
                            Rule::ImagePushPop,
                            format!("{ctx}/{}", region.name),
                            format!(
                                "PUSHL is not consumed by a push, CALLS, or (SP)+ pop (next is {})",
                                b.inst.opcode.mnemonic()
                            ),
                        )
                        .at(a.offset as u64),
                    );
                }
            }
            _ => {}
        }
    }
    if let Some(last) = region.insts.last() {
        if matches!(last.inst.opcode, Opcode::Pushr | Opcode::Pushl) {
            report.push(
                Diagnostic::error(
                    Rule::ImagePushPop,
                    format!("{ctx}/{}", region.name),
                    "region ends on an unbalanced push".to_string(),
                )
                .at(last.offset as u64),
            );
        }
    }
}

/// Every statically known transfer target — branch displacements and
/// case-table entries — must land on a decoded instruction boundary
/// inside the image.
fn check_branch_targets(
    ctx: &str,
    region: &Region,
    starts: &std::collections::BTreeSet<usize>,
    image_len: usize,
    report: &mut Report,
) {
    let mut bad = |off: usize, what: String, target: i64| {
        let landing = if target < 0 || target as usize >= image_len {
            "outside the image"
        } else {
            "inside another instruction"
        };
        report.push(
            Diagnostic::error(
                Rule::ImageBranchTarget,
                format!("{ctx}/{}", region.name),
                format!("{what} target {target:#x} lands {landing}"),
            )
            .at(off as u64),
        );
    };
    for inst in &region.insts {
        if let Some(disp) = inst.inst.branch_disp {
            let target = inst.offset as i64 + i64::from(inst.inst.len) + i64::from(disp);
            if target < 0 || !starts.contains(&(target as usize)) {
                bad(
                    inst.offset,
                    format!("{} branch", inst.inst.opcode.mnemonic()),
                    target,
                );
            }
        }
        if let Some(entries) = &inst.case_entries {
            let table_base = inst.offset as i64 + i64::from(inst.inst.len);
            for (i, &entry) in entries.iter().enumerate() {
                let target = table_base + i64::from(entry);
                if target < 0 || !starts.contains(&(target as usize)) {
                    bad(
                        inst.offset,
                        format!("{} case entry {i}", inst.inst.opcode.mnemonic()),
                        target,
                    );
                }
            }
        }
    }
}

/// Worklist reachability from the dispatcher entry and every function
/// entry. Code the walk never reaches is a generator bug worth seeing
/// (it distorts the static mix), but harmless to run — a warning.
fn check_reachability(
    ctx: &str,
    image: &DecodedImage,
    entry_off: usize,
    fn_offs: &[usize],
    report: &mut Report,
) {
    use std::collections::{BTreeMap, BTreeSet};
    let by_off: BTreeMap<usize, &LocatedInst> =
        image.insts().map(|inst| (inst.offset, inst)).collect();
    let mut work: Vec<usize> = Vec::new();
    work.push(entry_off);
    // Function entries are reached through the pointer table (CALLS),
    // which static analysis cannot follow; treat them as roots.
    work.extend(fn_offs.iter().map(|&f| f + 2));
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    while let Some(off) = work.pop() {
        if !seen.insert(off) {
            continue;
        }
        let Some(inst) = by_off.get(&off) else {
            continue;
        };
        let op = inst.inst.opcode;
        let fall_through = match op.branch_class() {
            // BRB/BRW share the simple-branch class but never fall
            // through; RET/RSB end the walk (callers are separate roots).
            Some(BranchClass::SimpleCond) => !matches!(op, Opcode::Brb | Opcode::Brw),
            Some(BranchClass::ProcedureCallRet) => op != Opcode::Ret,
            Some(BranchClass::SubroutineCallRet) => op != Opcode::Rsb,
            _ => true,
        };
        if fall_through {
            work.push(inst.end());
        }
        if let Some(disp) = inst.inst.branch_disp {
            let target = off as i64 + i64::from(inst.inst.len) + i64::from(disp);
            if target >= 0 {
                work.push(target as usize);
            }
        }
        if let Some(entries) = &inst.case_entries {
            let table_base = off as i64 + i64::from(inst.inst.len);
            for &entry in entries {
                let target = table_base + i64::from(entry);
                if target >= 0 {
                    work.push(target as usize);
                }
            }
        }
    }
    for region in &image.regions {
        let unreached: Vec<usize> = region
            .insts
            .iter()
            .map(|inst| inst.offset)
            .filter(|off| !seen.contains(off))
            .collect();
        if let Some(&first) = unreached.first() {
            report.push(
                Diagnostic::warning(
                    Rule::ImageUnreachable,
                    format!("{ctx}/{}", region.name),
                    format!(
                        "{} instruction(s) unreachable from any entry",
                        unreached.len()
                    ),
                )
                .at(first as u64),
            );
        }
    }
}

/// Recompute the generator's worst-case arena accounting from the
/// instruction stream: each walker-mode specifier consumes its operand
/// size once per iteration of every enclosing counted loop, and the
/// total must fit the arena the walker is re-based to at function
/// entry.
fn check_budgets(ctx: &str, region: &Region, model: &ImageModel, report: &mut Report) {
    let loops = counted_loops(region);
    let mut walker_use: u64 = 0;
    let mut bias_use: u64 = 0;
    let mut ptr_use: u64 = 0;
    for inst in &region.insts {
        let mult = loop_multiplier(&loops, inst.offset);
        let templates = inst.inst.opcode.operands();
        for (spec, template) in inst.inst.specs.iter().zip(templates) {
            let size = u64::from(template.data_type().size_bytes());
            match spec.mode {
                AddrMode::AutoIncrement(regs::WALK_UP)
                | AddrMode::AutoDecrement(regs::WALK_DOWN) => {
                    walker_use = walker_use.saturating_add(size.saturating_mul(mult));
                }
                AddrMode::AutoIncrement(regs::BIAS) => {
                    bias_use = bias_use.saturating_add(size.saturating_mul(mult));
                }
                AddrMode::AutoIncDeferred(regs::PTR_WALKER) => {
                    ptr_use = ptr_use.saturating_add(mult);
                }
                _ => {}
            }
        }
    }

    let budgets = [
        (
            "walker arenas",
            walker_use,
            u64::from(model.budgets.walker_len),
            "bytes",
        ),
        (
            "bias stream",
            bias_use,
            u64::from(model.budgets.bias_len),
            "bytes",
        ),
        (
            "pointer table",
            ptr_use,
            u64::from(model.budgets.ptr_entries),
            "entries",
        ),
    ];
    for (what, used, limit, unit) in budgets {
        if used > limit {
            report.push(Diagnostic::error(
                Rule::ImageWalkerBudget,
                format!("{ctx}/{}", region.name),
                format!(
                    "worst-case {what} consumption {used} {unit} exceeds the arena ({limit} {unit})"
                ),
            ));
        }
    }
}

/// The static constant of specifier `i`, if it is a short literal or
/// immediate.
fn static_literal(inst: &LocatedInst, i: usize) -> Option<u64> {
    inst.inst
        .specs
        .get(i)
        .and_then(|s| vax_arch::sdecode::static_constant(&s.mode))
}

/// The generator's own cap on counted-loop trip counts and on values
/// held in index/position registers (loop counters). Shared by the
/// arena-budget recompute and the abstract interpretation's widenings.
const ITER_CAP: u64 = 32;

/// Counted-loop intervals of a region: a backward Loop-class branch
/// closes the interval `[target, branch]`; its trip count comes from
/// the loop idiom (AOBLSS/SOBGTR/ACBL), capped at [`ITER_CAP`].
fn counted_loops(region: &Region) -> Vec<(usize, usize, u64)> {
    let mut loops: Vec<(usize, usize, u64)> = Vec::new();
    for inst in &region.insts {
        if inst.inst.opcode.branch_class() != Some(BranchClass::Loop) {
            continue;
        }
        let Some(disp) = inst.inst.branch_disp else {
            continue;
        };
        let target = inst.offset as i64 + i64::from(inst.inst.len) + i64::from(disp);
        if disp >= 0 || target < 0 {
            continue;
        }
        let top = target as usize;
        let iters = match inst.inst.opcode {
            Opcode::Aoblss => static_literal(inst, 0),
            Opcode::Acbl => static_literal(inst, 0).map(|v| v + 1),
            Opcode::Sobgtr => region
                .insts
                .iter()
                .find(|prev| prev.end() == top && prev.inst.opcode == Opcode::Movl)
                .and_then(|prev| static_literal(prev, 0)),
            _ => None,
        };
        loops.push((top, inst.offset, iters.unwrap_or(ITER_CAP).min(ITER_CAP)));
    }
    loops
}

/// Product of the trip counts of every counted loop enclosing `off`.
fn loop_multiplier(loops: &[(usize, usize, u64)], off: usize) -> u64 {
    loops
        .iter()
        .filter(|&&(top, bottom, _)| (top..=bottom).contains(&off))
        .map(|&(_, _, iters)| iters)
        .fold(1, u64::saturating_mul)
}

// ===========================================================================
// Abstract interpretation: SMC freedom and stack depth (`vax780 verify`)
// ===========================================================================
//
// Two interval analyses over the decoded image, both conservative:
//
// * **Store targets.** Every store's target address is bounded to an
//   interval from the generator's register conventions (R11 anchors the
//   data arena with a single `MOVL #imm, R11`; R9 anchors the pointer
//   table with a single `MOVAL d(R11), R9`; the walkers re-base per
//   region and advance by the budget-bounded auto modes). A store whose
//   interval can reach the code bytes must exactly match a declared
//   patch site; anything else is self-modifying code ([`Rule::VerifySmc`]).
//   Stores the analysis cannot bound are reported, not assumed safe.
//
// * **Stack depth.** A worklist interval dataflow over each region's
//   CFG bounds the stack pointer's displacement from its region-entry
//   value; the per-region maxima compose over the (acyclic) call graph
//   against the machine's mapped user stack
//   ([`Rule::VerifyStackDepth`]).
//
// Both lean on documented generator provisos rather than re-deriving
// them: loop counters stay below [`ITER_CAP`], the call DAG is acyclic,
// and the loader initializes pointer-table cells to data addresses. The
// indirect-store check closes the last proviso's loophole by verifying
// no analyzed store can overwrite a pointer cell.

use vax_arch::AccessType;

/// Fallback store width (bytes) for a string/decimal destination whose
/// length operand is not a static constant: the architectural maximum
/// (lengths are 16-bit). The generator always emits static lengths, so
/// this only widens hand-built images.
const DYNAMIC_STRING_MAX: i64 = 65_535;

/// An abstract address: every value the expression can take lies in
/// the **inclusive** interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn shift(self, d: i64) -> Interval {
        Interval {
            lo: self.lo + d,
            hi: self.hi + d,
        }
    }
}

/// A byte span `[lo, hi)` some store may write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: i64,
    hi: i64,
}

impl Span {
    fn overlaps(self, other: Span) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }
}

/// What one operand specifier does to memory, as far as the interval
/// analysis can tell.
enum StoreTarget {
    /// Not a store (reads, register destinations, stack traffic).
    None,
    /// May write any bytes within the span.
    Direct(Span),
    /// Writes through a pointer loaded from a cell within the span.
    Indirect(Span),
    /// Cannot be bounded; the reason becomes the diagnostic.
    Unknown(&'static str),
}

/// Does `inst` advance register `r` through an auto-increment or
/// auto-decrement specifier?
fn advances_reg(inst: &LocatedInst, r: Reg) -> bool {
    inst.inst.specs.iter().any(|spec| {
        matches!(spec.mode,
            AddrMode::AutoIncrement(reg)
            | AddrMode::AutoDecrement(reg)
            | AddrMode::AutoIncDeferred(reg) if reg == r)
    })
}

/// Does `inst` write register `r` other than by auto-mode advance?
/// Conservative: non-static `POPR` masks count as writing everything.
fn writes_reg_directly(inst: &LocatedInst, r: Reg) -> bool {
    let op = inst.inst.opcode;
    for (spec, template) in inst.inst.specs.iter().zip(op.operands()) {
        let dest = matches!(
            template.access(),
            AccessType::Write | AccessType::Modify | AccessType::Field
        );
        if dest && spec.mode == AddrMode::Register(r) {
            return true;
        }
    }
    if op == Opcode::Popr {
        return match static_literal(inst, 0) {
            Some(mask) => mask & (1 << (r as u32)) != 0,
            None => true,
        };
    }
    // String and decimal instructions clobber R0-R5 implicitly.
    if (r as u32) <= 5
        && matches!(
            op.group(),
            vax_arch::OpcodeGroup::Character | vax_arch::OpcodeGroup::Decimal
        )
    {
        return true;
    }
    false
}

/// If `inst` is `MOVAL d(R11), r` (the generator's re-basing idiom),
/// the rebased value.
fn rebase_value(inst: &LocatedInst, r: Reg, data_base: Option<i64>) -> Option<i64> {
    if inst.inst.opcode != Opcode::Moval {
        return None;
    }
    let dst = inst.inst.specs.get(1)?;
    if dst.mode != AddrMode::Register(r) || dst.index.is_some() {
        return None;
    }
    match inst.inst.specs.first()?.mode {
        AddrMode::Displacement {
            reg: Reg::R11,
            disp,
            ..
        } => Some(data_base? + i64::from(disp)),
        _ => None,
    }
}

/// The single-assignment constant held in `r` across the whole image,
/// if the image establishes one: exactly one writer, and that writer is
/// `MOVL #imm, r` (the data anchor) or `MOVAL d(R11), r` (the pointer
/// table anchor, resolved against the data anchor).
fn global_const_base(image: &DecodedImage, r: Reg, data_base: Option<i64>) -> Option<i64> {
    let mut writers = image
        .insts()
        .filter(|inst| writes_reg_directly(inst, r) || advances_reg(inst, r));
    let w = writers.next()?;
    if writers.next().is_some() {
        return None;
    }
    if w.inst.opcode == Opcode::Movl {
        let dst = w.inst.specs.get(1)?;
        if dst.mode == AddrMode::Register(r) && dst.index.is_none() {
            return static_literal(w, 0).map(|v| v as i64);
        }
    }
    rebase_value(w, r, data_base)
}

/// The abstract values of the walker registers within one region:
/// re-based by `MOVAL d(R11), r` and advanced only by the auto modes,
/// so each is bounded by `[min base - down-advance, max base +
/// up-advance]` with advances weighted by the enclosing counted loops.
/// Registers written any other way map to `None` (unanalyzable).
fn region_reg_intervals(
    region: &Region,
    data_base: Option<i64>,
    loops: &[(usize, usize, u64)],
) -> std::collections::BTreeMap<Reg, Option<Interval>> {
    let mut out = std::collections::BTreeMap::new();
    for r in [regs::WALK_UP, regs::WALK_DOWN, regs::PTR_WALKER, regs::BIAS] {
        let mut bases: Vec<i64> = Vec::new();
        let mut analyzable = true;
        let mut adv_up: i64 = 0;
        let mut adv_down: i64 = 0;
        for inst in &region.insts {
            // Cap the weight so pathological nests cannot overflow the
            // interval arithmetic; anything this large fails the span
            // check anyway.
            let mult = loop_multiplier(loops, inst.offset).min(1 << 24) as i64;
            for (spec, template) in inst.inst.specs.iter().zip(inst.inst.opcode.operands()) {
                let size = i64::from(template.data_type().size_bytes());
                match spec.mode {
                    AddrMode::AutoIncrement(reg) if reg == r => {
                        adv_up = adv_up.saturating_add(size.saturating_mul(mult));
                    }
                    AddrMode::AutoIncDeferred(reg) if reg == r => {
                        adv_up = adv_up.saturating_add(4i64.saturating_mul(mult));
                    }
                    AddrMode::AutoDecrement(reg) if reg == r => {
                        adv_down = adv_down.saturating_add(size.saturating_mul(mult));
                    }
                    _ => {}
                }
            }
            if let Some(v) = rebase_value(inst, r, data_base) {
                bases.push(v);
            } else if writes_reg_directly(inst, r) {
                analyzable = false;
            }
        }
        let interval = match (analyzable, bases.is_empty()) {
            (true, false) => {
                let lo = bases.iter().copied().min().unwrap_or(0) - adv_down;
                let hi = bases.iter().copied().max().unwrap_or(0) + adv_up;
                Some(Interval { lo, hi })
            }
            _ => None,
        };
        // Absent entirely = never defined here; any use is a finding.
        if !bases.is_empty() || !analyzable {
            out.insert(r, interval);
        }
    }
    out
}

/// Byte offset one past specifier `i` of `inst` — the PC value the
/// hardware uses for PC-relative displacement bases.
fn spec_end_offset(inst: &LocatedInst, i: usize) -> i64 {
    let spec_bytes: u32 = inst.inst.specs.iter().map(|s| u32::from(s.len)).sum();
    let branch_bytes = inst
        .inst
        .opcode
        .branch_displacement()
        .map_or(0, |t| t.data_type().size_bytes());
    let op_bytes = inst.inst.len - spec_bytes - branch_bytes;
    let through: u32 = inst.inst.specs[..=i].iter().map(|s| u32::from(s.len)).sum();
    inst.offset as i64 + i64::from(op_bytes) + i64::from(through)
}

/// Worst-case bytes written through a variable bit-field base: bits
/// `[pos, pos+size)` with `size <= 32` and `pos` bounded by the largest
/// static literal in the instruction (loop-counter positions stay under
/// [`ITER_CAP`] by the generator's own convention).
fn field_store_width(inst: &LocatedInst) -> i64 {
    let pos_hi = inst
        .inst
        .specs
        .iter()
        .filter_map(|s| vax_arch::sdecode::static_constant(&s.mode))
        .max()
        .unwrap_or(ITER_CAP)
        .min(1 << 16) as i64;
    (pos_hi + 31) / 8 + 1
}

/// Worst-case bytes written through an address-access destination
/// (string/decimal bases): bounded by the largest static length operand
/// (+1 covers packed-decimal digit counts), else the architectural
/// maximum.
fn address_store_width(inst: &LocatedInst) -> i64 {
    inst.inst
        .specs
        .iter()
        .filter_map(|s| vax_arch::sdecode::static_constant(&s.mode))
        .max()
        .map_or(DYNAMIC_STRING_MAX, |len| len.min(1 << 16) as i64 + 1)
}

/// Classify what specifier `i` of `inst` may write to memory.
#[allow(clippy::too_many_arguments)]
fn classify_store(
    model: &ImageModel,
    inst: &LocatedInst,
    i: usize,
    env: &std::collections::BTreeMap<Reg, Option<Interval>>,
    data_base: Option<i64>,
    table_base: Option<i64>,
) -> StoreTarget {
    let spec = &inst.inst.specs[i];
    let template = inst.inst.opcode.operands()[i];
    let op = inst.inst.opcode;

    // Is this specifier a memory-write channel at all?
    let width = match template.access() {
        AccessType::Read | AccessType::Branch => return StoreTarget::None,
        AccessType::Write | AccessType::Modify => i64::from(template.data_type().size_bytes()),
        AccessType::Field => match spec.mode {
            // Register-based fields write the register file.
            AddrMode::Register(_) => return StoreTarget::None,
            _ => field_store_width(inst),
        },
        AccessType::Address => {
            // Transfer targets (CALLx/JMP/JSB) and read-only string
            // bases are not stores; string/decimal destinations are.
            let writes = op.branch_class().is_none()
                && vax_ucode::model::exec_cost(op).is_none_or(|c| c.write > 0);
            if !writes {
                return StoreTarget::None;
            }
            if matches!(op, Opcode::Insque | Opcode::Remque) {
                // Queue instructions write the two link longwords of
                // each operand node, plus — through those links — the
                // neighbours' links. The neighbours stay inside the
                // data region by induction: the loader initializes
                // every link to a node address, and a queue write only
                // ever stores the address of an operand node (bounded
                // here) or copies an existing link. So the direct
                // 8-byte node spans are the whole story, provided they
                // themselves verify.
                8
            } else {
                address_store_width(inst)
            }
        }
    };

    // Indexed specifiers scale the (loop-counter) index by the operand
    // size; the generator keeps counters under ITER_CAP.
    let index_slack = if spec.index.is_some() {
        (ITER_CAP as i64) * i64::from(template.data_type().size_bytes())
    } else {
        0
    };

    let base_of = |reg: Reg, disp: i64| -> Result<Interval, &'static str> {
        match reg {
            Reg::R11 => data_base
                .map(|b| Interval::exact(b + disp))
                .ok_or("store through R11 without a single-assignment data anchor"),
            Reg::R9 => table_base
                .map(|b| Interval::exact(b + disp))
                .ok_or("store through R9 without a single-assignment table anchor"),
            Reg::Pc => {
                let pc = i64::from(model.base) + spec_end_offset(inst, i);
                Ok(Interval::exact(pc + disp))
            }
            _ => match env.get(&reg) {
                Some(Some(iv)) => Ok(iv.shift(disp)),
                Some(None) => Err("store through a walker register with unanalyzable writes"),
                None => Err("store through an unanalyzed base register"),
            },
        }
    };

    let direct = |iv: Interval| {
        StoreTarget::Direct(Span {
            lo: iv.lo,
            hi: iv.hi + width + index_slack,
        })
    };

    match spec.mode {
        AddrMode::Register(_) => StoreTarget::None,
        AddrMode::Literal(_) | AddrMode::Immediate { .. } => {
            StoreTarget::Unknown("store destination decodes as a literal")
        }
        // Stack traffic: bounded by the stack-depth analysis and the
        // P0/P1 disjointness check, never an SMC risk.
        AddrMode::RegDeferred(Reg::Sp)
        | AddrMode::AutoIncrement(Reg::Sp)
        | AddrMode::AutoDecrement(Reg::Sp)
        | AddrMode::Displacement { reg: Reg::Sp, .. } => StoreTarget::None,
        AddrMode::Displacement { reg, disp, .. } => match base_of(reg, i64::from(disp)) {
            Ok(iv) => direct(iv),
            Err(e) => StoreTarget::Unknown(e),
        },
        AddrMode::RegDeferred(reg)
        | AddrMode::AutoIncrement(reg)
        | AddrMode::AutoDecrement(reg) => match base_of(reg, 0) {
            Ok(iv) => direct(iv),
            Err(e) => StoreTarget::Unknown(e),
        },
        AddrMode::AutoIncDeferred(reg) => match base_of(reg, 0) {
            Ok(iv) => StoreTarget::Indirect(Span {
                lo: iv.lo,
                hi: iv.hi + 4,
            }),
            Err(e) => StoreTarget::Unknown(e),
        },
        AddrMode::DisplacementDeferred { reg, disp, .. } => match base_of(reg, i64::from(disp)) {
            Ok(iv) => StoreTarget::Indirect(Span {
                lo: iv.lo,
                hi: iv.hi + 4 + index_slack,
            }),
            Err(e) => StoreTarget::Unknown(e),
        },
        AddrMode::Absolute(a) => direct(Interval::exact(i64::from(a))),
    }
}

/// Verify the image's SMC-freedom and stack-depth claims.
///
/// Every store the interval analysis can bound must miss the code
/// bytes (or exactly match a declared patch site), no bounded store may
/// overwrite a pointer cell backing an indirect store, and the
/// worst-case stack depth over the acyclic call graph must fit the
/// mapped user stack. Unbounded stores are findings, not assumptions.
pub fn verify_image(model: &ImageModel, image: &DecodedImage) -> Report {
    let mut report = Report::new();
    let ctx = &model.name;

    let data_base = global_const_base(image, Reg::R11, None);
    let table_base = global_const_base(image, Reg::R9, data_base);
    let code = Span {
        lo: i64::from(model.base),
        hi: i64::from(model.end()),
    };

    // The stack lives in P1 space; if the image strays up there the
    // stack-disjointness argument (and the SP-store exemption) breaks.
    if model.end() > vax_mem::P1_BASE {
        report.push(Diagnostic::error(
            Rule::VerifySmc,
            ctx.clone(),
            format!(
                "image end {:#x} reaches P1 stack space ({:#x})",
                model.end(),
                vax_mem::P1_BASE
            ),
        ));
    }

    // ----- store enumeration -------------------------------------------------
    let mut direct: Vec<(Span, usize, &str)> = Vec::new(); // (span, offset, region)
    let mut cells: Vec<Span> = Vec::new();
    if let Some(tb) = table_base {
        // The pointer table itself backs every CALLS dispatch; treat it
        // as one protected cell span.
        cells.push(Span {
            lo: tb,
            hi: tb + 4 * i64::from(model.budgets.ptr_entries),
        });
    }
    for region in &image.regions {
        let loops = counted_loops(region);
        let env = region_reg_intervals(region, data_base, &loops);
        for inst in &region.insts {
            for i in 0..inst.inst.specs.len().min(inst.inst.opcode.operands().len()) {
                match classify_store(model, inst, i, &env, data_base, table_base) {
                    StoreTarget::None => {}
                    StoreTarget::Direct(span) => direct.push((span, inst.offset, &region.name)),
                    StoreTarget::Indirect(span) => {
                        if span.overlaps(code) {
                            report.push(
                                Diagnostic::error(
                                    Rule::VerifySmc,
                                    format!("{ctx}/{}", region.name),
                                    format!(
                                        "{} loads a store pointer from [{:#x}, {:#x}), which \
                                         overlaps the code bytes",
                                        inst.inst.opcode.mnemonic(),
                                        span.lo,
                                        span.hi
                                    ),
                                )
                                .at(inst.offset as u64),
                            );
                        }
                        cells.push(span);
                    }
                    StoreTarget::Unknown(why) => {
                        report.push(
                            Diagnostic::error(
                                Rule::VerifySmc,
                                format!("{ctx}/{}", region.name),
                                format!(
                                    "cannot bound the {} store target: {why}",
                                    inst.inst.opcode.mnemonic()
                                ),
                            )
                            .at(inst.offset as u64),
                        );
                    }
                }
            }
        }
    }

    // ----- SMC disjointness --------------------------------------------------
    for &(span, offset, rname) in &direct {
        if span.overlaps(code) {
            let declared = model
                .patch_sites
                .iter()
                .any(|&(va, len)| span.lo == i64::from(va) && span.hi == i64::from(va + len));
            if !declared {
                report.push(
                    Diagnostic::error(
                        Rule::VerifySmc,
                        format!("{ctx}/{rname}"),
                        format!(
                            "store may write [{:#x}, {:#x}), which overlaps the code bytes \
                             [{:#x}, {:#x}) and matches no declared patch site",
                            span.lo, span.hi, code.lo, code.hi
                        ),
                    )
                    .at(offset as u64),
                );
            }
        }
        for &cell in &cells {
            if span.overlaps(cell) {
                report.push(
                    Diagnostic::error(
                        Rule::VerifySmc,
                        format!("{ctx}/{rname}"),
                        format!(
                            "store may write [{:#x}, {:#x}), which overlaps a pointer cell \
                             span [{:#x}, {:#x}) backing indirect stores",
                            span.lo, span.hi, cell.lo, cell.hi
                        ),
                    )
                    .at(offset as u64),
                );
                break;
            }
        }
    }

    check_stack_depth(ctx, model, image, &mut report);
    report
}

// ----- stack depth ---------------------------------------------------------

/// Stack-pointer change of one instruction, as an interval, or the
/// reason it cannot be bounded. `BSBx` is handled by the caller (the
/// push belongs to the taken edge only).
fn stack_delta(inst: &LocatedInst) -> Result<(i64, i64), &'static str> {
    let op = inst.inst.opcode;
    let mut d: i64 = 0;
    for (spec, template) in inst.inst.specs.iter().zip(op.operands()) {
        let size = i64::from(template.data_type().size_bytes());
        match spec.mode {
            AddrMode::AutoDecrement(Reg::Sp) => d += size,
            AddrMode::AutoIncrement(Reg::Sp) => d -= size,
            AddrMode::AutoIncDeferred(Reg::Sp) => d -= 4,
            _ => {}
        }
    }
    match op {
        Opcode::Pushl => d += 4,
        Opcode::Pushr => match static_literal(inst, 0) {
            Some(mask) => d += 4 * i64::from((mask as u16 & 0x7FFF).count_ones()),
            None => return Err("PUSHR with a non-static register mask"),
        },
        Opcode::Popr => match static_literal(inst, 0) {
            Some(mask) => d -= 4 * i64::from((mask as u16 & 0x7FFF).count_ones()),
            None => return Err("POPR with a non-static register mask"),
        },
        // CALLS pops its arguments (and everything the callee framed)
        // by the time control returns to the fall-through path; the
        // callee-side frame is charged by the interprocedural bound.
        Opcode::Calls => match static_literal(inst, 0) {
            Some(nargs) => d -= 4 * nargs.min(255) as i64,
            None => return Err("CALLS with a non-static argument count"),
        },
        _ => {}
    }
    Ok((d, d))
}

/// The CALLS stack frame a callee with entry `mask` occupies: the
/// argument-count longword, five frame longwords (handler, mask/PSW,
/// AP, FP, PC), the mask-saved registers, and worst-case alignment.
fn calls_frame_bytes(mask: u16) -> i64 {
    4 + 20 + 4 * i64::from((mask & 0x0FFF).count_ones()) + 3
}

/// Interval dataflow over one region's CFG bounding the stack depth
/// relative to region entry. Returns the worst-case high-water mark.
fn region_stack_high(ctx: &str, region: &Region, report: &mut Report) -> i64 {
    use std::collections::BTreeMap;
    let Some(first) = region.insts.first() else {
        return 0;
    };
    let budget = i64::from(vax_workloads::USER_STACK_BYTES);
    let by_off: BTreeMap<usize, &LocatedInst> = region
        .insts
        .iter()
        .map(|inst| (inst.offset, inst))
        .collect();
    let mut state: BTreeMap<usize, (i64, i64)> = BTreeMap::new();
    state.insert(first.offset, (0, 0));
    let mut work = vec![first.offset];
    let mut high: i64 = 0;
    let mut flagged = false;
    while let Some(off) = work.pop() {
        let Some(inst) = by_off.get(&off) else {
            continue;
        };
        let (lo, hi) = state[&off];
        let op = inst.inst.opcode;
        let is_bsb = matches!(op, Opcode::Bsbb | Opcode::Bsbw);
        let (dlo, dhi) = if is_bsb {
            (0, 0) // the +4 rides the taken edge; fall-through resumes post-return
        } else {
            match stack_delta(inst) {
                Ok(d) => d,
                Err(why) => {
                    if !flagged {
                        report.push(
                            Diagnostic::error(
                                Rule::VerifyStackDepth,
                                format!("{ctx}/{}", region.name),
                                format!("cannot bound stack depth: {why}"),
                            )
                            .at(off as u64),
                        );
                        flagged = true;
                    }
                    (0, 0)
                }
            }
        };
        let (nlo, nhi) = (lo + dlo, hi + dhi);
        high = high.max(nhi);
        if nlo < 0 && !flagged {
            report.push(
                Diagnostic::error(
                    Rule::VerifyStackDepth,
                    format!("{ctx}/{}", region.name),
                    format!("stack may underflow region entry (depth reaches {nlo})"),
                )
                .at(off as u64),
            );
            flagged = true;
        }
        // Successor edges (same walk as reachability, bounded to the
        // region; clamping keeps the lattice finite so widening loops
        // terminate).
        let clamp = |v: i64| v.clamp(-budget, 2 * budget);
        let mut join = |target: usize, entry: (i64, i64), work: &mut Vec<usize>| {
            if !by_off.contains_key(&target) {
                return; // cross-region transfer: modeled interprocedurally
            }
            let entry = (clamp(entry.0), clamp(entry.1));
            let merged = match state.get(&target) {
                Some(&(elo, ehi)) => (elo.min(entry.0), ehi.max(entry.1)),
                None => entry,
            };
            if state.get(&target) != Some(&merged) {
                state.insert(target, merged);
                work.push(target);
            }
        };
        let fall_through = match op.branch_class() {
            Some(BranchClass::SimpleCond) => !matches!(op, Opcode::Brb | Opcode::Brw),
            Some(BranchClass::ProcedureCallRet) => op != Opcode::Ret,
            Some(BranchClass::SubroutineCallRet) => op != Opcode::Rsb,
            _ => true,
        };
        if fall_through {
            join(inst.end(), (nlo.min(nhi), nhi), &mut work);
        }
        if let Some(disp) = inst.inst.branch_disp {
            let target = off as i64 + i64::from(inst.inst.len) + i64::from(disp);
            if target >= 0 {
                let extra = if is_bsb { 4 } else { 0 };
                join(target as usize, (nlo + extra, nhi + extra), &mut work);
            }
        }
        if let Some(entries) = &inst.case_entries {
            let table_base = off as i64 + i64::from(inst.inst.len);
            for &entry in entries {
                let target = table_base + i64::from(entry);
                if target >= 0 {
                    join(target as usize, (nlo, nhi), &mut work);
                }
            }
        }
    }
    high
}

/// Compose the per-region stack high-water marks over the call graph:
/// the dispatcher may hold every function's frame live at once only if
/// the call DAG chains them, so (acyclicity proviso) the worst case is
/// the dispatcher plus every function's frame and local maximum.
fn check_stack_depth(ctx: &str, model: &ImageModel, image: &DecodedImage, report: &mut Report) {
    let budget = i64::from(vax_workloads::USER_STACK_BYTES);
    let mut total: i64 = 0;
    for region in &image.regions {
        let high = region_stack_high(ctx, region, report);
        if region.is_function {
            // region.start is past the 2-byte entry mask.
            let mask_off = region.start - 2;
            let mask = u16::from_le_bytes([
                model.bytes.get(mask_off).copied().unwrap_or(0),
                model.bytes.get(mask_off + 1).copied().unwrap_or(0),
            ]);
            total = total
                .saturating_add(calls_frame_bytes(mask))
                .saturating_add(high);
        } else {
            total = total.saturating_add(high);
        }
    }
    if total > budget {
        report.push(Diagnostic::error(
            Rule::VerifyStackDepth,
            ctx.to_string(),
            format!(
                "worst-case stack depth {total} bytes exceeds the mapped user stack \
                 ({budget} bytes)"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Budgets;
    use vax_arch::{Assembler, Operand};

    fn model_from(asm_bytes: Vec<u8>, base: u32, functions: Vec<u32>) -> ImageModel {
        ImageModel {
            name: "test".into(),
            base,
            entry: base,
            functions,
            bytes: asm_bytes,
            budgets: Budgets {
                walker_len: 4096,
                bias_len: 16384,
                ptr_entries: 256,
            },
            patch_sites: vec![],
        }
    }

    #[test]
    fn clean_straight_line_code_passes() {
        let mut asm = Assembler::new(0x1000);
        asm.inst(Opcode::Movl, &[Operand::Literal(5), Operand::Reg(Reg::R0)])
            .unwrap();
        asm.inst(Opcode::Pushl, &[Operand::Reg(Reg::R0)]).unwrap();
        asm.inst(
            Opcode::Movl,
            &[Operand::AutoIncrement(Reg::Sp), Operand::Reg(Reg::R1)],
        )
        .unwrap();
        asm.inst(Opcode::Ret, &[]).unwrap();
        let image = asm.finish().unwrap();
        let (decoded, report) = check_image(&model_from(image.bytes, 0x1000, vec![]));
        assert!(decoded.is_some());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn privileged_opcode_is_flagged_with_offset() {
        let mut asm = Assembler::new(0x1000);
        asm.inst(Opcode::Nop, &[]).unwrap();
        asm.inst(Opcode::Halt, &[]).unwrap();
        let image = asm.finish().unwrap();
        let (_, report) = check_image(&model_from(image.bytes, 0x1000, vec![]));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ImagePrivileged)
            .expect("privileged finding");
        assert_eq!(d.offset, Some(1));
    }

    #[test]
    fn out_of_bounds_branch_is_flagged() {
        // BRB with a displacement leaving the image.
        let bytes = vec![0x11, 0x70, 0x01];
        let (_, report) = check_image(&model_from(bytes, 0x1000, vec![]));
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::ImageBranchTarget && d.offset == Some(0)),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn unbalanced_pushr_is_flagged() {
        let mut asm = Assembler::new(0x1000);
        asm.inst(Opcode::Pushr, &[Operand::Immediate(0x3)]).unwrap();
        asm.inst(Opcode::Popr, &[Operand::Immediate(0x7)]).unwrap();
        let image = asm.finish().unwrap();
        let (_, report) = check_image(&model_from(image.bytes, 0x1000, vec![]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::ImagePushPop));
    }

    #[test]
    fn walker_overrun_in_a_loop_is_flagged() {
        // MOVL #31, R3; top: MOVQ (R6)+, R0; SOBGTR R3, top — 8 bytes
        // per iteration times 31 iterations exceeds a 64-byte arena.
        let mut asm = Assembler::new(0x1000);
        asm.inst(Opcode::Movl, &[Operand::Literal(31), Operand::Reg(Reg::R3)])
            .unwrap();
        let top = asm.label_here();
        asm.inst(
            Opcode::Movq,
            &[Operand::AutoIncrement(Reg::R6), Operand::Reg(Reg::R0)],
        )
        .unwrap();
        asm.branch(Opcode::Sobgtr, &[Operand::Reg(Reg::R3)], top)
            .unwrap();
        asm.inst(Opcode::Ret, &[]).unwrap();
        let image = asm.finish().unwrap();
        let mut model = model_from(image.bytes, 0x1000, vec![]);
        model.budgets.walker_len = 64;
        let (_, report) = check_image(&model);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::ImageWalkerBudget),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn unreachable_code_warns() {
        let mut asm = Assembler::new(0x1000);
        asm.inst(Opcode::Ret, &[]).unwrap();
        asm.inst(Opcode::Nop, &[]).unwrap();
        let image = asm.finish().unwrap();
        let (_, report) = check_image(&model_from(image.bytes, 0x1000, vec![]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::ImageUnreachable));
    }
}
