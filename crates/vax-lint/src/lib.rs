//! vax-lint — static verification of the simulator's inputs.
//!
//! Six analyzer families, one rule catalog ([`Rule`]):
//!
//! * **Image checks** ([`cfg`]): recursive static decode of a generated
//!   workload image into regions and a control-flow graph, verifying
//!   decode totality, in-bounds branch and case targets, the absence of
//!   privileged opcodes in user streams, adjacent push/pop idioms, and
//!   the code generator's worst-case walker/bias/pointer arena budgets.
//! * **Abstract interpretation** ([`cfg::verify_image`]): interval
//!   analyses over the decoded image proving every boundable store
//!   misses the code bytes (SMC freedom, modulo declared patch sites)
//!   and bounding worst-case stack depth against the mapped user stack.
//! * **Effect audit** ([`effects`]): the continuation loop's
//!   hand-maintained safety classifier checked exhaustively against
//!   effect footprints derived from the opcode/microcode tables.
//! * **Mix checks** ([`mix`]): the image's static instruction-mix and
//!   addressing-mode histograms, diffed against the generating
//!   [`ProfileParams`] within calibrated tolerances.
//! * **Table audits** ([`tables`]): opcode table consistency,
//!   control-store layout coverage/overlap, and the instrument
//!   taxonomy cross-check (`HwCounters` x `MachineEvent` kinds x
//!   `TraceCounters`).
//! * **Probe refutation** ([`probe`]): the allowlist of accepted
//!   static-model refinements consumed by `vax780 probe` when it diffs
//!   measured latency tables against `vax_ucode::model`.
//!
//! The runtime reconciliation pass (vax-trace) compares two instruments
//! *after* a run; vax-lint rejects broken configurations *before* one.
//! Findings are [`Diagnostic`]s with a severity, a stable rule id, and
//! a byte offset or table cell, collected into a [`Report`] that
//! renders as text or JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod diag;
pub mod effects;
pub mod image;
pub mod mix;
pub mod probe;
pub mod tables;

pub use cfg::{check_image, verify_image, DecodedImage, Region};
pub use diag::{Diagnostic, Report, Rule, Severity};
pub use effects::lint_effects;
pub use image::{Budgets, ImageModel};
pub use probe::Allowlist;

use vax_workloads::{plan_processes, ProfileParams, WorkloadError};

/// Run every table audit (opcode table, control store, instrument
/// taxonomy). Independent of any workload.
pub fn lint_tables() -> Report {
    let mut report = Report::new();
    tables::check_opcode_table(&mut report);
    tables::check_control_store(&mut report);
    tables::check_taxonomy(&mut report);
    report
}

/// Lint one image model: the image-family checks, plus the mix checks
/// when the generating profile is known.
pub fn lint_image_model(model: &ImageModel, params: Option<&ProfileParams>) -> Report {
    let (decoded, mut report) = check_image(model);
    if let (Some(image), Some(params)) = (decoded, params) {
        mix::check_mix(&image, params, &mut report);
    }
    report
}

/// Generate every process image of `params` and lint each one.
///
/// # Errors
///
/// [`WorkloadError`] when generation itself fails (which is a finding
/// about the profile, but not one the linter can localize).
pub fn lint_profile(params: &ProfileParams) -> Result<Report, WorkloadError> {
    let plans = plan_processes(params)?;
    let mut report = Report::new();
    for (i, plan) in plans.iter().enumerate() {
        let model = ImageModel::from_process(&format!("{}/proc{i}", params.name), plan);
        report.merge(lint_image_model(&model, Some(params)));
    }
    Ok(report)
}

/// Statically verify every process image of `params`: decode, then
/// run the SMC/stack-depth abstract interpretation.
///
/// # Errors
///
/// [`WorkloadError`] when generation itself fails.
pub fn verify_profile(params: &ProfileParams) -> Result<Report, WorkloadError> {
    let plans = plan_processes(params)?;
    let mut report = Report::new();
    for (i, plan) in plans.iter().enumerate() {
        let model = ImageModel::from_process(&format!("{}/proc{i}", params.name), plan);
        let (decoded, decode_report) = check_image(&model);
        report.merge(decode_report);
        if let Some(image) = decoded {
            report.merge(verify_image(&model, &image));
        }
    }
    Ok(report)
}

/// Debug-mode construction gate: lint the profile's tables and images
/// once per (name, seed), panicking on error-severity findings. Wired
/// into experiment setup under `cfg(debug_assertions)` so development
/// runs refuse structurally broken workloads; release campaigns skip
/// the cost.
pub fn debug_gate(params: &ProfileParams) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static SEEN: Mutex<Option<HashSet<(String, u64)>>> = Mutex::new(None);
    {
        let mut seen = SEEN.lock().expect("lint gate lock");
        if !seen
            .get_or_insert_with(HashSet::new)
            .insert((params.name.to_string(), params.seed))
        {
            return;
        }
    }
    let mut report = lint_tables();
    match lint_profile(params) {
        Ok(r) => report.merge(r),
        Err(e) => panic!("workload lint gate: generation failed: {e}"),
    }
    if report.errors() > 0 {
        panic!(
            "workload lint gate rejected profile '{}':\n{}",
            params.name,
            report.render_text()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_workloads::{profile, WorkloadKind};

    #[test]
    fn tables_lint_clean() {
        let report = lint_tables();
        assert_eq!(report.errors(), 0, "{}", report.render_text());
    }

    #[test]
    fn builtin_profile_lints_clean() {
        let params = profile(WorkloadKind::TimesharingLight);
        let report = lint_profile(&params).expect("generation succeeds");
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn corrupted_branch_target_names_rule_and_offset() {
        // Take a clean generated image and re-aim the dispatcher's
        // closing backward BRW (the last 3 bytes before the first
        // function entry) far outside the image.
        let params = profile(WorkloadKind::TimesharingLight);
        let plans = plan_processes(&params).expect("generation succeeds");
        let mut model = ImageModel::from_process("corrupt", &plans[0]);
        let brw_off = (model.functions[0] - model.base) as usize - 3;
        assert_eq!(model.bytes[brw_off], 0x31, "dispatcher ends with BRW");
        model.bytes[brw_off + 1] = 0xFF;
        model.bytes[brw_off + 2] = 0x7F;
        let report = lint_image_model(&model, None);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ImageBranchTarget)
            .expect("branch-target finding");
        assert_eq!(d.offset, Some(brw_off as u64), "{}", report.render_text());
    }

    #[test]
    fn debug_gate_accepts_builtin_profile_and_dedupes() {
        let params = profile(WorkloadKind::TimesharingLight);
        debug_gate(&params);
        debug_gate(&params); // second call hits the cache
    }
}
