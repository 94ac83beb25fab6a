//! Bake build provenance into the binary for the host stamp: rustc
//! version, git revision, cargo profile and opt-level. Every probe and
//! bench artifact carries these so two artifacts are comparable only
//! when their toolchains are.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=VAX_RUSTC_VERSION={version}");

    let rev =
        run("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=VAX_GIT_REV={rev}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=VAX_BUILD_PROFILE={profile}");
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=VAX_OPT_LEVEL={opt}");

    // Re-stamp when the checked-out revision moves. A source export has
    // no `.git`, and cargo re-runs a script on every build while a
    // watched path is missing, which recompiles every dependent crate;
    // there the revision is "unknown" for good, so watch only this file.
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
