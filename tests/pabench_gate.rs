//! Puts the benchmark rig under tier-1. `pabench/` is a package of its
//! own (the benchmark contract builds it standalone) that compiles
//! against the crates' public API by path, so the workspace build
//! cannot see it break. This test builds it and runs its self-tests.
//! It builds with `--locked`: a change to a path crate's dependencies
//! fails here instead of silently rewriting `pabench/Cargo.lock`.
//!
//! Linux only: the rig reads `/proc/<pid>/status` for a child's RSS.
//! The MSRV CI leg skips the test by name, because cargo 1.75 cannot
//! read `pabench/Cargo.lock` (lock file version 4).

#![cfg(target_os = "linux")]

use std::path::Path;
use std::process::Command;

#[test]
fn pabench_builds_and_passes_its_self_test() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("pabench/Cargo.toml");
    // The package's default target directory is pabench/target, and
    // a test may write only under its own scratch directory.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pabench-gate");
    let out = Command::new(env!("CARGO"))
        .args([
            "test",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo test --locked --manifest-path pabench/Cargo.toml` failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}
