//! End-to-end gate check for the `bench_diff` binary: an injected
//! regression must flip the `--check` exit code to nonzero, and a clean
//! comparison (including the committed baselines against themselves)
//! must pass.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kmatch-bench-diff-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("bench_diff runs")
}

const BASELINE: &str = r#"{
  "threads": 1,
  "single": [
    {"n": 256, "proposals": 1757, "fastpath_ns": 6775.0, "speedup": 1.12},
    {"n": 2000, "proposals": 15653, "fastpath_ns": 176062.0, "speedup": 1.21}
  ],
  "metrics_overhead": {"instances": 32, "n": 2000, "plain_ns": 20278747.0, "metered_ns": 21775405.0, "overhead_pct": 7.38}
}
"#;

fn write_pair(base_dir: &Path, fresh_dir: &Path, fresh_text: &str) {
    fs::write(base_dir.join("BENCH_gs.json"), BASELINE).unwrap();
    fs::write(fresh_dir.join("BENCH_gs.json"), fresh_text).unwrap();
}

#[test]
fn clean_comparison_passes_and_regression_fails_check() {
    let base = scratch("base");
    let fresh = scratch("fresh");
    write_pair(&base, &fresh, BASELINE);
    let b = base.to_str().unwrap();
    let f = fresh.to_str().unwrap();

    let out = run(&["--baseline", b, "--fresh", f, "--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "identical files must pass: {stdout}");
    assert!(stdout.contains("bench diff: PASS"), "{stdout}");

    // Inject a 3x slowdown on one row and a counter drift on another.
    let doctored = BASELINE
        .replace("\"fastpath_ns\": 176062.0", "\"fastpath_ns\": 530000.0")
        .replace("\"proposals\": 1757", "\"proposals\": 1758");
    write_pair(&base, &fresh, &doctored);
    let out = run(&["--baseline", b, "--fresh", f, "--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "injected regression must fail --check: {stdout}"
    );
    assert!(
        stdout.contains("REGRESSION: BENCH_gs.json.single[1].fastpath_ns"),
        "{stdout}"
    );
    assert!(
        stdout.contains("REGRESSION: BENCH_gs.json.single[0].proposals"),
        "{stdout}"
    );
    assert!(stdout.contains("bench diff: FAIL (--check)"), "{stdout}");

    // Report-only mode surfaces the same rows but keeps exit 0.
    let out = run(&["--baseline", b, "--fresh", f]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "report-only never gates: {stdout}");
    assert!(stdout.contains("report-only"), "{stdout}");

    // A loosened tolerance waves the slowdown through (counter drift
    // still fails: counters take no tolerance).
    let out = run(&[
        "--baseline",
        b,
        "--fresh",
        f,
        "--check",
        "--timing-tol",
        "9.0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success());
    assert!(!stdout.contains("fastpath_ns"), "{stdout}");
    assert!(stdout.contains("proposals"), "{stdout}");
}

#[test]
fn missing_fresh_file_fails_and_bad_flags_exit_2() {
    let base = scratch("mb");
    let fresh = scratch("mf");
    fs::write(base.join("REPORT_gs.json"), r#"{"wall_ns": 1}"#).unwrap();
    let out = run(&[
        "--baseline",
        base.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
        "--check",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REPORT_gs.json: missing"), "{stdout}");

    let out = run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--timing-tol", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    // An empty baseline directory is a usage error, not a silent pass.
    let out = run(&[
        "--baseline",
        fresh.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn committed_baselines_pass_against_themselves() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if !results.exists() {
        return;
    }
    let r = results.to_str().unwrap();
    let out = run(&["--baseline", r, "--fresh", r, "--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("bench diff: PASS"), "{stdout}");
}
