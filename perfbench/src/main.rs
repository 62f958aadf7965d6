//! Benchmark entry point: runs one workload in this process and prints
//! its metrics, exact counters and output checks; the last line is the
//! JSON result. Exits 1 when any output check failed, 2 on bad usage.
//!
//! ```text
//! kmatch-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--size full|tiny] [--spans PATH]
//! ```

use std::process::ExitCode;

use kmatch_perfbench::{run_workload, Config, Size, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: kmatch-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut spans_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| cfg.seconds = v)
                .is_ok_and(|_| cfg.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--size" => match value.as_str() {
                "full" => {
                    cfg.size = Size::Full;
                    true
                }
                "tiny" => {
                    cfg.size = Size::Tiny;
                    true
                }
                _ => false,
            },
            "--spans" => {
                spans_path = Some(value.clone());
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(report) = run_workload(&name, cfg) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    for line in report.human_lines() {
        println!("{line}");
    }
    if let Some(path) = spans_path.filter(|_| cfg.trace) {
        if let Err(e) = std::fs::write(&path, &report.spans_jsonl) {
            eprintln!("error: writing spans to {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "spans {} written to {path}",
            report.spans_jsonl.lines().count()
        );
    }
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
