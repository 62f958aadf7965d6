//! End-to-end self-tests of the benchmark binary at tiny sizes: every
//! declared metric is printed with its unit, and the exact counters of
//! one seed repeat byte for byte.

use std::process::Command;

use kmatch_perfbench::metrics::{END_TO_END, PER_LAYER};
use kmatch_perfbench::WORKLOADS;

fn bench(workload: &str, seed: u64, trace: bool) -> (i32, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_kmatch-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.code().unwrap_or(-1),
        text.lines().map(str::to_string).collect(),
    )
}

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json` (the file is written one metric per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), want(END_TO_END));
    assert_eq!(declared("per_layer"), want(PER_LAYER));
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (code, lines) = bench(workload, 3, trace);
            assert_eq!(code, 0, "{workload} trace={trace}: {lines:?}");
            let result = lines.last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{result}");
            let metrics = if trace { PER_LAYER } else { END_TO_END };
            for &(name, unit) in metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
                let rest = &result[at + key.len()..];
                let object = &rest[..rest.find('}').expect("metric object ends")];
                let (value, unit_field) = object.split_once(", ").expect("value, unit");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(
                    unit_field,
                    format!("\"unit\": \"{unit}\""),
                    "{workload}: {name}"
                );
            }
            // Exactly the declared metrics: one value per metric.
            assert_eq!(result.matches("\"value\": ").count(), metrics.len());
            if !trace {
                for &(name, unit) in END_TO_END {
                    assert!(
                        lines
                            .iter()
                            .any(|l| l.starts_with(&format!("metric {name} "))
                                && l.contains(&format!(" {unit}"))),
                        "{workload}: no human-readable {name} line"
                    );
                }
                assert!(lines
                    .iter()
                    .any(|l| l.starts_with("metric error_rate 0.000000")));
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let (_, lines) = bench(workload, 4, false);
        for &(name, _) in END_TO_END {
            let line = lines
                .iter()
                .find(|l| l.starts_with(&format!("metric {name} ")))
                .expect("metric line");
            let value: f64 = line.split(' ').nth(2).unwrap().parse().unwrap();
            assert!(value > 0.0, "{workload}: {name} is {value}");
        }
    }
}

#[test]
fn counters_of_one_seed_are_byte_identical() {
    for workload in WORKLOADS {
        let counters = |seed: u64| -> Vec<String> {
            let (code, lines) = bench(workload, seed, true);
            assert_eq!(code, 0);
            lines
                .into_iter()
                .filter(|l| l.starts_with("counter "))
                .collect()
        };
        let first = counters(5);
        assert!(!first.is_empty(), "{workload} prints counters");
        assert_eq!(
            first,
            counters(5),
            "{workload}: counters differ between runs"
        );
        assert_ne!(first, counters(6), "{workload}: counters ignore the seed");
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--seed", "1"],
        vec!["--workload", "gs_large", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kmatch-perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
