//! The run harness shared by the workloads: repeated set-up, the timed
//! item loop, output-check accounting, and the report with its metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::{END_TO_END, LAYERS, P90_MIN_SAMPLES, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Config;

/// Times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Most failure messages a report keeps.
const MAX_FAILURES: usize = 8;

/// Wall time of `f` in milliseconds (for re-runs outside the items).
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Run settings.
    pub cfg: Config,
    /// Duration (s) of each set-up.
    pub setup_s: Vec<f64>,
    /// Duration (ms) of each untraced item.
    pub latencies_ms: Vec<f64>,
    /// Duration (ms) of each traced item (traced runs only).
    pub traced_ms: Vec<f64>,
    /// Instances solved (verified matchings for `kary_edits`) by the
    /// timed items.
    pub instances: u64,
    /// Summed duration (s) of the timed items.
    pub timed_s: f64,
    /// Items whose outputs were checked.
    pub attempted: u64,
    /// Items with a failed output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Exact-counter lines: identical for every run of one seed.
    pub counters: Vec<String>,
    /// Per-layer metrics (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
    /// Recorded spans as JSON lines (traced runs).
    pub spans_jsonl: String,
    /// Largest RSS reading of the run, in bytes (see
    /// [`Report::sample_rss`]).
    pub peak_rss_bytes: u64,
}

impl Report {
    /// Failed checks over items attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Record a reading of the process's peak RSS: the larger of the
    /// kernel's high-water mark (`VmHWM`) and the current RSS (`VmRSS`),
    /// since the high-water mark can lag the current figure on some
    /// kernels. Taken after each of the workload's minimum items only (the
    /// high-water mark covers set-up), so the peak does not depend on how
    /// many items a time-bounded run gets through.
    pub fn sample_rss(&mut self) {
        let hwm = kmatch_obs::peak_rss_bytes().unwrap_or(0);
        let cur = kmatch_obs::current_rss_bytes().unwrap_or(0);
        self.peak_rss_bytes = self.peak_rss_bytes.max(hwm).max(cur);
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let throughput = if self.timed_s > 0.0 {
            self.instances as f64 / self.timed_s
        } else {
            0.0
        };
        let values = [
            median(&self.setup_s),
            median(&self.latencies_ms),
            throughput,
            self.peak_rss_bytes as f64 / 1e6,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, _), v)| (name, v))
            .collect()
    }

    /// The per-layer metrics of a traced run, 0 for layers the workload
    /// does not pass through.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The metrics this run reports: end-to-end, or per-layer when traced.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        if self.cfg.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics().into_iter().enumerate() {
            let unit = crate::metrics::unit_of(name).expect("declared metric");
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: metrics with units and sample counts, output
    /// checks, counters and notes.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "workload {} seed {} size {:?} trace {}",
            self.workload, self.cfg.seed, self.cfg.size, self.cfg.trace as u8
        )];
        let n = self.latencies_ms.len();
        for (name, value) in self.end_to_end() {
            let unit = crate::metrics::unit_of(name).expect("declared metric");
            let samples = match name {
                "setup_s" => format!(" (median of {} set-ups)", self.setup_s.len()),
                "latency_ms_p50" => format!(
                    " ({n} samples, quartiles {:.3} / {:.3}, min {:.3})",
                    quantile(&self.latencies_ms, 0.25),
                    quantile(&self.latencies_ms, 0.75),
                    quantile(&self.latencies_ms, 0.0)
                ),
                "throughput_per_s" => {
                    format!(" ({} instances in {:.3} s)", self.instances, self.timed_s)
                }
                _ => String::new(),
            };
            lines.push(format!("metric {name} {value:.6} {unit}{samples}"));
            if name == "latency_ms_p50" {
                lines.push(if n >= P90_MIN_SAMPLES {
                    let p90 = quantile(&self.latencies_ms, 0.9);
                    format!("metric latency_ms_p90 {p90:.6} ms ({n} samples)")
                } else {
                    format!("latency_ms_p90 not reported: {n} samples < {P90_MIN_SAMPLES}")
                });
            }
        }
        lines.push(format!(
            "metric error_rate {:.6} ratio ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            lines.push(format!("failure {f}"));
        }
        if self.cfg.trace {
            for (name, value) in self.per_layer() {
                let unit = crate::metrics::unit_of(name).expect("declared metric");
                lines.push(format!("layer {name} {value:.6} {unit}"));
            }
        }
        lines.extend(self.notes.iter().cloned());
        lines.extend(self.counters.iter().map(|c| format!("counter {c}")));
        lines
    }
}

/// The state a workload runs against.
pub struct Ctx {
    /// Run settings.
    pub cfg: Config,
    /// Span recorder (records only in traced runs).
    pub tracer: Tracer,
    /// The report being filled.
    pub report: Report,
    item_start: Option<Instant>,
    item_traced: bool,
    phase_start: Option<Instant>,
    min_items: usize,
    split_moves: Vec<(&'static str, &'static str, f64)>,
}

impl Ctx {
    /// A fresh run of `workload`.
    pub fn new(workload: &'static str, cfg: Config) -> Self {
        Ctx {
            cfg,
            tracer: Tracer::new(cfg.trace),
            report: Report {
                workload,
                cfg,
                setup_s: Vec::new(),
                latencies_ms: Vec::new(),
                traced_ms: Vec::new(),
                instances: 0,
                timed_s: 0.0,
                attempted: 0,
                failed: 0,
                failures: Vec::new(),
                counters: Vec::new(),
                layer: BTreeMap::new(),
                notes: Vec::new(),
                spans_jsonl: String::new(),
                peak_rss_bytes: 0,
            },
            item_start: None,
            item_traced: false,
            phase_start: None,
            min_items: 0,
            split_moves: Vec::new(),
        }
    }

    /// Run the set-up [`SETUP_REPS`] times afresh, recording each
    /// duration, and keep the last result.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Tracer) -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let t = Instant::now();
            let state = f(&mut self.tracer);
            self.report.setup_s.push(t.elapsed().as_secs_f64());
            last = Some(state);
        }
        last.expect("at least one set-up")
    }

    /// Whether to run another item: at least `min_items` items, and more
    /// until the timed phase — items with their checks and, in traced
    /// runs, re-runs — has lasted `--seconds`. Bounding the phase rather
    /// than the summed item time keeps every run's wall time at about
    /// set-up plus `--seconds`, whatever its checks cost.
    pub fn more(&mut self, done: usize, min_items: usize) -> bool {
        self.min_items = min_items;
        let start = *self.phase_start.get_or_insert_with(Instant::now);
        done < min_items || start.elapsed().as_secs_f64() < self.cfg.seconds
    }

    /// Start timing item `i`. In traced runs half the items are traced,
    /// interleaved as T U U T, T U U T, … so that traced and untraced
    /// items equally often follow a traced item's re-runs; their medians
    /// give the tracing overhead. Returns whether this item is traced.
    pub fn begin(&mut self, i: usize) -> bool {
        let traced = self.cfg.trace && matches!(i % 4, 0 | 3);
        self.item_traced = traced;
        self.tracer.set_enabled(traced);
        self.item_start = Some(Instant::now());
        self.tracer.begin_item(i as u32);
        traced
    }

    /// Stop timing the current item, which produced `instances` results.
    pub fn end(&mut self, instances: u64) {
        self.tracer.end_item();
        let t = self.item_start.take().expect("begin before end");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.tracer.set_enabled(self.cfg.trace);
        if self.item_traced {
            self.report.traced_ms.push(ms);
        } else {
            self.report.latencies_ms.push(ms);
        }
        self.report.timed_s += ms / 1e3;
        self.report.instances += instances;
    }

    /// Record the combined output check of one item (and an RSS reading
    /// for each of the first `min_items` items).
    pub fn check(&mut self, item: usize, result: Result<(), String>) {
        if item < self.min_items {
            self.report.sample_rss();
        }
        self.report.attempted += 1;
        if let Err(e) = result {
            self.report.failed += 1;
            if self.report.failures.len() < MAX_FAILURES {
                self.report.failures.push(format!("item {item}: {e}"));
            }
        }
    }

    /// Record one exact-counter line.
    pub fn counter(&mut self, line: String) {
        self.report.counters.push(line);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.report.layer.insert(name, value);
    }

    /// In the traced split, charge `share` of layer `from`'s self time to
    /// layer `to` instead: for work that runs inside another layer's call,
    /// with its share measured separately.
    pub fn move_split(&mut self, from: &'static str, to: &'static str, share: f64) {
        self.split_moves.push((from, to, share.clamp(0.0, 1.0)));
    }

    /// Close the run: in traced runs, split the median item across layers
    /// by summed span self time and state the tracing overhead.
    pub fn finish(mut self) -> Report {
        if self.cfg.trace {
            let traced = median(&self.report.traced_ms);
            let untraced = median(&self.report.latencies_ms);
            let mut by_layer = self.tracer.item_self_by_layer();
            for &(from, to, share) in &self.split_moves {
                let moved = by_layer.get(from).copied().unwrap_or(0.0) * share;
                *by_layer.entry(from).or_default() -= moved;
                *by_layer.entry(to).or_default() += moved;
            }
            let total: f64 = by_layer.values().sum();
            let scale = if total > 0.0 { traced / total } else { 0.0 };
            let share = |l: &str| by_layer.get(l).copied().unwrap_or(0.0) * scale;
            for (layer, name) in LAYERS.iter().zip([
                "split.prefs_ms",
                "split.gs_ms",
                "split.roommates_ms",
                "split.core_ms",
                "split.parallel_ms",
                "split.obs_ms",
                "split.incremental_ms",
            ]) {
                self.layer(name, share(layer));
            }
            self.layer("split.unaccounted_ms", share("bench"));
            self.layer("trace.item_ms", traced);
            self.layer("trace.untraced_item_ms", untraced);
            let overhead = if untraced > 0.0 {
                (traced / untraced - 1.0) * 100.0
            } else {
                0.0
            };
            self.layer("trace.overhead_pct", overhead);
            self.report.notes.push(format!(
                "trace median item {traced:.3} ms traced vs {untraced:.3} ms untraced ({} vs {} items): overhead {overhead:+.2}%",
                self.report.traced_ms.len(),
                self.report.latencies_ms.len()
            ));
            self.report.spans_jsonl = self.tracer.to_jsonl();
        }
        self.report
    }
}
