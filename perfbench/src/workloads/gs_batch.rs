//! `gs_batch`: closed-loop batches of 64 lazy `RandomOracle` instances at
//! n = 2 000 through the metered work-stealing executor on 2 threads,
//! with a shared `BatchRegistry` — the `kmatch batch --threads` path.

use std::time::Instant;

use kmatch_gs::{GsOutcome, GsWorkspace};
use kmatch_obs::{BatchRegistry, StdClock};
use kmatch_parallel::{solve_batch_stealing, solve_batch_stealing_metered, StealReport};
use kmatch_prefs::RandomOracle;

use crate::checks;
use crate::rng::derive;
use crate::run::{Ctx, Report};
use crate::stats::median;
use crate::{Config, Size};

const STREAM: u64 = 2;
const STEAL_STREAM: u64 = 20;

/// Executor threads (the host this benchmark was sized on has 2 cores).
pub const THREADS: usize = 2;

/// Instances per batch whose outcome is re-solved serially and checked
/// for blocking pairs.
const SAMPLED: usize = 4;

const MIN_ITEMS: usize = 8;

/// Run the workload.
pub fn run(cfg: Config) -> Report {
    let (n, batch) = match cfg.size {
        Size::Full => (2_000, 64),
        Size::Tiny => (64, 8),
    };
    let mut ctx = Ctx::new("gs_batch", cfg);
    let steal_seed = derive(cfg.seed, STEAL_STREAM, 0);
    let clock = StdClock::new();
    let batch_at = |b: u64| -> Vec<RandomOracle> {
        (0..batch as u64)
            .map(|j| RandomOracle::new(n, derive(cfg.seed, STREAM, b * batch as u64 + j)))
            .collect()
    };

    // Set-up: a fresh registry warmed by one batch (index 0; timed items
    // use 1, 2, ...).
    let registry = ctx.setup(|tr| {
        let oracles = tr.span("prefs.build", || batch_at(0));
        let registry = tr.span("obs.registry", BatchRegistry::new);
        tr.span("parallel.batch", || {
            solve_batch_stealing_metered(&oracles, THREADS, steal_seed, &registry, &clock)
        });
        registry
    });
    let mut solves = registry.snapshot().solves;

    let mut serial_ws = GsWorkspace::with_capacity(n);
    let mut lane = Lanes::default();
    let mut i = 0usize;
    while ctx.more(i, MIN_ITEMS) {
        let oracles = ctx.tracer.span("prefs.build", || batch_at(i as u64 + 1));
        let traced = ctx.begin(i);
        let t = Instant::now();
        let (outs, report) = ctx.tracer.span("parallel.batch", || {
            solve_batch_stealing_metered(&oracles, THREADS, steal_seed, &registry, &clock)
        });
        let wall_ns = t.elapsed().as_nanos() as f64;
        ctx.tracer.span("obs.record", || {
            registry.record_execution(report.to_execution_record())
        });
        ctx.end(batch as u64);

        solves += batch as u64;
        let mut verdict = if outs.len() != batch {
            Err(format!("{} outcomes for {batch} instances", outs.len()))
        } else if registry.snapshot().solves != solves {
            Err("registry solve count does not match the batches run".to_string())
        } else {
            Ok(())
        };
        for s in 0..SAMPLED.min(batch) {
            let j = (derive(cfg.seed, STREAM, i as u64) as usize + s * batch / SAMPLED) % batch;
            if let Some(out) = outs.get(j) {
                let want = serial_ws.solve(&oracles[j]);
                verdict = verdict
                    .and(checks::gs_equal(out, &want, "2-thread outcome"))
                    .and(checks::gs_stable(&oracles[j], &out.matching, 1));
            }
        }
        ctx.check(i, verdict);
        if i < MIN_ITEMS {
            let (p, r) = totals(&outs);
            ctx.counter(format!(
                "gs_batch seed={} item={i} n={n} batch={batch} proposals={p} rounds={r}",
                cfg.seed
            ));
        }
        if traced {
            lane.record(&report, wall_ns, &outs);
            // Serial reference over the same batch, and metered vs plain
            // executor calls in alternating order (interleaved A/B pairs).
            let t = Instant::now();
            ctx.tracer.tag_item(i as u32);
            ctx.tracer.span("gs.serial", || {
                oracles
                    .iter()
                    .map(|o| serial_ws.solve(o))
                    .collect::<Vec<_>>()
            });
            let serial_ns = t.elapsed().as_nanos() as f64;
            lane.speedup.push(serial_ns / wall_ns);
            lane.serial_ms.push(serial_ns / 1e6);
            lane.ns_per_proposal
                .push(serial_ns / totals(&outs).0.max(1) as f64);
            let ab_registry = BatchRegistry::new();
            let mut ab = [0.0f64; 2];
            for k in 0..2 {
                let metered = (k + i / 2).is_multiple_of(2);
                let t = Instant::now();
                if metered {
                    ctx.tracer.span("parallel.metered", || {
                        solve_batch_stealing_metered(
                            &oracles,
                            THREADS,
                            steal_seed,
                            &ab_registry,
                            &clock,
                        )
                    });
                } else {
                    ctx.tracer.span("parallel.plain", || {
                        solve_batch_stealing(&oracles, THREADS, steal_seed)
                    });
                }
                ab[metered as usize] = t.elapsed().as_nanos() as f64;
            }
            ctx.tracer.tag_item(crate::trace::NONE);
            lane.metered_ratio.push(ab[1] / ab[0]);
        }
        i += 1;
    }

    if cfg.trace {
        ctx.layer(
            "prefs.build_ms",
            median(&ctx.tracer.durations_ms("prefs.build")),
        );
        ctx.layer(
            "prefs.oracle_bytes",
            (batch * std::mem::size_of::<RandomOracle>()) as f64,
        );
        ctx.layer("gs.proposals", median(&lane.proposals));
        ctx.layer("gs.rounds", median(&lane.rounds));
        ctx.layer("gs.solve_ms", median(&lane.serial_ms) / batch as f64);
        ctx.layer("gs.ns_per_proposal", median(&lane.ns_per_proposal));
        ctx.layer("gs.arena_bytes", serial_ws.resident_bytes() as f64);
        ctx.layer(
            "parallel.batch_ms",
            median(&ctx.tracer.self_times_ms("parallel.batch")),
        );
        ctx.layer("parallel.busy_share", median(&lane.busy_share));
        ctx.layer("parallel.steal_count", median(&lane.steals));
        ctx.layer("parallel.straggler_ratio", median(&lane.straggler));
        let speedup = median(&lane.speedup);
        ctx.layer("parallel.speedup", speedup);
        // The GS solves run inside the stealing call. Perfectly spread
        // over the lanes they would take serial ÷ THREADS of its wall
        // time; that share goes to gs in the split, the rest (scheduling,
        // imbalance, observer hooks) stays with parallel.
        ctx.move_split("parallel", "gs", speedup / THREADS as f64);
        ctx.layer(
            "obs.metered_overhead_pct",
            (median(&lane.metered_ratio) - 1.0) * 100.0,
        );
    }
    ctx.finish()
}

/// Summed proposals and rounds of a batch's outcomes.
fn totals(outs: &[GsOutcome]) -> (u64, u64) {
    outs.iter().fold((0, 0), |(p, r), o| {
        (p + o.stats.proposals, r + o.stats.rounds as u64)
    })
}

/// Executor observations of the traced batches.
#[derive(Default)]
struct Lanes {
    proposals: Vec<f64>,
    rounds: Vec<f64>,
    busy_share: Vec<f64>,
    steals: Vec<f64>,
    straggler: Vec<f64>,
    speedup: Vec<f64>,
    serial_ms: Vec<f64>,
    ns_per_proposal: Vec<f64>,
    metered_ratio: Vec<f64>,
}

impl Lanes {
    fn record(&mut self, report: &StealReport, wall_ns: f64, outs: &[GsOutcome]) {
        let busy: u64 = report.lanes.iter().map(|l| l.busy_ns).sum();
        let (p, r) = totals(outs);
        self.proposals.push(p as f64);
        self.rounds.push(r as f64);
        self.busy_share
            .push(busy as f64 / (report.threads.max(1) as f64 * wall_ns));
        self.steals.push(report.steal_count as f64);
        self.straggler.push(report.straggler_ratio());
    }
}
