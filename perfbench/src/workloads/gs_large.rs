//! `gs_large`: one lazy `RandomOracle` GS solve at n = 10⁶ per item, on
//! one thread, no observer, a fresh derived seed per solve.

use kmatch_gs::GsWorkspace;
use kmatch_prefs::RandomOracle;

use crate::checks;
use crate::counting::Counting;
use crate::rng::derive;
use crate::run::{Ctx, Report};
use crate::stats::median;
use crate::{Config, Size};

const STREAM: u64 = 1;

/// Solves run even when they exceed `--seconds`; the counter section
/// covers exactly these.
const MIN_ITEMS: usize = 3;

/// Run the workload.
pub fn run(cfg: Config) -> Report {
    let n = match cfg.size {
        Size::Full => 1_000_000,
        Size::Tiny => 2_000,
    };
    let mut ctx = Ctx::new("gs_large", cfg);
    let oracle_at = |i: u64| RandomOracle::new(n, derive(cfg.seed, STREAM, i));

    // Set-up: workspace sized for n, warmed by one solve of a warm-up
    // instance (index 0; timed items use 1, 2, ...).
    let mut ws = ctx.setup(|tr| {
        let oracle = tr.span("prefs.build", || oracle_at(0));
        let mut ws = tr.span("gs.workspace", || GsWorkspace::with_capacity(n));
        tr.span("gs.solve", || ws.solve(&oracle));
        ws
    });

    // The O(proposals) check costs about one solve; it runs outside the
    // timed items, on every core.
    let check_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut proposals = Vec::new();
    let mut traced_proposals = Vec::new();
    let mut rounds = Vec::new();
    let mut i = 0usize;
    while ctx.more(i, MIN_ITEMS) {
        let oracle = ctx.tracer.span("prefs.build", || oracle_at(i as u64 + 1));
        let traced = ctx.begin(i);
        let out = ctx.tracer.span("gs.solve", || ws.solve(&oracle));
        ctx.end(1);
        if traced {
            traced_proposals.push(out.stats.proposals as f64);
        }
        let mut verdict = checks::gs_stable(&oracle, &out.matching, check_threads);
        proposals.push(out.stats.proposals as f64);
        rounds.push(out.stats.rounds as f64);
        if i < MIN_ITEMS {
            ctx.counter(format!(
                "gs_large seed={} item={i} n={n} proposals={} rounds={} arena_bytes={}",
                cfg.seed,
                out.stats.proposals,
                out.stats.rounds,
                ws.resident_bytes()
            ));
        }
        if cfg.trace && i == 0 {
            // Probe count of one solve, through a counting wrapper (a
            // re-run outside the timed items).
            let counting = Counting::new(oracle);
            ctx.tracer.tag_item(i as u32);
            let again = ctx.tracer.span("gs.counted", || ws.solve(&counting));
            ctx.tracer.tag_item(crate::trace::NONE);
            let probes = counting.probes();
            ctx.layer("prefs.probes", probes.total() as f64);
            ctx.counter(format!(
                "gs_large seed={} item={i} probes candidates={} ranks={}",
                cfg.seed, probes.candidates, probes.ranks
            ));
            verdict = verdict.and(checks::gs_equal(&again, &out, "counted re-run"));
        }
        ctx.check(i, verdict);
        i += 1;
    }

    if cfg.trace {
        let build = ctx.tracer.durations_ms("prefs.build");
        // One `gs.solve` span per traced item, in item order.
        let solve = ctx.tracer.self_times_ms("gs.solve");
        let ns_per_proposal: Vec<f64> = solve
            .iter()
            .zip(&traced_proposals)
            .map(|(ms, p)| ms * 1e6 / p)
            .collect();
        ctx.layer("prefs.build_ms", median(&build));
        ctx.layer(
            "prefs.oracle_bytes",
            std::mem::size_of::<RandomOracle>() as f64,
        );
        ctx.layer("gs.proposals", median(&proposals));
        ctx.layer("gs.rounds", median(&rounds));
        ctx.layer("gs.solve_ms", median(&solve));
        ctx.layer("gs.ns_per_proposal", median(&ns_per_proposal));
        ctx.layer("gs.arena_bytes", ws.resident_bytes() as f64);
    }
    ctx.finish()
}
