//! Machine-readable incremental-solving measurements →
//! `results/BENCH_incremental.json`.
//!
//! Replays a stream of 1-row preference deltas through two solvers and
//! records the mean cost per delta of each, delta application included:
//!
//! - **rebuild** — what a non-incremental caller pays: apply the delta to
//!   the instance, reload the CSR arena from it, and solve
//!   (`rebuild_solve_ns`);
//! - **apply** — `IncrementalGs::apply` (O(n) arena patch and fingerprint
//!   update) plus a solve on the patched arena (`apply_solve_ns`);
//!
//! plus **cached** — a repeated solve of an unchanged state, served from
//! the content-addressed cache as a clone of the stored matching
//! (`cached_ns`). Both solving paths run the same engine on the same
//! preferences, so their proposal counts must agree exactly; the bench
//! asserts it. The two paths alternate which runs first per delta, so
//! cache warmth favours neither. Run with
//! `cargo run --release --bin bench_incremental_json`.

use std::time::Instant;

use kmatch_bench::harness::write_results;
use kmatch_bench::rng;
use kmatch_gs::{GsOutcome, GsWorkspace};
use kmatch_incremental::IncrementalGs;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{CsrPrefs, DeltaSide, PrefDelta};
use rand::seq::SliceRandom;
use serde::impl_json_struct;

/// One instance-size comparison row. All `_ns` figures are means per
/// delta (or per repeat, for `cached_ns`); proposal figures are totals.
#[derive(Debug, Clone)]
struct Row {
    n: usize,
    /// 1-row `SetRow` deltas replayed.
    deltas: usize,
    /// `IncrementalGs::apply` + solve on the patched arena.
    apply_solve_ns: f64,
    /// Instance edit + full CSR reload + solve.
    rebuild_solve_ns: f64,
    /// Cache-hit solve of an unchanged state.
    cached_ns: f64,
    /// `rebuild_solve_ns / apply_solve_ns`.
    apply_speedup: f64,
    /// `rebuild_solve_ns / cached_ns`.
    cached_speedup: f64,
    /// Proposals of the solves on the patched arena.
    apply_proposals: u64,
    /// Proposals of the solves on the rebuilt arena.
    rebuild_proposals: u64,
    /// Proposals of the cache-hit solves (none run the engine).
    cached_proposals: u64,
}

impl_json_struct!(Row {
    n,
    deltas,
    apply_solve_ns,
    rebuild_solve_ns,
    cached_ns,
    apply_speedup,
    cached_speedup,
    apply_proposals,
    rebuild_proposals,
    cached_proposals
});

#[derive(Debug, Clone)]
struct Report {
    rows: Vec<Row>,
}

impl_json_struct!(Report { rows });

fn row(n: usize, deltas: usize) -> Row {
    let mut r = rng(601 + n as u64);
    let inst = uniform_bipartite(n, &mut r);

    // Distinct random row rewrites so every session solve is a true cache
    // miss (a repeated state would be served from the cache instead).
    let stream: Vec<PrefDelta> = (0..deltas)
        .map(|i| {
            let mut prefs: Vec<u32> = (0..n as u32).collect();
            prefs.shuffle(&mut r);
            PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: (i % n) as u32,
                prefs,
            }
        })
        .collect();

    // Prime both solvers: steady state on both sides, nothing allocates
    // inside the timed region.
    let mut shadow = inst.clone();
    let mut ws = GsWorkspace::with_capacity(n);
    let mut csr = CsrPrefs::new();
    csr.load(&shadow);
    ws.solve(&csr);
    let mut session = IncrementalGs::new(inst);
    session.solve();

    let mut rebuild = |delta: &PrefDelta| -> (u64, GsOutcome) {
        let t = Instant::now();
        shadow.apply_delta(delta).expect("generated delta is valid");
        csr.load(&shadow);
        let out = ws.solve(&csr);
        (t.elapsed().as_nanos() as u64, out)
    };
    let mut apply = |delta: &PrefDelta| -> (u64, GsOutcome) {
        let t = Instant::now();
        session.apply(delta).expect("generated delta is valid");
        let out = session.solve();
        (t.elapsed().as_nanos() as u64, out)
    };
    let (mut rebuild_ns, mut apply_ns) = (0u64, 0u64);
    let (mut rebuild_proposals, mut apply_proposals) = (0u64, 0u64);
    for (i, delta) in stream.iter().enumerate() {
        let ((r_ns, rebuilt), (a_ns, applied)) = if i % 2 == 0 {
            let r = rebuild(delta);
            (r, apply(delta))
        } else {
            let a = apply(delta);
            (rebuild(delta), a)
        };
        assert_eq!(
            applied.matching, rebuilt.matching,
            "patched-arena solve diverged from rebuild at n = {n}"
        );
        assert_eq!(
            applied.stats, rebuilt.stats,
            "patched arena ran a different schedule at n = {n}"
        );
        rebuild_ns += r_ns;
        apply_ns += a_ns;
        rebuild_proposals += rebuilt.stats.proposals;
        apply_proposals += applied.stats.proposals;
    }

    // Cache hits: the state is unchanged, so every further solve is a
    // fingerprint lookup plus a matching clone.
    let cached_reps = deltas.max(100);
    let mut cached_proposals = 0u64;
    let t = Instant::now();
    for _ in 0..cached_reps {
        cached_proposals += session.solve().stats.proposals;
    }
    let cached_ns = t.elapsed().as_nanos() as f64 / cached_reps as f64;

    let rebuild_solve_ns = rebuild_ns as f64 / deltas as f64;
    let apply_solve_ns = apply_ns as f64 / deltas as f64;
    Row {
        n,
        deltas,
        apply_solve_ns,
        rebuild_solve_ns,
        cached_ns,
        apply_speedup: rebuild_solve_ns / apply_solve_ns,
        cached_speedup: rebuild_solve_ns / cached_ns,
        apply_proposals,
        rebuild_proposals,
        cached_proposals,
    }
}

fn main() {
    let rows: Vec<Row> = [(256usize, 256), (1024, 128), (2000, 64)]
        .into_iter()
        .map(|(n, deltas)| row(n, deltas))
        .collect();

    for row in &rows {
        println!(
            "n = {:>5}: rebuild+solve {:>10.0} ns  apply+solve {:>9.0} ns ({:.1}x)  \
             cached {:>7.0} ns ({:.1}x)  proposals {} apply / {} rebuild / {} cached",
            row.n,
            row.rebuild_solve_ns,
            row.apply_solve_ns,
            row.apply_speedup,
            row.cached_ns,
            row.cached_speedup,
            row.apply_proposals,
            row.rebuild_proposals,
            row.cached_proposals,
        );
    }

    write_results("BENCH_incremental.json", &Report { rows });
}
