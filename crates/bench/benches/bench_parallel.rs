//! E8/E9 — parallel binding: work-stealing executor vs sequential Algorithm 1,
//! and schedule shape (even-odd path vs Δ-coloring vs unscheduled), on path,
//! star and random binding trees.
//!
//! Every configuration first prints one `pram` line: the PRAM model's
//! predicted cost (`kmatch_parallel::pram`) from the sequential run's
//! per-edge proposal counts — total iterations, EREW depth and iterations
//! under the Δ-coloring (and the even–odd schedule on paths), and CREW
//! iterations — so the wall times below it read against Corollaries 1–2.
//! The executor starts `default_threads()` workers, i.e. the CPUs the
//! process may run on: compare an unpinned run with one under
//! `taskset -c 0` to see what the second core buys.
//!
//! Instances are full k-partite tables of `k·(k−1)·n²` ranks (plus the
//! nested lists they are built from), so the grid stops at k = 4 for
//! n = 2000: k = 8 and k = 16 there would need ~2.7 GB and ~11 GB.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch_bench::rng;
use kmatch_core::bind_with_stats;
use kmatch_graph::{even_odd_path_schedule, random_tree, tree_edge_coloring, BindingTree};
use kmatch_parallel::{crew_cost, erew_cost, parallel_bind, parallel_bind_scheduled};
use kmatch_prefs::gen::uniform::uniform_kpartite;
use std::time::Duration;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for (k, n) in [(4usize, 500usize), (8, 500), (16, 500), (4, 2000)] {
        let inst = uniform_kpartite(k, n, &mut rng(401));
        let trees = [
            ("path", BindingTree::path(k)),
            ("star", BindingTree::star(k, 0)),
            ("random", random_tree(k, &mut rng(402))),
        ];
        for (shape, tree) in trees {
            let id = format!("k{k}_n{n}_{shape}");
            let coloring = tree_edge_coloring(&tree);
            let even_odd = even_odd_path_schedule(&tree);
            let per_edge = bind_with_stats(&inst, &tree).per_edge;
            let total: u64 = per_edge.iter().map(|s| s.proposals).sum();
            let erew = erew_cost(&tree, &per_edge, Some(&coloring));
            let even_odd_cost = even_odd.as_ref().map_or(String::from("-"), |s| {
                let cost = erew_cost(&tree, &per_edge, Some(s));
                format!("{}/{}", cost.depth(), cost.total_iterations())
            });
            println!(
                "pram {id}: delta={} iterations={total} erew_coloring={}/{} \
                 erew_even_odd={even_odd_cost} crew={}",
                tree.max_degree(),
                erew.depth(),
                erew.total_iterations(),
                crew_cost(&tree, &per_edge).total_iterations(),
            );
            group.bench_with_input(BenchmarkId::new("sequential", &id), &inst, |b, inst| {
                b.iter(|| bind_with_stats(inst, &tree).total_proposals())
            });
            group.bench_with_input(BenchmarkId::new("steal_all", &id), &inst, |b, inst| {
                b.iter(|| parallel_bind(inst, &tree).per_edge.len())
            });
            group.bench_with_input(BenchmarkId::new("steal_coloring", &id), &inst, |b, inst| {
                b.iter(|| parallel_bind_scheduled(inst, &tree, &coloring).rounds_executed)
            });
            if let Some(even_odd) = &even_odd {
                group.bench_with_input(
                    BenchmarkId::new("steal_even_odd", &id),
                    &inst,
                    |b, inst| {
                        b.iter(|| parallel_bind_scheduled(inst, &tree, even_odd).rounds_executed)
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
