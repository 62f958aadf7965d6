//! `kary_edits`: the paper's Algorithm 1 under an edit stream. A uniform
//! k = 4, n = 500 k-partite instance is bound along a path tree; item 0
//! is `parallel_bind` plus verification, every later item a burst of row
//! rewrites, an incremental rebind and `find_blocking_family`.

use std::time::Instant;

use kmatch_core::{bind_with_stats, find_blocking_family};
use kmatch_graph::BindingTree;
use kmatch_incremental::IncrementalBinder;
use kmatch_parallel::parallel_bind;
use kmatch_prefs::gen::uniform::uniform_kpartite;
use kmatch_prefs::{GenderId, Member};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::checks;
use crate::rng::{derive, SplitMix};
use crate::run::{time_ms, Ctx, Report};
use crate::stats::median;
use crate::{Config, Size};

const STREAM: u64 = 4;

/// Genders.
pub const K: usize = 4;

/// Row rewrites per edit burst.
pub const BURST: usize = 4;

/// Every this many items the rebind is compared with a fresh full
/// `bind_with_stats` of the edited instance.
const REBIND_CHECK_EVERY: usize = 8;

const MIN_ITEMS: usize = 16;

/// One row rewrite: member, the gender its row ranks, the new row.
type Rewrite = (Member, GenderId, Vec<u32>);

/// Run the workload.
pub fn run(cfg: Config) -> Report {
    let n = match cfg.size {
        Size::Full => 500,
        Size::Tiny => 24,
    };
    let mut ctx = Ctx::new("kary_edits", cfg);
    let tree = BindingTree::path(K);

    // Set-up: instance generation, binder build, and the binder's first
    // bind (every edge solved once).
    let mut binder = ctx.setup(|tr| {
        let mut rng = ChaCha8Rng::seed_from_u64(derive(cfg.seed, STREAM, 0));
        let inst = tr.span("prefs.build", || uniform_kpartite(K, n, &mut rng));
        let mut binder = tr.span("incremental.build", || {
            IncrementalBinder::new(inst, tree.clone())
        });
        tr.span("incremental.rebind", || binder.bind());
        binder
    });

    let mut edits = SplitMix::new(derive(cfg.seed, STREAM, 1));
    let mut layer = Layer::default();
    let mut i = 0usize;
    while ctx.more(i, MIN_ITEMS) {
        if i == 0 {
            let inst = binder.instance();
            ctx.begin(i);
            let out = ctx
                .tracer
                .span("parallel.bind", || parallel_bind(inst, &tree));
            let family = ctx
                .tracer
                .span("core.verify", || find_blocking_family(inst, &out.matching));
            ctx.end(1);
            let verdict = checks::kary_stable(inst, &out.matching, &family)
                .and(checks::kary_rebind(inst, &tree, &out.matching));
            ctx.check(i, verdict);
            let proposals: u64 = out.per_edge.iter().map(|s| s.proposals).sum();
            ctx.counter(format!(
                "kary_edits seed={} item=0 k={K} n={n} parallel_bind proposals={proposals} rounds_executed={}",
                cfg.seed, out.rounds_executed
            ));
            i += 1;
            continue;
        }

        let burst: Vec<Rewrite> = (0..BURST).map(|_| rewrite(&mut edits, n)).collect();
        let traced = ctx.begin(i);
        for (m, h, row) in &burst {
            ctx.tracer
                .span("incremental.edit", || binder.set_pref_row(*m, *h, row))
                .expect("generated rows are permutations");
        }
        let out = ctx.tracer.span("incremental.rebind", || binder.bind());
        let family = ctx.tracer.span("core.verify", || {
            find_blocking_family(binder.instance(), &out.matching)
        });
        ctx.end(1);

        let dirty = out.per_edge.iter().filter(|s| s.proposals > 0).count();
        let proposals: u64 = out.per_edge.iter().map(|s| s.proposals).sum();
        layer.dirty += dirty;
        layer.edges += out.per_edge.len();
        layer.proposals.push(proposals as f64);
        let t = Instant::now();
        let mut verdict = checks::kary_stable(binder.instance(), &out.matching, &family);
        let bitset_ms = t.elapsed().as_secs_f64() * 1e3;
        if i.is_multiple_of(REBIND_CHECK_EVERY) {
            verdict = verdict.and(checks::kary_rebind(binder.instance(), &tree, &out.matching));
        }
        ctx.check(i, verdict);
        if i < MIN_ITEMS {
            ctx.counter(format!(
                "kary_edits seed={} item={i} dirty_edges={dirty} proposals={proposals}",
                cfg.seed
            ));
        }
        if traced {
            layer.bitset_ms.push(bitset_ms);
            if i % REBIND_CHECK_EVERY == 3 {
                // One cold call each of the parallel and serial binders on
                // the current instance.
                ctx.tracer.tag_item(i as u32);
                let edited = binder.instance();
                layer.parallel_ms.push(time_ms(|| {
                    ctx.tracer
                        .span("parallel.bind", || parallel_bind(edited, &tree));
                }));
                layer.serial_ms.push(time_ms(|| {
                    ctx.tracer
                        .span("core.bind", || bind_with_stats(edited, &tree));
                }));
                ctx.tracer.tag_item(crate::trace::NONE);
            }
        }
        i += 1;
    }

    if cfg.trace {
        ctx.layer(
            "prefs.build_ms",
            median(&ctx.tracer.durations_ms("prefs.build")),
        );
        ctx.layer(
            "incremental.build_ms",
            median(&ctx.tracer.durations_ms("incremental.build")),
        );
        ctx.layer(
            "incremental.edit_us",
            median(&ctx.tracer.durations_ms("incremental.edit")) * 1e3,
        );
        ctx.layer(
            "incremental.rebind_ms",
            median(&ctx.tracer.self_times_ms("incremental.rebind")),
        );
        ctx.layer(
            "incremental.dirty_edge_share",
            layer.dirty as f64 / layer.edges.max(1) as f64,
        );
        ctx.layer(
            "core.verify_ms",
            median(&ctx.tracer.self_times_ms("core.verify")),
        );
        ctx.layer("core.verify_bitset_ms", median(&layer.bitset_ms));
        ctx.layer("gs.proposals", median(&layer.proposals));
        ctx.layer("parallel.bind_ms", median(&layer.parallel_ms));
        ctx.layer("core.bind_ms", median(&layer.serial_ms));
    }
    ctx.finish()
}

/// A uniform row rewrite: a uniform ordered gender pair `(g, h)`, a
/// uniform member of `g`, and a uniform permutation as its new row over
/// `h`. On a path tree half the ordered pairs lie on a tree edge.
fn rewrite(rng: &mut SplitMix, n: usize) -> Rewrite {
    let g = rng.below(K as u64) as usize;
    let h = (g + 1 + rng.below(K as u64 - 1) as usize) % K;
    let m = Member::new(g, rng.below(n as u64) as u32);
    (m, GenderId(h as u16), rng.permutation(n))
}

/// Per-item observations behind the k-ary per-layer metrics.
#[derive(Default)]
struct Layer {
    dirty: usize,
    edges: usize,
    proposals: Vec<f64>,
    bitset_ms: Vec<f64>,
    parallel_ms: Vec<f64>,
    serial_ms: Vec<f64>,
}
