//! `roommates_cert`: escalating roommates solves over
//! `CachedRoommatesOracle` at n = 10⁴, one seed per item, serially on one
//! reused `RoommatesWorkspace`. Verdicts mix self-certified stable
//! matchings and partition-verified unsolvable instances.

use kmatch_prefs::{CachedRoommatesOracle, TruncatedRoommates};
use kmatch_roommates::partition::{tolerant_solve_budgeted, verify_partition, TolerantOutcome};
use kmatch_roommates::{solve_escalating, CertKind, RoommatesWorkspace};

use crate::checks::{self, Check, Verdict};
use crate::counting::Counting;
use crate::rng::derive;
use crate::run::{time_ms, Ctx, Report};
use crate::stats::median;
use crate::{Config, Size};

const STREAM: u64 = 3;

/// Stream of the set-up's warm-up instance. It is derived from seed 0,
/// not `--seed`, so every run's set-up solves the same instance and
/// `setup_s` times the same work whatever the seed; the seed's own
/// instances are all timed items.
const WARMUP_STREAM: u64 = 30;

/// Singleton budget of each escalation attempt (the library's default).
const SINGLETON_BUDGET: u32 = 8;

/// Every this many items a partition-certified verdict is re-derived at
/// its final cut and checked with `verify_partition` (traced items always
/// are).
const PARTITION_CHECK_EVERY: usize = 8;

const MIN_ITEMS: usize = 6;

/// Run the workload.
pub fn run(cfg: Config) -> Report {
    let n = match cfg.size {
        Size::Full => 10_000,
        Size::Tiny => 400,
    };
    let mut ctx = Ctx::new("roommates_cert", cfg);
    let oracle_at = |i: u64| CachedRoommatesOracle::new(n, derive(cfg.seed, STREAM, i));

    // Set-up: oracle and workspace, warmed by solving the warm-up
    // instance; every set-up must reach the same verdict on it.
    let mut warmups = Vec::new();
    let mut ws = ctx.setup(|tr| {
        let oracle = tr.span("prefs.build", || {
            CachedRoommatesOracle::new(n, derive(0, WARMUP_STREAM, 0))
        });
        let mut ws = RoommatesWorkspace::new();
        let (out, rep) = tr.span("roommates.escalate", || solve_escalating(&oracle, &mut ws));
        warmups.push(Verdict::of(&out, &rep));
        ws
    });

    let mut layer = Layer::default();
    let mut i = 0usize;
    while ctx.more(i, MIN_ITEMS) {
        let oracle = ctx.tracer.span("prefs.build", || oracle_at(i as u64));
        let traced = ctx.begin(i);
        let (out, rep) = ctx
            .tracer
            .span("roommates.escalate", || solve_escalating(&oracle, &mut ws));
        ctx.end(1);

        // Item 0 is solved again, after itself rather than after the
        // warm-up instance: the verdict must not depend on what the reused
        // workspace solved before.
        let reference = (i == 0).then(|| {
            let (out, rep) = solve_escalating(&oracle, &mut ws);
            Verdict::of(&out, &rep)
        });
        let mut verdict = checks::roommates_outcome(&oracle, &out, &rep, reference);
        if i == 0 && warmups.iter().any(|v| *v != warmups[0]) {
            verdict = Err(format!("set-up verdicts disagree: {warmups:?}"));
        }
        let v = Verdict::of(&out, &rep);
        if traced {
            let item_ms = *ctx.report.traced_ms.last().expect("item recorded");
            ctx.tracer.tag_item(i as u32);
            let partition = layer.rerun(&mut ctx, &oracle, &mut ws, v, item_ms);
            ctx.tracer.tag_item(crate::trace::NONE);
            verdict = verdict.and(partition);
        } else if v.cert == CertKind::Partition && i.is_multiple_of(PARTITION_CHECK_EVERY) {
            let truncated = TruncatedRoommates::new(&oracle, v.final_cut);
            let decided = tolerant_solve_budgeted(&truncated, &mut ws, SINGLETON_BUDGET);
            verdict = verdict.and(partition_check(&oracle, &decided, v.final_cut));
        }
        ctx.check(i, verdict);
        if i < MIN_ITEMS {
            ctx.counter(format!(
                "roommates_cert seed={} item={i} n={n} stable={} cert={:?} attempts={} final_cut={} proposals={} arena_entries={} arena_bytes={}",
                cfg.seed,
                v.stable,
                v.cert,
                v.attempts,
                v.final_cut,
                out.stats().proposals,
                rep.arena_entries,
                rep.arena_bytes
            ));
            if traced {
                let probes = layer.probes.last().expect("probes recorded");
                ctx.counter(format!(
                    "roommates_cert seed={} item={i} probes={probes}",
                    cfg.seed
                ));
            }
        }
        layer.attempts.push(rep.attempts as f64);
        layer.final_cut.push(rep.final_cut as f64);
        layer.arena_bytes.push(rep.arena_bytes as f64);
        layer.partition += (rep.cert == CertKind::Partition) as u32;
        layer.items += 1;
        i += 1;
    }

    if cfg.trace {
        let share = layer.partition as f64 / layer.items.max(1) as f64;
        ctx.layer(
            "prefs.build_ms",
            median(&ctx.tracer.durations_ms("prefs.build")),
        );
        ctx.layer("prefs.oracle_bytes", oracle_at(0).resident_bytes() as f64);
        ctx.layer("prefs.probes", median(&layer.probes));
        ctx.layer("prefs.ns_per_probe", median(&layer.ns_per_probe));
        ctx.layer("roommates.attempts", median(&layer.attempts));
        ctx.layer("roommates.final_cut", median(&layer.final_cut));
        ctx.layer("roommates.partition_share", share);
        ctx.layer("roommates.decide_ms", median(&layer.decide_ms));
        ctx.layer("roommates.verify_ms", median(&layer.verify_ms));
        ctx.layer("roommates.verify_probes", median(&layer.verify_probes));
        ctx.layer(
            "roommates.escalation_share",
            median(&layer.escalation_share),
        );
        ctx.layer("roommates.arena_bytes", median(&layer.arena_bytes));
        ctx.report.notes.push(format!(
            "roommates partition_share {share:.3} ({} of {} items partition-verified); verify_ms applies to those only",
            layer.partition, layer.items
        ));
    }
    ctx.finish()
}

/// Per-item observations behind the roommates per-layer metrics.
#[derive(Default)]
struct Layer {
    items: u32,
    partition: u32,
    attempts: Vec<f64>,
    final_cut: Vec<f64>,
    arena_bytes: Vec<f64>,
    probes: Vec<f64>,
    ns_per_probe: Vec<f64>,
    decide_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    verify_probes: Vec<f64>,
    escalation_share: Vec<f64>,
}

impl Layer {
    /// Re-runs of a traced item, outside its timing: the deciding attempt
    /// alone at the reported cut, the partition verification, and
    /// counting-wrapper replays of the whole solve, the decision and the
    /// verification. Returns the check of the re-derived partition
    /// (`Ok` for items that did not certify one).
    fn rerun(
        &mut self,
        ctx: &mut Ctx,
        oracle: &CachedRoommatesOracle,
        ws: &mut RoommatesWorkspace,
        v: Verdict,
        item_ms: f64,
    ) -> Check {
        let tr = &mut ctx.tracer;
        let counted = Counting::new(oracle);
        tr.span("roommates.counted", || solve_escalating(&counted, ws));
        self.probes.push(counted.probes().total() as f64);

        let mut check = Ok(());
        let (decide_ms, verify_ms) = if v.cert == CertKind::FullWidth {
            let ms = time_ms(|| {
                tr.span("roommates.decide", || ws.solve(oracle));
            });
            (ms, 0.0)
        } else {
            let truncated = TruncatedRoommates::new(oracle, v.final_cut);
            let mut decided = None;
            let decide_ms = time_ms(|| {
                decided = Some(tr.span("roommates.decide", || {
                    tolerant_solve_budgeted(&truncated, ws, SINGLETON_BUDGET)
                }))
            });
            let decided = decided.expect("decided");
            let counted = Counting::new(oracle);
            let truncated_counted = TruncatedRoommates::new(&counted, v.final_cut);
            tolerant_solve_budgeted(&truncated_counted, ws, SINGLETON_BUDGET);
            let decide_probes = counted.probes().total();
            self.ns_per_probe
                .push(decide_ms * 1e6 / decide_probes.max(1) as f64);
            let mut verify_ms = 0.0;
            if v.cert == CertKind::Partition {
                verify_ms = time_ms(|| {
                    check = tr.span("roommates.verify", || {
                        partition_check(oracle, &decided, v.final_cut)
                    });
                });
                if let TolerantOutcome::Partition { partition, .. } = &decided {
                    let counted = Counting::new(oracle);
                    verify_partition(&counted, &partition.pi);
                    self.verify_probes.push(counted.probes().total() as f64);
                }
                self.verify_ms.push(verify_ms);
            }
            (decide_ms, verify_ms)
        };
        self.decide_ms.push(decide_ms);
        self.escalation_share
            .push(((item_ms - decide_ms - verify_ms) / item_ms).max(0.0));
        check
    }
}

/// Check of a partition-certified verdict: the tolerant solve at the
/// reported final cut must give a partition, and that partition must pass
/// [`checks::roommates_partition`] on the full oracle.
fn partition_check(oracle: &CachedRoommatesOracle, decided: &TolerantOutcome, cut: u32) -> Check {
    match decided {
        TolerantOutcome::Partition { partition, .. } => {
            checks::roommates_partition(oracle, &partition.pi)
        }
        _ => Err(format!("the re-solve at final cut {cut} gave no partition")),
    }
}
