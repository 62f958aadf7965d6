//! Output checks. Every check runs outside the timed region and returns
//! `Err(reason)` on a wrong result; a failed check counts against the
//! run's `error_rate`.

use kmatch_core::{bind_with_stats, is_kary_stable, BlockingFamily, KAryMatching};
use kmatch_graph::BindingTree;
use kmatch_gs::{BipartiteMatching, GsOutcome};
use kmatch_prefs::{KPartiteInstance, PrefOracle, RoommatesOracle};
use kmatch_roommates::partition::verify_partition;
use kmatch_roommates::{CertKind, EscalationReport, RoommatesOutcome};

/// Check result.
pub type Check = Result<(), String>;

/// Stability of a perfect bipartite matching against the oracle, in
/// O(proposals) probes: each proposer walks its list down to its partner,
/// and every responder it passes must hold someone she ranks higher. The
/// walk covers exactly the pairs deferred acceptance proposed, so a
/// proposer-optimal result costs one probe pair per proposal.
///
/// The walks are split across `threads` scoped threads (inline for 1);
/// the first failure in proposer order is reported.
pub fn gs_stable<P: PrefOracle + Sync>(
    prefs: &P,
    matching: &BipartiteMatching,
    threads: usize,
) -> Check {
    let n = prefs.n();
    if matching.n() != n {
        return Err(format!("matching has {} pairs, instance {n}", matching.n()));
    }
    // Rank each responder gives her own partner: one probe per responder.
    // Computed on this thread, so the workers allocate nothing and the
    // process's memory high-water mark does not depend on scheduling.
    let held: Vec<u32> = (0..n as u32)
        .map(|w| prefs.responder_rank(w, matching.partner_of_responder(w)))
        .collect();
    if threads <= 1 {
        return gs_walk(prefs, matching, &held, 0..n as u32);
    }
    let chunk = n.div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let (r, held) = (lo as u32..(lo + chunk).min(n) as u32, &held);
                s.spawn(move || gs_walk(prefs, matching, held, r))
            })
            .collect();
        parts
            .into_iter()
            .try_for_each(|h| h.join().expect("check thread panicked"))
    })
}

/// The proposer walks of [`gs_stable`] for proposers `range`, given each
/// responder's rank of her partner.
fn gs_walk<P: PrefOracle>(
    prefs: &P,
    matching: &BipartiteMatching,
    held: &[u32],
    range: std::ops::Range<u32>,
) -> Check {
    for m in range {
        let partner = matching.partner_of_proposer(m);
        if matching.partner_of_responder(partner) != m {
            return Err(format!("proposer {m} and responder {partner} disagree"));
        }
        let mut pos = 0u32;
        loop {
            if pos >= prefs.row_len(m) {
                return Err(format!(
                    "proposer {m}'s partner {partner} is not on its list"
                ));
            }
            let w = prefs.candidate(m, pos);
            if w == partner {
                break;
            }
            if prefs.responder_rank(w, m) < held[w as usize] {
                return Err(format!("blocking pair (proposer {m}, responder {w})"));
            }
            pos += 1;
        }
    }
    Ok(())
}

/// Two GS results agree: same matching and same counters.
pub fn gs_equal(got: &GsOutcome, want: &GsOutcome, what: &str) -> Check {
    if got.matching != want.matching {
        return Err(format!("{what}: matching differs from the serial solve"));
    }
    if got.stats != want.stats {
        return Err(format!(
            "{what}: stats {:?} differ from the serial solve's {:?}",
            got.stats, want.stats
        ));
    }
    Ok(())
}

/// What an escalating roommates solve decided: must be identical every
/// time the same instance is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// A stable matching was found.
    pub stable: bool,
    /// The certificate that settled it.
    pub cert: CertKind,
    /// Cut of the deciding attempt.
    pub final_cut: u32,
    /// Truncated attempts run.
    pub attempts: u32,
}

impl Verdict {
    /// The verdict of one escalating solve.
    pub fn of(out: &RoommatesOutcome, report: &EscalationReport) -> Self {
        Verdict {
            stable: out.matching().is_some(),
            cert: report.cert,
            final_cut: report.final_cut,
            attempts: report.attempts,
        }
    }
}

/// Stability of a perfect roommates matching against the full oracle,
/// without listing pairs: each agent walks its list down to its partner
/// and asks, by threshold compare, whether each agent it passes would
/// rather have it than its own partner.
pub fn roommates_stable<O: RoommatesOracle>(oracle: &O, partner: &[u32]) -> Check {
    let n = oracle.n();
    if partner.len() != n {
        return Err(format!(
            "matching covers {} agents, instance {n}",
            partner.len()
        ));
    }
    for (p, &q) in partner.iter().enumerate() {
        if q as usize >= n || q as usize == p || partner[q as usize] as usize != p {
            return Err(format!("agent {p} has no consistent partner"));
        }
    }
    let held: Vec<u32> = (0..n as u32)
        .map(|p| oracle.rank_of(p, partner[p as usize]))
        .collect();
    for p in 0..n as u32 {
        for pos in 0..held[p as usize] {
            let q = oracle.candidate(p, pos);
            if oracle.rank_lt(q, p, held[q as usize]) {
                return Err(format!("blocking pair ({p}, {q})"));
            }
        }
    }
    Ok(())
}

/// An escalating solve's outcome is consistent with its certificate, a
/// stable outcome is stable on the full oracle, and the verdict equals
/// `reference` (an earlier solve of the same instance) when given.
pub fn roommates_outcome<O: RoommatesOracle>(
    oracle: &O,
    out: &RoommatesOutcome,
    report: &EscalationReport,
    reference: Option<Verdict>,
) -> Check {
    let verdict = Verdict::of(out, report);
    if let Some(want) = reference {
        if verdict != want {
            return Err(format!(
                "verdict {verdict:?} differs from an earlier solve's {want:?}"
            ));
        }
    }
    match (out.matching(), report.cert) {
        (Some(m), CertKind::Stable | CertKind::FullWidth) => roommates_stable(oracle, m.partners()),
        (None, CertKind::Partition) => {
            if report.odd_parties == 0 || report.singletons > 8 {
                return Err(format!(
                    "partition certificate with {} odd parties and {} singletons",
                    report.odd_parties, report.singletons
                ));
            }
            Ok(())
        }
        (None, CertKind::FullWidth) => Ok(()),
        (m, cert) => Err(format!(
            "certificate {cert:?} contradicts the {} verdict",
            if m.is_some() { "stable" } else { "unsolvable" }
        )),
    }
}

/// A stable-partition certificate of unsolvability, checked from the
/// partition alone: `pi` must pass `verify_partition` on the full oracle
/// (sound whatever produced it) and hold an odd party, a cycle of `pi` of
/// odd length (singletons included). Together these prove the instance
/// has no stable matching.
pub fn roommates_partition<O: RoommatesOracle>(oracle: &O, pi: &[u32]) -> Check {
    if !verify_partition(oracle, pi) {
        return Err("partition fails verify_partition".to_string());
    }
    let mut seen = vec![false; pi.len()];
    for start in 0..pi.len() {
        let mut len = 0usize;
        let mut p = start;
        while !seen[p] {
            seen[p] = true;
            p = pi[p] as usize;
            len += 1;
        }
        if len % 2 == 1 {
            return Ok(());
        }
    }
    Err("partition has no odd party".to_string())
}

/// A bound k-ary matching is stable (Theorem 2), and the production
/// verifier agrees with the reference DFS verdict the timed item computed.
pub fn kary_stable(
    inst: &KPartiteInstance,
    matching: &KAryMatching,
    dfs_verdict: &Option<BlockingFamily>,
) -> Check {
    let bitset_stable = is_kary_stable(inst, matching);
    if bitset_stable != dfs_verdict.is_none() {
        return Err(format!(
            "verifiers disagree: find_blocking_family {:?}, is_kary_stable {bitset_stable}",
            dfs_verdict
        ));
    }
    match dfs_verdict {
        Some(f) => Err(format!("blocking family {:?}", f.members)),
        None => Ok(()),
    }
}

/// An incremental rebind equals a fresh full bind of the edited
/// instance.
pub fn kary_rebind(inst: &KPartiteInstance, tree: &BindingTree, got: &KAryMatching) -> Check {
    let fresh = bind_with_stats(inst, tree);
    if &fresh.matching != got {
        return Err("rebind differs from a fresh full bind".to_string());
    }
    Ok(())
}
