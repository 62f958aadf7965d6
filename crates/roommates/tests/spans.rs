//! Span-timeline instrumentation of the Irving engine: well-formed
//! streams and phase-1/phase-2 spans on both verdicts.

use kmatch_obs::{ManualClock, NoMetrics};
use kmatch_prefs::gen::paper::{section3b_left, section3b_right};
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_roommates::{solve, RoommatesWorkspace};
use kmatch_trace::{check_well_formed, span, EventKind, TraceRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn solvable_instance_emits_both_phases() {
    let inst = section3b_left();
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    let mut ws = RoommatesWorkspace::new();
    let out = ws.solve_spanned(&inst, &mut NoMetrics, &mut rec);
    assert!(out.is_stable());
    let events = rec.events();
    check_well_formed(events, false).unwrap();
    for name in [span::IRVING_SOLVE, span::IRVING_PHASE1, span::IRVING_PHASE2] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Begin && e.name == name),
            "missing {name} span"
        );
    }
    // irving.solve carries n and encloses everything.
    assert_eq!(
        events.first().map(|e| (e.name, e.arg)),
        Some((span::IRVING_SOLVE, 6))
    );
    assert_eq!(events.last().map(|e| e.name), Some(span::IRVING_SOLVE));
}

#[test]
fn phase1_failure_still_closes_spans() {
    // The paper's right-hand lists die in phase 1: no phase-2 span, but
    // the stream must still balance.
    let inst = section3b_right();
    let clock = ManualClock::new();
    let mut rec = TraceRecorder::new(&clock);
    let mut ws = RoommatesWorkspace::new();
    let out = ws.solve_spanned(&inst, &mut NoMetrics, &mut rec);
    assert!(!out.is_stable());
    let events = rec.events();
    check_well_formed(events, false).unwrap();
    assert!(events.iter().any(|e| e.name == span::IRVING_PHASE1));
    assert!(!events.iter().any(|e| e.name == span::IRVING_PHASE2));
}

#[test]
fn spanned_matches_plain_across_random_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let clock = ManualClock::new();
    let mut ws = RoommatesWorkspace::new();
    for _ in 0..20 {
        for n in [6usize, 9, 12] {
            let inst = uniform_roommates(n, &mut rng);
            let mut rec = TraceRecorder::new(&clock);
            let spanned = ws.solve_spanned(&inst, &mut NoMetrics, &mut rec);
            let plain = solve(&inst);
            assert_eq!(spanned.matching(), plain.matching());
            assert_eq!(spanned.stats(), plain.stats());
            check_well_formed(rec.events(), false).unwrap();
        }
    }
}
