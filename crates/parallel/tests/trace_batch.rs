//! Traced batch front-ends: per-worker `batch.chunk` timelines through
//! fixed-capacity flight recorders, identical outcomes to the plain path.

use kmatch_obs::{BatchRegistry, ManualClock};
use kmatch_parallel::{roommates, solve_batch, solve_batch_traced};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
use kmatch_trace::{check_well_formed, span, EventKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn traced_gs_batch_matches_plain_and_chunks_are_well_formed() {
    let mut rng = ChaCha8Rng::seed_from_u64(65);
    let batch: Vec<BipartiteInstance> =
        (0..120).map(|_| uniform_bipartite(20, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let (outs, traces) = solve_batch_traced(&batch, &registry, &clock, 1 << 16);
    let plain = solve_batch(&batch);
    assert_eq!(outs.len(), plain.len());
    for (a, b) in outs.iter().zip(&plain) {
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.stats, b.stats);
    }
    assert!(!traces.is_empty());
    let task_count = registry.execution().expect("front records its execution").task_count;
    let mut solves = 0usize;
    let mut chunk_ids = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.worker, i, "chunk traces arrive in worker order");
        assert_eq!(t.dropped, 0, "capacity 2^16 never wraps here");
        check_well_formed(&t.events, false).unwrap();
        // A worker's timeline is a sequence of whole batch.chunk spans,
        // one per task it ran (a worker that ran none has an empty one).
        if !t.events.is_empty() {
            assert_eq!(t.events.first().map(|e| e.name), Some(span::BATCH_CHUNK));
            assert_eq!(t.events.last().map(|e| e.name), Some(span::BATCH_CHUNK));
        }
        chunk_ids.extend(
            t.events
                .iter()
                .filter(|e| e.kind == EventKind::Begin && e.name == span::BATCH_CHUNK)
                .map(|e| e.arg),
        );
        solves += t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == span::GS_SOLVE)
            .count();
    }
    // Every task appears on exactly one worker track, carrying its id.
    chunk_ids.sort_unstable();
    assert_eq!(chunk_ids, (0..task_count).collect::<Vec<_>>());
    assert_eq!(solves, batch.len(), "every solve appears on some track");
    assert_eq!(registry.take().solves, batch.len() as u64);
}

#[test]
fn tiny_flight_recorder_wraps_but_keeps_the_tail() {
    let mut rng = ChaCha8Rng::seed_from_u64(66);
    let batch: Vec<BipartiteInstance> =
        (0..64).map(|_| uniform_bipartite(16, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let (outs, traces) = solve_batch_traced(&batch, &registry, &clock, 32);
    assert_eq!(outs.len(), batch.len());
    // Each task emits a batch.chunk begin/end pair around one gs.solve
    // begin/end pair per instance; how tasks spread over workers is the
    // steal schedule's choice, so which rings wrap is too.
    let task_count = registry.execution().expect("front records its execution").task_count;
    let emitted: u64 = traces.iter().map(|t| t.events.len() as u64 + t.dropped).sum();
    assert_eq!(emitted, 2 * (batch.len() as u64 + task_count));
    if emitted > 32 * traces.len() as u64 {
        assert!(
            traces.iter().any(|t| t.dropped > 0),
            "{emitted} events cannot fit {} rings of 32 slots",
            traces.len()
        );
    }
    for t in traces.iter().filter(|t| !t.events.is_empty()) {
        if t.dropped > 0 {
            // A wrapped ring is full and keeps the newest events.
            assert_eq!(t.events.len(), 32);
        }
        // A wrapped dump may open mid-span: orphan End events are fine,
        // but what survives must still be ordered and nestable.
        check_well_formed(&t.events, t.dropped > 0).unwrap();
        // The final chunk-close event always survives (it is the newest).
        assert_eq!(t.events.last().map(|e| e.name), Some(span::BATCH_CHUNK));
        assert_eq!(t.events.last().map(|e| e.kind), Some(EventKind::End));
    }
}

#[test]
fn traced_roommates_batch_matches_plain() {
    let mut rng = ChaCha8Rng::seed_from_u64(67);
    let batch: Vec<RoommatesInstance> =
        (0..80).map(|_| uniform_roommates(12, &mut rng)).collect();
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let (outs, traces) = roommates::solve_batch_traced(&batch, &registry, &clock, 1 << 16);
    let plain = roommates::solve_batch(&batch);
    for (a, b) in outs.iter().zip(&plain) {
        assert_eq!(a.matching(), b.matching());
        assert_eq!(a.stats(), b.stats());
    }
    assert!(!traces.is_empty());
    let task_count = registry
        .execution()
        .expect("front records its execution")
        .task_count;
    let mut phase1 = 0usize;
    let mut chunk_ids = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(t.worker, i, "chunk traces arrive in worker order");
        check_well_formed(&t.events, false).unwrap();
        // A worker's timeline is a sequence of whole batch.chunk spans,
        // one per task it ran (a worker that ran none has an empty one).
        if !t.events.is_empty() {
            assert_eq!(t.events.first().map(|e| e.name), Some(span::BATCH_CHUNK));
            assert_eq!(t.events.last().map(|e| e.name), Some(span::BATCH_CHUNK));
        }
        chunk_ids.extend(
            t.events
                .iter()
                .filter(|e| e.kind == EventKind::Begin && e.name == span::BATCH_CHUNK)
                .map(|e| e.arg),
        );
        phase1 += t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == span::IRVING_PHASE1)
            .count();
    }
    // Every task appears on exactly one worker track, carrying its id.
    chunk_ids.sort_unstable();
    assert_eq!(chunk_ids, (0..task_count).collect::<Vec<_>>());
    assert_eq!(phase1, batch.len());
    assert_eq!(registry.take().solves, batch.len() as u64);
}

#[test]
fn empty_traced_batch_returns_nothing() {
    let registry = BatchRegistry::new();
    let clock = ManualClock::new();
    let empty: Vec<BipartiteInstance> = Vec::new();
    let (outs, traces) = solve_batch_traced(&empty, &registry, &clock, 128);
    assert!(outs.is_empty());
    assert!(traces.is_empty());
    assert_eq!(registry.shards_absorbed(), 0);
}
