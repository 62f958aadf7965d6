//! Spans the benchmark records around its own calls into each layer.
//!
//! A span carries a name (`layer.call`), start and end in nanoseconds
//! since the run began, its parent span, and the item it belongs to.
//! Spans live in memory and are written out once, at exit. A span's self
//! time is its duration minus its children's; the traced run splits the
//! median item across layers by summed self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent / no item.
pub const NONE: u32 = u32::MAX;

/// Name of the span that encloses one timed item (layer `bench`).
pub const ITEM: &str = "bench.item";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Item id, or [`NONE`] outside items (set-up, re-runs).
    pub item: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. When disabled, [`Tracer::span`] is a plain call: no
/// clock reads, no allocation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    item: u32,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            item: NONE,
        }
    }

    /// Turn recording on or off (untraced items of a traced run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item: self.item,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Open the span of item `item`; spans until [`Tracer::end_item`]
    /// belong to it.
    pub fn begin_item(&mut self, item: u32) {
        if self.enabled {
            self.item = item;
            self.open(ITEM);
        }
    }

    /// Close the current item's span.
    pub fn end_item(&mut self) {
        if self.enabled {
            let id = *self.stack.last().expect("an item span is open");
            self.close(id);
            self.item = NONE;
        }
    }

    /// Mark spans opened from now on as belonging to `item` without
    /// opening an item span (re-runs and checks of that item).
    pub fn tag_item(&mut self, item: u32) {
        self.item = item;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of each span, by index.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of the spans named `name` that belong to an item
    /// (set-up spans excluded).
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.item != NONE)
            .map(|(_, t)| t)
            .collect()
    }

    /// Summed self time (ms) per layer over the spans inside item spans,
    /// with the item spans' own self time under `bench` (the benchmark's
    /// glue: the remainder no layer span accounts for).
    pub fn item_self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ms();
        let mut inside = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward pass suffices.
            inside[i] = s.name == ITEM || (s.parent != NONE && inside[s.parent as usize]);
            if inside[i] {
                *out.entry(s.layer()).or_insert(0.0) += own[i];
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.item)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_splits_by_layer() {
        let mut t = Tracer::new(true);
        t.begin_item(0);
        t.span("gs.solve", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.end_item();
        t.span("prefs.build", || ());
        let own = t.self_ms();
        let item = t.spans()[0].dur_ns() as f64 / 1e6;
        let solve = t.spans()[1].dur_ns() as f64 / 1e6;
        assert!((own[0] - (item - solve)).abs() < 1e-9);
        let split = t.item_self_by_layer();
        assert!(split["gs"] >= 2.0);
        assert!(
            !split.contains_key("prefs"),
            "spans outside items are not split"
        );
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].item, NONE);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_item(0);
        assert_eq!(t.span("gs.solve", || 7), 7);
        t.end_item();
        assert!(t.spans().is_empty());
    }
}
