//! Structured JSONL operator log (`kmatch.log/v1`).
//!
//! A bounded ring of [`LogRecord`]s, each serialized as one JSON object
//! per line: `schema`, `level`, monotonic `ts_ns` (the injected
//! [`Clock`](kmatch_obs::Clock)'s time, *not* wall time — comparable to
//! every other timestamp the process emits), `solver`, `msg`, and
//! free-form `fields` key=value pairs. Identical `(level, msg)` pairs
//! arriving faster than the configured interval are **rate-limited**:
//! suppressed repeats are counted and carried on the next record that
//! passes the limit as its `repeats` field, so no information is lost —
//! only line volume.

use std::collections::VecDeque;

use serde::Value;

/// Schema tag carried by every log line.
pub const LOG_SCHEMA: &str = "kmatch.log/v1";

/// Log severity. Ordered: `Info < Warn < Error`, so a minimum-severity
/// filter is a plain `>=` comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Routine progress.
    Info,
    /// Degraded but operating (stalls, fallbacks).
    Warn,
    /// Failed operations.
    Error,
}

impl Level {
    /// The lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a wire name back (case-insensitive); `None` for anything
    /// that is not `info` / `warn` / `error`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Severity.
    pub level: Level,
    /// Monotonic timestamp, nanoseconds (injected clock).
    pub ts_ns: u64,
    /// Which solver/subsystem emitted the record (`"gs"`, `"ops"`, …).
    pub solver: String,
    /// Human-oriented, machine-stable message (also the rate-limit key).
    pub msg: String,
    /// Free-form key=value context pairs.
    pub fields: Vec<(String, String)>,
    /// 1 for a normally emitted record; `1 + suppressed` when this record
    /// ends a rate-limited burst of identical `(level, msg)` lines.
    pub repeats: u64,
}

impl LogRecord {
    /// One `kmatch.log/v1` JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = vec![
            ("schema".to_string(), Value::String(LOG_SCHEMA.to_string())),
            (
                "level".to_string(),
                Value::String(self.level.as_str().to_string()),
            ),
            ("ts_ns".to_string(), Value::Number(self.ts_ns as f64)),
            ("solver".to_string(), Value::String(self.solver.clone())),
            ("msg".to_string(), Value::String(self.msg.clone())),
            ("repeats".to_string(), Value::Number(self.repeats as f64)),
        ];
        if !self.fields.is_empty() {
            obj.push((
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                        .collect(),
                ),
            ));
        }
        serde_json::to_string(&Value::Object(obj)).expect("value tree always serializes")
    }
}

/// Bounded structured log with repeat rate-limiting.
#[derive(Debug)]
pub struct OpsLog {
    records: VecDeque<LogRecord>,
    capacity: usize,
    /// Minimum interval between identical `(level, msg)` emissions;
    /// 0 disables rate-limiting.
    limit_ns: u64,
    /// Rate-limit state per `(level, msg)`: last emitted ts and how many
    /// repeats were suppressed since. Bounded by the variety of messages
    /// (a handful of static strings in practice).
    last_emit: Vec<((Level, String), (u64, u64))>,
}

impl OpsLog {
    /// A log ring of `capacity` records, rate-limiting identical lines to
    /// one per `limit_ns` nanoseconds.
    pub fn new(capacity: usize, limit_ns: u64) -> Self {
        OpsLog {
            records: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            limit_ns,
            last_emit: Vec::new(),
        }
    }

    /// Record a line. Returns `true` if the record was emitted, `false`
    /// if it was suppressed by the rate limit (its count is carried on
    /// the next emitted record with the same `(level, msg)`).
    pub fn record(
        &mut self,
        ts_ns: u64,
        level: Level,
        solver: &str,
        msg: &str,
        fields: Vec<(String, String)>,
    ) -> bool {
        let mut repeats = 1;
        if self.limit_ns > 0 {
            let key = (level, msg.to_string());
            match self.last_emit.iter_mut().find(|(k, _)| *k == key) {
                Some((_, (last_ts, suppressed))) => {
                    if ts_ns.saturating_sub(*last_ts) < self.limit_ns {
                        *suppressed += 1;
                        return false;
                    }
                    repeats += *suppressed;
                    *last_ts = ts_ns;
                    *suppressed = 0;
                }
                None => self.last_emit.push((key, (ts_ns, 0))),
            }
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(LogRecord {
            level,
            ts_ns,
            solver: solver.to_string(),
            msg: msg.to_string(),
            fields,
            repeats,
        });
        true
    }

    /// The last `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<LogRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.records.iter().skip(skip).cloned().collect()
    }

    /// The last `n` records as `kmatch.log/v1` JSONL text (one object per
    /// line, trailing newline when non-empty).
    pub fn tail_jsonl(&self, n: usize) -> String {
        let mut out = String::new();
        for rec in self.tail(n) {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// The last `n` records **at or above** `min` severity, oldest first,
    /// as `kmatch.log/v1` JSONL. The filter applies before the count: the
    /// result is the newest `n` matching records, not the matches among
    /// the newest `n`.
    pub fn tail_jsonl_min_level(&self, n: usize, min: Level) -> String {
        let matching: Vec<&LogRecord> = self.records.iter().filter(|r| r.level >= min).collect();
        let skip = matching.len().saturating_sub(n);
        let mut out = String::new();
        for rec in matching.into_iter().skip(skip) {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_carry_the_schema_and_parse_back() {
        let mut log = OpsLog::new(8, 0);
        log.record(
            42,
            Level::Info,
            "gs",
            "wave done",
            vec![("instances".into(), "32".into())],
        );
        let text = log.tail_jsonl(10);
        assert_eq!(text.lines().count(), 1);
        let v: Value = serde_json::from_str(text.trim()).expect("valid JSON");
        assert_eq!(v.get("schema"), Some(&Value::String(LOG_SCHEMA.into())));
        assert_eq!(v.get("level"), Some(&Value::String("info".into())));
        assert_eq!(v.get("ts_ns"), Some(&Value::Number(42.0)));
        assert_eq!(
            v.get("fields").and_then(|f| f.get("instances")),
            Some(&Value::String("32".into()))
        );
    }

    #[test]
    fn rate_limit_suppresses_and_carries_repeats() {
        // Limit: one identical line per 1000ns.
        let mut log = OpsLog::new(8, 1000);
        assert!(log.record(0, Level::Warn, "ops", "worker stalled", vec![]));
        // Three repeats inside the limit window: all suppressed.
        for t in [100, 200, 300] {
            assert!(!log.record(t, Level::Warn, "ops", "worker stalled", vec![]));
        }
        // Past the limit: emitted, carrying the 3 suppressed repeats.
        assert!(log.record(1500, Level::Warn, "ops", "worker stalled", vec![]));
        let tail = log.tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].repeats, 1);
        assert_eq!(tail[1].repeats, 4, "1 + 3 suppressed");
        // A different message is not limited by the first one's burst.
        assert!(log.record(1501, Level::Warn, "ops", "other", vec![]));
    }

    #[test]
    fn ring_keeps_the_newest_and_tail_is_oldest_first() {
        let mut log = OpsLog::new(3, 0);
        for i in 0..5u64 {
            log.record(i, Level::Info, "ops", &format!("m{i}"), vec![]);
        }
        let tail = log.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].msg, "m3");
        assert_eq!(tail[1].msg, "m4");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn level_filter_keeps_newest_matches_and_parses_names() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        let mut log = OpsLog::new(16, 0);
        log.record(1, Level::Info, "ops", "i1", vec![]);
        log.record(2, Level::Warn, "ops", "w1", vec![]);
        log.record(3, Level::Info, "ops", "i2", vec![]);
        log.record(4, Level::Error, "ops", "e1", vec![]);
        log.record(5, Level::Warn, "ops", "w2", vec![]);
        let warn_up = log.tail_jsonl_min_level(10, Level::Warn);
        assert_eq!(warn_up.lines().count(), 3);
        assert!(!warn_up.contains("\"msg\":\"i1\""));
        // The count applies after the filter: newest 2 matches.
        let newest_two = log.tail_jsonl_min_level(2, Level::Warn);
        assert_eq!(newest_two.lines().count(), 2);
        assert!(newest_two.contains("\"msg\":\"e1\""));
        assert!(newest_two.contains("\"msg\":\"w2\""));
        assert!(!newest_two.contains("\"msg\":\"w1\""));
        let errors = log.tail_jsonl_min_level(10, Level::Error);
        assert_eq!(errors.lines().count(), 1);
    }

    #[test]
    fn hostile_message_strings_stay_one_json_line() {
        let mut log = OpsLog::new(4, 0);
        log.record(
            1,
            Level::Error,
            "gs",
            "bad \"input\"\nwith newline \\ and backslash",
            vec![("k\"ey".into(), "v\nal".into())],
        );
        let text = log.tail_jsonl(1);
        assert_eq!(
            text.lines().count(),
            1,
            "escapes keep the record on one line"
        );
        let v: Value = serde_json::from_str(text.trim()).expect("valid JSON");
        match v.get("msg") {
            Some(Value::String(s)) => assert!(s.contains('\n')),
            other => panic!("msg missing: {other:?}"),
        }
    }
}
