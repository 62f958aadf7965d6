//! Prometheus text-exposition helpers shared by the counter, histogram,
//! and run-report serializers: label-value escaping per the exposition
//! format and the `# HELP` / `# TYPE` family header pair.
//!
//! The exposition format requires backslash, double-quote, and newline
//! inside label values to be written `\\`, `\"`, and `\n`; `# HELP` text
//! escapes backslash and newline only. Values arriving from outside the
//! crate (the run `kind`, CLI-provided names) go through
//! [`label_pair`], so a hostile string can never break a sample line
//! into two or forge extra labels.

/// Escape a label *value* for the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape_label_value`] — the direction a scraper (or the
/// round-trip tests) applies when reading a label back.
pub fn unescape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            // Unknown escape: keep it verbatim rather than guessing.
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Render `name="value"` with the value escaped.
pub fn label_pair(name: &str, value: &str) -> String {
    format!("{name}=\"{}\"", escape_label_value(value))
}

/// Escape `# HELP` docstring text (backslash and newline only, per the
/// format).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Append the `# HELP` / `# TYPE` header pair of one metric family.
/// `kind` is the exposition metric type (`counter`, `gauge`,
/// `histogram`).
pub fn write_family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Append the process-memory gauge families `kmatch_peak_rss_bytes`
/// (`VmHWM`) and `kmatch_current_rss_bytes` (`VmRSS`), sourced from
/// [`crate::memory`]. Each family gets its `# HELP` / `# TYPE` header;
/// on platforms without `/proc` the probes return `None` and the
/// families are omitted entirely (absent beats a lying `0`).
pub fn write_rss_gauges(out: &mut String) {
    use std::fmt::Write;
    for (name, help, probe) in [
        (
            "kmatch_peak_rss_bytes",
            "Peak resident set size of the process (VmHWM), monotone over its lifetime",
            crate::memory::peak_rss_bytes as fn() -> Option<u64>,
        ),
        (
            "kmatch_current_rss_bytes",
            "Current resident set size of the process (VmRSS)",
            crate::memory::current_rss_bytes as fn() -> Option<u64>,
        ),
    ] {
        if let Some(bytes) = probe() {
            write_family_header(out, name, "gauge", help);
            let _ = writeln!(out, "{name} {bytes}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_gauges_render_with_family_headers_on_linux() {
        let mut out = String::new();
        write_rss_gauges(&mut out);
        if crate::memory::peak_rss_bytes().is_some() {
            assert!(out.contains("# TYPE kmatch_peak_rss_bytes gauge"));
            assert!(out.contains("# HELP kmatch_peak_rss_bytes "));
            assert!(out.contains("# TYPE kmatch_current_rss_bytes gauge"));
            let peak_line = out
                .lines()
                .find(|l| l.starts_with("kmatch_peak_rss_bytes "))
                .expect("sample line");
            let v: u64 = peak_line.split(' ').nth(1).unwrap().parse().unwrap();
            assert!(v > 100 * 1024, "implausibly small RSS {v}");
        } else {
            assert!(out.is_empty(), "no /proc: families omitted");
        }
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        let hostile = [
            "plain",
            "back\\slash",
            "quo\"te",
            "new\nline",
            "\\\"\n",
            "mix \\n of \"all\" three\n\\",
            "",
        ];
        for s in hostile {
            let escaped = escape_label_value(s);
            assert!(
                !escaped.contains('\n'),
                "escaped form is single-line: {escaped:?}"
            );
            assert_eq!(unescape_label_value(&escaped), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn label_pair_neutralizes_quote_injection() {
        // A value trying to close the quote and smuggle a second label.
        let pair = label_pair("kind", "gs\",evil=\"1");
        assert_eq!(pair, "kind=\"gs\\\",evil=\\\"1\"");
        // Exactly one unescaped quote pair survives.
        let unescaped_quotes = pair.matches('"').count() - pair.matches("\\\"").count();
        assert_eq!(unescaped_quotes, 2);
    }

    #[test]
    fn family_header_shape() {
        let mut out = String::new();
        write_family_header(&mut out, "kmatch_x_total", "counter", "multi\nline help");
        assert_eq!(
            out,
            "# HELP kmatch_x_total multi\\nline help\n# TYPE kmatch_x_total counter\n"
        );
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape_label_value("a\\tb"), "a\\tb");
        assert_eq!(unescape_label_value("trail\\"), "trail\\");
    }
}
