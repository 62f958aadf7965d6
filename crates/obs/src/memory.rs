//! Process-memory probes for the scaling benchmarks.
//!
//! The lazy-oracle benches claim O(n·polylog) **memory**, not just time,
//! so the bench emitters record two complementary numbers per row:
//!
//! * [`peak_rss_bytes`] — the kernel's high-water mark of resident set
//!   size (`VmHWM` in `/proc/self/status`). Honest but *monotone over the
//!   whole process lifetime*: once any phase of the process touches X
//!   bytes, every later reading reports at least X. Emitters must
//!   therefore run their largest lazy rows **first**, before anything
//!   materializes O(n²) tables, for the reading to bound the lazy solve.
//! * a deterministic *arena-bytes* figure computed by the caller from the
//!   workspace/backing-store sizes it actually allocated — exact and
//!   phase-local, but blind to allocator overhead.
//!
//! On platforms without `/proc` (or sandboxed readers) the probe returns
//! `None` and emitters record 0 rather than failing the run.

/// Peak resident set size of the current process in bytes (`VmHWM`), or
/// `None` where `/proc/self/status` is unavailable.
///
/// Monotone: reports the lifetime high-water mark, not current usage.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb * 1024)
}

/// Current resident set size in bytes (`VmRSS`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmRSS:").map(|kb| kb * 1024)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmHWM:")
}

/// Extract a `kB` quantity from a `/proc/self/status` line such as
/// `VmHWM:     123456 kB`.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|line| line.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_status_format() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(1000));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_probe_reports_a_sane_figure_on_linux() {
        if let Some(hwm) = peak_rss_bytes() {
            // A test process certainly sits between 100 KiB and 1 TiB.
            assert!(hwm > 100 * 1024, "HWM {hwm} implausibly small");
            assert!(hwm < 1 << 40, "HWM {hwm} implausibly large");
            assert!(current_rss_bytes().is_some());
            // The kernel bounds VmRSS by VmHWM within one status read.
            // Two separate reads may not compare: tests on other threads
            // of this process allocate between them.
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let rss_kb = parse_status_kb(&status, "VmRSS:").unwrap();
            let hwm_kb = parse_vm_hwm_kb(&status).unwrap();
            assert!(rss_kb <= hwm_kb, "current RSS above the high-water mark");
        }
    }
}
