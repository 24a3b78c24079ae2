//! Summaries of raw samples and of the process's own resource use.

use std::collections::HashMap;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`0` when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Median of a float list (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of a float list, interpolated between the two nearest
/// ranks (`0` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// A latency summary. The median is the median over equal time windows
/// of the phase, so one noisy window cannot move it; the 90th and 99th
/// percentiles are taken over the whole phase, so a stall confined to one
/// window still shows in the tail. `samples` is the total count the
/// percentiles rest on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median latency (median of the windows' medians), ns.
    pub p50_ns: f64,
    /// 90th-percentile latency over the phase, ns.
    pub p90_ns: f64,
    /// 99th-percentile latency over the phase, ns.
    pub p99_ns: f64,
    /// Samples summarized.
    pub samples: u64,
    /// Windows the median was taken over.
    pub windows: u64,
}

/// Samples per window: enough that each window's median is settled.
const WINDOW_SAMPLES: u64 = 2000;
/// Most windows a phase is cut into.
const MAX_WINDOWS: u64 = 20;

/// Summarize `(completion offset, latency)` samples. For the median, the
/// phase is cut into as many equal windows as leave each at least
/// `WINDOW_SAMPLES` samples (at most `MAX_WINDOWS`); short windows keep
/// a brief host stall inside a minority of them, so the median over
/// windows is steady. The tail percentiles are nearest-rank over every
/// sample.
pub fn summarize(samples: &[(u64, u64)]) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    let windows = (samples.len() as u64 / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let first = samples.iter().map(|s| s.0).min().unwrap_or(0);
    let last = samples.iter().map(|s| s.0).max().unwrap_or(0);
    let span = (last - first).max(1) as f64;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows as usize];
    for &(at, latency) in samples {
        let w = (((at - first) as f64 / span) * windows as f64) as usize;
        buckets[w.min(windows as usize - 1)].push(latency);
    }
    let mut p50 = Vec::new();
    for bucket in &mut buckets {
        if bucket.is_empty() {
            continue;
        }
        bucket.sort_unstable();
        p50.push(percentile(bucket, 0.50) as f64);
    }
    let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
    all.sort_unstable();
    LatencySummary {
        p50_ns: median(&p50),
        p90_ns: percentile(&all, 0.90) as f64,
        p99_ns: percentile(&all, 0.99) as f64,
        samples: samples.len() as u64,
        windows,
    }
}

/// Percentile of an unsorted list (sorts a copy).
pub fn pct(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, ns. Unlike the tick counts in
/// `/proc`, it resolves spans of a few milliseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through the pointer,
    // which points at a live, properly laid out local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Restart this process's peak-resident-set count from its current size
/// (Linux `clear_refs` value 5), so [`peak_rss_mb`] covers what follows:
/// the measured phases, not the set-up's transient allocations, which
/// `setup_s` already charges. Freed set-up memory is first handed back to
/// the kernel, or how much of it the allocator happened to keep would
/// move the figure from run to run.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free heap pages; it is
    // thread-safe and touches no memory the program still owns.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A `kB` field of `/proc/self/status`, MiB (0 when missing).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Clock ticks per second of `/proc` CPU times (the Linux ABI value).
const CLK_TCK: f64 = 100.0;

/// `(utime + stime)` of a `/proc/.../stat` line, seconds.
fn stat_cpu(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat[open + 1..close].to_string();
    let fields: Vec<&str> = stat[close + 2..].split_whitespace().collect();
    // After the name: state is field 0, utime field 11, stime field 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((name, (utime + stime) / CLK_TCK))
}

/// CPU seconds this whole process has used.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu(&s))
        .map(|(_, cpu)| cpu)
        .unwrap_or(0.0)
}

/// CPU seconds per live thread of this process, summed by thread-name
/// prefix before the last `-` (`wsrep-worker-0` and `wsrep-worker-1` both
/// count under `wsrep-worker`). Thread names are cut to 15 bytes by the
/// kernel.
pub fn thread_cpu_s() -> HashMap<String, f64> {
    let mut by_name = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return by_name;
    };
    for entry in dir.flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        if let Some((name, cpu)) = stat_cpu(&stat) {
            let key = match name.rsplit_once('-') {
                Some((prefix, suffix)) if suffix.chars().all(|c| c.is_ascii_digit()) => {
                    prefix.to_string()
                }
                _ => name,
            };
            *by_name.entry(key).or_insert(0.0) += cpu;
        }
    }
    by_name
}

/// Thread CPU used between two [`thread_cpu_s`] snapshots by threads whose
/// name starts with `prefix`, as a share of `wall` (1.0 = one core busy).
pub fn cpu_frac(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    prefix: &str,
    wall: Duration,
) -> f64 {
    let sum = |m: &HashMap<String, f64>| -> f64 {
        m.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let used = (sum(after) - sum(before)).max(0.0);
    used / wall.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_window_sets_the_tail_but_not_the_median() {
        // Three windows of 2000 samples; the middle one is slow.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..2000u64 {
                let latency = if w == 1 { 1_000_000 } else { 1_000 + i };
                samples.push((w * 2_000_000 + i * 1000, latency));
            }
        }
        let s = summarize(&samples);
        assert_eq!(s.windows, 3);
        assert!(s.p50_ns < 10_000.0, "one slow window must not set p50");
        assert_eq!(s.p99_ns, 1_000_000.0, "a slow window shows in p99");
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut h = 1u64;
        for i in 0..5_000_000u64 {
            h = std::hint::black_box(h.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before, "{h}");
    }

    #[test]
    fn stat_parsing_handles_spaces_in_names() {
        let line = "42 (a b-1) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        let (name, cpu) = stat_cpu(line).expect("parse");
        assert_eq!(name, "a b-1");
        assert!((cpu - 3.0).abs() < 1e-9);
    }
}
