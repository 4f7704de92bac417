//! Process and host counters read from `/proc`.

use std::fs;

/// Linux reports `/proc/*/stat` CPU times in USER_HZ, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

/// `(all ticks, steal ticks)` summed over every CPU (`/proc/stat`).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted inside user/nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64 * 100.0
        }
        _ => 0.0,
    }
}

/// TCP sockets in TIME_WAIT (`/proc/net/sockstat`).
pub fn timewait_sockets() -> u64 {
    fs::read_to_string("/proc/net/sockstat")
        .ok()
        .and_then(|text| {
            let tcp = text.lines().find(|l| l.starts_with("TCP:"))?;
            let mut words = tcp.split_whitespace();
            words.find(|&w| w == "tw")?;
            words.next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size of `pid` (`"self"` for this process) in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed so far by `pid` (all threads).
pub fn cpu_seconds(pid: &str) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|text| {
            // The command name may hold spaces; fields resume after ')'.
            let rest = &text[text.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Nanoseconds the calling thread has run (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Nanoseconds every live thread of `pid` has run, summed. Unlike
/// [`cpu_seconds`] this has nanosecond resolution, but it misses threads
/// that already exited: use it for processes whose threads all live.
pub fn process_cpu_ns(pid: &str) -> u64 {
    fs::read_dir(format!("/proc/{pid}/task"))
        .map(|tasks| {
            tasks
                .flatten()
                .map(|t| schedstat_ns(&t.path().join("schedstat").to_string_lossy()))
                .sum()
        })
        .unwrap_or(0)
}

/// Nominal CPU seconds of one [`reference_cpu_s`] call. A normalized
/// throughput is the throughput the host would show if the reference
/// loop took exactly this long: raw × measured ÷ nominal.
pub const REFERENCE_S: f64 = 0.02;

/// Runs a fixed reference computation on the calling thread and returns
/// the CPU seconds it took: a reading of the host's current speed. The
/// loop mixes integer hashing, fused multiply-adds over an L1-resident
/// table and short sorts, so it slows down with the clock-rate and
/// shared-core contention that slow the workloads. It is the
/// benchmark's own code and never touches the program under test.
pub fn reference_cpu_s() -> f64 {
    const ITERS: u64 = 1_500_000;
    let start = thread_cpu_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mut table = [1.0f64; 2048];
    let mut words = [0u64; 64];
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 2047;
        table[j] = table[j].mul_add(0.999_999_9, (x >> 11) as f64 * 1e-19);
        acc += table[(j * 7 + 3) & 2047];
        words[(i & 63) as usize] = x;
        if i & 63 == 63 {
            words.sort_unstable();
        }
    }
    std::hint::black_box((acc, words));
    (thread_cpu_ns() - start) as f64 / 1e9
}

fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_elapsed_ticks() {
        assert_eq!(steal_pct(Some((1000, 10)), Some((1200, 30))), 10.0);
        assert_eq!(steal_pct(Some((1000, 10)), None), 0.0);
    }

    #[test]
    fn own_process_counters_are_readable() {
        assert!(peak_rss_mb("self") > 0.0);
        assert!(cpu_seconds("self") >= 0.0);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_ns("self") >= thread_cpu_ns());
        assert!(reference_cpu_s() > 0.0);
    }
}
