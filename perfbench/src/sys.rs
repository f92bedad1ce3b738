//! Process measurements read from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used, across all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: `min(2, available cores)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_positive() {
        // Burn CPU until the clock-tick counters move (a few ticks at most).
        let start = std::time::Instant::now();
        let before = super::cpu_seconds();
        let mut x = 0u64;
        while super::cpu_seconds() <= before && start.elapsed().as_secs() < 5 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(super::cpu_seconds() > before);
        assert!(super::peak_rss_mb() > 0.0);
        assert!((1..=2).contains(&super::threads()));
    }
}
