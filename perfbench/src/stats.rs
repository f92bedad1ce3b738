//! Summary statistics and the benchmark's reporting rules: medians, the
//! tail-percentile rule, windowed tails, the metric-name rule and backlog
//! detection.

/// Median of `xs` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; infinity for an empty slice. The fastest of several
/// repetitions of the same work: interference from other guests on the
/// host only ever adds time.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `pct`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of the `pct` percentile among `n > 0`
/// samples. The small offset keeps products like `0.999 × 10000`, which
/// round up in floating point, on their exact integer rank.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that lie beyond the nearest-rank `pct` percentile of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The tail rule: the highest percentile on [`TAIL_LADDER`] with at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// A latency summary: median and the tail chosen by [`tail_percentile`]
/// (the maximum when there are too few samples for any tail).
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail value.
    pub tail: f64,
    /// Percentile the tail was taken at (100 means the maximum).
    pub tail_pct: f64,
}

impl Latency {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Latency {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let pct = tail_percentile(v.len()).unwrap_or(100.0);
        Latency {
            n: v.len(),
            p50: median(&v),
            tail: percentile_sorted(&v, pct),
            tail_pct: pct,
        }
    }
}

/// A tail estimated window by window.
#[derive(Debug, Clone, Copy)]
pub struct WindowedTail {
    /// Median of the per-window tails.
    pub value: f64,
    /// Percentile taken in each window (by the tail rule for its size).
    pub pct: f64,
    /// Number of windows.
    pub windows: usize,
}

/// Splits `xs` (in arrival order) into consecutive windows of `window`
/// samples (the remainder joins the last window), takes each window's
/// tail by [`tail_percentile`] and reports the median across windows: a
/// single burst of interference then moves one window, not the result.
pub fn windowed_tail(xs: &[f64], window: usize) -> WindowedTail {
    let windows = (xs.len() / window.max(1)).max(1);
    let per = xs.len() / windows;
    let pct = tail_percentile(per).unwrap_or(100.0);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                xs.len()
            } else {
                (w + 1) * per
            };
            let mut v = xs[w * per..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, pct)
        })
        .collect();
    WindowedTail {
        value: median(&tails),
        pct,
        windows,
    }
}

/// True if `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Whether a schedule's send lag grew through the run: the median lag of
/// the last tenth of requests exceeds both `limit_ms / 2` and four times
/// the median lag of the first tenth. `lags_ms` is in schedule order.
pub fn backlog_growing(lags_ms: &[f64], limit_ms: f64) -> bool {
    let n = lags_ms.len();
    if n < 10 {
        return false;
    }
    let tenth = n / 10;
    let head = median(&lags_ms[..tenth]);
    let tail = median(&lags_ms[n - tenth..]);
    tail > limit_ms / 2.0 && tail > 4.0 * head
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_is_the_fastest_repetition() {
        assert_eq!(min(&[2.0, 0.5, 1.0]), 0.5);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        // 10 000 samples reach p99.9.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 100 samples: p90 leaves 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 40 samples: p75 leaves 10, p80 only 8.
        assert_eq!(tail_percentile(40), Some(75.0));
        // 20 samples: the median leaves 10.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..3000 {
            let p = tail_percentile(n).expect("20+ samples always have a tail");
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        let l = Latency::of(&v);
        assert_eq!((l.n, l.tail_pct, l.tail), (100, 90.0, 90.0));
        // Too few samples for any tail: the maximum is reported at 100.
        let l = Latency::of(&[1.0, 5.0, 3.0]);
        assert_eq!((l.tail_pct, l.tail), (100.0, 5.0));
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Three windows of 100: the middle one holds a burst of slow
        // samples, which moves its own tail but not the median of tails.
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        xs[100..150].iter_mut().for_each(|x| *x = 1000.0);
        let t = windowed_tail(&xs, 100);
        assert_eq!((t.windows, t.pct, t.value), (3, 90.0, 89.0));
        // A short series is one window.
        let t = windowed_tail(&xs[..150], 100);
        assert_eq!((t.windows, t.pct), (1, 90.0));
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "p50_ms",
            "core.engine.run.s",
            "serve.pool.warm_ratio",
            "0x-1",
            "A",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "-lead",
            "has space",
            "slash/no",
            "ümlaut",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn backlog_detection_on_synthetic_lags() {
        let steady = vec![0.05; 200];
        assert!(!backlog_growing(&steady, 5.0));
        // Lag climbing linearly to 20 ms: the generator falls behind.
        let growing: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        assert!(backlog_growing(&growing, 5.0));
        // One late burst in the middle that recovers is not a backlog.
        let mut burst = vec![0.05; 200];
        burst[100..110].iter_mut().for_each(|x| *x = 30.0);
        assert!(!backlog_growing(&burst, 5.0));
    }
}
