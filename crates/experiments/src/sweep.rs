//! The thread-count × HBM-size ratio sweep behind Figures 2 and 4.
//!
//! Both figures plot `makespan(FIFO) / makespan(challenger)` against the
//! thread count for several HBM sizes — the challenger is static Priority
//! in Figure 2 and Dynamic Priority (T = 10k) in Figure 4. Values above 1.0
//! favour the challenger.

use crate::common::{run_cell_flat, ScratchPool, TracePool};
use crate::plot::{AsciiPlot, Series};
use hbm_core::{ArbitrationKind, Report};
use serde::Serialize;

/// One sweep cell: a (p, k) pair with both policies' outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RatioCell {
    /// Thread count.
    pub p: usize,
    /// HBM slots.
    pub k: usize,
    /// FIFO makespan.
    pub fifo_makespan: u64,
    /// Challenger makespan.
    pub challenger_makespan: u64,
    /// FIFO hit rate.
    pub fifo_hit_rate: f64,
    /// Challenger hit rate.
    pub challenger_hit_rate: f64,
    /// True when either run hit a tick/wall budget before completing —
    /// the cell's makespans are then lower bounds, not results.
    pub truncated: bool,
}

impl RatioCell {
    /// The cell at `(p, k)` from its FIFO and challenger runs.
    pub fn from_reports(p: usize, k: usize, fifo: &Report, challenger: &Report) -> RatioCell {
        RatioCell {
            p,
            k,
            fifo_makespan: fifo.makespan,
            challenger_makespan: challenger.makespan,
            fifo_hit_rate: fifo.hit_rate,
            challenger_hit_rate: challenger.hit_rate,
            truncated: fifo.truncated || challenger.truncated,
        }
    }

    /// `makespan(FIFO) / makespan(challenger)` — Figure 2/4's y-axis.
    /// `None` when the challenger makespan is 0 (an empty-workload cell),
    /// where the ratio is undefined.
    pub fn try_ratio(&self) -> Option<f64> {
        if self.challenger_makespan == 0 {
            return None;
        }
        Some(self.fifo_makespan as f64 / self.challenger_makespan as f64)
    }

    /// Panicking form of [`try_ratio`](Self::try_ratio) for contexts that
    /// guarantee non-empty workloads.
    ///
    /// # Panics
    /// Panics when the challenger makespan is 0 — previously this was
    /// silently clamped to 1, which turned an empty-workload cell into a
    /// bogus ratio of `fifo_makespan`.
    pub fn ratio(&self) -> f64 {
        self.try_ratio().unwrap_or_else(|| {
            panic!(
                "ratio undefined: challenger makespan is 0 at p={}, k={} (empty workload cell?)",
                self.p, self.k
            )
        })
    }
}

/// Runs the sweep. `challenger(k)` maps the HBM size to the challenger's
/// arbitration kind (Dynamic Priority's period depends on k). Cells run in
/// parallel; output order is deterministic (p-major, then k).
pub fn ratio_sweep(
    pool: &TracePool,
    threads: &[usize],
    hbm_sizes: &[usize],
    challenger: impl Fn(usize) -> ArbitrationKind + Sync,
    q: usize,
    seed: u64,
) -> Vec<RatioCell> {
    // Every cell replays its thread count's memoized flat workload, one
    // `hbm_par` item per (p, k) cell. Mutable engine state comes from the
    // scratch pool, so a warm sweep allocates O(workers), not O(cells).
    let scratches = ScratchPool::new();
    let cells: Vec<(usize, usize)> = threads
        .iter()
        .flat_map(|&p| hbm_sizes.iter().map(move |&k| (p, k)))
        .collect();
    hbm_par::parallel_map(&cells, |&(p, k)| {
        let flat = pool.flat(p);
        let (fifo, chal) = scratches.with(|scratch| {
            (
                run_cell_flat(&flat, k, q, ArbitrationKind::Fifo, seed, scratch),
                run_cell_flat(&flat, k, q, challenger(k), seed, scratch),
            )
        });
        RatioCell::from_reports(p, k, &fifo, &chal)
    })
}

/// Renders a Figure 2/4-style chart from sweep cells: one series per HBM
/// size, x = thread count (log), y = FIFO/challenger makespan ratio (log).
pub fn plot_cells(cells: &[RatioCell], title: &str, challenger: &str) -> AsciiPlot {
    let mut ks: Vec<usize> = cells.iter().map(|c| c.k).collect();
    ks.sort_unstable();
    ks.dedup();
    let markers = ['o', '+', 'x', '#', '@', '%'];
    let mut plot = AsciiPlot::new(
        title,
        "threads p",
        format!("makespan(FIFO) / makespan({challenger})"),
    )
    .log_x()
    .log_y();
    for (i, &k) in ks.iter().enumerate() {
        let pts: Vec<(f64, f64)> = cells
            .iter()
            .filter(|c| c.k == k)
            .filter_map(|c| c.try_ratio().map(|r| (c.p as f64, r)))
            .collect();
        plot = plot.series(Series::new(
            format!("k = {k}"),
            markers[i % markers.len()],
            pts,
        ));
    }
    plot
}

/// Summary statistics the paper quotes from a sweep: the worst case for
/// the challenger (min ratio) and the best (max ratio).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepSummary {
    /// Smallest FIFO/challenger ratio (challenger's worst cell).
    pub min_ratio: f64,
    /// Largest ratio (challenger's best cell).
    pub max_ratio: f64,
    /// Thread count where the max ratio occurred.
    pub max_ratio_p: usize,
    /// Thread count where the min ratio occurred.
    pub min_ratio_p: usize,
}

/// Summarizes a sweep.
pub fn summarize(cells: &[RatioCell]) -> SweepSummary {
    assert!(!cells.is_empty());
    let mut min = cells[0];
    let mut max = cells[0];
    for c in cells {
        if c.ratio() < min.ratio() {
            min = *c;
        }
        if c.ratio() > max.ratio() {
            max = *c;
        }
    }
    SweepSummary {
        min_ratio: min.ratio(),
        max_ratio: max.ratio(),
        max_ratio_p: max.p,
        min_ratio_p: min.p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traces::{TraceOptions, WorkloadSpec};

    fn tiny_pool() -> TracePool {
        TracePool::generate(
            WorkloadSpec::Cyclic { pages: 32, reps: 6 },
            8,
            1,
            TraceOptions::default(),
        )
    }

    #[test]
    fn sweep_covers_all_cells_in_order() {
        let pool = tiny_pool();
        let cells = ratio_sweep(
            &pool,
            &[2, 4],
            &[16, 64],
            |_| ArbitrationKind::Priority,
            1,
            0,
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells.iter().map(|c| (c.p, c.k)).collect::<Vec<_>>(),
            vec![(2, 16), (2, 64), (4, 16), (4, 64)]
        );
    }

    #[test]
    fn identical_policies_ratio_one() {
        let pool = tiny_pool();
        let cells = ratio_sweep(&pool, &[4], &[32], |_| ArbitrationKind::Fifo, 1, 0);
        assert!((cells[0].ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_finds_extremes() {
        let pool = tiny_pool();
        // k = 64: two of the eight 32-page working sets fit — the regime
        // where Priority protects working sets and FIFO thrashes.
        let cells = ratio_sweep(&pool, &[1, 8], &[64], |_| ArbitrationKind::Priority, 1, 0);
        let s = summarize(&cells);
        assert!(s.min_ratio <= s.max_ratio);
        // At p=1 the policies coincide: ratio exactly 1.
        let p1 = cells.iter().find(|c| c.p == 1).unwrap();
        assert!((p1.ratio() - 1.0).abs() < 1e-12);
        // At p=8 with k = 1/4 of pages, Priority must win (ratio > 1).
        let p8 = cells.iter().find(|c| c.p == 8).unwrap();
        assert!(p8.ratio() > 1.0, "ratio {}", p8.ratio());
    }

    #[test]
    #[should_panic]
    fn summary_of_empty_panics() {
        summarize(&[]);
    }

    fn zero_cell() -> RatioCell {
        RatioCell {
            p: 3,
            k: 16,
            fifo_makespan: 500,
            challenger_makespan: 0,
            fifo_hit_rate: 0.0,
            challenger_hit_rate: 0.0,
            truncated: false,
        }
    }

    #[test]
    fn zero_challenger_makespan_is_surfaced_not_clamped() {
        // The old implementation clamped the denominator to 1 and reported
        // a "ratio" of 500 here; now the undefined case is explicit.
        assert_eq!(zero_cell().try_ratio(), None);
    }

    #[test]
    #[should_panic(expected = "ratio undefined")]
    fn ratio_panics_on_zero_challenger_makespan() {
        let _ = zero_cell().ratio();
    }

    #[test]
    fn plot_skips_undefined_ratios() {
        // A plot over only-undefined cells renders without panicking.
        let plot = plot_cells(&[zero_cell()], "t", "c");
        let _ = plot.render();
    }
}
