//! Figure 3: FIFO vs Priority on the adversarial Dataset 3.
//!
//! "100 repetitions of the sequence 1, 2, 3 … 256, but only 1/4 of the
//! memory required to fit every page in HBM. FIFO misses every page and
//! Priority starves threads. FIFO yields a higher makespan by as much as
//! 40×" — and the gap scales linearly with thread count.

use crate::common::{f3, run_cell_flat, ResultTable, Scale};
use hbm_core::{ArbitrationKind, EngineScratch, FlatWorkload};
use hbm_traces::adversarial::{cyclic_workload, figure3_hbm_slots};
use serde::Serialize;
use std::sync::Arc;

/// One Figure 3 point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig3Cell {
    /// Thread count.
    pub p: usize,
    /// HBM slots (= p·pages/4).
    pub k: usize,
    /// FIFO makespan.
    pub fifo_makespan: u64,
    /// Priority makespan.
    pub priority_makespan: u64,
    /// FIFO hit rate (expected: 0).
    pub fifo_hit_rate: f64,
}

impl Fig3Cell {
    /// FIFO/Priority makespan ratio, `None` when the Priority makespan is
    /// 0 (empty workload — the ratio is undefined, not `fifo_makespan`).
    pub fn try_ratio(&self) -> Option<f64> {
        if self.priority_makespan == 0 {
            return None;
        }
        Some(self.fifo_makespan as f64 / self.priority_makespan as f64)
    }

    /// FIFO/Priority makespan ratio.
    ///
    /// # Panics
    /// Panics when the Priority makespan is 0 (see
    /// [`try_ratio`](Self::try_ratio)).
    pub fn ratio(&self) -> f64 {
        self.try_ratio().unwrap_or_else(|| {
            panic!(
                "ratio undefined: Priority makespan is 0 at p={} (empty workload cell?)",
                self.p
            )
        })
    }
}

/// Thread counts for the Figure 3 sweep at each scale.
pub fn thread_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![4, 8, 16, 32],
        Scale::Default => vec![4, 8, 16, 32, 64, 128],
        Scale::Full => vec![4, 8, 16, 32, 64, 128, 192, 256],
    }
}

/// Runs the sweep and returns raw cells.
pub fn run_cells(scale: Scale, seed: u64) -> Vec<Fig3Cell> {
    let (pages, reps) = scale.cyclic_params();
    let ps = thread_counts(scale);
    hbm_par::parallel_map(&ps, |&p| {
        // Flatten once per p; both policy cells replay the same shared
        // workload, the second reusing the first's scratch buffers.
        let flat = Arc::new(FlatWorkload::new(&cyclic_workload(p, pages, reps)));
        let k = figure3_hbm_slots(p, pages, 4);
        let mut scratch = EngineScratch::default();
        let fifo = run_cell_flat(&flat, k, 1, ArbitrationKind::Fifo, seed, &mut scratch);
        let prio = run_cell_flat(&flat, k, 1, ArbitrationKind::Priority, seed, &mut scratch);
        Fig3Cell {
            p,
            k,
            fifo_makespan: fifo.makespan,
            priority_makespan: prio.makespan,
            fifo_hit_rate: fifo.hit_rate,
        }
    })
}

/// Renders the Figure 3 chart: makespan vs p for both policies.
pub fn plot_cells(cells: &[Fig3Cell]) -> crate::plot::AsciiPlot {
    use crate::plot::{AsciiPlot, Series};
    AsciiPlot::new(
        "Figure 3 — FIFO vs Priority on Dataset 3 (k = 1/4 of union)",
        "threads p",
        "makespan",
    )
    .log_y()
    .series(Series::new(
        "FIFO",
        'f',
        cells
            .iter()
            .map(|c| (c.p as f64, c.fifo_makespan as f64))
            .collect(),
    ))
    .series(Series::new(
        "Priority",
        'p',
        cells
            .iter()
            .map(|c| (c.p as f64, c.priority_makespan as f64))
            .collect(),
    ))
}

/// Runs and renders the Figure 3 table.
pub fn run(scale: Scale, seed: u64) -> ResultTable {
    render(&run_cells(scale, seed))
}

/// Renders the Figure 3 table from precomputed cells.
pub fn render(cells: &[Fig3Cell]) -> ResultTable {
    let mut t = ResultTable::new(
        "Figure 3 — Dataset 3 (cycle over 256 pages, k = 1/4 of union): FIFO vs Priority",
        &[
            "p",
            "k",
            "fifo_makespan",
            "priority_makespan",
            "ratio",
            "fifo_hit_rate",
        ],
    );
    for c in cells {
        t.push_row(vec![
            c.p.to_string(),
            c.k.to_string(),
            c.fifo_makespan.to_string(),
            c.priority_makespan.to_string(),
            f3(c.ratio()),
            f3(c.fifo_hit_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_hit_rate_is_zero_and_ratio_grows_with_p() {
        let cells = run_cells(Scale::Small, 1);
        for c in &cells {
            assert_eq!(c.fifo_hit_rate, 0.0, "p={}: FIFO must never hit", c.p);
        }
        // Monotone-ish growth of the ratio with thread count.
        let first = cells.first().unwrap().ratio();
        let last = cells.last().unwrap().ratio();
        assert!(
            last > 1.5 * first,
            "ratio should grow with p: {first} -> {last}"
        );
        assert!(last > 2.0, "FIFO must lose badly at p=32: ratio {last}");
    }

    #[test]
    fn fifo_makespan_equals_total_refs_times_refill() {
        // With zero hits and q=1, FIFO's makespan is ~ total references
        // (every reference crosses the channel serially).
        let cells = run_cells(Scale::Small, 1);
        let (pages, reps) = Scale::Small.cyclic_params();
        for c in &cells {
            let total = (c.p * pages as usize * reps) as u64;
            assert!(c.fifo_makespan >= total, "p={}", c.p);
            assert!(c.fifo_makespan <= total + total / 10 + 1000, "p={}", c.p);
        }
    }
}
