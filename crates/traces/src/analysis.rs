//! Trace characterization: LRU stack distances and miss-ratio curves.
//!
//! The experiments size HBM in units of the per-core working set; this
//! module is the measurement behind that methodology. [`stack_distances`]
//! implements Mattson's algorithm — the LRU *stack distance* of a reference
//! is the number of distinct pages touched since the previous reference to
//! the same page — using a Fenwick tree over time indices (O(n log n)).
//! Because LRU is a stack algorithm, one pass yields the miss count for
//! *every* cache size at once: a reference with stack distance `d` hits in
//! any LRU cache with at least `d + 1` slots ([`MissRatioCurve`]).

use crate::memlog::DEFAULT_PAGE_BYTES;
use hbm_core::fxhash::FxHashMap;
use hbm_core::LocalPage;

/// Fenwick (binary-indexed) tree over `n` slots, point update / prefix sum.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u32 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Mattson's algorithm as a stream: calls `sink` with each reference's
/// stack distance (`None` for cold) in trace order, never materializing
/// the distance vector. [`stack_distances`] collects it; curve builders
/// fold it straight into a histogram, so summarizing a trace allocates
/// only the Fenwick tree and the last-access map — nothing
/// trace-length-sized beyond the trace itself.
fn stream_stack_distances(trace: &[LocalPage], mut sink: impl FnMut(Option<u32>)) {
    let n = trace.len();
    // marker[t] = 1 if time t is the most recent access of its page.
    let mut fen = Fenwick::new(n);
    let mut last_access: FxHashMap<LocalPage, usize> = FxHashMap::default();
    for (t, &page) in trace.iter().enumerate() {
        // One map operation per reference: the insert hands back the
        // previous access time.
        match last_access.insert(page, t) {
            None => sink(None),
            Some(prev) => {
                // Distinct pages since prev = markers in (prev, t).
                let d = fen.prefix(t.saturating_sub(1)) - fen.prefix(prev);
                sink(Some(d));
                fen.add(prev, -1);
            }
        }
        fen.add(t, 1);
    }
}

/// The LRU stack distance of each reference: `None` for a cold (first)
/// reference, otherwise the number of *distinct* pages referenced since the
/// previous access to the same page (0 = immediate re-reference).
pub fn stack_distances(trace: &[LocalPage]) -> Vec<Option<u32>> {
    let mut out = Vec::with_capacity(trace.len());
    stream_stack_distances(trace, |d| out.push(d));
    out
}

/// Miss counts for every LRU cache size, computed in one pass.
#[derive(Debug, Clone)]
pub struct MissRatioCurve {
    /// Total references.
    pub total: u64,
    /// Cold (first-touch) misses — unavoidable at any size.
    pub cold: u64,
    /// `hist[d]` = references with stack distance exactly `d`.
    hist: Vec<u64>,
}

impl MissRatioCurve {
    /// Builds the curve from a trace. Distances stream straight into the
    /// histogram — the full distance vector (a second trace-sized
    /// allocation) is never materialized.
    pub fn from_trace(trace: &[LocalPage]) -> Self {
        let mut hist = Vec::new();
        let mut cold = 0;
        stream_stack_distances(trace, |d| match d {
            None => cold += 1,
            Some(d) => {
                let d = d as usize;
                if hist.len() <= d {
                    hist.resize(d + 1, 0);
                }
                hist[d] += 1;
            }
        });
        MissRatioCurve {
            total: trace.len() as u64,
            cold,
            hist,
        }
    }

    /// Unique pages in the trace (= cold misses).
    pub fn unique_pages(&self) -> u64 {
        self.cold
    }

    /// Misses an LRU cache of `k` slots incurs on this trace: cold misses
    /// plus every reference whose stack distance is ≥ k.
    pub fn misses_at(&self, k: usize) -> u64 {
        let capacity_misses: u64 = self.hist.iter().skip(k).sum();
        self.cold + capacity_misses
    }

    /// Miss ratio at `k` slots (0 for an empty trace).
    pub fn miss_ratio_at(&self, k: usize) -> f64 {
        self.ratio(self.misses_at(k))
    }

    fn ratio(&self, misses: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            misses as f64 / self.total as f64
        }
    }

    /// Smallest `k` whose miss ratio is at most `target` (cold misses
    /// included), or `None` if even a cache holding everything exceeds it.
    ///
    /// One scan over [`misses_table`](Self::misses_table): beyond the
    /// working set the miss count stays at `cold`, so the table's last
    /// entry stands for every larger size.
    pub fn size_for_miss_ratio(&self, target: f64) -> Option<usize> {
        self.misses_table()
            .into_iter()
            .position(|m| self.ratio(m) <= target)
    }

    /// The *working set* in the experiments' sense: the smallest cache
    /// whose only misses are cold misses.
    pub fn working_set(&self) -> usize {
        self.hist.len()
    }

    /// The whole curve as a lookup table: `table[s]` = misses of an LRU
    /// cache with `s` slots, for `s` in `0..=working_set()`. Beyond the
    /// working set the miss count is constant at `cold`. One suffix-sum
    /// pass turns every later [`misses_at`](Self::misses_at) query from
    /// O(working_set) into O(1) — the precompute behind `hbm-model`'s
    /// million-config analytical screening.
    pub fn misses_table(&self) -> Vec<u64> {
        let ws = self.hist.len();
        let mut table = vec![self.cold; ws + 1];
        let mut suffix = 0u64;
        for s in (0..ws).rev() {
            suffix += self.hist[s];
            table[s] = self.cold + suffix;
        }
        table
    }
}

/// Convenience: the miss-ratio curve of a workload spec's single-core
/// trace. The single-core special case of [`WorkloadSummary::from_spec`]:
/// the trace is generated once and folded straight into the histogram —
/// no flat-workload construction, no second trace-sized allocation.
pub fn mrc_for(spec: crate::workload_gen::WorkloadSpec, seed: u64) -> MissRatioCurve {
    let opts = crate::workload_gen::TraceOptions {
        page_bytes: DEFAULT_PAGE_BYTES,
        collapse: true,
    };
    MissRatioCurve::from_trace(&spec.generate_trace(seed, opts))
}

/// Everything the analytical model needs to know about a `p`-core
/// workload, extracted in one pass: per-core miss-ratio curves, per-core
/// request volumes (the rates), the total footprint, and an aggregated
/// O(1) miss-count lookup.
///
/// Built either from a spec ([`from_spec`](Self::from_spec) — each core's
/// trace is generated, summarized, and dropped before the next, so the
/// flat `p`-core workload is never materialized or cloned) or from an
/// already-built [`Workload`](hbm_core::Workload)
/// ([`from_workload`](Self::from_workload) — borrows each trace slice in
/// place).
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    /// Core count `p`.
    pub cores: usize,
    /// Σ per-core references.
    pub total_refs: u64,
    /// Longest single trace (the work bound).
    pub max_trace_len: u64,
    /// Per-core reference counts — the relative request rates (every
    /// core demands 1 ref/tick while unblocked, so a core's share of the
    /// machine's demand is `trace_lens[i] / max_trace_len`).
    pub trace_lens: Vec<u64>,
    /// Distinct pages across the whole workload (what the channel bound
    /// charges). For disjoint per-core address spaces this is the sum of
    /// per-core unique pages; [`from_workload`](Self::from_workload) uses
    /// the workload's own global-page accounting, so shared universes
    /// count each page once.
    pub footprint: u64,
    /// Per-core LRU miss-ratio curves.
    pub per_core: Vec<MissRatioCurve>,
    /// `agg_misses[s]` = Σ per-core misses with `s` HBM slots *per core*,
    /// for `s` in `0..=max_working_set`; constant (all cold) beyond.
    agg_misses: Vec<u64>,
    /// `max_misses[s]` = max per-core misses at share `s` — the critical
    /// core's traffic, same indexing as `agg_misses`.
    max_misses: Vec<u64>,
    /// Mean per-core working set (0 for an empty workload).
    mean_working_set: f64,
}

impl WorkloadSummary {
    /// Summarizes `spec` at `p` cores with [`TraceOptions::default`]
    /// (collapse on, default page size) — the options every experiment
    /// and the serving layer use. Seed derivation is identical to
    /// [`WorkloadSpec::workload`](crate::workload_gen::WorkloadSpec::workload),
    /// so the summary describes exactly the workload the simulator runs.
    pub fn from_spec(spec: crate::workload_gen::WorkloadSpec, seed: u64, p: usize) -> Self {
        Self::from_spec_opts(spec, seed, p, crate::workload_gen::TraceOptions::default())
    }

    /// [`from_spec`](Self::from_spec) with explicit trace options.
    ///
    /// Streams per-core: cores are summarized in parallel, each core's
    /// trace generated, folded into its curve, and freed — peak memory is
    /// one trace per worker thread, not the `p`-core flat workload.
    pub fn from_spec_opts(
        spec: crate::workload_gen::WorkloadSpec,
        seed: u64,
        p: usize,
        opts: crate::workload_gen::TraceOptions,
    ) -> Self {
        use hbm_core::rng::splitmix64;
        let per_core: Vec<(u64, MissRatioCurve)> = hbm_par::parallel_map_indices(p, |core| {
            // Same per-core seed split as WorkloadSpec::workload.
            let mut s = seed;
            for _ in 0..=core {
                splitmix64(&mut s);
            }
            let trace = spec.generate_trace(s, opts);
            let len = trace.len() as u64;
            (len, MissRatioCurve::from_trace(&trace))
        });
        let (trace_lens, curves): (Vec<u64>, Vec<MissRatioCurve>) = per_core.into_iter().unzip();
        // Spec-generated cores live in disjoint address spaces (the
        // workload builder assigns each core its own global page range),
        // so the footprint is the sum of per-core unique pages.
        let footprint = curves.iter().map(|c| c.unique_pages()).sum();
        Self::assemble(trace_lens, curves, footprint)
    }

    /// Summarizes an already-built workload, borrowing each trace in
    /// place (no clones). The footprint uses the workload's global-page
    /// accounting, so shared-universe workloads count each page once;
    /// disjoint ones sum the curves' cold misses, which are exactly each
    /// core's unique pages, instead of sorting every trace again.
    pub fn from_workload(w: &hbm_core::Workload) -> Self {
        let traces: Vec<&[LocalPage]> = w.traces().iter().map(|t| t.as_slice()).collect();
        let per_core: Vec<(u64, MissRatioCurve)> =
            hbm_par::parallel_map(&traces, |t| (t.len() as u64, MissRatioCurve::from_trace(t)));
        let (trace_lens, curves): (Vec<u64>, Vec<MissRatioCurve>) = per_core.into_iter().unzip();
        let footprint = if w.is_shared() {
            w.total_unique_pages() as u64
        } else {
            curves.iter().map(|c| c.unique_pages()).sum()
        };
        Self::assemble(trace_lens, curves, footprint)
    }

    fn assemble(trace_lens: Vec<u64>, per_core: Vec<MissRatioCurve>, footprint: u64) -> Self {
        let max_ws = per_core.iter().map(|c| c.working_set()).max().unwrap_or(0);
        let mut agg_misses = vec![0u64; max_ws + 1];
        let mut max_misses = vec![0u64; max_ws + 1];
        for curve in &per_core {
            let table = curve.misses_table();
            for s in 0..agg_misses.len() {
                let m = table[s.min(table.len() - 1)];
                agg_misses[s] += m;
                max_misses[s] = max_misses[s].max(m);
            }
        }
        let mean_working_set = if per_core.is_empty() {
            0.0
        } else {
            per_core.iter().map(|c| c.working_set()).sum::<usize>() as f64 / per_core.len() as f64
        };
        WorkloadSummary {
            cores: per_core.len(),
            total_refs: trace_lens.iter().sum(),
            max_trace_len: trace_lens.iter().copied().max().unwrap_or(0),
            trace_lens,
            footprint,
            per_core,
            agg_misses,
            max_misses,
            mean_working_set,
        }
    }

    /// Σ per-core LRU misses when every core gets `share` HBM slots to
    /// itself. O(1).
    pub fn misses_at_share(&self, share: usize) -> u64 {
        self.agg_misses[share.min(self.agg_misses.len() - 1)]
    }

    /// Σ per-core LRU misses under an equal split of `k` HBM slots
    /// across the cores (each core gets `⌊k/p⌋` — the pessimistic
    /// rounding keeps the count monotone non-increasing in `k`). O(1).
    pub fn misses_at_capacity(&self, k: usize) -> u64 {
        if self.cores == 0 {
            return 0;
        }
        self.misses_at_share(k / self.cores)
    }

    /// Miss ratio under the equal split (0 for an empty workload).
    pub fn miss_ratio_at_capacity(&self, k: usize) -> f64 {
        if self.total_refs == 0 {
            0.0
        } else {
            self.misses_at_capacity(k) as f64 / self.total_refs as f64
        }
    }

    /// The largest per-core working set: with `cores × this` HBM slots,
    /// only cold misses remain under the equal split.
    pub fn max_working_set(&self) -> usize {
        self.agg_misses.len() - 1
    }

    /// The *critical core*'s LRU misses when every core gets `share`
    /// slots — the max, where [`misses_at_share`](Self::misses_at_share)
    /// is the sum. O(1).
    pub fn max_misses_at_share(&self, share: usize) -> u64 {
        self.max_misses[share.min(self.max_misses.len() - 1)]
    }

    /// Critical-core misses under the equal `⌊k/p⌋` split. O(1).
    pub fn max_misses_at_capacity(&self, k: usize) -> u64 {
        if self.cores == 0 {
            return 0;
        }
        self.max_misses_at_share(k / self.cores)
    }

    /// Mean per-core working set (0 for an empty workload) — the batching
    /// granularity a Priority-family policy effectively schedules in.
    pub fn mean_working_set(&self) -> f64 {
        self.mean_working_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n·u) reference: simulate LRU of size k directly.
    fn lru_misses(trace: &[LocalPage], k: usize) -> u64 {
        let mut stack: Vec<LocalPage> = Vec::new();
        let mut misses = 0;
        for &p in trace {
            match stack.iter().position(|&x| x == p) {
                Some(i) => {
                    stack.remove(i);
                }
                None => {
                    misses += 1;
                    if stack.len() == k {
                        stack.pop();
                    }
                }
            }
            if k > 0 {
                stack.insert(0, p);
            }
        }
        misses
    }

    #[test]
    fn distances_on_known_sequence() {
        // a b c a b b: a cold, b cold, c cold, a dist 2, b dist 2, b dist 0.
        let trace = [0, 1, 2, 0, 1, 1];
        assert_eq!(
            stack_distances(&trace),
            vec![None, None, None, Some(2), Some(2), Some(0)]
        );
    }

    #[test]
    fn curve_matches_direct_lru_simulation() {
        use hbm_core::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(5);
        let trace: Vec<u32> = (0..3000)
            .map(|_| {
                let u = rng.gen_f64();
                ((u * u) * 60.0) as u32
            })
            .collect();
        let mrc = MissRatioCurve::from_trace(&trace);
        for k in [1usize, 2, 4, 8, 16, 32, 64] {
            assert_eq!(mrc.misses_at(k), lru_misses(&trace, k), "k = {k}");
        }
    }

    #[test]
    fn cyclic_trace_is_all_or_nothing() {
        // The Dataset 3 pathology in MRC form: distance = pages - 1 for
        // every non-cold reference, so the curve is a step function.
        let trace = crate::adversarial::cyclic_trace(32, 5);
        let mrc = MissRatioCurve::from_trace(&trace);
        assert_eq!(mrc.unique_pages(), 32);
        assert_eq!(mrc.misses_at(31), trace.len() as u64, "thrash below 32");
        assert_eq!(mrc.misses_at(32), 32, "cold misses only at 32");
        assert_eq!(mrc.working_set(), 32);
    }

    #[test]
    fn monotone_in_k() {
        let trace = crate::synthetic::zipf_trace(100, 5000, 1.0, 7);
        let mrc = MissRatioCurve::from_trace(&trace);
        let mut last = u64::MAX;
        for k in 0..110 {
            let m = mrc.misses_at(k);
            assert!(m <= last);
            last = m;
        }
        assert_eq!(mrc.misses_at(200), mrc.unique_pages());
    }

    #[test]
    fn size_for_miss_ratio_finds_the_knee() {
        let trace = crate::adversarial::cyclic_trace(16, 10);
        let mrc = MissRatioCurve::from_trace(&trace);
        // 10% miss ratio requires the full working set on a cyclic trace.
        assert_eq!(mrc.size_for_miss_ratio(0.2), Some(16));
        assert!(
            mrc.size_for_miss_ratio(0.0001).is_none(),
            "cold misses remain"
        );
    }

    #[test]
    fn empty_and_singleton() {
        let mrc = MissRatioCurve::from_trace(&[]);
        assert_eq!(mrc.total, 0);
        assert_eq!(mrc.miss_ratio_at(4), 0.0);
        let one = MissRatioCurve::from_trace(&[9]);
        assert_eq!(one.misses_at(0), 1);
        assert_eq!(one.working_set(), 0);
    }

    #[test]
    fn summary_from_spec_matches_the_workload_the_simulator_runs() {
        use crate::workload_gen::{TraceOptions, WorkloadSpec};
        let spec = WorkloadSpec::Uniform {
            pages: 40,
            len: 300,
        };
        let (seed, p) = (9u64, 4usize);
        let summary = WorkloadSummary::from_spec(spec, seed, p);
        // The summary must describe exactly spec.workload(p, seed, ..):
        // same per-core lengths, same curves, same footprint.
        let w = spec.workload(p, seed, TraceOptions::default());
        let direct = WorkloadSummary::from_workload(&w);
        assert_eq!(summary.cores, p);
        assert_eq!(summary.trace_lens, direct.trace_lens);
        assert_eq!(summary.total_refs, direct.total_refs);
        assert_eq!(summary.max_trace_len, w.max_trace_len() as u64);
        assert_eq!(summary.footprint, w.total_unique_pages() as u64);
        for k in [0usize, 1, 8, 40, 400] {
            assert_eq!(summary.misses_at_capacity(k), direct.misses_at_capacity(k));
        }
    }

    #[test]
    fn summary_aggregate_agrees_with_per_core_curves() {
        use crate::workload_gen::WorkloadSpec;
        let summary = WorkloadSummary::from_spec(WorkloadSpec::Cyclic { pages: 16, reps: 5 }, 3, 3);
        for share in [0usize, 4, 15, 16, 64] {
            let direct: u64 = summary.per_core.iter().map(|c| c.misses_at(share)).sum();
            assert_eq!(summary.misses_at_share(share), direct, "share {share}");
        }
        // Equal split: 3 cores × 16-page cycles thrash below 3·16 slots
        // and keep only cold misses at it.
        assert_eq!(summary.max_working_set(), 16);
        assert_eq!(summary.misses_at_capacity(3 * 16), summary.footprint);
        assert_eq!(summary.misses_at_capacity(3 * 16 - 3), summary.total_refs);
    }

    #[test]
    fn summary_misses_monotone_in_k() {
        use crate::workload_gen::WorkloadSpec;
        let spec = WorkloadSpec::Zipf {
            pages: 64,
            len: 800,
            alpha: 1.0,
        };
        let summary = WorkloadSummary::from_spec(spec, 11, 3);
        let mut last = u64::MAX;
        for k in 0..=(3 * summary.max_working_set() + 6) {
            let m = summary.misses_at_capacity(k);
            assert!(m <= last, "misses rose at k={k}: {m} > {last}");
            last = m;
        }
    }

    #[test]
    fn summary_of_shared_workload_counts_shared_pages_once() {
        let w = hbm_core::Workload::shared_from_refs(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let s = WorkloadSummary::from_workload(&w);
        assert_eq!(s.footprint, 4, "shared pages must not double-count");
        assert_eq!(s.total_refs, 6);
        assert_eq!(s.max_trace_len, 3);
    }

    #[test]
    fn summary_of_empty_workload() {
        let s = WorkloadSummary::from_workload(&hbm_core::Workload::new());
        assert_eq!(s.cores, 0);
        assert_eq!(s.total_refs, 0);
        assert_eq!(s.misses_at_capacity(16), 0);
        assert_eq!(s.miss_ratio_at_capacity(16), 0.0);
    }

    #[test]
    fn misses_table_matches_pointwise_queries() {
        let trace = crate::synthetic::zipf_trace(50, 2000, 0.9, 13);
        let mrc = MissRatioCurve::from_trace(&trace);
        let table = mrc.misses_table();
        assert_eq!(table.len(), mrc.working_set() + 1);
        for (s, &m) in table.iter().enumerate() {
            assert_eq!(m, mrc.misses_at(s), "table[{s}]");
        }
        assert_eq!(*table.last().unwrap(), mrc.unique_pages());
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 1);
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(3), 3);
        assert_eq!(f.prefix(7), 4);
        f.add(3, -2);
        assert_eq!(f.prefix(7), 2);
    }
}
