//! Warm-path execution substrate: memoized trace pools, recycled engine
//! scratch, and budgeted cell runners.
//!
//! This module is the sharing layer DESIGN.md §13 describes, moved here
//! from `hbm-experiments::common` so the HTTP server (which sits *below*
//! the experiment harness in the dependency graph) can execute requests
//! through exactly the same pools the sweep drivers use.
//! `hbm_experiments::common` re-exports every item, so harness call sites
//! are unchanged.
//!
//! [`TracePool`] bounds its retained memory: at medium scale memoized
//! [`FlatWorkload`]s alone reached ~322 MB when nothing was ever evicted,
//! so pools take an optional memo capacity (least-recently-used eviction)
//! and expose [`TracePool::shrink`] for explicit release on a server's
//! idle path.

use crate::memo::Memo;
use hbm_core::{
    ArbitrationKind, Engine, EngineScratch, FaultPlan, FlatWorkload, NoopObserver, Report,
    SimBuilder, SimError, Trace, Workload,
};
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::{TraceOptions, WorkloadSpec};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Builds per-core traces for the largest thread count once; sweep cells
/// and server requests take prefixes. "Each trace is generated from the
/// same program with different randomness" (§3.2).
///
/// Beyond the traces themselves the pool memoizes three derived artifacts
/// so no caller ever regenerates or re-indexes workload data (DESIGN.md
/// §13):
///
/// * a lazily generated **probe trace** — `spec.generate_trace(seed,
///   TraceOptions::default())`, exactly the trace `hbm_sizes_for` and
///   `contended_config` historically regenerated from scratch on every
///   call (it is *not* pool trace 0: `WorkloadSpec::workload` derives
///   per-core seeds, so trace 0 uses a different stream);
/// * one immutable [`FlatWorkload`] per requested prefix length `p`,
///   shared via `Arc` across every cell of a sweep grid or every request
///   hitting the same configuration;
/// * one [`WorkloadSummary`] per requested `p` — the per-core miss-ratio
///   curves the analytical model reads, built from the pool's own traces.
///
/// Both per-`p` memos are unbounded by default (sweeps touch each `p`
/// exactly once per grid row and want them all resident); long-lived
/// servers call [`set_flat_capacity`](Self::set_flat_capacity) to cap each
/// with LRU eviction, or [`shrink`](Self::shrink) to drop both outright.
pub struct TracePool {
    spec: WorkloadSpec,
    seed: u64,
    traces: Vec<Trace>,
    probe: OnceLock<Trace>,
    flats: Mutex<Memo<usize, FlatWorkload>>,
    summaries: Mutex<Memo<usize, WorkloadSummary>>,
}

/// Locks a memo, recovering it from a poisoned lock: every memo mutation
/// leaves it consistent.
fn lock<V>(memo: &Mutex<Memo<usize, V>>) -> MutexGuard<'_, Memo<usize, V>> {
    memo.lock().unwrap_or_else(|e| e.into_inner())
}

/// The memoized value for `p`, built by `build` on first use. The memo's
/// lock is released before building.
fn memoized<V>(memo: &Mutex<Memo<usize, V>>, p: usize, build: impl FnOnce() -> V) -> Arc<V> {
    let slot = lock(memo).slot(p);
    Arc::clone(slot.get_or_init(|| Arc::new(build())))
}

impl TracePool {
    /// Generates `max_p` traces for `spec` (parallelized inside).
    pub fn generate(spec: WorkloadSpec, max_p: usize, seed: u64, opts: TraceOptions) -> Self {
        let w = spec.workload(max_p, seed, opts);
        TracePool {
            spec,
            seed,
            traces: w.traces().to_vec(),
            probe: OnceLock::new(),
            flats: Mutex::default(),
            summaries: Mutex::default(),
        }
    }

    /// The workload made of the first `p` traces (cheap: traces are
    /// `Arc`-backed, so this clones handles, not page data).
    pub fn workload(&self, p: usize) -> Workload {
        assert!(p <= self.traces.len());
        let mut w = Workload::new();
        for t in &self.traces[..p] {
            w.push(t.clone());
        }
        w
    }

    /// The shared pre-indexed form of [`workload(p)`](Self::workload),
    /// built once per distinct `p` and memoized (subject to the memo
    /// capacity). Every caller at the same thread count gets the same
    /// `Arc` — flattening and page-index construction happen once, not
    /// once per cell or per request.
    pub fn flat(&self, p: usize) -> Arc<FlatWorkload> {
        memoized(&self.flats, p, || FlatWorkload::new(&self.workload(p)))
    }

    /// The analytical summary of [`workload(p)`](Self::workload), built
    /// once per distinct `p` from the pool's own traces and memoized like
    /// [`flat`](Self::flat). Equal field for field to
    /// `WorkloadSummary::from_spec_opts` on the pool's spec, seed and
    /// options, without generating a trace.
    pub fn summary(&self, p: usize) -> Arc<WorkloadSummary> {
        memoized(&self.summaries, p, || {
            WorkloadSummary::from_workload(&self.workload(p))
        })
    }

    /// The memoized [`summary`](Self::summary) for `p` if one is already
    /// built; `None` otherwise. Never builds and never waits for a build.
    pub fn cached_summary(&self, p: usize) -> Option<Arc<WorkloadSummary>> {
        lock(&self.summaries).get(&p)
    }

    /// Caps the memoized flats and the memoized summaries at `capacity`
    /// entries each, with least-recently-used eviction, applying it
    /// immediately. `None` restores the unbounded default. Eviction drops
    /// the pool's `Arc`; in-flight holders keep theirs alive until they
    /// finish.
    pub fn set_flat_capacity(&self, capacity: Option<usize>) {
        lock(&self.flats).set_capacity(capacity);
        lock(&self.summaries).set_capacity(capacity);
    }

    /// Drops every memoized [`FlatWorkload`] (the dominant retained
    /// allocation — ~322 MB at medium scale before bounding) and every
    /// memoized summary. The base traces stay; the next
    /// [`flat`](Self::flat) or [`summary`](Self::summary) call rebuilds on
    /// demand. This is the server's idle-path release.
    pub fn shrink(&self) {
        lock(&self.flats).clear();
        lock(&self.summaries).clear();
    }

    /// Number of memoized flats currently retained.
    pub fn flat_count(&self) -> usize {
        lock(&self.flats).len()
    }

    /// Largest available thread count.
    pub fn max_p(&self) -> usize {
        self.traces.len()
    }

    /// One core's working set (unique pages) measured on the memoized
    /// probe trace — generated at most once per pool, with
    /// `TraceOptions::default()` regardless of the pool's own options so
    /// derived HBM sizes stay identical across e.g. collapse ablations.
    pub fn working_set(&self) -> usize {
        self.probe
            .get_or_init(|| {
                Trace::new(self.spec.generate_trace(self.seed, TraceOptions::default()))
            })
            .unique_pages()
    }
}

/// Per-cell execution budget for sweeps over untrusted or adversarial
/// parameter grids — and for server requests, where it is the admission
/// contract: exceeding either bound stops the run cooperatively and
/// reports `Report::truncated = true`. The cell fails *soft* (its partial
/// metrics are still returned) instead of hanging the sweep or the
/// connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CellBudget {
    /// Maximum simulated ticks (sets the engine's `max_ticks`).
    pub max_ticks: Option<u64>,
    /// Maximum wall-clock time, checked every 1024 engine steps.
    pub max_wall: Option<Duration>,
}

impl CellBudget {
    /// No limits — identical behaviour to [`run_cell`].
    pub const UNLIMITED: CellBudget = CellBudget {
        max_ticks: None,
        max_wall: None,
    };

    /// The tighter of two budgets, field by field. The server clamps
    /// client-supplied budgets against its own ceiling with this.
    pub fn min(self, other: CellBudget) -> CellBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, None) | (None, x) => x,
            }
        }
        CellBudget {
            max_ticks: tighter(self.max_ticks, other.max_ticks),
            max_wall: tighter(self.max_wall, other.max_wall),
        }
    }
}

/// The full simulation parameter space a server request can specify,
/// bundled so runner signatures stop growing one argument per PR.
/// [`Default`] matches `SimBuilder::new()`'s defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSettings {
    /// HBM capacity in page slots (`k`).
    pub k: usize,
    /// Parallel fetch channels (`q`).
    pub q: usize,
    /// Queue arbitration policy.
    pub arbitration: ArbitrationKind,
    /// HBM replacement policy.
    pub replacement: hbm_core::ReplacementKind,
    /// Far-memory fetch latency in ticks (`None` keeps the builder default).
    pub far_latency: Option<u64>,
    /// RNG seed for stochastic policies.
    pub seed: u64,
    /// Fault injection plan.
    pub faults: FaultPlan,
}

impl Default for SimSettings {
    fn default() -> Self {
        let defaults = SimBuilder::new();
        let c = defaults.config();
        SimSettings {
            k: c.hbm_slots,
            q: c.channels,
            arbitration: c.arbitration,
            replacement: c.replacement,
            far_latency: None,
            seed: c.seed,
            faults: FaultPlan::default(),
        }
    }
}

impl SimSettings {
    /// A settings bundle with the given core parameters and builder
    /// defaults elsewhere.
    pub fn new(k: usize, q: usize, arbitration: ArbitrationKind, seed: u64) -> SimSettings {
        SimSettings {
            k,
            q,
            arbitration,
            seed,
            ..SimSettings::default()
        }
    }

    fn builder(&self, budget: CellBudget) -> SimBuilder {
        let mut b = SimBuilder::new()
            .hbm_slots(self.k)
            .channels(self.q)
            .arbitration(self.arbitration)
            .replacement(self.replacement)
            .seed(self.seed)
            .fault_plan(self.faults.clone());
        if let Some(lat) = self.far_latency {
            b = b.far_latency(lat);
        }
        if let Some(max_ticks) = budget.max_ticks {
            b = b.max_ticks(max_ticks);
        }
        b
    }
}

/// Runs one simulation cell.
pub fn run_cell(
    workload: &Workload,
    k: usize,
    q: usize,
    arb: ArbitrationKind,
    seed: u64,
) -> Report {
    SimBuilder::new()
        .hbm_slots(k)
        .channels(q)
        .arbitration(arb)
        .seed(seed)
        .run(workload)
}

/// Runs one simulation cell against a shared [`FlatWorkload`], recycling
/// `scratch`'s buffers for the engine's mutable state. Bit-identical to
/// [`run_cell`] on the equivalent owned workload (enforced by the sharing
/// differential suite), but performs no per-cell trace copies and O(1)
/// heap allocations once the scratch is warm.
pub fn run_cell_flat(
    flat: &Arc<FlatWorkload>,
    k: usize,
    q: usize,
    arb: ArbitrationKind,
    seed: u64,
    scratch: &mut EngineScratch,
) -> Report {
    let engine = SimBuilder::new()
        .hbm_slots(k)
        .channels(q)
        .arbitration(arb)
        .seed(seed)
        .try_build_flat_reusing(flat, scratch)
        .expect("invalid simulation config");
    engine.run_reusing(&mut NoopObserver, scratch)
}

/// Runs one simulation cell under a [`CellBudget`], returning a typed
/// error (never panicking) on invalid configuration. Budget-truncated
/// cells return `Ok` with `Report::truncated = true`.
pub fn run_cell_budgeted(
    workload: &Workload,
    k: usize,
    q: usize,
    arb: ArbitrationKind,
    seed: u64,
    budget: CellBudget,
) -> Result<Report, SimError> {
    run_sim_budgeted(workload, &SimSettings::new(k, q, arb, seed), budget)
}

/// [`run_cell_budgeted`] generalized over the full [`SimSettings`] space —
/// the server's owned-workload execution path.
pub fn run_sim_budgeted(
    workload: &Workload,
    settings: &SimSettings,
    budget: CellBudget,
) -> Result<Report, SimError> {
    let mut engine = settings.builder(budget).try_build(workload)?;
    let Some(wall) = budget.max_wall else {
        return Ok(engine.run(&mut NoopObserver));
    };
    step_within_wall(&mut engine, wall);
    Ok(engine.into_report())
}

/// Steps `engine` until it finishes, reaches its `max_ticks`, or `wall`
/// elapses — the cooperative wall-budget loop shared by the budgeted
/// runners.
fn step_within_wall(engine: &mut Engine, wall: Duration) {
    let start = Instant::now();
    let mut steps = 0u32;
    while !engine.is_done() && engine.tick() < engine.max_ticks() {
        engine.step(&mut NoopObserver);
        steps = steps.wrapping_add(1);
        // Instant::now() costs a vDSO call; amortize it over a batch of
        // steps (a step is at least one tick, usually far more).
        if steps & 1023 == 0 && start.elapsed() >= wall {
            break;
        }
    }
}

/// [`run_cell_budgeted`] over a shared [`FlatWorkload`] with recycled
/// scratch buffers — the journaled-sweep worker path. Same soft-failure
/// semantics; same results bit for bit.
pub fn run_cell_budgeted_flat(
    flat: &Arc<FlatWorkload>,
    k: usize,
    q: usize,
    arb: ArbitrationKind,
    seed: u64,
    budget: CellBudget,
    scratch: &mut EngineScratch,
) -> Result<Report, SimError> {
    run_sim_budgeted_flat(flat, &SimSettings::new(k, q, arb, seed), budget, scratch)
}

/// [`run_sim_budgeted`] over a shared [`FlatWorkload`] with recycled
/// scratch buffers — the server's warm path. Bit-identical to the owned
/// path for the same settings.
pub fn run_sim_budgeted_flat(
    flat: &Arc<FlatWorkload>,
    settings: &SimSettings,
    budget: CellBudget,
    scratch: &mut EngineScratch,
) -> Result<Report, SimError> {
    let mut engine = settings
        .builder(budget)
        .try_build_flat_reusing(flat, scratch)?;
    let Some(wall) = budget.max_wall else {
        return Ok(engine.run_reusing(&mut NoopObserver, scratch));
    };
    step_within_wall(&mut engine, wall);
    Ok(engine.into_report_reusing(scratch))
}

/// Builds an owned incremental [`Engine`](hbm_core::Engine) over a shared
/// [`FlatWorkload`] under a [`CellBudget`]'s tick bound — the streaming
/// session's substrate. The caller owns the stepping loop (pacing,
/// snapshots, wall-budget checks, shutdown polling); the returned tick cap
/// is the engine's configured `max_ticks`, so a session loop stepping
/// `while !done && tick < cap` finalizes with exactly the same truncation
/// semantics as [`run_sim_budgeted_flat`].
pub fn build_session_engine(
    flat: &Arc<FlatWorkload>,
    settings: &SimSettings,
    budget: CellBudget,
) -> Result<(hbm_core::Engine, u64), SimError> {
    let builder = settings.builder(budget);
    let tick_cap = builder.config().max_ticks;
    let engine = builder.try_build_flat(flat)?;
    Ok((engine, tick_cap))
}

/// A pool of [`EngineScratch`]es shared by sweep workers and server
/// request handlers.
///
/// `hbm_par`'s closures are `Fn(&T)` — they cannot hold `&mut` worker
/// state — so per-cell scratch reuse goes through this pool: each cell
/// pops a scratch (or starts a fresh one), runs, and returns it. With `n`
/// workers the pool converges to `n` scratches regardless of grid size.
///
/// **Panic safety:** the scratch is returned by a drop guard, so a cell
/// that panics mid-run still recycles its buffers. That is sound because
/// engine construction fully overwrites every scratch buffer
/// (`clear()` + `resize`) — a panic-abandoned scratch is indistinguishable
/// from a fresh one to the next cell (see the `EngineScratch` docs and the
/// sharing / scratch-panic suites).
#[derive(Default)]
pub struct ScratchPool {
    free: Mutex<Vec<EngineScratch>>,
}

impl ScratchPool {
    /// An empty pool; scratches are created on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled scratch, returning it afterwards — including
    /// on unwind.
    pub fn with<R>(&self, f: impl FnOnce(&mut EngineScratch) -> R) -> R {
        struct Guard<'a> {
            pool: &'a ScratchPool,
            scratch: Option<EngineScratch>,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                if let Some(s) = self.scratch.take() {
                    self.pool
                        .free
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(s);
                }
            }
        }
        let scratch = self
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let mut guard = Guard {
            pool: self,
            scratch: Some(scratch),
        };
        f(guard.scratch.as_mut().expect("scratch present until drop"))
    }

    /// Number of idle scratches currently pooled (for tests/diagnostics).
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Frees every idle scratch — the idle-path companion to
    /// [`TracePool::shrink`]. Scratches checked out by in-flight work are
    /// unaffected and return to the pool as usual.
    pub fn clear(&self) {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    fn small_pool() -> TracePool {
        let spec = WorkloadSpec::Uniform { pages: 10, len: 50 };
        TracePool::generate(spec, 4, 1, TraceOptions::default())
    }

    #[test]
    fn trace_pool_prefixes() {
        let pool = small_pool();
        assert_eq!(pool.max_p(), 4);
        let w2 = pool.workload(2);
        let w4 = pool.workload(4);
        assert_eq!(w2.cores(), 2);
        // Prefix property: w2's traces are w4's first two.
        assert_eq!(w2.trace(0).as_slice(), w4.trace(0).as_slice());
        assert_eq!(w2.trace(1).as_slice(), w4.trace(1).as_slice());
    }

    #[test]
    fn flat_memoization_shares_one_arc() {
        let pool = small_pool();
        let a = pool.flat(3);
        let b = pool.flat(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.flat_count(), 1);
    }

    #[test]
    fn shrink_actually_drops_memoized_flats() {
        let pool = small_pool();
        let weak: Weak<FlatWorkload> = Arc::downgrade(&pool.flat(4));
        assert!(weak.upgrade().is_some(), "memoized while retained");
        pool.shrink();
        assert_eq!(pool.flat_count(), 0);
        assert!(
            weak.upgrade().is_none(),
            "shrink() must release the flat's memory, not just the map slot"
        );
        // The pool still works after shrinking: flats rebuild on demand.
        let rebuilt = pool.flat(4);
        assert_eq!(rebuilt.cores(), 4);
        assert_eq!(pool.flat_count(), 1);
    }

    #[test]
    fn flat_capacity_evicts_least_recently_used() {
        let pool = small_pool();
        pool.set_flat_capacity(Some(2));
        let f1 = pool.flat(1);
        let _f2 = pool.flat(2);
        let _ = pool.flat(1); // touch 1 so 2 is now the oldest
        let w2 = Arc::downgrade(&pool.flat(2)); // p=2 now most recent
        let w1 = Arc::downgrade(&f1);
        drop(f1);
        let _f3 = pool.flat(3);
        assert_eq!(pool.flat_count(), 2);
        assert!(w1.upgrade().is_none(), "LRU entry evicted");
        assert!(w2.upgrade().is_some(), "recent entry survives");
    }

    #[test]
    fn set_capacity_trims_immediately() {
        let pool = small_pool();
        for p in 1..=4 {
            let _ = pool.flat(p);
        }
        assert_eq!(pool.flat_count(), 4);
        pool.set_flat_capacity(Some(1));
        assert_eq!(pool.flat_count(), 1);
        pool.set_flat_capacity(None);
        for p in 1..=4 {
            let _ = pool.flat(p);
        }
        assert_eq!(pool.flat_count(), 4, "unbounded again after reset");
    }

    #[test]
    fn evicted_flat_rebuilds_identically() {
        let pool = small_pool();
        let before = pool.flat(2);
        pool.shrink();
        let after = pool.flat(2);
        assert!(!Arc::ptr_eq(&before, &after));
        let r1 = run_cell_flat(
            &before,
            16,
            1,
            ArbitrationKind::Fifo,
            0,
            &mut EngineScratch::default(),
        );
        let r2 = run_cell_flat(
            &after,
            16,
            1,
            ArbitrationKind::Fifo,
            0,
            &mut EngineScratch::default(),
        );
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.hits, r2.hits);
    }

    #[test]
    fn summary_memoization_shares_one_arc() {
        let pool = small_pool();
        assert!(pool.cached_summary(3).is_none(), "nothing built yet");
        let a = pool.summary(3);
        let b = pool
            .cached_summary(3)
            .expect("memoized after the first build");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &pool.summary(3)));
        assert!(pool.cached_summary(2).is_none(), "memoized per p");
    }

    #[test]
    fn shrink_and_capacity_bound_summaries_like_flats() {
        let pool = small_pool();
        let weak = Arc::downgrade(&pool.summary(4));
        pool.shrink();
        assert!(pool.cached_summary(4).is_none());
        assert!(weak.upgrade().is_none(), "shrink() releases the summary");
        pool.set_flat_capacity(Some(2));
        let _ = pool.summary(1);
        let _ = pool.summary(2);
        let _ = pool.cached_summary(1); // touch 1 so 2 is now the oldest
        let _ = pool.summary(3);
        assert!(pool.cached_summary(2).is_none(), "LRU summary evicted");
        assert!(pool.cached_summary(1).is_some());
        assert!(pool.cached_summary(3).is_some());
        pool.set_flat_capacity(Some(1));
        assert!(pool.cached_summary(1).is_none(), "trimmed immediately");
        assert!(pool.cached_summary(3).is_some(), "most recent survives");
    }

    /// Field-by-field equality of two summaries, including every per-core
    /// miss table and every aggregated share lookup.
    fn assert_same_summary(memo: &WorkloadSummary, direct: &WorkloadSummary, what: &str) {
        assert_eq!(memo.cores, direct.cores, "{what}: cores");
        assert_eq!(memo.trace_lens, direct.trace_lens, "{what}: trace_lens");
        assert_eq!(memo.total_refs, direct.total_refs, "{what}: total_refs");
        assert_eq!(memo.max_trace_len, direct.max_trace_len, "{what}");
        assert_eq!(memo.footprint, direct.footprint, "{what}: footprint");
        assert_eq!(
            memo.mean_working_set().to_bits(),
            direct.mean_working_set().to_bits(),
            "{what}: mean_working_set"
        );
        assert_eq!(memo.per_core.len(), direct.per_core.len(), "{what}");
        for (core, (m, d)) in memo.per_core.iter().zip(&direct.per_core).enumerate() {
            assert_eq!(m.misses_table(), d.misses_table(), "{what}: core {core}");
        }
        assert_eq!(memo.max_working_set(), direct.max_working_set(), "{what}");
        for share in 0..=direct.max_working_set() + 1 {
            assert_eq!(
                memo.misses_at_share(share),
                direct.misses_at_share(share),
                "{what}: misses_at_share({share})"
            );
            assert_eq!(
                memo.max_misses_at_share(share),
                direct.max_misses_at_share(share),
                "{what}: max_misses_at_share({share})"
            );
        }
    }

    /// The memoized summary the server's warm path answers from must equal
    /// the one built straight from the spec, for every workload family —
    /// at several `p`, after the registry regrows a pool from a smaller
    /// `max_p`, and after `shrink()` forces a rebuild.
    #[test]
    fn memoized_summary_matches_from_spec_opts_for_every_family() {
        use crate::proto::WorkloadKey;
        use crate::shard::{PoolRegistry, PoolUse};
        use hbm_traces::dense::DenseVariant;
        use hbm_traces::SortAlgo;
        let specs = [
            WorkloadSpec::Cyclic { pages: 24, reps: 3 },
            WorkloadSpec::Sawtooth { pages: 24, reps: 3 },
            WorkloadSpec::Uniform {
                pages: 40,
                len: 300,
            },
            WorkloadSpec::Zipf {
                pages: 40,
                len: 300,
                alpha: 1.1,
            },
            WorkloadSpec::PermutationWalk { pages: 30, laps: 3 },
            WorkloadSpec::Sort {
                algo: SortAlgo::Mergesort,
                n: 200,
            },
            WorkloadSpec::SpGemm {
                n: 12,
                density: 0.2,
            },
            WorkloadSpec::SpMv {
                n: 24,
                density: 0.2,
                reps: 2,
            },
            WorkloadSpec::Dense {
                n: 6,
                variant: DenseVariant::Ijk,
            },
            WorkloadSpec::Bfs { n: 64, degree: 4 },
            WorkloadSpec::PageRank {
                n: 64,
                degree: 4,
                iters: 2,
            },
        ];
        let uncollapsed = TraceOptions {
            collapse: false,
            ..TraceOptions::default()
        };
        for (i, spec) in specs.into_iter().enumerate() {
            let opts = if i % 2 == 0 {
                TraceOptions::default()
            } else {
                uncollapsed
            };
            let key = WorkloadKey {
                spec,
                trace_seed: 11 + i as u64,
                opts,
            };
            let direct =
                |p: usize| WorkloadSummary::from_spec_opts(spec, key.trace_seed, p, key.opts);
            let registry = PoolRegistry::new(4, Some(8));
            let (small, _) = registry.get(&key, 2, PoolUse::Engine);
            for p in [1, 2] {
                assert_same_summary(&small.summary(p), &direct(p), &format!("{spec:?} p={p}"));
            }
            let (grown, was_warm) = registry.get(&key, 5, PoolUse::Estimate);
            assert!(!was_warm && grown.max_p() == 5, "{spec:?}: regrown pool");
            for p in [1, 3, 5] {
                let what = format!("{spec:?} p={p} after regrowth");
                assert_same_summary(&grown.summary(p), &direct(p), &what);
            }
            grown.shrink();
            assert!(grown.cached_summary(3).is_none());
            let what = format!("{spec:?} p=3 after shrink");
            assert_same_summary(&grown.summary(3), &direct(3), &what);
        }
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_when_unlimited() {
        let w = Workload::from_refs(vec![vec![0, 1, 2, 0, 1, 2]; 3]);
        let plain = run_cell(&w, 4, 1, ArbitrationKind::Priority, 7);
        let budgeted = run_cell_budgeted(
            &w,
            4,
            1,
            ArbitrationKind::Priority,
            7,
            CellBudget::UNLIMITED,
        )
        .unwrap();
        assert_eq!(plain.makespan, budgeted.makespan);
        assert_eq!(plain.hits, budgeted.hits);
        assert!(!budgeted.truncated);
    }

    #[test]
    fn budgeted_run_wall_limit_matches_plain_run_when_generous() {
        let w = Workload::from_refs(vec![vec![0, 1, 2]; 2]);
        let budget = CellBudget {
            max_ticks: None,
            max_wall: Some(Duration::from_secs(60)),
        };
        let r = run_cell_budgeted(&w, 4, 1, ArbitrationKind::Fifo, 0, budget).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.served, 6);
    }

    #[test]
    fn budgeted_run_tick_limit_truncates() {
        let w = Workload::from_refs(vec![(0..200u32).collect(); 4]);
        let budget = CellBudget {
            max_ticks: Some(10),
            max_wall: None,
        };
        let r = run_cell_budgeted(&w, 16, 1, ArbitrationKind::Fifo, 0, budget).unwrap();
        assert!(r.truncated, "tick budget must truncate");
        assert_eq!(r.makespan, 10);
    }

    #[test]
    fn budgeted_run_zero_wall_truncates_not_hangs() {
        // A zero wall budget must stop promptly with partial metrics.
        let w = Workload::from_refs(vec![(0..2000u32).collect(); 8]);
        let budget = CellBudget {
            max_ticks: None,
            max_wall: Some(Duration::ZERO),
        };
        let r = run_cell_budgeted(&w, 16, 1, ArbitrationKind::Fifo, 0, budget).unwrap();
        assert!(r.truncated, "zero wall budget must truncate");
    }

    #[test]
    fn budgeted_run_surfaces_config_errors() {
        let w = Workload::from_refs(vec![vec![0]]);
        let err = run_cell_budgeted(&w, 0, 1, ArbitrationKind::Fifo, 0, CellBudget::UNLIMITED);
        assert!(err.is_err(), "k = 0 must be a typed error, not a panic");
    }

    #[test]
    fn budget_min_takes_the_tighter_bound() {
        let a = CellBudget {
            max_ticks: Some(100),
            max_wall: None,
        };
        let b = CellBudget {
            max_ticks: Some(50),
            max_wall: Some(Duration::from_secs(1)),
        };
        let m = a.min(b);
        assert_eq!(m.max_ticks, Some(50));
        assert_eq!(m.max_wall, Some(Duration::from_secs(1)));
        assert_eq!(CellBudget::UNLIMITED.min(b), b);
    }

    #[test]
    fn sim_settings_path_matches_run_cell() {
        let w = Workload::from_refs(vec![vec![0, 1, 2, 0, 1, 2]; 3]);
        let plain = run_cell(&w, 4, 2, ArbitrationKind::Priority, 9);
        let via_settings = run_sim_budgeted(
            &w,
            &SimSettings::new(4, 2, ArbitrationKind::Priority, 9),
            CellBudget::UNLIMITED,
        )
        .unwrap();
        assert_eq!(plain.makespan, via_settings.makespan);
        assert_eq!(plain.hits, via_settings.hits);
        assert_eq!(plain.fetches, via_settings.fetches);
    }

    #[test]
    fn batch_tick_budget_truncates_exactly_the_over_budget_cells() {
        // Several cells over one flat workload under one shared tick
        // budget: only the over-budget cell truncates. A tiny HBM thrashes
        // (slow), a huge one streams (fast).
        let w = Workload::from_refs(vec![(0..300u32).collect(); 3]);
        let flat = Arc::new(FlatWorkload::new(&w));
        let settings = [
            SimSettings::new(512, 4, ArbitrationKind::Fifo, 0),
            SimSettings::new(2, 1, ArbitrationKind::Fifo, 0),
        ];
        let mut scratch = EngineScratch::default();
        let fast_alone =
            run_sim_budgeted_flat(&flat, &settings[0], CellBudget::UNLIMITED, &mut scratch)
                .unwrap()
                .makespan;
        let budget = CellBudget {
            max_ticks: Some(fast_alone + 10),
            max_wall: None,
        };
        let reports: Vec<Report> = settings
            .iter()
            .map(|s| run_sim_budgeted_flat(&flat, s, budget, &mut scratch).unwrap())
            .collect();
        assert!(!reports[0].truncated, "fast cell finishes within budget");
        assert!(reports[1].truncated, "thrashing cell exceeds the budget");
        assert_eq!(reports[1].makespan, fast_alone + 10);
    }

    #[test]
    fn batch_zero_wall_budget_truncates_not_hangs() {
        // The flat, scratch-recycling path must also stop promptly under a
        // zero wall budget, for every arbitration in the set.
        let w = Workload::from_refs(vec![(0..3000u32).collect(); 8]);
        let flat = Arc::new(FlatWorkload::new(&w));
        let settings = [
            SimSettings::new(16, 1, ArbitrationKind::Fifo, 0),
            SimSettings::new(16, 1, ArbitrationKind::Priority, 0),
        ];
        let budget = CellBudget {
            max_ticks: None,
            max_wall: Some(Duration::ZERO),
        };
        let mut scratch = EngineScratch::default();
        for s in &settings {
            let r = run_sim_budgeted_flat(&flat, s, budget, &mut scratch).unwrap();
            assert!(r.truncated, "zero wall budget must truncate the flat path");
        }
    }

    #[test]
    fn batch_runner_surfaces_config_errors() {
        let flat = small_pool().flat(2);
        let mut scratch = EngineScratch::default();
        let ok = run_sim_budgeted_flat(
            &flat,
            &SimSettings::new(4, 1, ArbitrationKind::Fifo, 0),
            CellBudget::UNLIMITED,
            &mut scratch,
        );
        assert!(ok.is_ok());
        let err = run_sim_budgeted_flat(
            &flat,
            &SimSettings::new(4, 0, ArbitrationKind::Fifo, 0), // q = 0
            CellBudget::UNLIMITED,
            &mut scratch,
        );
        assert!(err.is_err(), "q = 0 must be a typed error, not a panic");
    }

    #[test]
    fn batch_scratch_pool_recycles() {
        let pool = ScratchPool::new();
        let flat = small_pool().flat(2);
        let settings = [
            SimSettings::new(4, 1, ArbitrationKind::Fifo, 1),
            SimSettings::new(8, 1, ArbitrationKind::Priority, 1),
        ];
        let run_all = |s: &mut EngineScratch| -> Vec<Report> {
            settings
                .iter()
                .map(|c| run_sim_budgeted_flat(&flat, c, CellBudget::UNLIMITED, s).unwrap())
                .collect()
        };
        let a = pool.with(run_all);
        assert_eq!(pool.idle(), 1, "scratch returned to the pool");
        let b = pool.with(run_all);
        assert_eq!(pool.idle(), 1, "the recycled scratch was reused");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.hits, y.hits);
        }
    }

    #[test]
    fn scratch_pool_clear_frees_idle_buffers() {
        let pool = ScratchPool::new();
        pool.with(|_| {});
        pool.with(|_| {});
        assert_eq!(pool.idle(), 1);
        pool.clear();
        assert_eq!(pool.idle(), 0);
        // Still usable after clearing.
        pool.with(|_| {});
        assert_eq!(pool.idle(), 1);
    }
}
