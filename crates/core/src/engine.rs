//! The tick engine: a faithful implementation of the simulation loop of
//! paper §3.1.
//!
//! Each tick `t` performs, in order:
//!
//! 1. if `t` is a multiple of the remap period `T`, remap priorities;
//! 2. for each core's current request not resident in HBM, add it to the
//!    DRAM request queue (once);
//! 3. if the queue holds more requests than HBM has empty slots, evict up
//!    to `q` pages by the replacement policy;
//! 4. for each core's current request resident in HBM, serve it;
//! 5. fetch up to `q` queued pages (arbitration order) from DRAM into HBM.
//!
//! A served core issues its next request on the following tick, so an HBM
//! hit has response time exactly 1 and a miss at least 2, as in §2.
//!
//! **One guard beyond the paper's pseudocode:** step 3 never evicts a
//! *pinned* page — one that is some core's current request, already resident
//! and about to be served. The paper's configurations (`k ≥ 1000 ≥ p`) never
//! exercise this corner; without the guard, `k < p` workloads can livelock
//! (a page is fetched, evicted by step 3 of the next tick, re-requested,
//! forever). Pinned pages are unpinned as soon as they are served, which is
//! always the next serve step, so the guard cannot deadlock eviction.
//!
//! The engine runs in O(total references + executed ticks·q) time and
//! O(p + k + pages) space: cores waiting in the DRAM queue cost nothing per
//! tick.
//!
//! **Canonical intra-tick order:** wherever the paper says "for each core"
//! (steps 2 and 4), the engine processes cores in increasing core id, and
//! in-flight transfers land in the order they were started. This pins down
//! a single deterministic trajectory — replacement-policy state, RNG draws
//! and observer event streams included — which the naive
//! [`crate::oracle::OracleEngine`] reproduces independently; the
//! differential suite (`crates/core/tests/differential.rs`) asserts the two
//! engines are bit-identical. Any optimization that reorders these loops
//! must preserve the canonical order or fail that suite.
//!
//! # Hot-path representation
//!
//! All per-page state is keyed by a dense [`PageIndexer`] index instead of
//! a hash of the raw page id: residency lives in the HBM's dense slot
//! table ([`Hbm::with_indexer`]), pin counts in a flat `Vec<u32>`, and
//! fetch waiters in intrusive chains (`waiter_head/tail` per page,
//! `waiter_next` per core — each core waits on at most one page). A miss
//! therefore costs a handful of array writes and no allocation. The engine
//! also mirrors the arbiter's queue length to avoid virtual calls in the
//! eviction predicate.
//!
//! # Phase methods
//!
//! [`Engine::step`] is nothing but six phase methods called in canonical
//! order: `tick_begin` (fast-forward, fault pre-step, step 1), `tick_issue`
//! (step 2), `tick_evict` (step 3), `tick_serve` (step 4), `tick_transfer`
//! (step 5) and `tick_end` (sampling and worklist swap). They are the
//! engine's profiling boundaries.
//!
//! # Event-driven fast-forward
//!
//! Ticks where nothing can happen — no core issues (both worklists empty),
//! no in-flight transfer lands, no remap fires, the eviction predicate is
//! false, and no fetch can start — are *inert*: executing them only calls
//! `maybe_remap` (which declines), `select` on no capacity (a no-op by the
//! [`crate::arbitration::ArbitrationPolicy`] contract), and samples the
//! unchanged queue length. [`Engine::step`] proves a span of ticks inert by
//! computing the next event tick (next remap via
//! [`crate::arbitration::ArbitrationPolicy::next_remap_at_or_after`], earliest in-flight
//! arrival, earliest channel free time when requests wait) and jumps
//! straight to it, batching the queue-length samples
//! ([`MetricsCollector::sample_queue_len_n`] is integer-exact). The
//! trajectory — every policy decision, RNG draw, event and metric — is
//! bit-identical to the tick-by-tick one; only
//! [`SimObserver::on_tick_start`] callbacks for inert ticks are elided.
//! With `far_latency > 1` this skips most of the makespan outright.

use crate::arbitration::{Arbiter, Request};
use crate::config::SimConfig;
use crate::fault::FaultPlan;
use crate::flat::FlatWorkload;
use crate::hbm::{Hbm, HbmBufs};
use crate::ids::{CoreId, GlobalPage, Tick};
use crate::metrics::{MetricsCollector, Report};
use crate::observer::{FaultEvent, SimObserver};
use crate::workload::Workload;
use std::sync::Arc;

/// Sentinel for "no core" / "no waiter" in the intrusive waiter chains.
const NIL: u32 = u32::MAX;

/// Per-page hot state, packed into one 16-byte record so the issue / land /
/// serve phases of a miss each touch a single cache line instead of three
/// parallel arrays (the dense-index tables are the engine's main working
/// set at paper scale).
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct PageRt {
    /// Pin count: resident requests awaiting a serve (never evicted while
    /// non-zero).
    pinned: u32,
    /// First core of the intrusive waiter chain (`NIL` when no fetch is in
    /// flight for this page).
    waiter_head: u32,
    /// Last core of the chain (appended on coalesce).
    waiter_tail: u32,
}

impl PageRt {
    const EMPTY: PageRt = PageRt {
        pinned: 0,
        waiter_head: NIL,
        waiter_tail: NIL,
    };
}

#[derive(Debug, Clone, Copy)]
struct CoreRt {
    /// Position of the current (unserved) reference in the engine's
    /// flattened trace arrays; `== end` when done.
    pos: usize,
    /// One past this core's last reference in the flattened arrays.
    end: usize,
    /// Tick at which the current request was issued.
    issue_tick: Tick,
    /// Whether the current request went through the DRAM queue.
    was_miss: bool,
    /// The current request's page (set at issue, read at serve).
    cur_page: GlobalPage,
    /// Dense index of `cur_page`.
    cur_idx: u32,
}

impl CoreRt {
    /// Template for a core's runtime record; construction overrides `pos`
    /// and `end`.
    const IDLE: CoreRt = CoreRt {
        pos: 0,
        end: 0,
        issue_tick: 0,
        was_miss: false,
        cur_page: GlobalPage(0),
        cur_idx: 0,
    };
}

/// Recycled per-cell mutable state, letting sequential simulation cells on
/// a worker thread reuse their buffers (page tables, bitset worklists,
/// waiter chains, queues, HBM slot tables) instead of reallocating them.
///
/// Obtain one with `EngineScratch::default()`, thread it through
/// [`Engine::from_flat_with_scratch`] (or
/// `SimBuilder::try_build_flat_reusing`) and harvest it back with
/// [`Engine::into_report_reusing`] / [`Engine::run_reusing`].
///
/// **Soundness invariant:** construction re-initializes every buffer with
/// `clear()` + `resize(n, v)` (or an equivalent full overwrite), so the
/// engine built from a scratch is bit-identical to one built fresh no
/// matter what the scratch previously held — including a scratch abandoned
/// hollow because the engine owning its buffers panicked mid-run. The
/// sharing differential suite asserts this.
#[derive(Debug, Default)]
pub struct EngineScratch {
    cores: Vec<CoreRt>,
    issue_bits: Vec<u64>,
    issue_next_bits: Vec<u64>,
    ready_bits: Vec<u64>,
    ready_next_bits: Vec<u64>,
    pages: Vec<PageRt>,
    waiter_next: Vec<u32>,
    fetch_buf: Vec<Request>,
    in_flight: Vec<(Tick, Request)>,
    channel_busy: Vec<Tick>,
    hbm: HbmBufs,
}

/// A single in-progress simulation. Most callers use
/// [`crate::SimBuilder::run`]; the engine is public so tests and tools can
/// drive it tick by tick via [`Engine::step`].
pub struct Engine {
    config: SimConfig,
    hbm: Hbm,
    arbiter: Arbiter,
    cores: Vec<CoreRt>,
    /// Immutable pre-indexed workload data — the flattened reference stream
    /// (`flat.page[i]` / `flat.idx[i]`; core `c` owns
    /// `[cores[c].pos, cores[c].end)`) and the dense page index. Shared:
    /// every cell of a sweep reads the same `Arc`, so constructing an
    /// engine no longer re-flattens the traces. The per-tick issue path is
    /// two array loads — no workload call, no index computation.
    flat: Arc<FlatWorkload>,
    /// Worklist bitsets, one bit per core (`word * 64 + bit` = core id).
    /// Word-ascending, bit-ascending iteration visits cores in increasing
    /// id — the canonical order — without any per-tick sort.
    /// `issue_bits`: cores whose next request must be examined this tick
    /// (step 2); `ready_bits`: cores whose current request is resident and
    /// will be served (step 4); the `_next` pair collects work for the
    /// following tick and is swapped in at end of tick.
    issue_bits: Vec<u64>,
    issue_next_bits: Vec<u64>,
    ready_bits: Vec<u64>,
    ready_next_bits: Vec<u64>,
    /// Per-page hot state by dense index: pin count plus the intrusive
    /// waiter chain head/tail (see [`PageRt`]). `waiter_next` chains cores
    /// in insertion order; each core waits on at most one page. For
    /// disjoint workloads every chain has length 1; shared (non-disjoint)
    /// workloads coalesce concurrent requests for the same page into one
    /// fetch.
    pages: Vec<PageRt>,
    waiter_next: Vec<u32>,
    fetch_buf: Vec<Request>,
    /// Fetches currently crossing a far channel: `(arrival_tick, request)`.
    /// Empty whenever `far_latency == 1` outside step 5 (transfers complete
    /// within their starting tick, the paper's model).
    in_flight: Vec<(Tick, Request)>,
    /// Per-channel busy-until tick.
    channel_busy: Vec<Tick>,
    /// The injected fault schedule (empty by default). Outages gate which
    /// prefix of `channel_busy` may start transfers; degradations and
    /// transient failures lengthen individual transfers at start time.
    plan: FaultPlan,
    metrics: MetricsCollector,
    /// Population counts of the four worklist bitsets (cheap emptiness
    /// checks for the fast-forward gate).
    issue_count: usize,
    issue_next_count: usize,
    ready_count: usize,
    ready_next_count: usize,
    /// Mirror of `arbiter.len()`, maintained so the hot path never pays a
    /// virtual call for the eviction/fetch predicates.
    queue_len: usize,
    /// The next tick at which the arbiter may remap, per
    /// [`crate::arbitration::ArbitrationPolicy::next_remap_at_or_after`].
    next_remap: Option<Tick>,
    /// `!plan.is_empty()`, hoisted so fault-free runs pay a single branch.
    plan_active: bool,
    /// Channels down at the last executed tick — the delta against the
    /// current tick's outage width drives `FaultEvent::OutageStart`/`End`
    /// emission. Boundary ticks always execute (fast-forward clamps to
    /// them), so the delta is never observed late.
    last_down: usize,
    tick: Tick,
    remaining: usize,
    makespan: Tick,
}

impl Engine {
    /// Prepares a run of `workload` under `config`. The engine snapshots
    /// the workload into its flattened trace arrays, so it does not borrow
    /// `workload` after construction.
    pub fn new(config: SimConfig, workload: &Workload) -> Self {
        Self::with_faults(config, FaultPlan::default(), workload)
    }

    /// Like [`new`](Self::new), but with an injected [`FaultPlan`]. An
    /// empty plan reproduces the fault-free trajectory exactly — bit for
    /// bit, events and metrics included.
    pub fn with_faults(config: SimConfig, faults: FaultPlan, workload: &Workload) -> Self {
        Self::from_flat(config, faults, Arc::new(FlatWorkload::new(workload)))
    }

    /// Prepares a run over a pre-indexed shared workload. The flattening
    /// and page-index construction already happened inside
    /// [`FlatWorkload::new`], so this is the cheap per-cell entry point for
    /// sweeps: the same `Arc` serves every cell. Bit-identical to
    /// [`with_faults`](Self::with_faults) over `flat.workload()`.
    pub fn from_flat(config: SimConfig, faults: FaultPlan, flat: Arc<FlatWorkload>) -> Self {
        Self::build(config, faults, flat, EngineScratch::default())
    }

    /// Like [`from_flat`](Self::from_flat), but recycling the buffers held
    /// in `scratch` (left hollow; refill it via
    /// [`into_report_reusing`](Self::into_report_reusing) or
    /// [`run_reusing`](Self::run_reusing)). Bit-identical to a fresh
    /// construction regardless of the scratch's prior contents.
    pub fn from_flat_with_scratch(
        config: SimConfig,
        faults: FaultPlan,
        flat: Arc<FlatWorkload>,
        scratch: &mut EngineScratch,
    ) -> Self {
        Self::build(config, faults, flat, std::mem::take(scratch))
    }

    fn build(
        config: SimConfig,
        faults: FaultPlan,
        flat: Arc<FlatWorkload>,
        scratch: EngineScratch,
    ) -> Self {
        let EngineScratch {
            mut cores,
            mut issue_bits,
            mut issue_next_bits,
            mut ready_bits,
            mut ready_next_bits,
            mut pages,
            mut waiter_next,
            mut fetch_buf,
            mut in_flight,
            mut channel_busy,
            hbm: hbm_bufs,
        } = scratch;
        let p = flat.cores();
        let words = p.div_ceil(64);
        // Every buffer is fully re-initialized (clear + resize overwrites
        // all elements) — the EngineScratch soundness invariant.
        issue_bits.clear();
        issue_bits.resize(words, 0);
        issue_next_bits.clear();
        issue_next_bits.resize(words, 0);
        ready_bits.clear();
        ready_bits.resize(words, 0);
        ready_next_bits.clear();
        ready_next_bits.resize(words, 0);
        cores.clear();
        let mut issue_count = 0;
        for c in 0..p {
            let range = flat.core_range(c as CoreId);
            cores.push(CoreRt {
                pos: range.start,
                end: range.end,
                ..CoreRt::IDLE
            });
            if range.start < range.end {
                issue_bits[c / 64] |= 1u64 << (c % 64);
                issue_count += 1;
            }
        }
        pages.clear();
        pages.resize(flat.total_pages(), PageRt::EMPTY);
        waiter_next.clear();
        waiter_next.resize(p, NIL);
        fetch_buf.clear();
        fetch_buf.reserve(config.channels);
        in_flight.clear();
        in_flight.reserve(config.channels);
        channel_busy.clear();
        channel_busy.resize(config.channels, 0);
        let arbiter = config.arbitration.build_dispatch(p, config.seed);
        let next_remap = arbiter.next_remap_at_or_after(0);
        Engine {
            hbm: Hbm::with_indexer_reusing(
                config.hbm_slots,
                config.replacement,
                config.seed,
                Arc::clone(flat.indexer()),
                hbm_bufs,
            ),
            arbiter,
            cores,
            flat,
            issue_bits,
            issue_next_bits,
            ready_bits,
            ready_next_bits,
            pages,
            waiter_next,
            fetch_buf,
            in_flight,
            channel_busy,
            plan: faults.clone(),
            metrics: MetricsCollector::new(p),
            issue_count,
            issue_next_count: 0,
            ready_count: 0,
            ready_next_count: 0,
            queue_len: 0,
            next_remap,
            plan_active: !faults.is_empty(),
            last_down: 0,
            tick: 0,
            remaining: issue_count,
            makespan: 0,
            config,
        }
    }

    /// The tick about to execute (0 before the first [`step`](Self::step)).
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// True once every core has served its whole trace.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Cores still running.
    pub fn cores_remaining(&self) -> usize {
        self.remaining
    }

    /// The HBM state (inspection).
    pub fn hbm(&self) -> &Hbm {
        &self.hbm
    }

    /// The injected fault plan (empty unless built via
    /// [`with_faults`](Self::with_faults)).
    pub fn faults(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current priority of `core` under the arbitration policy, if any.
    pub fn priority_of(&self, core: CoreId) -> Option<u32> {
        self.arbiter.priority_of(core)
    }

    /// Fast-forwards `self.tick` over a maximal span of inert ticks (see
    /// module docs), clamped to `max_ticks`. Returns `true` when the clamp
    /// was hit, i.e. the caller should not execute a tick.
    fn fast_forward(&mut self) -> bool {
        if self.issue_count != 0 || self.ready_count != 0 {
            return false;
        }
        let t = self.tick;
        // Effective channel count, constant across the whole candidate span
        // because `next` is clamped to the plan's next window boundary.
        let q_eff = if self.plan_active {
            let q_eff = self.plan.effective_channels(self.config.channels, t);
            if self.config.channels - q_eff != self.last_down {
                // `t` is an outage transition: it must execute so the
                // OutageStart/End event fires on the boundary tick itself.
                return false;
            }
            q_eff
        } else {
            self.config.channels
        };
        // Earliest tick at which anything can happen again.
        let mut next = Tick::MAX;
        if let Some(r) = self.next_remap {
            next = next.min(r);
        }
        for &(arrival, _) in self.in_flight.iter() {
            next = next.min(arrival);
        }
        if self.queue_len > 0 && q_eff > 0 {
            if self.queue_len > self.hbm.free_slots().saturating_sub(self.in_flight.len()) {
                // The eviction predicate already holds: this tick evicts.
                next = next.min(t);
            } else {
                // Room exists, so a fetch starts the moment an *enabled*
                // channel frees (a channel with busy-until `b` is free at
                // `b`; channels past `q_eff` are outage-gated and cannot
                // start transfers this span).
                for &b in &self.channel_busy[..q_eff] {
                    next = next.min(b);
                }
            }
        }
        if self.plan_active {
            // Window boundaries change `q_eff` and the outage accounting;
            // they must execute even when otherwise inert (this also keeps
            // `OutageStart`/`End` emission on the boundary tick).
            if let Some(b) = self.plan.next_boundary_after(t) {
                next = next.min(b);
            }
        }
        // With worklists empty and no pending event, every remaining core
        // is queued or in flight, so `next` is finite here in practice;
        // `max_ticks` caps it regardless, matching a truncated run.
        let target = next.min(self.config.max_ticks).max(t);
        if target > t {
            // Each skipped tick ends with the same queue-length sample the
            // executed loop would have taken (integer-exact batching).
            self.metrics.sample_queue_len_n(self.queue_len, target - t);
            if self.plan_active && self.queue_len > 0 && q_eff == 0 {
                // Every skipped tick held queued requests against a full
                // outage — the same count the executed loop would record.
                self.metrics.record_outage_blocked_n(target - t);
            }
            self.tick = target;
            if target == self.config.max_ticks {
                return true; // truncation boundary: run() stops here
            }
        }
        false
    }

    /// Opens one tick: fast-forward over inert spans, `on_tick_start`, the
    /// fault pre-step, and step 1 (remap). Returns `Some(q_eff)` — this
    /// tick's effective channel count, threaded through the remaining
    /// phases — when a tick executes at `self.tick`, or `None` when the cell
    /// is finished or clamped at `max_ticks` (no tick runs; the cell is
    /// permanently inactive).
    fn tick_begin<O: SimObserver>(&mut self, observer: &mut O) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        if self.fast_forward() {
            return None;
        }
        let t = self.tick;
        let q = self.config.channels;
        observer.on_tick_start(t);

        // Fault pre-step: resolve this tick's effective channel count and
        // report outage transitions. `last_down` only changes on window
        // boundary ticks, which the fast-forward clamp guarantees execute.
        let q_eff = if self.plan_active {
            let q_eff = self.plan.effective_channels(q, t);
            let down = q - q_eff;
            if down > self.last_down {
                observer.on_fault(
                    t,
                    FaultEvent::OutageStart {
                        down: down - self.last_down,
                    },
                );
            } else if down < self.last_down {
                observer.on_fault(
                    t,
                    FaultEvent::OutageEnd {
                        restored: self.last_down - down,
                    },
                );
            }
            self.last_down = down;
            q_eff
        } else {
            q
        };

        // Step 1: remap priorities on schedule. `next_remap` caches the
        // arbiter's schedule so quiet ticks skip the call entirely.
        if self.next_remap.is_some_and(|r| r <= t) {
            if self.arbiter.maybe_remap(t) {
                self.metrics.record_remap();
                observer.on_remap(t);
            }
            self.next_remap = self.arbiter.next_remap_at_or_after(t + 1);
        }
        Some(q_eff)
    }

    /// Step 2 of the current tick (only valid between [`Self::tick_begin`]
    /// returning `Some` and [`Self::tick_end`]).
    fn tick_issue<O: SimObserver>(&mut self, observer: &mut O) {
        let t = self.tick;
        // Step 2: issue requests; misses enter the DRAM queue. Bit-ascending
        // iteration means "for each core" is increasing core id (canonical
        // order, see module docs).
        debug_assert_eq!(self.issue_next_count, 0);
        if self.issue_count > 0 {
            self.issue_count = 0;
            for w in 0..self.issue_bits.len() {
                let mut word = self.issue_bits[w];
                if word == 0 {
                    continue;
                }
                self.issue_bits[w] = 0;
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    word ^= bit;
                    let core = (w as u32) * 64 + bit.trailing_zeros();
                    let rt = &mut self.cores[core as usize];
                    let page = GlobalPage(self.flat.page[rt.pos]);
                    let idx = self.flat.idx[rt.pos];
                    rt.cur_page = page;
                    rt.cur_idx = idx;
                    if self.hbm.contains_idx(idx) {
                        rt.was_miss = false;
                        self.pages[idx as usize].pinned += 1;
                        self.ready_bits[w] |= bit;
                        self.ready_count += 1;
                    } else {
                        rt.was_miss = true;
                        self.metrics.record_miss();
                        let pg = &mut self.pages[idx as usize];
                        if pg.waiter_head == NIL {
                            pg.waiter_head = core;
                            pg.waiter_tail = core;
                            self.waiter_next[core as usize] = NIL;
                            self.queue_len += 1;
                            self.arbiter.enqueue(Request {
                                core,
                                page,
                                arrival: t,
                            });
                            observer.on_enqueue(t, core, page);
                        } else {
                            // Another core already has this fetch in flight
                            // (shared workloads only): coalesce, appending to
                            // the chain so landing preserves insertion order.
                            let tail = pg.waiter_tail;
                            pg.waiter_tail = core;
                            self.waiter_next[tail as usize] = core;
                            self.waiter_next[core as usize] = NIL;
                        }
                    }
                }
            }
        }
    }

    /// Step 3 of the current tick.
    fn tick_evict<O: SimObserver>(&mut self, q_eff: usize, observer: &mut O) {
        let t = self.tick;
        // Step 3: evict up to q_eff pages when the queue exceeds free
        // capacity — the machine only makes room for as many fetches as it
        // can start, so an outage shrinks the eviction budget too. Slots
        // are reserved for in-flight transfers so their arrival can never
        // find the HBM full.
        let mut evicted = 0;
        while evicted < q_eff
            && self.queue_len > self.hbm.free_slots().saturating_sub(self.in_flight.len())
        {
            let pages = &self.pages;
            match self
                .hbm
                .evict_one_idx(&mut |idx| pages[idx as usize].pinned != 0)
            {
                Some((page, _)) => {
                    evicted += 1;
                    self.metrics.record_eviction();
                    observer.on_evict(t, page);
                }
                None => break, // every resident page is pinned
            }
        }
    }

    /// Step 4 of the current tick.
    fn tick_serve<O: SimObserver>(&mut self, observer: &mut O) {
        let t = self.tick;
        // Step 4: serve resident requests in increasing core id (canonical
        // order for free: bit-ascending iteration, regardless of the order
        // in which fetches landed).
        if self.ready_count > 0 {
            self.ready_count = 0;
            for w in 0..self.ready_bits.len() {
                let mut word = self.ready_bits[w];
                if word == 0 {
                    continue;
                }
                self.ready_bits[w] = 0;
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    word ^= bit;
                    let core = (w as u32) * 64 + bit.trailing_zeros();
                    let rt = &mut self.cores[core as usize];
                    let page = rt.cur_page;
                    let idx = rt.cur_idx;
                    let response = t - rt.issue_tick + 1;
                    let hit = !rt.was_miss;
                    self.hbm.touch_idx(idx);
                    self.pages[idx as usize].pinned -= 1;
                    self.metrics.record_serve(core, response, hit);
                    observer.on_serve(t, core, page, response, hit);
                    rt.pos += 1;
                    if rt.pos == rt.end {
                        self.remaining -= 1;
                        self.makespan = self.makespan.max(t + 1);
                        self.metrics.record_finish(core, t + 1);
                        observer.on_core_done(t + 1, core);
                    } else {
                        rt.issue_tick = t + 1;
                        self.issue_next_bits[w] |= bit;
                        self.issue_next_count += 1;
                    }
                }
            }
        }
    }

    /// Step 5 of the current tick (transfer start + land).
    fn tick_transfer<O: SimObserver>(&mut self, q_eff: usize, observer: &mut O) {
        let t = self.tick;
        // Step 5: start up to q transfers on free far channels, then land
        // the transfers that complete this tick. With far_latency = 1 (the
        // paper's model) a transfer started now lands now, so the two
        // phases collapse into the original "fetch up to q pages".
        if self.queue_len > 0 && q_eff > 0 {
            // An outage disables the *last* q - q_eff channels for new
            // transfers, so only the `..q_eff` prefix may be claimed;
            // in-flight transfers on disabled channels complete normally.
            let free_channels = self.channel_busy[..q_eff]
                .iter()
                .filter(|&&b| b <= t)
                .count();
            let room = self.hbm.free_slots().saturating_sub(self.in_flight.len());
            let n = free_channels.min(room);
            if n > 0 {
                self.arbiter.select(n, &mut self.fetch_buf);
                self.queue_len -= self.fetch_buf.len();
                for i in 0..self.fetch_buf.len() {
                    let req = self.fetch_buf[i];
                    let latency = if self.plan_active {
                        let (latency, extra, failures) = self.plan.transfer_time(
                            self.config.far_latency,
                            t,
                            req.core,
                            req.page.0,
                        );
                        if extra > 0 {
                            self.metrics.record_degraded_fetch();
                            observer.on_fault(
                                t,
                                FaultEvent::DegradedFetch {
                                    core: req.core,
                                    page: req.page,
                                    extra_latency: extra,
                                },
                            );
                        }
                        if failures > 0 {
                            self.metrics.record_transient_faults(failures);
                            observer.on_fault(
                                t,
                                FaultEvent::TransientFailure {
                                    core: req.core,
                                    page: req.page,
                                    failures,
                                },
                            );
                        }
                        latency
                    } else {
                        self.config.far_latency
                    };
                    // Claim a free (enabled) channel.
                    for b in self.channel_busy[..q_eff].iter_mut() {
                        if *b <= t {
                            *b = t + latency;
                            break;
                        }
                    }
                    self.in_flight.push((t + latency - 1, req));
                }
            }
        }
        // Land arrivals (including same-tick ones when far_latency == 1) in
        // the order the transfers started — stable `remove`, not
        // `swap_remove`, so HBM insertion order is canonical. The list
        // holds at most q entries, so the shift is negligible.
        if !self.in_flight.is_empty() {
            let mut i = 0;
            while i < self.in_flight.len() {
                let (arrival, req) = self.in_flight[i];
                if arrival > t {
                    i += 1;
                    continue;
                }
                self.in_flight.remove(i);
                // The fetching core is still parked on this reference, so
                // its cached `cur_idx` is the page's dense index — no
                // indexer lookup needed.
                let idx = self.cores[req.core as usize].cur_idx;
                self.hbm.insert_idx(req.page, idx);
                // Promote the whole waiter chain (they all become ready;
                // the serve loop's bit order restores canonical id order).
                let pg = &mut self.pages[idx as usize];
                let mut c = pg.waiter_head;
                debug_assert!(c != NIL, "every queued fetch has waiters");
                pg.waiter_head = NIL;
                pg.waiter_tail = NIL;
                let mut n_waiters = 0u32;
                while c != NIL {
                    self.ready_next_bits[(c / 64) as usize] |= 1u64 << (c % 64);
                    self.ready_next_count += 1;
                    n_waiters += 1;
                    c = self.waiter_next[c as usize];
                }
                self.pages[idx as usize].pinned += n_waiters;
                self.metrics.record_fetch();
                observer.on_fetch(t, req.core, req.page);
            }
        }
    }

    /// Closes the current tick: end-of-tick sampling, invariant checks,
    /// worklist swaps, and the tick advance.
    fn tick_end(&mut self, q_eff: usize) {
        let t = self.tick;
        self.metrics.sample_queue_len(self.queue_len);
        if self.plan_active && self.queue_len > 0 && q_eff == 0 {
            self.metrics.record_outage_blocked_n(1);
        }
        debug_assert_eq!(self.queue_len, self.arbiter.len(), "queue mirror drift");
        #[cfg(debug_assertions)]
        self.hbm.check_invariants();
        // Swap the current/next worklists; the current sets are all-zero
        // after their drain loops, so the next tick starts from clean
        // `_next` sets.
        std::mem::swap(&mut self.issue_bits, &mut self.issue_next_bits);
        std::mem::swap(&mut self.ready_bits, &mut self.ready_next_bits);
        self.issue_count = self.issue_next_count;
        self.issue_next_count = 0;
        self.ready_count = self.ready_next_count;
        self.ready_next_count = 0;
        debug_assert!(self.issue_next_bits.iter().all(|&w| w == 0));
        debug_assert!(self.ready_next_bits.iter().all(|&w| w == 0));
        self.tick = t + 1;
    }

    /// Executes one tick (steps 1–5). No-op when [`is_done`](Self::is_done).
    ///
    /// When the upcoming span of ticks is provably inert the engine first
    /// fast-forwards across it (module docs), so one `step` call may
    /// advance [`tick`](Self::tick) by more than one.
    pub fn step<O: SimObserver>(&mut self, observer: &mut O) {
        if let Some(q_eff) = self.tick_begin(observer) {
            self.tick_issue(observer);
            self.tick_evict(q_eff, observer);
            self.tick_serve(observer);
            self.tick_transfer(q_eff, observer);
            self.tick_end(q_eff);
        }
    }

    /// Runs to completion (or `max_ticks`) and reports.
    pub fn run<O: SimObserver>(mut self, observer: &mut O) -> Report {
        while !self.is_done() && self.tick < self.config.max_ticks {
            self.step(observer);
        }
        self.into_report()
    }

    /// Finalizes a partially- or fully-stepped engine into a [`Report`].
    /// An engine abandoned mid-run (e.g. by a budgeted sweep harness that
    /// hit its wall-clock cap) reports `truncated = true` with the metrics
    /// accumulated so far — the cooperative alternative to killing a
    /// thread.
    pub fn into_report(self) -> Report {
        let truncated = !self.is_done();
        let makespan = if truncated { self.tick } else { self.makespan };
        self.metrics.finish(makespan, truncated)
    }

    /// A point-in-time [`Report`] of the metrics accumulated so far,
    /// without consuming the engine. Snapshots taken mid-run report
    /// `truncated = true` with `makespan` equal to the current tick —
    /// the same convention as [`into_report`](Self::into_report) — so a
    /// snapshot taken after the final step is byte-identical to the
    /// final report.
    pub fn report_snapshot(&self) -> Report {
        let truncated = !self.is_done();
        let makespan = if truncated { self.tick } else { self.makespan };
        self.metrics.clone().finish(makespan, truncated)
    }

    /// The configured tick budget (`u64::MAX` when unbudgeted).
    pub fn max_ticks(&self) -> Tick {
        self.config.max_ticks
    }

    /// Like [`run`](Self::run), but returning the engine's buffers to
    /// `scratch` for the next cell on this thread.
    pub fn run_reusing<O: SimObserver>(
        mut self,
        observer: &mut O,
        scratch: &mut EngineScratch,
    ) -> Report {
        while !self.is_done() && self.tick < self.config.max_ticks {
            self.step(observer);
        }
        self.into_report_reusing(scratch)
    }

    /// Like [`into_report`](Self::into_report), but harvesting the
    /// engine's mutable buffers into `scratch` so the next cell built via
    /// [`from_flat_with_scratch`](Self::from_flat_with_scratch) reuses
    /// them instead of allocating.
    pub fn into_report_reusing(self, scratch: &mut EngineScratch) -> Report {
        let truncated = !self.is_done();
        let makespan = if truncated { self.tick } else { self.makespan };
        let Engine {
            hbm,
            cores,
            issue_bits,
            issue_next_bits,
            ready_bits,
            ready_next_bits,
            pages,
            waiter_next,
            fetch_buf,
            in_flight,
            channel_busy,
            metrics,
            ..
        } = self;
        *scratch = EngineScratch {
            cores,
            issue_bits,
            issue_next_bits,
            ready_bits,
            ready_next_bits,
            pages,
            waiter_next,
            fetch_buf,
            in_flight,
            channel_busy,
            hbm: hbm.reclaim(),
        };
        metrics.finish(makespan, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::ArbitrationKind;
    use crate::config::SimBuilder;
    use crate::observer::{NoopObserver, RecordingObserver};
    use crate::replacement::ReplacementKind;

    fn builder() -> SimBuilder {
        SimBuilder::new()
            .hbm_slots(8)
            .channels(1)
            .replacement(ReplacementKind::Lru)
    }

    #[test]
    fn single_core_single_page_miss_then_hits() {
        // Trace [0, 0, 0]: first reference misses (w=2), rest hit (w=1).
        let w = Workload::from_refs(vec![vec![0, 0, 0]]);
        let mut obs = RecordingObserver::default();
        let r = builder().run_with_observer(&w, &mut obs);
        assert_eq!(r.served, 3);
        assert_eq!(r.hits, 2);
        assert_eq!(r.misses, 1);
        let responses: Vec<u64> = obs.serves.iter().map(|s| s.3).collect();
        assert_eq!(responses, vec![2, 1, 1]);
        // Timeline: t0 enqueue+fetch, t1 serve(w=2), t2 serve, t3 serve.
        assert_eq!(r.makespan, 4);
    }

    #[test]
    fn hit_response_time_is_exactly_one() {
        // Preload by referencing page 0 twice; the second is a hit at w=1.
        let w = Workload::from_refs(vec![vec![0, 0]]);
        let mut obs = RecordingObserver::default();
        builder().run_with_observer(&w, &mut obs);
        assert_eq!(obs.serves[1].3, 1);
        assert!(obs.serves[1].4, "second serve is a hit");
    }

    #[test]
    fn miss_response_time_is_at_least_two() {
        let w = Workload::from_refs(vec![vec![0, 1, 2, 3]]);
        let mut obs = RecordingObserver::default();
        let r = builder().run_with_observer(&w, &mut obs);
        assert_eq!(r.misses, 4);
        assert!(obs.serves.iter().all(|s| s.3 >= 2));
    }

    #[test]
    fn two_cores_contend_for_one_channel() {
        // Both cores miss at t0; only one fetch per tick, so the second
        // core's first serve is a tick later.
        let w = Workload::from_refs(vec![vec![0], vec![0]]);
        let mut obs = RecordingObserver::default();
        let r = builder().run_with_observer(&w, &mut obs);
        assert_eq!(r.served, 2);
        assert_eq!(r.misses, 2);
        let mut responses: Vec<u64> = obs.serves.iter().map(|s| s.3).collect();
        responses.sort_unstable();
        assert_eq!(responses, vec![2, 3], "serialized far channel");
        assert_eq!(r.makespan, 3);
    }

    #[test]
    fn q_channels_fetch_in_parallel() {
        // With q = 2 both misses are fetched the same tick.
        let w = Workload::from_refs(vec![vec![0], vec![0]]);
        let r = builder().channels(2).run(&w);
        assert_eq!(r.makespan, 2);
        // With q = 1 it takes 3 (see previous test).
    }

    #[test]
    fn makespan_lower_bound_is_trace_length() {
        // All hits after the first fetch: makespan >= trace length.
        let w = Workload::from_refs(vec![vec![0; 100]]);
        let r = builder().run(&w);
        assert!(r.makespan >= 100);
        assert_eq!(r.served, 100);
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let w = Workload::new();
        let r = builder().run(&w);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.served, 0);
        assert!(!r.truncated);
    }

    #[test]
    fn empty_trace_core_is_skipped() {
        let w = Workload::from_refs(vec![vec![], vec![0, 1]]);
        let r = builder().run(&w);
        assert_eq!(r.served, 2);
        assert_eq!(r.per_core[0].served, 0);
        assert_eq!(r.per_core[0].finish_tick, 0);
    }

    #[test]
    fn max_ticks_truncates() {
        let w = Workload::from_refs(vec![(0..100u32).collect()]);
        let r = builder().max_ticks(10).run(&w);
        assert!(r.truncated);
        assert_eq!(r.makespan, 10);
        assert!(r.served < 100);
    }

    #[test]
    fn priority_serves_core_zero_first() {
        // Two cores, one channel: under static Priority core 0's request is
        // always fetched first.
        let w = Workload::from_refs(vec![vec![0, 1, 2], vec![0, 1, 2]]);
        let mut obs = RecordingObserver::default();
        builder()
            .arbitration(ArbitrationKind::Priority)
            .run_with_observer(&w, &mut obs);
        let first_fetches: Vec<CoreId> = obs.fetches.iter().take(2).map(|f| f.1).collect();
        assert_eq!(first_fetches[0], 0, "core 0 has priority");
    }

    #[test]
    fn fifo_and_priority_agree_on_single_core() {
        // With one core there is no contention: policies must coincide.
        let refs: Vec<u32> = (0..50).map(|i| i % 10).collect();
        let w = Workload::from_refs(vec![refs]);
        let f = builder().arbitration(ArbitrationKind::Fifo).run(&w);
        let p = builder().arbitration(ArbitrationKind::Priority).run(&w);
        assert_eq!(f.makespan, p.makespan);
        assert_eq!(f.hits, p.hits);
    }

    #[test]
    fn eviction_happens_when_hbm_too_small() {
        // 2-slot HBM, trace cycling over 4 pages: every access misses.
        let w = Workload::from_refs(vec![vec![0, 1, 2, 3, 0, 1, 2, 3]]);
        let r = builder().hbm_slots(2).run(&w);
        assert_eq!(r.hits, 0);
        assert!(r.evictions >= 6);
    }

    #[test]
    fn lru_keeps_hot_pages() {
        // Page 0 re-referenced between cold pages stays resident in a
        // 3-slot LRU HBM.
        let w = Workload::from_refs(vec![vec![0, 1, 0, 2, 0, 3, 0, 4, 0]]);
        let r = builder().hbm_slots(3).run(&w);
        let zero_refs = 5u64;
        assert!(
            r.hits >= zero_refs - 1,
            "page 0 should hit after first fetch; hits = {}",
            r.hits
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let refs: Vec<u32> = (0..200).map(|i| (i * 17) % 37).collect();
        let w = Workload::from_refs(vec![refs.clone(), refs]);
        let run = || {
            builder()
                .arbitration(ArbitrationKind::DynamicPriority { period: 16 })
                .seed(99)
                .run(&w)
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.response.inconsistency, b.response.inconsistency);
    }

    #[test]
    fn step_by_step_matches_run() {
        let w = Workload::from_refs(vec![vec![0, 1, 0, 1]]);
        let config = *builder().config();
        let mut engine = Engine::new(config, &w);
        let mut ticks = 0;
        while !engine.is_done() {
            engine.step(&mut NoopObserver);
            ticks += 1;
            assert!(ticks < 1000, "must terminate");
        }
        let r_whole = builder().run(&w);
        assert_eq!(engine.tick(), r_whole.makespan);
    }

    #[test]
    fn k_less_than_p_makes_progress() {
        // 2-slot HBM, 8 cores: the pinning guard must prevent livelock.
        let w = Workload::from_refs(vec![vec![0, 1]; 8]);
        let r = builder().hbm_slots(2).max_ticks(10_000).run(&w);
        assert!(!r.truncated, "k < p workload must still complete");
        assert_eq!(r.served, 16);
    }

    #[test]
    fn remap_events_counted() {
        let w = Workload::from_refs(vec![vec![0, 1, 2, 3, 4, 5, 6, 7]; 4]);
        let r = builder()
            .hbm_slots(4)
            .arbitration(ArbitrationKind::DynamicPriority { period: 5 })
            .run(&w);
        assert!(r.remaps >= 1);
    }

    #[test]
    fn report_per_core_finish_ticks_bounded_by_makespan() {
        let w = Workload::from_refs(vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        let r = builder().run(&w);
        for c in &r.per_core {
            assert!(c.finish_tick <= r.makespan);
        }
        assert_eq!(
            r.per_core.iter().map(|c| c.finish_tick).max().unwrap(),
            r.makespan
        );
    }

    #[test]
    fn hit_rate_consistency() {
        let w = Workload::from_refs(vec![vec![0, 0, 1, 1, 0]; 3]);
        let r = builder().run(&w);
        assert_eq!(r.hits + r.misses, r.served);
        assert!((r.hit_rate - r.hits as f64 / r.served as f64).abs() < 1e-12);
    }

    #[test]
    fn observer_event_counts_match_report() {
        let w = Workload::from_refs(vec![vec![0, 1, 0, 2], vec![0, 3]]);
        let mut obs = RecordingObserver::default();
        let r = builder().run_with_observer(&w, &mut obs);
        assert_eq!(obs.serves.len() as u64, r.served);
        assert_eq!(obs.enqueues.len() as u64, r.misses);
        assert_eq!(
            obs.fetches.len() as u64,
            r.misses,
            "every miss is fetched once"
        );
        assert_eq!(r.fetches, r.misses, "disjoint: fetches == misses");
        assert_eq!(obs.evictions.len() as u64, r.evictions);
        assert_eq!(obs.completions.len(), 2);
    }

    #[test]
    fn fast_forward_skips_idle_far_latency_ticks() {
        // One core, far_latency 10, q = 1: each miss spends 9 inert ticks
        // waiting for the transfer. step() must cover each wait in one call.
        let w = Workload::from_refs(vec![vec![0, 1, 2]]);
        let config = *builder().far_latency(10).config();
        let mut engine = Engine::new(config, &w);
        let mut steps = 0;
        while !engine.is_done() {
            engine.step(&mut NoopObserver);
            steps += 1;
            assert!(steps < 100, "must terminate");
        }
        let makespan = engine.tick();
        assert!(
            steps < makespan,
            "fast-forward must execute fewer steps ({steps}) than ticks ({makespan})"
        );
        // Trajectory must match the same run driven through run().
        let r = builder().far_latency(10).run(&w);
        assert_eq!(r.makespan, makespan);
        assert_eq!(r.misses, 3);
    }

    #[test]
    fn fast_forward_never_skips_a_remap_boundary() {
        // far_latency 25 creates inert spans crossing several remap
        // boundaries (T = 7): every multiple of 7 in range must still fire.
        let period = 7u64;
        let w = Workload::from_refs(vec![vec![0, 1, 2, 3]]);
        let mut obs = RecordingObserver::default();
        let r = builder()
            .far_latency(25)
            .arbitration(ArbitrationKind::DynamicPriority { period })
            .run_with_observer(&w, &mut obs);
        let expected = 1 + (r.makespan - 1) / period; // t = 0, 7, 14, ... < makespan
        assert_eq!(
            r.remaps, expected,
            "every t ≡ 0 (mod {period}) below the makespan must remap"
        );
        for &t in &obs.remaps {
            assert_eq!(t % period, 0, "remap fired off-schedule at {t}");
        }
    }

    #[test]
    fn fast_forward_truncation_matches_tickwise_sampling() {
        // A run truncated mid-flight: the skipped span must contribute the
        // same queue samples as the oracle's tick-by-tick execution.
        let w = Workload::from_refs(vec![vec![0, 1], vec![2, 3, 4]]);
        let config = *builder().far_latency(1000).max_ticks(50).config();
        let fast = Engine::new(config, &w).run(&mut NoopObserver);
        let slow = crate::oracle::OracleEngine::new(config, &w).run(&mut NoopObserver);
        assert!(fast.truncated && slow.truncated);
        assert_eq!(fast.makespan, slow.makespan);
        assert_eq!(
            fast.mean_queue_len.to_bits(),
            slow.mean_queue_len.to_bits(),
            "skipped span must contribute identical samples"
        );
        assert_eq!(fast.max_queue_len, slow.max_queue_len);
    }
}
