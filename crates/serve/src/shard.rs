//! Per-shard serving state and the same-workload request coalescer.
//!
//! The server's accept loop (DESIGN.md §16) is a dispatcher: it hands
//! accepted connections to `N` shards round-robin. Each shard owns a full
//! serving stack — its own [`WorkerPool`], [`PoolRegistry`], scratch pool,
//! counters, and coalescer — so shards share no locks on the request path;
//! the only cross-shard state is the listener, the shutdown flag, and the
//! global connection/session gauges.
//!
//! The **coalescer** batches concurrent same-configuration requests into
//! one warm-pool lookup and one worker-pool job. The batch key is
//! `(workload cache key, p, clamped budget)` — budget included, so every
//! request in a batch provably runs under its own (identical) budget. The
//! first request to open a key becomes the *leader*: it sleeps the
//! coalescing window, then flushes whatever accumulated. A request that
//! fills the batch to `max_batch` flushes immediately (the leader finds
//! its batch gone and does nothing). Followers just wait on their response
//! channel. Inside the job each request runs alone through
//! [`run_sim_budgeted_flat`], so a coalesced response is byte-identical to
//! the uncoalesced response for the same request.

use crate::http::HttpResponse;
use crate::memo::Memo;
use crate::pool::{run_sim_budgeted_flat, CellBudget, ScratchPool, SimSettings, TracePool};
use crate::proto::{report_to_json, WorkloadKey, MAX_P};
use crate::server::{error_body, panic_message, ServerStats};
use hbm_core::Report;
use hbm_par::{SubmitError, WorkerPool};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Per-shard counters (the shard-local half of [`ServerStats`]).
#[derive(Default)]
pub(crate) struct StatCells {
    pub(crate) requests: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) client_errors: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) cold_runs: AtomicU64,
    pub(crate) warm_runs: AtomicU64,
    pub(crate) estimates_cold: AtomicU64,
    pub(crate) estimates_warm: AtomicU64,
    pub(crate) simulate_memo_hits: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_closed: AtomicU64,
    pub(crate) sessions_reaped: AtomicU64,
    pub(crate) sessions_resumed: AtomicU64,
    pub(crate) sessions_shed: AtomicU64,
    pub(crate) alerts: AtomicU64,
}

impl StatCells {
    pub(crate) fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cold_runs: self.cold_runs.load(Ordering::Relaxed),
            warm_runs: self.warm_runs.load(Ordering::Relaxed),
            estimates_cold: self.estimates_cold.load(Ordering::Relaxed),
            estimates_warm: self.estimates_warm.load(Ordering::Relaxed),
            simulate_memo_hits: self.simulate_memo_hits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_reaped: self.sessions_reaped.load(Ordering::Relaxed),
            sessions_resumed: self.sessions_resumed.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            alerts: self.alerts.load(Ordering::Relaxed),
        }
    }

    /// Maps a finished response's status onto the admission-taxonomy
    /// counters — the single place the status→counter mapping lives.
    pub(crate) fn count_response(&self, resp: &HttpResponse) {
        match resp.status {
            200 => self.ok.fetch_add(1, Ordering::Relaxed),
            429 => self.rejected.fetch_add(1, Ordering::Relaxed),
            500 => self.panics.fetch_add(1, Ordering::Relaxed),
            503 => self.shed.fetch_add(1, Ordering::Relaxed),
            _ => self.client_errors.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// What a registry lookup serves. Eviction drops pools that only
/// estimates have used before any pool an engine run has used, so
/// `/estimate` traffic over many workloads never turns a warm `/simulate`
/// cold; within each class the least recently used pool goes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PoolUse {
    Estimate,
    Engine,
}

/// What a memoized `/simulate` response answers: the thread count, the
/// settings, and the simulated-tick budget after the server's ceiling
/// clamp. The workload is the registry key the memo sits under; the wall
/// budget is not part of it, because only complete runs are memoized.
#[derive(PartialEq)]
pub(crate) struct ResponseKey {
    pub(crate) p: usize,
    pub(crate) settings: SimSettings,
    pub(crate) max_ticks: Option<u64>,
}

/// A registered pool, the heaviest [`PoolUse`] it has served, its
/// last-use stamp, and the encoded bodies of its complete `/simulate`
/// runs.
struct Registered {
    pool: Arc<TracePool>,
    class: PoolUse,
    at: u64,
    responses: Memo<ResponseKey, Vec<u8>>,
}

/// Warm workload pools keyed by [`WorkloadKey::cache_key`], bounded at
/// `max_pools` and evicted by [`PoolUse`] class, then LRU. One registry
/// per shard: registry contention never crosses shard boundaries.
///
/// Each registered pool also memoizes the response bodies of complete
/// `/simulate` runs on it, LRU-bounded at the flat capacity (or
/// [`MAX_P`] when flats are unbounded). The engine is deterministic, so a
/// repeated request is answered with those bytes and never runs again.
/// The memo lives in the registry entry, not in the pool: a pool regrown
/// to a larger `max_p` keeps its responses (traces are prefixes), and an
/// evicted pool drops them.
pub(crate) struct PoolRegistry {
    pools: Mutex<HashMap<String, Registered>>,
    clock: AtomicU64,
    max_pools: usize,
    flat_capacity: Option<usize>,
}

impl PoolRegistry {
    pub(crate) fn new(max_pools: usize, flat_capacity: Option<usize>) -> Self {
        PoolRegistry {
            pools: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            max_pools: max_pools.max(1),
            flat_capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Registered>> {
        self.pools.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The registered pool for `key` if it holds at least `p` traces,
    /// stamped as most recently used by `by`. Never generates.
    pub(crate) fn peek(&self, key: &WorkloadKey, p: usize, by: PoolUse) -> Option<Arc<TracePool>> {
        let stamp = self.stamp();
        let mut pools = self.lock();
        let entry = pools.get_mut(&key.cache_key())?;
        // A pool too small for `p` is a miss: the caller regenerates it
        // larger. The trace prefix property keeps results identical for
        // smaller p.
        (entry.pool.max_p() >= p).then(|| {
            entry.class = entry.class.max(by);
            entry.at = stamp;
            Arc::clone(&entry.pool)
        })
    }

    /// Fetches (or generates) the pool for `key` with at least `p` traces.
    /// Returns `(pool, was_warm)`; `was_warm` is false when this request
    /// paid trace generation (a cold start).
    pub(crate) fn get(&self, key: &WorkloadKey, p: usize, by: PoolUse) -> (Arc<TracePool>, bool) {
        if let Some(pool) = self.peek(key, p, by) {
            return (pool, true);
        }
        // Generate outside the lock: trace generation can take tens of
        // milliseconds and must not serialize warm requests behind it.
        let pool = Arc::new(TracePool::generate(key.spec, p, key.trace_seed, key.opts));
        pool.set_flat_capacity(self.flat_capacity);
        let stamp = self.stamp();
        let mut pools = self.lock();
        // Another thread may have raced us here with an even bigger pool;
        // keep whichever covers more threads.
        let entry = pools
            .entry(key.cache_key())
            .and_modify(|entry| {
                if entry.pool.max_p() < pool.max_p() {
                    entry.pool = Arc::clone(&pool);
                }
                entry.class = entry.class.max(by);
                entry.at = stamp;
            })
            .or_insert_with(|| Registered {
                pool: Arc::clone(&pool),
                class: by,
                at: stamp,
                responses: Memo::bounded(self.flat_capacity.unwrap_or(MAX_P)),
            });
        let result = Arc::clone(&entry.pool);
        // A new estimate-only pool in a registry full of engine pools is
        // its own victim: the estimate is answered, not memoized.
        while pools.len() > self.max_pools {
            let victim = pools
                .iter()
                .min_by_key(|(_, entry)| (entry.class, entry.at))
                .map(|(k, _)| k.clone())
                .expect("non-empty registry has a victim");
            pools.remove(&victim);
        }
        (result, false)
    }

    /// The memoized response body for `key` on `workload`'s pool, under
    /// one registry lock. A hit stamps the pool as most recently used by
    /// an engine run, which is what it stands in for; a miss changes
    /// nothing.
    pub(crate) fn response(
        &self,
        workload: &WorkloadKey,
        key: &ResponseKey,
    ) -> Option<Arc<Vec<u8>>> {
        let cache_key = workload.cache_key();
        let stamp = self.stamp();
        let mut pools = self.lock();
        let entry = pools.get_mut(&cache_key)?;
        let body = entry.responses.get(key)?;
        entry.class = PoolUse::Engine;
        entry.at = stamp;
        Some(body)
    }

    /// Memoizes the body of a complete run on `workload`'s pool, without
    /// touching the pool's eviction stamp. Dropped if the pool was evicted
    /// while the run was in flight.
    fn store_response(&self, workload: &WorkloadKey, key: ResponseKey, body: Arc<Vec<u8>>) {
        let cache_key = workload.cache_key();
        if let Some(entry) = self.lock().get_mut(&cache_key) {
            entry.responses.slot(key).get_or_init(|| body);
        }
    }

    /// Releases every pool's memoized flats, summaries and responses (the
    /// idle path). Pools themselves stay registered; their traces are
    /// cheap relative to the flats and keep the next request warm-ish.
    pub(crate) fn shrink(&self) {
        for entry in self.lock().values_mut() {
            entry.pool.shrink();
            entry.responses.clear();
        }
    }
}

/// Everything one shard owns. Connection threads hold an `Arc` to their
/// assigned shard and never touch another's.
pub(crate) struct ShardState {
    pub(crate) id: usize,
    /// Worker-thread count, kept alongside the pool so `Retry-After`
    /// hints can be derived from queue depth per worker.
    pub(crate) workers: usize,
    pub(crate) worker_pool: WorkerPool,
    pub(crate) registry: PoolRegistry,
    pub(crate) scratch: ScratchPool,
    pub(crate) stats: StatCells,
    pub(crate) coalescer: Coalescer,
}

/// `Retry-After` hint (seconds) for a full-queue 429 on this shard:
/// roughly how many queue "generations" are ahead of the client, assuming
/// each worker clears about one queued request per second of simulation
/// budget. Clamped so a pathological backlog never tells a client to go
/// away for minutes.
pub(crate) fn queue_retry_after(shard: &ShardState) -> u64 {
    let depth = shard.worker_pool.queued() as u64;
    (1 + depth / shard.workers as u64).min(30)
}

impl ShardState {
    pub(crate) fn new(
        id: usize,
        workers: usize,
        queue_capacity: usize,
        max_pools: usize,
        flat_capacity: Option<usize>,
        max_batch: usize,
    ) -> ShardState {
        ShardState {
            id,
            workers: workers.max(1),
            worker_pool: WorkerPool::new(workers, queue_capacity),
            registry: PoolRegistry::new(max_pools, flat_capacity),
            scratch: ScratchPool::new(),
            stats: StatCells::default(),
            coalescer: Coalescer::new(max_batch),
        }
    }
}

/// Requests batch together only when *everything* execution-relevant
/// besides per-cell [`SimSettings`] matches: the workload (pool identity),
/// the thread count, and the clamped budget.
type BatchKey = (String, usize, CellBudget);

/// One coalesced request: its settings and the channel its connection
/// thread is blocked on.
struct BatchEntry {
    settings: SimSettings,
    tx: mpsc::Sender<HttpResponse>,
}

struct PendingBatch {
    /// Generation id guarding the leader's flush: if a max-batch flush
    /// already took this batch, a *new* batch under the same key gets a
    /// new id and the woken leader leaves it for its own leader.
    id: u64,
    entries: Vec<BatchEntry>,
}

/// The per-shard coalescing table.
pub(crate) struct Coalescer {
    pending: Mutex<HashMap<BatchKey, PendingBatch>>,
    next_id: AtomicU64,
    max_batch: usize,
}

impl Coalescer {
    pub(crate) fn new(max_batch: usize) -> Coalescer {
        Coalescer {
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            max_batch: max_batch.max(1),
        }
    }
}

enum Role {
    /// First request on this key: sleep the window, then flush.
    Leader(u64),
    /// Joined an open batch: just wait for the response.
    Follower,
    /// Filled the batch to `max_batch`: flush immediately.
    Flush(Vec<BatchEntry>),
}

/// Answers a finished run with its encoded report, memoizing the bytes
/// under `key` on `workload`'s pool when the report is complete; the
/// response and the memo share one buffer. A truncated report depends on
/// the budget that stopped it (a wall budget, on timing), so it is
/// answered but never memoized.
pub(crate) fn report_response(
    registry: &PoolRegistry,
    workload: &WorkloadKey,
    key: ResponseKey,
    report: &Report,
) -> HttpResponse {
    let body = Arc::new(report_to_json(report).into_bytes());
    if !report.truncated {
        registry.store_response(workload, key, Arc::clone(&body));
    }
    HttpResponse::shared_json(200, body)
}

/// Submits `sim` through the shard's coalescer and synchronously awaits
/// the response. `budget` must already be clamped to the server ceiling
/// (it is part of the batch key). The caller counts the response.
pub(crate) fn coalesced_submit(
    shard: &Arc<ShardState>,
    workload: &WorkloadKey,
    p: usize,
    settings: SimSettings,
    budget: CellBudget,
    window: Duration,
) -> HttpResponse {
    let (tx, rx) = mpsc::channel::<HttpResponse>();
    let key: BatchKey = (workload.cache_key(), p, budget);
    let entry = BatchEntry { settings, tx };
    let role = {
        let mut pending = shard
            .coalescer
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match pending.entry(key.clone()) {
            Entry::Vacant(vacant) => {
                let id = shard.coalescer.next_id.fetch_add(1, Ordering::Relaxed);
                vacant.insert(PendingBatch {
                    id,
                    entries: vec![entry],
                });
                Role::Leader(id)
            }
            Entry::Occupied(mut occupied) => {
                occupied.get_mut().entries.push(entry);
                if occupied.get().entries.len() >= shard.coalescer.max_batch {
                    Role::Flush(occupied.remove().entries)
                } else {
                    Role::Follower
                }
            }
        }
    };
    match role {
        Role::Flush(entries) => submit_batch(shard, workload, p, budget, entries),
        Role::Leader(id) => {
            std::thread::sleep(window);
            let batch = {
                let mut pending = shard
                    .coalescer
                    .pending
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                match pending.entry(key) {
                    Entry::Occupied(occupied) if occupied.get().id == id => {
                        Some(occupied.remove().entries)
                    }
                    _ => None, // a max-batch flush already took this batch
                }
            };
            if let Some(entries) = batch {
                submit_batch(shard, workload, p, budget, entries);
            }
        }
        Role::Follower => {}
    }
    match rx.recv() {
        Ok(resp) => resp,
        // The worker dropped the sender without sending — lost to
        // something the in-job catch_unwind could not see.
        Err(_) => HttpResponse::json(500, error_body("request execution lost")),
    }
}

/// Hands a flushed batch to the shard's worker pool as ONE job. Admission
/// failures fan the 429/503 out to every waiting request.
fn submit_batch(
    shard: &Arc<ShardState>,
    workload: &WorkloadKey,
    p: usize,
    budget: CellBudget,
    entries: Vec<BatchEntry>,
) {
    let n = entries.len() as u64;
    // `try_submit` consumes its closure even on failure; park the entries
    // in a shared slot so a rejected submit can take them back and answer
    // every waiter.
    let slot = Arc::new(Mutex::new(Some(entries)));
    let job_slot = Arc::clone(&slot);
    let job_shard = Arc::clone(shard);
    let job_workload = workload.clone();
    let submitted = shard.worker_pool.try_submit(move || {
        let entries = job_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("batch entries taken exactly once");
        run_coalesced_batch(&job_shard, &job_workload, p, budget, &entries);
    });
    match submitted {
        Ok(()) => {
            shard.stats.batches.fetch_add(1, Ordering::Relaxed);
            shard.stats.batched_requests.fetch_add(n, Ordering::Relaxed);
        }
        Err(err) => {
            let entries = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("rejected batch entries still parked");
            let (status, msg, retry_after) = match err {
                SubmitError::Full { capacity } => (
                    429,
                    format!("request queue full (capacity {capacity}); retry later"),
                    queue_retry_after(shard),
                ),
                SubmitError::ShutDown => (
                    503,
                    "server is draining".to_string(),
                    crate::server::RETRY_AFTER_DRAIN_SECS,
                ),
            };
            for entry in entries {
                let _ = entry.tx.send(
                    HttpResponse::json(status, error_body(&msg)).with_retry_after(retry_after),
                );
            }
        }
    }
}

/// Worker-side execution of one flushed batch: one warm-pool lookup, then
/// each request through [`run_sim_budgeted_flat`] under its own
/// `catch_unwind`, so a config error or panic fails only the offending
/// request — batching never widens a failure's blast radius. Complete
/// reports are memoized like scalar runs ([`report_response`]).
fn run_coalesced_batch(
    shard: &ShardState,
    workload: &WorkloadKey,
    p: usize,
    budget: CellBudget,
    entries: &[BatchEntry],
) {
    let (pool, was_warm) = shard.registry.get(workload, p, PoolUse::Engine);
    let n = entries.len() as u64;
    if was_warm {
        shard.stats.warm_runs.fetch_add(n, Ordering::Relaxed);
    } else {
        // One request paid generation; the rest of the batch rides warm.
        shard.stats.cold_runs.fetch_add(1, Ordering::Relaxed);
        shard
            .stats
            .warm_runs
            .fetch_add(n.saturating_sub(1), Ordering::Relaxed);
    }
    let flat = pool.flat(p);
    for entry in entries {
        let result = catch_unwind(AssertUnwindSafe(|| {
            shard
                .scratch
                .with(|scratch| run_sim_budgeted_flat(&flat, &entry.settings, budget, scratch))
        }));
        let resp = match result {
            Ok(Ok(report)) => {
                let key = ResponseKey {
                    p,
                    settings: entry.settings.clone(),
                    max_ticks: budget.max_ticks,
                };
                report_response(&shard.registry, workload, key, &report)
            }
            Ok(Err(e)) => {
                HttpResponse::json(400, error_body(&format!("invalid configuration: {e}")))
            }
            Err(payload) => HttpResponse::json(
                500,
                error_body(&format!("request panicked: {}", panic_message(&payload))),
            ),
        };
        let _ = entry.tx.send(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traces::{TraceOptions, WorkloadSpec};

    fn key(seed: u64) -> WorkloadKey {
        WorkloadKey {
            spec: WorkloadSpec::Cyclic { pages: 8, reps: 2 },
            trace_seed: seed,
            opts: TraceOptions::default(),
        }
    }

    fn settings(seed: u64) -> SimSettings {
        SimSettings::new(4, 1, hbm_core::ArbitrationKind::Priority, seed)
    }

    fn response_key(p: usize, seed: u64) -> ResponseKey {
        ResponseKey {
            p,
            settings: settings(seed),
            max_ticks: None,
        }
    }

    /// A fresh, unbudgeted run of `(p, seed)` on `pool`.
    fn run(pool: &TracePool, p: usize, seed: u64) -> Report {
        ScratchPool::new()
            .with(|scratch| {
                run_sim_budgeted_flat(
                    &pool.flat(p),
                    &settings(seed),
                    CellBudget::UNLIMITED,
                    scratch,
                )
            })
            .expect("valid settings")
    }

    /// Runs `(p, seed)` on `key`'s pool the way a served request does:
    /// fetched as an engine run, answered through [`report_response`].
    fn serve(registry: &PoolRegistry, key: &WorkloadKey, p: usize, seed: u64) {
        let (pool, _) = registry.get(key, p, PoolUse::Engine);
        let report = run(&pool, p, seed);
        let resp = report_response(registry, key, response_key(p, seed), &report);
        assert_eq!(resp.status, 200);
    }

    fn registered(registry: &PoolRegistry, seed: u64) -> bool {
        registry.lock().contains_key(&key(seed).cache_key())
    }

    /// Estimate-only pools go before engine pools, oldest first; a new
    /// estimate pool in a registry full of engine pools evicts itself.
    #[test]
    fn estimate_pools_are_evicted_before_engine_pools() {
        let registry = PoolRegistry::new(3, None);
        registry.get(&key(1), 1, PoolUse::Engine);
        registry.get(&key(2), 1, PoolUse::Estimate);
        registry.get(&key(3), 1, PoolUse::Estimate);
        registry.get(&key(4), 1, PoolUse::Engine);
        assert!(
            registered(&registry, 1),
            "the oldest pool is an engine pool"
        );
        assert!(!registered(&registry, 2), "the oldest estimate pool goes");
        assert!(registered(&registry, 3) && registered(&registry, 4));

        // An engine run promotes an estimate pool into the engine class.
        registry.peek(&key(3), 1, PoolUse::Engine);
        let (_, was_warm) = registry.get(&key(5), 1, PoolUse::Estimate);
        assert!(!was_warm);
        assert!(
            !registered(&registry, 5),
            "no engine pool is evicted for it"
        );
        for seed in [1, 3, 4] {
            assert!(registered(&registry, seed), "engine pool {seed} stays");
        }

        // Engine traffic still evicts by plain LRU among engine pools.
        registry.get(&key(6), 1, PoolUse::Engine);
        assert!(!registered(&registry, 1));
        assert!(registered(&registry, 3) && registered(&registry, 4));
        assert!(registered(&registry, 6));
    }

    /// A pool regrown to more threads keeps its memoized responses, and
    /// each equals a fresh run on the regrown pool; `shrink` clears them.
    #[test]
    fn a_regrown_pool_keeps_responses_equal_to_fresh_runs() {
        let registry = PoolRegistry::new(2, Some(8));
        let k = key(1);
        for p in [1, 2] {
            serve(&registry, &k, p, 10 + p as u64);
        }
        let (pool, was_warm) = registry.get(&k, 4, PoolUse::Engine);
        assert!(!was_warm && pool.max_p() == 4, "the pool regrew");
        for p in [1, 2] {
            let memoized = registry
                .response(&k, &response_key(p, 10 + p as u64))
                .expect("regrowth keeps responses");
            let fresh = report_to_json(&run(&pool, p, 10 + p as u64));
            assert_eq!(*memoized, fresh.into_bytes(), "p = {p}");
        }
        registry.shrink();
        assert!(registry.response(&k, &response_key(1, 11)).is_none());
    }

    /// Storing a response refreshes nothing, and a response miss on an
    /// estimate-only pool neither promotes nor refreshes it: eviction
    /// order is exactly the one engine and estimate lookups make.
    #[test]
    fn responses_never_change_the_eviction_order() {
        let registry = PoolRegistry::new(3, None);
        serve(&registry, &key(1), 1, 0);
        registry.get(&key(2), 1, PoolUse::Estimate);
        registry.get(&key(3), 1, PoolUse::Estimate);
        assert!(registry.response(&key(2), &response_key(1, 0)).is_none());
        registry.get(&key(4), 1, PoolUse::Engine);
        assert!(!registered(&registry, 2), "the oldest estimate pool goes");
        assert!(registered(&registry, 3));

        let (pool, _) = registry.get(&key(1), 1, PoolUse::Engine);
        let body = Arc::new(report_to_json(&run(&pool, 1, 1)).into_bytes());
        registry.get(&key(4), 1, PoolUse::Engine);
        registry.get(&key(5), 1, PoolUse::Engine);
        assert!(!registered(&registry, 3), "estimate pools still go first");
        // Pool 1 is now the least recently used engine pool; a store on it
        // does not refresh it.
        registry.store_response(&key(1), response_key(1, 1), body);
        registry.get(&key(6), 1, PoolUse::Engine);
        assert!(
            !registered(&registry, 1),
            "the least recently used engine pool goes"
        );
        for seed in [4, 5, 6] {
            assert!(registered(&registry, seed));
        }
        // Its responses went with it.
        registry.get(&key(1), 1, PoolUse::Engine);
        assert!(registry.response(&key(1), &response_key(1, 0)).is_none());
    }
}
