//! The simulation server: sharded accept path, routing, admission
//! control, warm pools, request coalescing, streaming sessions, and
//! graceful drain.
//!
//! Request lifecycle (DESIGN.md §14, §16):
//!
//! 1. The accept loop (nonblocking listener, 5 ms poll) takes a
//!    connection, or sheds it with **503** when `max_connections` threads
//!    are already serving. Accepted connections are handed to one of
//!    `shards` [`ShardState`]s round-robin — each shard owns its own
//!    [`WorkerPool`](hbm_par::WorkerPool), pool registry, scratch, and
//!    counters, so the request path shares no locks across shards.
//! 2. The connection thread parses HTTP/1.1 requests (keep-alive) under
//!    per-message deadlines and routes them. Framing or JSON errors are
//!    **400**; oversized requests are **413**.
//! 3. `/simulate` bodies become [`SimRequest`]s. The engine is
//!    deterministic, so a request whose complete report the shard's warm
//!    pool already memoizes is answered on the connection thread with the
//!    memoized bytes (see `simulate`). Every other request is submitted to
//!    the shard's worker pool — *non-blocking*: a full queue is an
//!    immediate **429**, the explicit admission-control signal. With a
//!    coalescing window configured, same-(workload, p, budget) requests
//!    arriving within the window share one worker job (see
//!    [`shard`](crate::shard)); responses are byte-identical either way.
//! 4. The worker executes through the warm path — a per-workload
//!    [`TracePool`](crate::pool::TracePool) (memoized traces + flats) and
//!    the shard's [`ScratchPool`](crate::pool::ScratchPool) — under the
//!    request's [`CellBudget`] clamped to the server ceiling; budget
//!    exhaustion yields **200** with `"truncated": true` rather than a
//!    hung connection, and only an untruncated report's bytes are
//!    memoized. A panicking request is caught in the worker and
//!    surfaces as that request's **500**; the worker thread and every
//!    other connection survive.
//! 5. `/estimate` takes the same body. When the shard's warm pool already
//!    memoizes the workload summary for `p`, the model answers on the
//!    connection thread; otherwise the request is a worker job under the
//!    same admission contract as `/simulate` (see `estimate`).
//! 6. `POST /session` upgrades the connection to a chunked-JSONL
//!    streaming session run on the connection thread (see
//!    [`session`](crate::session)).
//! 7. Shutdown (SIGTERM/ctrl-c or [`ShutdownFlag::trip`]) stops the accept
//!    loop, lets idle connections close, finishes in-flight requests and
//!    sessions (sessions end with a `"draining"` line), drains every
//!    shard's worker queue, and joins everything — then returns the final
//!    aggregated [`ServerStats`].

use crate::http::{read_request, write_response, HttpError, HttpRequest, HttpResponse};
use crate::json::{Json, JsonLimits};
use crate::mux::SessionMux;
use crate::pool::{run_sim_budgeted_flat, CellBudget};
use crate::proto::{estimate_to_json, parse_sim_request, ProtoError, SimRequest};
use crate::session::{serve_resume, serve_session, ResumeTable};
use crate::shard::{coalesced_submit, report_response, PoolUse, ResponseKey, ShardState};
use crate::shutdown::ShutdownFlag;
use hbm_par::SubmitError;
use hbm_traces::analysis::WorkloadSummary;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults suit tests and small deployments;
/// the binary exposes the load-bearing ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listener shards. Each shard gets its own worker pool, pool
    /// registry, scratch pool, and counters; connections are dispatched
    /// round-robin.
    pub shards: usize,
    /// Simulation worker threads **per shard**.
    pub workers: usize,
    /// Pending-request queue capacity **per shard**; a full queue rejects
    /// with 429.
    pub queue_capacity: usize,
    /// Maximum concurrent connections (global); excess connections get 503.
    pub max_connections: usize,
    /// Per-message read deadline (head + body).
    pub request_timeout: Duration,
    /// Ceiling clamped onto every request's budget. The default caps wall
    /// time so no request can hold a worker indefinitely.
    pub budget_ceiling: CellBudget,
    /// Maximum distinct workload pools kept warm per shard (LRU beyond
    /// this).
    pub max_pools: usize,
    /// Per-pool cap on each per-pool memo: flats, workload summaries and
    /// `/simulate` responses. `None` leaves flats and summaries unbounded
    /// and caps responses at [`MAX_P`](crate::proto::MAX_P).
    pub flat_capacity: Option<usize>,
    /// Idle period after which warm memory (memoized flats, summaries and
    /// responses, scratch buffers) is released. `None` disables idle
    /// shrinking.
    pub idle_shrink_after: Option<Duration>,
    /// Same-(workload, p, budget) requests arriving within this window
    /// coalesce into one batched engine call. `None` disables coalescing
    /// (every request runs scalar).
    pub coalesce_window: Option<Duration>,
    /// Maximum requests per coalesced batch; a batch reaching this size
    /// flushes before the window closes.
    pub max_batch: usize,
    /// Maximum concurrently open streaming sessions (global); excess
    /// session opens get 429.
    pub max_sessions: usize,
    /// A session chunk write stalling longer than this (client gone or not
    /// reading) reaps the session.
    pub session_write_stall: Duration,
    /// Threads in the session multiplexer pool — the *total* OS-thread
    /// cost of all open streaming sessions (see [`crate::mux`]).
    pub session_workers: usize,
    /// How long a resume token stays valid after the session opens.
    pub resume_ttl: Duration,
    /// Maximum registered resume tokens; beyond this the oldest is
    /// evicted at the next mint.
    pub max_resume_tokens: usize,
    /// JSON parser limits applied to request bodies.
    pub json_limits: JsonLimits,
    /// Enables `POST /test/panic` (a deliberately panicking request) so
    /// tests can prove panic isolation end-to-end. Off in production.
    pub enable_test_endpoints: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            workers: hbm_par::default_threads(),
            queue_capacity: 64,
            max_connections: 64,
            request_timeout: Duration::from_secs(10),
            budget_ceiling: CellBudget {
                max_ticks: None,
                max_wall: Some(Duration::from_secs(10)),
            },
            max_pools: 8,
            flat_capacity: Some(8),
            idle_shrink_after: Some(Duration::from_secs(30)),
            coalesce_window: None,
            max_batch: 16,
            max_sessions: 32,
            session_write_stall: Duration::from_secs(5),
            session_workers: 2,
            resume_ttl: Duration::from_secs(300),
            max_resume_tokens: 1024,
            json_limits: JsonLimits::default(),
            enable_test_endpoints: false,
        }
    }
}

/// Counters the server maintains while running; per-shard snapshots are
/// aggregated into the totals returned by [`Server::run`] and served live
/// at `GET /healthz` (which also reports each shard separately).
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests that reached routing (any method/path).
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 429 rejections (queue full, or session limit).
    pub rejected: u64,
    /// 503 rejections (connection cap, or submit-after-shutdown races).
    pub shed: u64,
    /// 4xx protocol/validation errors.
    pub client_errors: u64,
    /// 500s (request panics).
    pub panics: u64,
    /// Cold `/simulate` executions (trace pool generated on this request).
    pub cold_runs: u64,
    /// Warm `/simulate` executions (served from a pooled workload).
    pub warm_runs: u64,
    /// `/estimate`s answered on a worker: the workload summary was not
    /// memoized when the request arrived.
    pub estimates_cold: u64,
    /// `/estimate`s answered on the connection thread from a memoized
    /// workload summary.
    pub estimates_warm: u64,
    /// `/simulate`s answered on the connection thread from a memoized
    /// response, without an engine run. Each also counts in `warm_runs`.
    pub simulate_memo_hits: u64,
    /// Coalesced batches flushed to worker pools.
    pub batches: u64,
    /// Requests that ran inside a coalesced batch.
    pub batched_requests: u64,
    /// Streaming sessions opened (stream head written).
    pub sessions_opened: u64,
    /// Sessions that ended with a terminal `done` line.
    pub sessions_closed: u64,
    /// Sessions reaped mid-stream (client disconnected or stalled).
    pub sessions_reaped: u64,
    /// Sessions reattached through `/session/resume`.
    pub sessions_resumed: u64,
    /// Sessions evicted by the shed policy to admit newer requests.
    pub sessions_shed: u64,
    /// Alert lines emitted across all sessions.
    pub alerts: u64,
}

impl ServerStats {
    fn accumulate(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.client_errors += other.client_errors;
        self.panics += other.panics;
        self.cold_runs += other.cold_runs;
        self.warm_runs += other.warm_runs;
        self.estimates_cold += other.estimates_cold;
        self.estimates_warm += other.estimates_warm;
        self.simulate_memo_hits += other.simulate_memo_hits;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.sessions_opened += other.sessions_opened;
        self.sessions_closed += other.sessions_closed;
        self.sessions_reaped += other.sessions_reaped;
        self.sessions_resumed += other.sessions_resumed;
        self.sessions_shed += other.sessions_shed;
        self.alerts += other.alerts;
    }
}

pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) shards: Vec<Arc<ShardState>>,
    pub(crate) active_connections: AtomicUsize,
    pub(crate) active_sessions: AtomicUsize,
    pub(crate) mux: Arc<SessionMux>,
    pub(crate) resume: ResumeTable,
}

/// `Retry-After` hint (seconds) on 503s caused by drain: long enough for
/// a typical drain to finish, short enough that clients re-find a
/// restarted server quickly.
pub(crate) const RETRY_AFTER_DRAIN_SECS: u64 = 5;

/// `Retry-After` hint on the connection-cap 503: connections turn over
/// quickly, so retry almost immediately.
const RETRY_AFTER_CONNECTIONS_SECS: u64 = 1;

/// The simulation-as-a-service server. Bind, then [`run`](Self::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port in tests).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shards = (0..config.shards.max(1))
            .map(|id| {
                Arc::new(ShardState::new(
                    id,
                    config.workers,
                    config.queue_capacity,
                    config.max_pools,
                    config.flat_capacity,
                    config.max_batch,
                ))
            })
            .collect();
        let state = Arc::new(ServerState {
            shards,
            active_connections: AtomicUsize::new(0),
            active_sessions: AtomicUsize::new(0),
            mux: Arc::new(SessionMux::new()),
            resume: ResumeTable::new(config.resume_ttl, config.max_resume_tokens),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `flag` trips, then drains: no new connections, idle
    /// connections close, in-flight requests and sessions finish, every
    /// shard's worker queue empties, every thread is joined. Returns the
    /// final statistics aggregated across shards.
    pub fn run(self, flag: &ShutdownFlag) -> io::Result<ServerStats> {
        let mux_workers = self
            .state
            .mux
            .spawn_workers(self.state.config.session_workers, flag);
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        let mut next_shard = 0usize;
        let mut last_activity = Instant::now();
        let mut last_executed = 0u64;
        let mut shrunk_while_idle = false;
        while !flag.is_set() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    last_activity = Instant::now();
                    shrunk_while_idle = false;
                    // Keep-alive request/response exchanges are small;
                    // leaving Nagle on would serialize them against the
                    // peer's delayed ACKs.
                    let _ = stream.set_nodelay(true);
                    let active = &self.state.active_connections;
                    if active.load(Ordering::Relaxed) >= self.state.config.max_connections {
                        let shard = &self.state.shards[next_shard % self.state.shards.len()];
                        shard.stats.shed.fetch_add(1, Ordering::Relaxed);
                        let _ = shed_connection(stream);
                        continue;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    // Round-robin dispatch: with the workspace's
                    // no-unsafe-outside-shutdown rule, SO_REUSEPORT (a
                    // setsockopt FFI) is off-limits, so one accept loop
                    // plays dispatcher for all shards.
                    let shard =
                        Arc::clone(&self.state.shards[next_shard % self.state.shards.len()]);
                    next_shard = next_shard.wrapping_add(1);
                    let state = Arc::clone(&self.state);
                    let conn_flag = flag.clone();
                    let handle = std::thread::Builder::new()
                        .name(format!("hbm-serve-conn-s{}", shard.id))
                        .spawn(move || {
                            serve_connection(stream, &state, &shard, &conn_flag);
                            state.active_connections.fetch_sub(1, Ordering::Relaxed);
                        })
                        .expect("spawn connection thread");
                    connections.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            connections.retain(|h| !h.is_finished());
            // Idle-path memory release: when no request has executed for
            // the configured window, drop memoized flats, summaries and
            // responses and idle scratch. Warm estimates and memoized
            // simulations never reach a worker, so they count as activity
            // separately.
            let executed: u64 = self
                .state
                .shards
                .iter()
                .map(|s| {
                    s.worker_pool.executed()
                        + s.stats.estimates_warm.load(Ordering::Relaxed)
                        + s.stats.simulate_memo_hits.load(Ordering::Relaxed)
                })
                .sum();
            if executed != last_executed {
                last_executed = executed;
                last_activity = Instant::now();
                shrunk_while_idle = false;
            }
            if let Some(window) = self.state.config.idle_shrink_after {
                if !shrunk_while_idle && last_activity.elapsed() >= window {
                    for shard in &self.state.shards {
                        shard.registry.shrink();
                        shard.scratch.clear();
                    }
                    shrunk_while_idle = true;
                }
            }
        }
        // Drain: connection threads see the flag (idle reads cancel,
        // in-flight requests complete), then the mux finishes every open
        // session with a `draining` line, then every shard's worker queue
        // empties. Connection threads are the only session submitters, so
        // joining them before `begin_drain` closes the
        // submit-after-drain race.
        drop(self.listener);
        for handle in connections {
            let _ = handle.join();
        }
        self.state.mux.begin_drain();
        for handle in mux_workers {
            let _ = handle.join();
        }
        let mut totals = ServerStats::default();
        for shard in &self.state.shards {
            shard.worker_pool.shutdown();
            totals.accumulate(&shard.stats.snapshot());
        }
        Ok(totals)
    }
}

/// Best-effort 503 for connections over the concurrency cap.
fn shed_connection(mut stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    let resp = HttpResponse {
        close: true,
        ..HttpResponse::json(503, "{\"error\":\"connection limit reached\"}")
            .with_retry_after(RETRY_AFTER_CONNECTIONS_SECS)
    };
    write_response(&mut stream, &resp)
}

fn serve_connection(
    mut stream: TcpStream,
    state: &Arc<ServerState>,
    shard: &Arc<ShardState>,
    flag: &ShutdownFlag,
) {
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let idle_cancel = || flag.is_set();
    loop {
        // A fresh deadline per message: the connection may idle between
        // requests (keep-alive) for as long as the client likes — idleness
        // is interrupted by shutdown via `idle_cancel`, while an in-flight
        // message gets `request_timeout` to complete.
        let deadline = Instant::now() + state.config.request_timeout;
        let req = match read_request(&mut stream, deadline, &idle_cancel) {
            Ok(Some(req)) => req,
            Ok(None) => return,                  // client closed cleanly
            Err(HttpError::Cancelled) => return, // shutdown while idle
            Err(HttpError::IdleTimedOut) => {
                // Idle keep-alive wait: just re-arm the deadline. The
                // client may idle between requests as long as it likes.
                if flag.is_set() {
                    return;
                }
                continue;
            }
            Err(HttpError::TimedOut) => {
                // Mid-message stall: the client sent part of a head or
                // body and then went quiet past `request_timeout` —
                // slowloris shape. 408 and drop the connection so the
                // slot frees.
                shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                let _ = respond_error(
                    &mut stream,
                    408,
                    "request head/body incomplete after request timeout",
                    true,
                );
                return;
            }
            Err(e) => {
                let (status, msg) = match &e {
                    HttpError::HeadTooLarge => (413, e.to_string()),
                    HttpError::BodyTooLarge { .. } => (413, e.to_string()),
                    _ => (400, e.to_string()),
                };
                shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
                let _ = respond_error(&mut stream, status, &msg, true);
                return;
            }
        };
        if req.method == "POST" && (req.path == "/session" || req.path == "/session/resume") {
            // The session consumes the rest of the connection (the stream
            // head advertises `connection: close`); ownership of the
            // socket moves to the mux on successful admission.
            if req.path == "/session" {
                serve_session(stream, &req, state, shard, flag);
            } else {
                serve_resume(stream, &req, state, shard, flag);
            }
            return;
        }
        let close_after = req
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let mut resp = route(&req, state, shard, flag);
        resp.close = close_after;
        if write_response(&mut stream, &resp).is_err() {
            return;
        }
        if close_after {
            return;
        }
        if flag.is_set() {
            // In-flight request finished (drain guarantee); now stop
            // taking new ones on this connection.
            return;
        }
    }
}

fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    close: bool,
) -> io::Result<()> {
    let body = Json::obj(vec![("error", Json::from(message))]).to_string();
    let resp = HttpResponse {
        close,
        ..HttpResponse::json(status, body)
    };
    write_response(stream, &resp)
}

pub(crate) fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::from(message))]).to_string()
}

fn route(
    req: &HttpRequest,
    state: &Arc<ServerState>,
    shard: &Arc<ShardState>,
    flag: &ShutdownFlag,
) -> HttpResponse {
    shard.stats.requests.fetch_add(1, Ordering::Relaxed);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state, shard, flag),
        ("POST", "/simulate") => simulate(req, state, shard),
        ("POST", "/estimate") => estimate(req, state, shard),
        ("POST", "/test/panic") if state.config.enable_test_endpoints => {
            submit_job(shard, || panic!("deliberate test panic"))
        }
        ("POST", _) | ("GET", _) => {
            shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            HttpResponse::json(404, error_body("no such endpoint"))
        }
        _ => {
            shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            HttpResponse::json(405, error_body("method not allowed"))
        }
    }
}

fn healthz(state: &ServerState, shard: &ShardState, flag: &ShutdownFlag) -> HttpResponse {
    let mut totals = ServerStats::default();
    let mut queued = 0usize;
    let mut running = 0usize;
    let mut per_shard = Vec::with_capacity(state.shards.len());
    for s in &state.shards {
        let snap = s.stats.snapshot();
        let s_queued = s.worker_pool.queued();
        let s_running = s.worker_pool.running();
        per_shard.push(Json::obj(vec![
            ("shard", Json::from(s.id)),
            ("requests", Json::from(snap.requests)),
            ("ok", Json::from(snap.ok)),
            ("rejected", Json::from(snap.rejected)),
            ("shed", Json::from(snap.shed)),
            ("client_errors", Json::from(snap.client_errors)),
            ("panics", Json::from(snap.panics)),
            ("cold_runs", Json::from(snap.cold_runs)),
            ("warm_runs", Json::from(snap.warm_runs)),
            ("estimates_cold", Json::from(snap.estimates_cold)),
            ("estimates_warm", Json::from(snap.estimates_warm)),
            ("simulate_memo_hits", Json::from(snap.simulate_memo_hits)),
            ("batches", Json::from(snap.batches)),
            ("batched_requests", Json::from(snap.batched_requests)),
            ("sessions_opened", Json::from(snap.sessions_opened)),
            ("sessions_closed", Json::from(snap.sessions_closed)),
            ("sessions_reaped", Json::from(snap.sessions_reaped)),
            ("sessions_resumed", Json::from(snap.sessions_resumed)),
            ("sessions_shed", Json::from(snap.sessions_shed)),
            ("alerts", Json::from(snap.alerts)),
            ("queued", Json::from(s_queued)),
            ("running", Json::from(s_running)),
        ]));
        totals.accumulate(&snap);
        queued += s_queued;
        running += s_running;
    }
    let body = Json::obj(vec![
        (
            "status",
            Json::from(if flag.is_set() { "draining" } else { "ok" }),
        ),
        ("requests", Json::from(totals.requests)),
        ("ok", Json::from(totals.ok)),
        ("rejected", Json::from(totals.rejected)),
        ("shed", Json::from(totals.shed)),
        ("client_errors", Json::from(totals.client_errors)),
        ("panics", Json::from(totals.panics)),
        ("cold_runs", Json::from(totals.cold_runs)),
        ("warm_runs", Json::from(totals.warm_runs)),
        ("estimates_cold", Json::from(totals.estimates_cold)),
        ("estimates_warm", Json::from(totals.estimates_warm)),
        ("simulate_memo_hits", Json::from(totals.simulate_memo_hits)),
        ("batches", Json::from(totals.batches)),
        ("batched_requests", Json::from(totals.batched_requests)),
        ("sessions_opened", Json::from(totals.sessions_opened)),
        ("sessions_closed", Json::from(totals.sessions_closed)),
        ("sessions_reaped", Json::from(totals.sessions_reaped)),
        ("sessions_resumed", Json::from(totals.sessions_resumed)),
        ("sessions_shed", Json::from(totals.sessions_shed)),
        ("alerts", Json::from(totals.alerts)),
        ("queued", Json::from(queued)),
        ("running", Json::from(running)),
        (
            "active_connections",
            Json::from(state.active_connections.load(Ordering::Relaxed)),
        ),
        (
            "active_sessions",
            Json::from(state.active_sessions.load(Ordering::Relaxed)),
        ),
        ("shards", Json::Arr(per_shard)),
    ])
    .to_string();
    shard.stats.ok.fetch_add(1, Ordering::Relaxed);
    HttpResponse::json(200, body)
}

/// Parses a `/simulate`-schema body, answering 413/400 (counted as a
/// client error) when it does not parse.
fn parse_body(
    req: &HttpRequest,
    state: &ServerState,
    shard: &ShardState,
) -> Result<SimRequest, HttpResponse> {
    parse_sim_request(&req.body, &state.config.json_limits).map_err(|e| {
        shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        let status = match e {
            ProtoError::TooLarge { .. } => 413,
            _ => 400,
        };
        HttpResponse::json(status, error_body(&e.to_string()))
    })
}

/// `POST /simulate`. A request whose complete report the shard's warm
/// pool already memoizes (same workload, `p`, settings and clamped tick
/// budget) is answered here on the connection thread with the memoized
/// bytes: no queue, no engine run. Only complete runs are memoized, so a
/// hit answers the full report whatever the request's wall budget — that
/// budget bounds work, and a hit does none. Everything else is a worker
/// job, coalesced when a window is configured.
fn simulate(req: &HttpRequest, state: &Arc<ServerState>, shard: &Arc<ShardState>) -> HttpResponse {
    let sim = match parse_body(req, state, shard) {
        Ok(sim) => sim,
        Err(resp) => return resp,
    };
    let budget = sim.budget.min(state.config.budget_ceiling);
    let key = ResponseKey {
        p: sim.p,
        settings: sim.settings.clone(),
        max_ticks: budget.max_ticks,
    };
    if let Some(body) = shard.registry.response(&sim.workload, &key) {
        shard.stats.warm_runs.fetch_add(1, Ordering::Relaxed);
        shard
            .stats
            .simulate_memo_hits
            .fetch_add(1, Ordering::Relaxed);
        let resp = HttpResponse::shared_json(200, body);
        shard.stats.count_response(&resp);
        return resp;
    }
    if let Some(window) = state.config.coalesce_window {
        let resp = coalesced_submit(shard, &sim.workload, sim.p, sim.settings, budget, window);
        shard.stats.count_response(&resp);
        return resp;
    }
    let job_shard = Arc::clone(shard);
    submit_job(shard, move || execute_sim(&job_shard, &sim, key, budget))
}

/// Worker-side execution of one validated request through the warm path;
/// a complete report is memoized under `key` as it is answered.
fn execute_sim(
    shard: &ShardState,
    sim: &SimRequest,
    key: ResponseKey,
    budget: CellBudget,
) -> HttpResponse {
    let (pool, was_warm) = shard.registry.get(&sim.workload, sim.p, PoolUse::Engine);
    if was_warm {
        shard.stats.warm_runs.fetch_add(1, Ordering::Relaxed);
    } else {
        shard.stats.cold_runs.fetch_add(1, Ordering::Relaxed);
    }
    let flat = pool.flat(sim.p);
    let result = shard
        .scratch
        .with(|scratch| run_sim_budgeted_flat(&flat, &sim.settings, budget, scratch));
    match result {
        Ok(report) => report_response(&shard.registry, &sim.workload, key, &report),
        Err(e) => HttpResponse::json(400, error_body(&format!("invalid configuration: {e}"))),
    }
}

/// `POST /estimate`: the analytical fast path. Accepts the *exact*
/// `/simulate` body, but answers from the closed-form model — never an
/// engine run. Parsing and validation happen on the connection thread.
/// The model needs the workload's summary (per-core miss-ratio curves),
/// which the shard's warm pool memoizes per `p`:
///
/// * **warm** — a registered pool already holds the summary for `p`: the
///   prediction runs right here and the request never enters the queue;
/// * **cold** — anything else is a worker job under the same admission
///   contract as `/simulate` (429/503 with `Retry-After`): fetch or
///   generate the pool, build and memoize the summary, predict.
///
/// Estimates share the shard's pool registry with `/simulate`, but a pool
/// only estimates have used is evicted before any pool an engine run has
/// used ([`PoolUse`]), so estimate traffic never turns a warm simulation
/// cold. Both paths serve the same bytes: the memoized summary equals the one
/// `WorkloadSummary::from_spec_opts` computes from the spec.
fn estimate(req: &HttpRequest, state: &Arc<ServerState>, shard: &Arc<ShardState>) -> HttpResponse {
    let sim = match parse_body(req, state, shard) {
        Ok(sim) => sim,
        Err(resp) => return resp,
    };
    let s = &sim.settings;
    // The engine path rejects these at `SimConfig::validate`; the model
    // would divide by them. Mirror the wording of the simulate path.
    if sim.p == 0 || s.k == 0 || s.q == 0 {
        shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        return HttpResponse::json(
            400,
            error_body("invalid configuration: p, k, and q must be positive"),
        );
    }
    let warm = shard
        .registry
        .peek(&sim.workload, sim.p, PoolUse::Estimate)
        .and_then(|pool| pool.cached_summary(sim.p));
    let Some(summary) = warm else {
        let job_shard = Arc::clone(shard);
        return submit_job(shard, move || {
            job_shard
                .stats
                .estimates_cold
                .fetch_add(1, Ordering::Relaxed);
            let (pool, _) = job_shard
                .registry
                .get(&sim.workload, sim.p, PoolUse::Estimate);
            predict_response(&pool.summary(sim.p), &sim)
        });
    };
    shard.stats.estimates_warm.fetch_add(1, Ordering::Relaxed);
    // Same 500-with-message contract as pooled jobs: a panic in the model
    // must reach the client, not kill the connection thread silently.
    let resp = caught(|| predict_response(&summary, &sim));
    shard.stats.count_response(&resp);
    resp
}

/// The model half of [`estimate`]: prediction → JSON.
fn predict_response(summary: &WorkloadSummary, sim: &SimRequest) -> HttpResponse {
    let s = &sim.settings;
    let mut cfg = hbm_model::ModelConfig::new(s.k, s.q, s.arbitration, s.replacement)
        .far_latency(s.far_latency.unwrap_or(1));
    if !s.faults.is_empty() {
        cfg = cfg.faults(hbm_model::FaultSummary::from_plan(&s.faults, s.q));
    }
    let pred = hbm_model::predict::predict(summary, &cfg);
    HttpResponse::json(200, estimate_to_json(&pred))
}

/// Submits a closure to the shard's worker pool and synchronously awaits
/// its response, mapping admission failures to 429/503 and panics to 500.
fn submit_job(
    shard: &ShardState,
    job: impl FnOnce() -> HttpResponse + Send + 'static,
) -> HttpResponse {
    let (tx, rx) = mpsc::channel::<HttpResponse>();
    let submitted = shard.worker_pool.try_submit(move || {
        // Catch here (under the pool's own backstop) so the panic message
        // reaches the client as a 500 body.
        let _ = tx.send(caught(job));
    });
    let resp = match submitted {
        Ok(()) => match rx.recv() {
            Ok(resp) => resp,
            // The sender can only drop without sending if the job was lost
            // to something the in-job catch_unwind could not see.
            Err(_) => HttpResponse::json(500, error_body("request execution lost")),
        },
        Err(SubmitError::Full { capacity }) => HttpResponse::json(
            429,
            error_body(&format!(
                "request queue full (capacity {capacity}); retry later"
            )),
        )
        .with_retry_after(crate::shard::queue_retry_after(shard)),
        Err(SubmitError::ShutDown) => HttpResponse::json(503, error_body("server is draining"))
            .with_retry_after(RETRY_AFTER_DRAIN_SECS),
    };
    shard.stats.count_response(&resp);
    resp
}

/// Runs a request handler, turning a panic into that request's 500.
fn caught(job: impl FnOnce() -> HttpResponse) -> HttpResponse {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let msg = panic_message(&payload);
        HttpResponse::json(500, error_body(&format!("request panicked: {msg}")))
    })
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}
