//! Streaming simulation sessions (DESIGN.md §16–§17).
//!
//! A client POSTs `/session` with the `/simulate` schema plus streaming
//! knobs; the server answers with a chunked-HTTP JSONL stream. Lifecycle:
//!
//! 1. `{"event":"open", ..., "token":"..."}` — the accepted streaming
//!    parameters plus an opaque resume token.
//! 2. `{"event":"fault", ...}` — each injected-fault occurrence, as the
//!    stepping loop crosses it.
//! 3. `{"event":"snapshot","tick":T,"report":{...}}` — at least every
//!    `snapshot_period_ticks` simulated ticks; the embedded report is the
//!    canonical serialization with `truncated: true` (the run is mid-way
//!    by definition).
//! 4. `{"event":"alert", ...}` — any client-declared [`alert
//!    rules`](crate::alerts) that fired at that snapshot, immediately
//!    after the snapshot line.
//! 5. `{"event":"done","reason":...,"report":{...}}` — terminal line:
//!    `completed` (workload finished), `truncated` (tick/wall budget),
//!    `draining` (server shutdown), or `shed` (evicted under session
//!    pressure). A completed session's final report is byte-identical to
//!    the stateless `/simulate` response body.
//!
//! Unlike PR 7, the connection thread only *admits* the session: it
//! parses, builds the engine, writes the stream head and `open` line, and
//! hands a [`SessionState`] to the [`mux`](crate::mux) — the fixed
//! `session_workers` pool owns all further stepping and writing, so open
//! sessions cost memory, not threads. The socket is non-blocking from the
//! handoff on: output is queued as whole encoded chunks in `pending` and
//! flushed opportunistically; a client that stops reading stalls its own
//! session (stepping is gated on an empty buffer) and is reaped once the
//! stall exceeds `session_write_stall`. There is no server-side buffering
//! of an unread stream beyond one round's lines.
//!
//! **Resume**: the `open` token keys a [`ResumeTable`] entry holding the
//! validated request. Because the engine is deterministic, `POST
//! /session/resume {token, last_tick}` just re-runs the same
//! configuration with output muted up to and including the acknowledged
//! snapshot; every line after it is byte-identical to the uninterrupted
//! stream. Entries outlive the session (success or reap) until
//! `resume_ttl`, so a client can even re-fetch a completed run's suffix.
//! The wall-clock budget is the one caveat: a `max_wall_ms` truncation is
//! not deterministic, so only tick-budgeted or unbudgeted sessions get
//! the byte-identity guarantee.

use crate::alerts::AlertEngine;
use crate::http::{
    chunk_bytes, write_chunk, write_chunked_head, write_response, HttpRequest, HttpResponse,
    LAST_CHUNK,
};
use crate::pool::build_session_engine;
use crate::proto::{
    parse_resume_request, parse_session_request, session_alert_json, session_done_json,
    session_fault_json, session_open_json, session_snapshot_json, ProtoError, SessionRequest,
};
use crate::server::{error_body, ServerState, RETRY_AFTER_DRAIN_SECS};
use crate::shard::{PoolUse, ShardState};
use crate::shutdown::ShutdownFlag;
use hbm_core::{Engine, FaultEvent, SimObserver, Tick};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Steps between slice-boundary checks, so a huge `snapshot_period_ticks`
/// cannot monopolize a mux worker or delay drain by more than a slice.
const POLL_SLICE_STEPS: u32 = 512;

/// Reschedule delay after a `WouldBlock` write — short enough that a
/// briefly-full socket buffer barely dents throughput, long enough not to
/// spin a worker against a stalled client.
const WRITE_RETRY: Duration = Duration::from_millis(10);

/// How long a terminal slice (drain/shed) keeps retrying the final flush
/// before giving up and reaping. Bounds drain time even when every client
/// has stopped reading.
const FINAL_FLUSH_GRACE: Duration = Duration::from_millis(100);

/// `Retry-After` hint on a 429 when the session gauge is full and no
/// paced victim could be shed.
const RETRY_AFTER_SESSIONS_SECS: u64 = 2;

/// Collects fault callbacks from the stepping loop for flushing as stream
/// lines between slices.
#[derive(Default)]
struct FaultTap {
    events: Vec<(Tick, FaultEvent)>,
}

impl SimObserver for FaultTap {
    fn on_fault(&mut self, tick: Tick, event: FaultEvent) {
        self.events.push((tick, event));
    }
}

/// Decrements the live-session gauge however the session ends. Owns the
/// server state because a [`SessionState`] outlives its connection thread.
struct SessionGuard {
    state: Arc<ServerState>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.state.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Maps resume tokens to their validated session requests. Bounded two
/// ways: entries expire `ttl` after minting, and beyond `capacity` the
/// oldest entry is evicted at the next mint. Tokens are *not*
/// cryptographically secure — they gate replay of a request the holder
/// already made, not any new capability.
pub(crate) struct ResumeTable {
    entries: Mutex<HashMap<String, ResumeEntry>>,
    nonce: AtomicU64,
    ttl: Duration,
    capacity: usize,
}

struct ResumeEntry {
    session: SessionRequest,
    created: Instant,
}

impl ResumeTable {
    pub(crate) fn new(ttl: Duration, capacity: usize) -> ResumeTable {
        ResumeTable {
            entries: Mutex::new(HashMap::new()),
            nonce: AtomicU64::new(0),
            ttl,
            capacity: capacity.max(1),
        }
    }

    /// Mints a token for `session` and registers it. The token is
    /// `config-hash ‖ seed ‖ nonce`: opaque to clients, self-describing
    /// in server logs.
    fn mint(&self, session: &SessionRequest) -> String {
        let mut h = DefaultHasher::new();
        session.sim.workload.cache_key().hash(&mut h);
        format!("{:?}", session.sim.settings).hash(&mut h);
        session.sim.p.hash(&mut h);
        session.snapshot_period.hash(&mut h);
        let token = format!(
            "{:016x}-{:016x}-{:08x}",
            h.finish(),
            session.sim.settings.seed,
            self.nonce.fetch_add(1, Ordering::Relaxed)
        );
        let now = Instant::now();
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|_, e| now.duration_since(e.created) < self.ttl);
        while entries.len() >= self.capacity {
            let oldest = entries
                .iter()
                .min_by_key(|(_, e)| e.created)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity table");
            entries.remove(&oldest);
        }
        entries.insert(
            token.clone(),
            ResumeEntry {
                session: session.clone(),
                created: now,
            },
        );
        token
    }

    /// Looks up a token, expiring it if past TTL. The entry stays
    /// registered on a hit so a client can resume repeatedly.
    fn lookup(&self, token: &str) -> Option<SessionRequest> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get(token) {
            Some(e) if e.created.elapsed() < self.ttl => Some(e.session.clone()),
            Some(_) => {
                entries.remove(token);
                None
            }
            None => None,
        }
    }
}

/// What a slice tells the mux to do next.
pub(crate) enum SliceOutcome {
    /// Re-queue the session; run the next slice at `wake_at`.
    Continue {
        /// The next wakeup deadline (pace boundary, write retry, or "now").
        wake_at: Instant,
    },
    /// The session ended (closed, reaped, drained, or shed); drop it.
    Finished,
}

/// How far a flush attempt got.
enum Flush {
    /// `pending` is empty.
    Drained,
    /// The socket buffer is full; bytes remain.
    Blocked,
    /// The client is gone (EOF or a hard error).
    Gone,
}

/// One streaming session as a state machine owned by the mux: engine,
/// socket, write buffer, alert state, and pacing deadline. All stepping
/// and writing happens inside [`run_slice`](Self::run_slice) on a mux
/// worker; the socket is non-blocking throughout.
pub(crate) struct SessionState {
    /// Mux-assigned id; monotonic, so larger = newer (shed order).
    pub(crate) id: u64,
    /// Current wakeup deadline; the matching heap entry's key. The mux
    /// treats a heap entry as live only while it equals this.
    pub(crate) wake_at: Instant,
    /// Set by the shed policy; the next slice emits `done`/`shed`.
    pub(crate) shed: bool,
    stream: TcpStream,
    engine: Engine,
    tap: FaultTap,
    alerts: AlertEngine,
    /// Encoded chunk bytes not yet accepted by the socket. Always whole
    /// lines — a client never observes a torn snapshot.
    pending: Vec<u8>,
    /// When the current uninterrupted write stall began.
    stall_since: Option<Instant>,
    write_stall: Duration,
    snapshot_period: u64,
    pace: Option<Duration>,
    /// Earliest time the next stepping round may start (pace boundary).
    next_step_at: Instant,
    /// Tick the current round runs to (next snapshot boundary).
    next_target: Tick,
    tick_cap: u64,
    max_wall: Option<Duration>,
    started: Instant,
    /// Resume replay mute: suppress output up to and including the
    /// snapshot at this tick (alert lines *at* that tick replay, since
    /// they follow the acknowledged snapshot line in the stream).
    mute_until: Option<Tick>,
    /// The `done` line (and last-chunk) has been queued.
    finished: bool,
    shard: Arc<ShardState>,
    _guard: SessionGuard,
}

impl SessionState {
    /// Whether this session paces between snapshot rounds (the shed
    /// policy's victim pool).
    pub(crate) fn paced(&self) -> bool {
        self.pace.is_some()
    }

    /// Runs one bounded slice: flush leftover bytes, step at most
    /// [`POLL_SLICE_STEPS`] engine steps toward the round target, queue
    /// any round-boundary lines, and flush again. Never blocks on the
    /// socket (terminal slices get a short bounded grace instead).
    pub(crate) fn run_slice(&mut self, draining: bool) -> SliceOutcome {
        if draining {
            let reason = if self.finished {
                None
            } else {
                Some("draining")
            };
            return self.finish_with(reason);
        }
        if self.shed && !self.finished {
            return self.finish_with(Some("shed"));
        }
        // Flush before stepping: output is gated on an empty buffer, so a
        // non-reading client stalls its own session instead of growing a
        // server-side queue.
        if !self.pending.is_empty() {
            match self.try_flush() {
                Flush::Drained => {}
                Flush::Blocked => return self.blocked_outcome(),
                Flush::Gone => return self.reap(),
            }
        }
        self.stall_since = None;
        if self.finished {
            self.shard
                .stats
                .sessions_closed
                .fetch_add(1, Ordering::Relaxed);
            return SliceOutcome::Finished;
        }
        if Instant::now() < self.next_step_at {
            // Woken early (shed probe or spurious); go back to sleep.
            return SliceOutcome::Continue {
                wake_at: self.next_step_at,
            };
        }
        self.step_round_slice();
        match self.try_flush() {
            Flush::Drained => {
                self.stall_since = None;
                if self.finished {
                    self.shard
                        .stats
                        .sessions_closed
                        .fetch_add(1, Ordering::Relaxed);
                    SliceOutcome::Finished
                } else {
                    SliceOutcome::Continue {
                        wake_at: self.next_step_at,
                    }
                }
            }
            Flush::Blocked => self.blocked_outcome(),
            Flush::Gone => self.reap(),
        }
    }

    /// Steps at most one slice of the current round and queues whatever
    /// lines the reached state calls for (faults, snapshot + alerts, or
    /// the terminal `done`).
    fn step_round_slice(&mut self) {
        let mut steps = 0u32;
        while !self.engine.is_done()
            && self.engine.tick() < self.next_target
            && self.engine.tick() < self.tick_cap
            && steps < POLL_SLICE_STEPS
        {
            self.engine.step(&mut self.tap);
            steps += 1;
        }
        let muted = self.mute_until.is_some();
        let events = std::mem::take(&mut self.tap.events);
        for (tick, event) in events {
            // Alert state always advances (replay must fire identically);
            // the line itself is mute-gated.
            self.alerts.observe_fault(tick, &event);
            if !muted {
                let line = session_fault_json(tick, &event);
                self.queue_line(&line);
            }
        }
        let done = self.engine.is_done();
        let capped = self.engine.tick() >= self.tick_cap;
        let over_wall = self
            .max_wall
            .is_some_and(|wall| self.started.elapsed() >= wall);
        if done || capped || over_wall {
            let reason = if done { "completed" } else { "truncated" };
            let report = self.engine.report_snapshot();
            let line = session_done_json(self.engine.tick(), reason, &report);
            self.queue_line(&line);
            self.pending.extend_from_slice(LAST_CHUNK);
            self.finished = true;
            return;
        }
        if self.engine.tick() >= self.next_target {
            let tick = self.engine.tick();
            let report = self.engine.report_snapshot();
            let fires = self.alerts.evaluate(tick, &report);
            let muted = match self.mute_until {
                Some(acked) if tick >= acked => {
                    // This is the acknowledged snapshot: suppress the
                    // line itself, replay everything after it (starting
                    // with its alert lines).
                    self.mute_until = None;
                    true
                }
                Some(_) => true,
                None => false,
            };
            if !muted {
                let line = session_snapshot_json(tick, &report);
                self.queue_line(&line);
            }
            if self.mute_until.is_none() {
                for fire in &fires {
                    let line = session_alert_json(fire);
                    self.queue_line(&line);
                }
                if !fires.is_empty() {
                    self.shard
                        .stats
                        .alerts
                        .fetch_add(fires.len() as u64, Ordering::Relaxed);
                }
            }
            self.next_target = tick.saturating_add(self.snapshot_period);
            if self.mute_until.is_none() {
                // Muted replay skips pacing: catch up to the client's
                // acknowledged position as fast as the engine steps.
                if let Some(pace) = self.pace {
                    self.next_step_at = Instant::now() + pace;
                }
            }
        }
    }

    /// Terminal slice for drain/shed: queue the `done` line (unless
    /// already queued), then retry the flush under a short grace before
    /// giving up. Only called between rounds, so the stream never ends on
    /// a torn line.
    fn finish_with(&mut self, reason: Option<&str>) -> SliceOutcome {
        if let Some(reason) = reason {
            if reason == "shed" {
                self.shard
                    .stats
                    .sessions_shed
                    .fetch_add(1, Ordering::Relaxed);
            }
            let report = self.engine.report_snapshot();
            let line = session_done_json(self.engine.tick(), reason, &report);
            self.queue_line(&line);
            self.pending.extend_from_slice(LAST_CHUNK);
            self.finished = true;
        }
        let deadline = Instant::now() + FINAL_FLUSH_GRACE;
        loop {
            match self.try_flush() {
                Flush::Drained => {
                    self.shard
                        .stats
                        .sessions_closed
                        .fetch_add(1, Ordering::Relaxed);
                    return SliceOutcome::Finished;
                }
                Flush::Gone => return self.reap(),
                Flush::Blocked => {
                    if Instant::now() >= deadline {
                        return self.reap();
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    fn blocked_outcome(&mut self) -> SliceOutcome {
        let now = Instant::now();
        let since = *self.stall_since.get_or_insert(now);
        if now.duration_since(since) >= self.write_stall {
            return self.reap();
        }
        SliceOutcome::Continue {
            wake_at: now + WRITE_RETRY,
        }
    }

    fn reap(&mut self) -> SliceOutcome {
        self.shard
            .stats
            .sessions_reaped
            .fetch_add(1, Ordering::Relaxed);
        SliceOutcome::Finished
    }

    /// Appends one JSONL line to `pending` as an encoded chunk.
    fn queue_line(&mut self, line: &str) {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.pending.extend_from_slice(&chunk_bytes(&bytes));
    }

    /// Writes as much of `pending` as the socket accepts right now.
    fn try_flush(&mut self) -> Flush {
        let mut written = 0usize;
        let result = loop {
            if written == self.pending.len() {
                break Flush::Drained;
            }
            match self.stream.write(&self.pending[written..]) {
                Ok(0) => break Flush::Gone,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Flush::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break Flush::Gone,
            }
        };
        if written > 0 {
            self.pending.drain(..written);
        }
        result
    }
}

/// Admits one streaming session, consuming the connection: parse,
/// register a resume token, and hand off to the mux.
pub(crate) fn serve_session(
    mut stream: TcpStream,
    req: &HttpRequest,
    state: &Arc<ServerState>,
    shard: &Arc<ShardState>,
    flag: &ShutdownFlag,
) {
    shard.stats.requests.fetch_add(1, Ordering::Relaxed);
    let session = match parse_session_request(&req.body, &state.config.json_limits) {
        Ok(session) => session,
        Err(e) => {
            reject_proto(&mut stream, shard, &e);
            return;
        }
    };
    if flag.is_set() {
        reject_draining(&mut stream, shard);
        return;
    }
    let token = state.resume.mint(&session);
    start_stream(stream, session, token, None, state, shard);
}

/// Reattaches a dropped client to its session via the resume token,
/// consuming the connection. Determinism does the heavy lifting: the
/// stored request is simply re-run with output muted through the
/// acknowledged snapshot.
pub(crate) fn serve_resume(
    mut stream: TcpStream,
    req: &HttpRequest,
    state: &Arc<ServerState>,
    shard: &Arc<ShardState>,
    flag: &ShutdownFlag,
) {
    shard.stats.requests.fetch_add(1, Ordering::Relaxed);
    let resume = match parse_resume_request(&req.body, &state.config.json_limits) {
        Ok(resume) => resume,
        Err(e) => {
            reject_proto(&mut stream, shard, &e);
            return;
        }
    };
    if flag.is_set() {
        reject_draining(&mut stream, shard);
        return;
    }
    let Some(session) = state.resume.lookup(&resume.token) else {
        shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        let resp = HttpResponse {
            close: true,
            ..HttpResponse::json(410, error_body("unknown or expired resume token"))
        };
        let _ = write_response(&mut stream, &resp);
        return;
    };
    let from = resume.last_tick.unwrap_or(0);
    start_stream(stream, session, resume.token, Some(from), state, shard);
}

/// Shared tail of `/session` and `/session/resume`: admission against the
/// session gauge (shedding the newest paced session under pressure),
/// engine construction, stream head + `open` line, then mux handoff.
fn start_stream(
    mut stream: TcpStream,
    session: SessionRequest,
    token: String,
    resumed_from: Option<u64>,
    state: &Arc<ServerState>,
    shard: &Arc<ShardState>,
) {
    // Session admission is a global gauge: the mux pool and its memory
    // are shared, so the cap protects the same resource on every shard.
    let prior = state.active_sessions.fetch_add(1, Ordering::Relaxed);
    let guard = SessionGuard {
        state: Arc::clone(state),
    };
    if prior >= state.config.max_sessions {
        // Graceful degradation: evict the newest paced session (it has
        // the least sunk work and a resume token to come back with)
        // rather than turning away fresh demand. The gauge may briefly
        // overshoot while the victim writes its `shed` line.
        if !state.mux.shed_newest_paced() {
            shard.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let resp = HttpResponse {
                close: true,
                ..HttpResponse::json(429, error_body("session limit reached; retry later"))
                    .with_retry_after(RETRY_AFTER_SESSIONS_SECS)
            };
            let _ = write_response(&mut stream, &resp);
            return;
        }
    }

    let budget = session.sim.budget.min(state.config.budget_ceiling);
    let (pool, was_warm) =
        shard
            .registry
            .get(&session.sim.workload, session.sim.p, PoolUse::Engine);
    if was_warm {
        shard.stats.warm_runs.fetch_add(1, Ordering::Relaxed);
    } else {
        shard.stats.cold_runs.fetch_add(1, Ordering::Relaxed);
    }
    let flat = pool.flat(session.sim.p);
    let (engine, tick_cap) = match build_session_engine(&flat, &session.sim.settings, budget) {
        Ok(built) => built,
        Err(e) => {
            shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            let resp = HttpResponse {
                close: true,
                ..HttpResponse::json(400, error_body(&format!("invalid configuration: {e}")))
            };
            let _ = write_response(&mut stream, &resp);
            return;
        }
    };

    // Head and `open` line go out blocking (under the write-stall
    // timeout) on the connection thread; everything after is the mux's.
    let reap = || {
        shard.stats.sessions_reaped.fetch_add(1, Ordering::Relaxed);
    };
    let _ = stream.set_write_timeout(Some(state.config.session_write_stall));
    if write_chunked_head(&mut stream, 200, "application/jsonl").is_err() {
        reap();
        return;
    }
    shard.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    if resumed_from.is_some() {
        shard.stats.sessions_resumed.fetch_add(1, Ordering::Relaxed);
    }
    let open = session_open_json(session.sim.p, session.snapshot_period, &token, resumed_from);
    let mut open_line = Vec::with_capacity(open.len() + 1);
    open_line.extend_from_slice(open.as_bytes());
    open_line.push(b'\n');
    if write_chunk(&mut stream, &open_line).is_err() || stream.set_nonblocking(true).is_err() {
        reap();
        return;
    }

    let now = Instant::now();
    let first_target = engine.tick().saturating_add(session.snapshot_period);
    state.mux.submit(SessionState {
        id: 0, // assigned by the mux
        wake_at: now,
        shed: false,
        stream,
        engine,
        tap: FaultTap::default(),
        alerts: AlertEngine::new(session.alerts.clone(), session.sim.p),
        pending: Vec::new(),
        stall_since: None,
        write_stall: state.config.session_write_stall,
        snapshot_period: session.snapshot_period,
        pace: session.pace,
        next_step_at: now,
        next_target: first_target,
        tick_cap,
        max_wall: budget.max_wall,
        started: now,
        // `last_tick: 0` means "nothing acknowledged": replay in full.
        mute_until: resumed_from.filter(|&t| t > 0),
        finished: false,
        shard: Arc::clone(shard),
        _guard: guard,
    });
}

fn reject_proto(stream: &mut TcpStream, shard: &ShardState, e: &ProtoError) {
    shard.stats.client_errors.fetch_add(1, Ordering::Relaxed);
    let status = match e {
        ProtoError::TooLarge { .. } => 413,
        _ => 400,
    };
    let resp = HttpResponse {
        close: true,
        ..HttpResponse::json(status, error_body(&e.to_string()))
    };
    let _ = write_response(stream, &resp);
}

fn reject_draining(stream: &mut TcpStream, shard: &ShardState) {
    shard.stats.shed.fetch_add(1, Ordering::Relaxed);
    let resp = HttpResponse {
        close: true,
        ..HttpResponse::json(503, error_body("server is draining"))
            .with_retry_after(RETRY_AFTER_DRAIN_SECS)
    };
    let _ = write_response(stream, &resp);
}
