//! `serve_bench` — the load generator behind `BENCH_7.json`.
//!
//! Drives an `hbm-serve` instance over real TCP with concurrent clients
//! across a (shards × clients) grid and records sustained requests/sec,
//! the latency distribution, and the per-shard request distribution (see
//! `hbm_bench::serve_doc` for the document schema):
//!
//! ```text
//! cargo run --release -p hbm-bench --bin serve_bench -- --out BENCH_7.json
//! ```
//!
//! Flags:
//! - `--addr HOST:PORT`: target an already-running server (the CI smoke
//!   jobs start the real `hbm-serve` binary and point this flag at it).
//!   Without it, an in-process [`Server`] is spun up on an ephemeral port
//!   *per shard count* and torn down afterwards — same code path as the
//!   binary, no process management needed. `--addr` pins the shard axis
//!   to a single value (the external server's topology is fixed).
//! - `--shards LIST`: comma-separated shard counts, one server topology
//!   each (default `1,4` — the ISSUE's pinned scaling grid). Each shard
//!   runs `--workers` worker threads, so the shard count is the only
//!   scaled variable.
//! - `--clients LIST`: comma-separated concurrent-client counts, one load
//!   point per (shards, clients) cell (default `1,8`). Every request of
//!   these gated points carries a fresh policy `seed`, so the server's
//!   response memo never answers it and each costs an engine run. Each
//!   topology also gets one repeated-body point at the highest client
//!   count: one body over and over, answered from the memo. It is
//!   recorded under `repeated_body` and never gated.
//! - `--duration SECS`: measurement window per load point (default 2.0)
//! - `--workers N`: worker threads **per shard** (default 1, so the grid
//!   holds per-shard capacity fixed while scaling shard count)
//! - `--coalesce-us US`: enable request coalescing with this window on
//!   the in-process servers
//! - `--out FILE`: write the JSON document (default `BENCH_7.json`)
//! - `--check BASELINE.json`: gate against a baseline via
//!   `serve_doc::check_throughput_floor` (calibration-normalized)
//! - `--tolerance FRAC`: allowed req/s drop for `--check` (default 0.25)
//! - `--check-scaling RATIO`: self-relative gate via
//!   `serve_doc::check_scaling` — multi-shard throughput must exceed
//!   RATIO × single-shard at the highest common client count. Skipped
//!   (informationally) when the host has fewer cores than shards.
//!
//! Session mode (`--sessions N`) switches the binary from load generation
//! to streaming-session verification: N concurrent `POST /session`
//! streams are opened and read to completion as chunked JSONL, with
//! optional assertions for the CI session-smoke job:
//! - `--assert-snapshots M`: every session must stream ≥ M snapshots
//! - `--assert-fault`: every session must stream ≥ 1 fault event
//! - `--session-pace-ms MS`: ask the server to pace snapshots (long-lived
//!   sessions for drain testing)
//! - `--expect-drain`: expect the terminal reason `draining` (for the
//!   SIGTERM-mid-session CI step) instead of `completed`
//!
//! Hostile mode (`--hostile`) turns the binary into a chaos harness: for
//! `--hostile-secs` seconds it runs slow-writers (request heads trickled a
//! few bytes at a time, then abandoned), mid-body disconnectors (complete
//! head, half a body, hard close), and never-read clients (a paced
//! streaming session opened and never read, so the server's chunk writes
//! back up until the write-stall reap) — alongside well-behaved probes.
//! Every probe, and the `/simulate` sent after the abuse, carries a fresh
//! policy `seed`, so each is an engine run on the worker pool, never a
//! memoized answer. Afterwards it asserts the server still answers
//! `GET /healthz` and that `/simulate`, that the healthy probes got
//! answers *during* the abuse, and — given `--server-pid PID` (or
//! implicitly, against an in-process server) — that the server's OS
//! thread and FD counts settle back to their pre-abuse baseline: hostile
//! clients must cost bounded, reclaimed resources, never leaked threads
//! or sockets.
//!
//! Every load-generation run also: (a) byte-compares one served report
//! against a direct `SimBuilder` run (`golden_match` in the document — a
//! correctness gate, not a speed one); (b) measures the warm-vs-cold
//! setup delta by timing a first request on a never-seen workload seed
//! against the median of warm-pool runs (each with its own policy seed);
//! (c) reads `simulate_memo_hits` from `/healthz` around every point.
//! That counter is server-wide, so with `--addr` the memo check below
//! needs a server no other client is using during the run: another
//! client's repeated bodies would count as hits in a gated point, and
//! the failure message says so.
//!
//! Exit status: 0 on success, 1 on a golden mismatch, a failed gate, a
//! gated point with a memo hit, a repeated-body point without one, or a
//! failed session assertion, so CI can gate directly on this binary.

use hbm_bench::harness::calibration_score;
use hbm_bench::serve_doc::{
    check_scaling, check_throughput_floor, percentile, render_json, summarize, LoadPoint,
    ScalingVerdict, WarmVsCold,
};
use hbm_core::{ArbitrationKind, SimBuilder};
use hbm_serve::http::{read_response, read_response_head, write_request, ChunkedLines};
use hbm_serve::json::Json;
use hbm_serve::proto::report_to_json;
use hbm_serve::server::{Server, ServerConfig};
use hbm_serve::shutdown::ShutdownFlag;
use hbm_traces::{TraceOptions, WorkloadSpec};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant, SystemTime};

/// The steady-state request every client loops on: a real (if small)
/// simulation of the workload with trace seed `trace_seed`, under policy
/// seed `seed`. The server memoizes complete responses, so only a body it
/// has not answered yet costs an engine run: gated load points give every
/// request a fresh policy seed.
fn load_body(trace_seed: u64, seed: u64) -> String {
    format!(
        r#"{{"workload": {{"kind": "cyclic", "pages": 64, "reps": 8, "seed": {trace_seed}}}, "p": 8, "k": 48, "q": 2, "arbitration": "priority", "seed": {seed}}}"#
    )
}

/// The trace seed of the load workload, which every load point keeps warm.
const LOAD_TRACE_SEED: u64 = 3;

/// The policy seed of the repeated body: the ungated repeated-body
/// points and the hostile mode's torn bodies send
/// `load_body(LOAD_TRACE_SEED, REPEATED_SEED)`, which the server answers
/// from its memo after the first time.
const REPEATED_SEED: u64 = 11;

/// Policy seeds for requests that must cost an engine run: the gated load
/// points, the hostile mode's healthy probes and its post-abuse
/// `/simulate`. `main` starts it from the clock and every request takes
/// the next value ([`fresh_seed`]), so no two of them share a body —
/// across clients, load points, topologies, or reruns against one
/// long-running `--addr` server — and none is answered from the memo.
static NEXT_SEED: AtomicU64 = AtomicU64::new(0);

/// The next policy seed from [`NEXT_SEED`].
fn fresh_seed() -> u64 {
    NEXT_SEED.fetch_add(1, Ordering::Relaxed)
}

/// A seed no earlier run has used: the clock in nanoseconds mixed with
/// the process id.
fn unique_seed() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (u64::from(std::process::id()) << 32)
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--addr HOST:PORT] [--shards LIST] [--clients LIST]\n\
         \x20                 [--duration SECS] [--workers N] [--coalesce-us US]\n\
         \x20                 [--out FILE] [--check BASELINE.json] [--tolerance FRAC]\n\
         \x20                 [--check-scaling RATIO]\n\
         \x20      serve_bench --sessions N [--addr HOST:PORT] [--assert-snapshots M]\n\
         \x20                 [--assert-fault] [--session-pace-ms MS] [--expect-drain]\n\
         \x20      serve_bench --hostile [--addr HOST:PORT] [--hostile-secs S]\n\
         \x20                 [--server-pid PID]"
    );
    std::process::exit(1);
}

/// One client connection that knows how to re-dial: the server closes
/// keep-alive sockets on drain and idle timeouts, and a load generator
/// must ride through that rather than die.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// One request/response exchange; reconnects on any transport error
    /// and reports it as `Err` so the caller can count it.
    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let stream =
                TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("just connected");
        let deadline = Instant::now() + Duration::from_secs(30);
        let result = write_request(stream, method, path, body)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream, deadline).map_err(|e| format!("read: {e}")));
        if result.is_err() {
            // Drop the broken socket; the next roundtrip re-dials.
            self.stream = None;
        }
        result
    }
}

/// The exact bytes the server must serve for the golden request, computed
/// through the plain `SimBuilder` path — same oracle as the integration
/// tests, re-checked here under load conditions.
fn golden_expected() -> (String, String) {
    let body = r#"{"workload": {"kind": "cyclic", "pages": 32, "reps": 4, "seed": 9}, "p": 4, "k": 24, "q": 2, "arbitration": "priority", "seed": 7}"#;
    let spec = WorkloadSpec::Cyclic { pages: 32, reps: 4 };
    let workload = spec.workload(4, 9, TraceOptions::default());
    let report = SimBuilder::new()
        .hbm_slots(24)
        .channels(2)
        .arbitration(ArbitrationKind::Priority)
        .seed(7)
        .run(&workload);
    (body.to_string(), report_to_json(&report))
}

/// Times the first request on a never-before-seen workload seed (cold
/// pool: trace generation + flatten on the request path) against the
/// median of warm-pool runs of the same workload. Each warm run has its
/// own policy seed, so it is an engine run, not a memoized answer.
fn measure_warm_vs_cold(addr: SocketAddr) -> Result<WarmVsCold, String> {
    // A seed no other run has used, so the pool is cold even against a
    // long-running external server.
    let unique = unique_seed();
    let body = |seed: u64| load_body(unique, seed);
    let mut client = Client::new(addr);
    let t0 = Instant::now();
    let (status, _) = client.roundtrip("POST", "/simulate", body(REPEATED_SEED).as_bytes())?;
    let cold = t0.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("cold probe got {status}"));
    }
    let mut warm = Vec::with_capacity(20);
    for seed in 0..20 {
        let body = body(REPEATED_SEED + 1 + seed);
        let t0 = Instant::now();
        let (status, _) = client.roundtrip("POST", "/simulate", body.as_bytes())?;
        if status != 200 {
            return Err(format!("warm probe got {status}"));
        }
        warm.push(t0.elapsed().as_secs_f64());
    }
    let warm_median = percentile(&warm, 0.50).max(1e-9);
    Ok(WarmVsCold {
        cold_first_seconds: cold,
        warm_median_seconds: warm_median,
        cold_over_warm: cold / warm_median,
    })
}

/// Cumulative counters sampled from `/healthz`.
struct Health {
    /// Per-shard `requests`; `None` when the `shards` array is
    /// unavailable (old servers), in which case the distribution is
    /// simply not recorded.
    per_shard_requests: Option<Vec<u64>>,
    /// `simulate_memo_hits`; `None` on servers without a response memo.
    memo_hits: Option<u64>,
}

/// Samples the server's counters. `None` when `/healthz` is unavailable.
fn health(addr: SocketAddr) -> Option<Health> {
    let (status, body) = Client::new(addr).roundtrip("GET", "/healthz", b"").ok()?;
    if status != 200 {
        return None;
    }
    let health = Json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    let per_shard_requests = health
        .get("shards")
        .and_then(Json::as_array)
        .and_then(|shards| {
            shards
                .iter()
                .map(|s| s.get("requests").and_then(Json::as_u64))
                .collect()
        });
    Some(Health {
        per_shard_requests,
        memo_hits: health.get("simulate_memo_hits").and_then(Json::as_u64),
    })
}

/// Runs one load point: `clients` connections hammering `/simulate` for
/// `duration`, all released together by a barrier so the window measures
/// steady-state concurrency, not ramp-up. A gated point (`repeated`
/// false) sends every request with a fresh policy seed, so each costs an
/// engine run; a repeated-body point sends the repeated body throughout.
/// The per-shard distribution and the memo hits are `/healthz` counter
/// deltas across the window.
fn run_load_point(
    addr: SocketAddr,
    shards: usize,
    clients: usize,
    duration: Duration,
    repeated: bool,
) -> LoadPoint {
    let before = health(addr);
    let barrier = Arc::new(Barrier::new(clients + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut latencies = Vec::new();
                let mut errors = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let seed = if repeated {
                        REPEATED_SEED
                    } else {
                        fresh_seed()
                    };
                    let body = load_body(LOAD_TRACE_SEED, seed);
                    let t0 = Instant::now();
                    match client.roundtrip("POST", "/simulate", body.as_bytes()) {
                        Ok((200, _)) => latencies.push(t0.elapsed().as_secs_f64()),
                        Ok(_) | Err(_) => errors += 1,
                    }
                }
                (latencies, errors)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (lat, err) = h.join().expect("client thread");
        latencies.extend(lat);
        errors += err;
    }
    // Wall time includes the stragglers' final in-flight requests — the
    // honest denominator for the completed-request count.
    let mut point = summarize(
        shards,
        clients,
        &latencies,
        errors,
        t0.elapsed().as_secs_f64(),
    );
    if let (Some(before), Some(after)) = (before, health(addr)) {
        if let (Some(b), Some(a)) = (&before.per_shard_requests, &after.per_shard_requests) {
            if b.len() == a.len() {
                point.per_shard_requests =
                    a.iter().zip(b).map(|(a, b)| a.saturating_sub(*b)).collect();
            }
        }
        if let (Some(b), Some(a)) = (before.memo_hits, after.memo_hits) {
            point.memo_hits = a.saturating_sub(b);
        }
    }
    point
}

/// A running in-process server and the handles to drain it.
struct LocalServer {
    addr: SocketAddr,
    flag: ShutdownFlag,
    handle: std::thread::JoinHandle<std::io::Result<hbm_serve::server::ServerStats>>,
}

fn start_local(shards: usize, workers: usize, coalesce: Option<Duration>) -> LocalServer {
    let config = ServerConfig {
        shards,
        workers,
        coalesce_window: coalesce,
        ..ServerConfig::default()
    };
    let flag = ShutdownFlag::new();
    let server = Server::bind("127.0.0.1:0", config).unwrap_or_else(|e| {
        eprintln!("error: bind: {e}");
        std::process::exit(1)
    });
    let addr = server.local_addr().expect("ephemeral local addr");
    let run_flag = flag.clone();
    let handle = std::thread::spawn(move || server.run(&run_flag));
    LocalServer { addr, flag, handle }
}

impl LocalServer {
    fn stop(self) {
        self.flag.trip();
        match self.handle.join() {
            Ok(Ok(stats)) => eprintln!(
                "in-process server drained: {} requests ({} ok, {} batches)",
                stats.requests, stats.ok, stats.batches
            ),
            Ok(Err(e)) => eprintln!("in-process server error: {e}"),
            Err(_) => eprintln!("in-process server panicked"),
        }
    }
}

/// The streaming session the verification mode opens: a fault-injected
/// workload long enough for several snapshot periods.
fn session_body(pace_ms: Option<u64>) -> String {
    let pace = pace_ms.map_or(String::new(), |ms| format!(", \"pace_ms\": {ms}"));
    format!(
        r#"{{"workload": {{"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1}},
            "p": 8, "k": 16, "arbitration": "fifo",
            "faults": {{"outages": [{{"start": 10, "end": 20, "channels": 1}}]}},
            "snapshot_period_ticks": 64{pace}}}"#
    )
}

/// Tallies from one streamed session.
struct SessionOutcome {
    lines: usize,
    snapshots: usize,
    faults: usize,
    reason: String,
}

/// Opens one session and reads the JSONL stream to its terminal line.
fn run_one_session(addr: SocketAddr, body: &str) -> Result<SessionOutcome, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    write_request(&mut stream, "POST", "/session", body.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let (head, leftover) =
        read_response_head(&mut stream, deadline).map_err(|e| format!("head: {e}"))?;
    if head.status != 200 {
        return Err(format!("session open got {}", head.status));
    }
    if !head.chunked {
        return Err("session response was not chunked".into());
    }
    let mut lines = ChunkedLines::new(leftover);
    let mut outcome = SessionOutcome {
        lines: 0,
        snapshots: 0,
        faults: 0,
        reason: String::new(),
    };
    while let Some(line) = lines
        .next_line(&mut stream, deadline)
        .map_err(|e| format!("stream: {e}"))?
    {
        if line.is_empty() {
            continue;
        }
        let text = std::str::from_utf8(&line).map_err(|_| "non-utf8 stream line".to_string())?;
        let v = Json::parse(text).map_err(|e| format!("invalid JSONL line: {e} in {text}"))?;
        outcome.lines += 1;
        match v.get("event").and_then(Json::as_str) {
            // Alert-rule firings ride along with snapshots when the body
            // configures rules; the verifier tolerates them either way.
            Some("open") | Some("alert") => {}
            Some("snapshot") => outcome.snapshots += 1,
            Some("fault") => outcome.faults += 1,
            Some("done") => {
                outcome.reason = v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
            }
            other => return Err(format!("unknown event {other:?} in {text}")),
        }
    }
    if outcome.reason.is_empty() {
        return Err("stream ended without a terminal done line".into());
    }
    Ok(outcome)
}

/// Session-verification mode: N concurrent streams, assertions, exit code.
fn run_sessions(
    addr: SocketAddr,
    sessions: usize,
    assert_snapshots: Option<usize>,
    assert_fault: bool,
    pace_ms: Option<u64>,
    expect_drain: bool,
) -> bool {
    let body = session_body(pace_ms);
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            let body = body.clone();
            std::thread::spawn(move || (i, run_one_session(addr, &body)))
        })
        .collect();
    let expected_reason = if expect_drain {
        "draining"
    } else {
        "completed"
    };
    let mut ok = true;
    for h in handles {
        let (i, outcome) = h.join().expect("session thread");
        match outcome {
            Ok(o) => {
                eprintln!(
                    "session {i}: {} lines ({} snapshots, {} faults), reason={}",
                    o.lines, o.snapshots, o.faults, o.reason
                );
                if let Some(min) = assert_snapshots {
                    if o.snapshots < min {
                        eprintln!("session {i}: FAIL expected >= {min} snapshots");
                        ok = false;
                    }
                }
                if assert_fault && o.faults == 0 {
                    eprintln!("session {i}: FAIL expected at least one fault event");
                    ok = false;
                }
                if o.reason != expected_reason {
                    eprintln!("session {i}: FAIL expected reason {expected_reason}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("session {i}: FAIL {e}");
                ok = false;
            }
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// Hostile-client chaos mode (`--hostile`)
// ---------------------------------------------------------------------------

/// OS thread count of `pid` from `/proc` (`None` off Linux, or when the
/// process is gone — leak checks are then skipped, not failed).
fn proc_threads(pid: u32) -> Option<usize> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Open file-descriptor count of `pid` from `/proc`.
fn proc_fds(pid: u32) -> Option<usize> {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .ok()
        .map(|d| d.count())
}

/// Slowloris: trickles a request head a few bytes at a time, then abandons
/// the connection mid-head and dials again. The server must either time
/// the read out (408) or notice the close — and reclaim the connection
/// either way. Returns the number of abandoned connections.
fn slow_writer(addr: SocketAddr, deadline: Instant) -> u64 {
    use std::io::Write;
    let head: &[u8] =
        b"POST /simulate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: 512\r\n";
    let mut cycles = 0u64;
    while Instant::now() < deadline {
        let Ok(mut s) = TcpStream::connect(addr) else {
            break;
        };
        for chunk in head.chunks(7) {
            if Instant::now() >= deadline || s.write_all(chunk).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        cycles += 1; // socket dropped mid-head
    }
    cycles
}

/// Sends a complete head promising a JSON body, half of the body, then
/// hard-closes — over and over. The server's reader must see the EOF
/// inside the body immediately (no request-timeout wait) and free the
/// connection slot. Returns the number of torn requests.
fn mid_body_disconnector(addr: SocketAddr, deadline: Instant) -> u64 {
    use std::io::Write;
    let body = load_body(LOAD_TRACE_SEED, REPEATED_SEED);
    let body = body.as_bytes();
    let head = format!(
        "POST /simulate HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let mut cycles = 0u64;
    while Instant::now() < deadline {
        let Ok(mut s) = TcpStream::connect(addr) else {
            break;
        };
        let _ = s
            .write_all(head.as_bytes())
            .and_then(|()| s.write_all(&body[..body.len() / 2]));
        drop(s); // EOF mid-body
        cycles += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    cycles
}

/// Opens a long-lived paced streaming session and never reads a byte of
/// it: the server's chunk writes back up in the socket buffers (or hit
/// the write-stall bound), and the drop at the end of the window forces a
/// reap. The mux workers must keep serving everyone else throughout.
fn never_reader(addr: SocketAddr, deadline: Instant) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let body = r#"{"workload": {"kind": "cyclic", "pages": 64, "reps": 2000, "seed": 5},
        "p": 8, "k": 16, "arbitration": "fifo",
        "snapshot_period_ticks": 64, "pace_ms": 100}"#;
    if write_request(&mut s, "POST", "/session", body.as_bytes()).is_err() {
        return false;
    }
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    true // dropping the unread socket now forces the reap
}

/// A well-behaved client running alongside the abuse — the service level
/// the hostile mix must not destroy. Every probe has a fresh policy seed,
/// so each is an engine run through the worker pool, never a memo hit.
/// Returns `(ok, other)` counts.
fn healthy_prober(addr: SocketAddr, deadline: Instant) -> (u64, u64) {
    let mut client = Client::new(addr);
    let (mut ok, mut other) = (0u64, 0u64);
    while Instant::now() < deadline {
        let body = load_body(LOAD_TRACE_SEED, fresh_seed());
        match client.roundtrip("POST", "/simulate", body.as_bytes()) {
            Ok((200, _)) => ok += 1,
            Ok(_) | Err(_) => other += 1,
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    (ok, other)
}

/// Polls `read` until the count settles back to `baseline + slack`, or
/// fails after 15s. The settle window covers write-stall reaps (5s
/// default) and connection-thread teardown.
fn settles_back(
    what: &str,
    baseline: usize,
    slack: usize,
    read: impl Fn() -> Option<usize>,
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last;
    loop {
        last = read();
        match last {
            Some(now) if now <= baseline + slack => {
                eprintln!("hostile: {what} settled at {now} (baseline {baseline})");
                return true;
            }
            None => {
                eprintln!("hostile: {what} unreadable (no /proc?), leak check skipped");
                return true;
            }
            _ if Instant::now() >= deadline => break,
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
    eprintln!(
        "hostile: FAIL {what} leak: baseline {baseline} (+{slack} slack), still {last:?} after 15s"
    );
    false
}

/// Hostile mode: run the chaos mix for `secs`, then require the server to
/// still be fully serviceable with no thread/FD leak.
fn run_hostile(addr: SocketAddr, secs: f64, server_pid: Option<u32>) -> bool {
    const SLOW: usize = 6;
    const DISCONNECT: usize = 6;
    const NEVER_READ: usize = 4;
    const HEALTHY: usize = 2;

    let baseline_threads = server_pid.and_then(proc_threads);
    let baseline_fds = server_pid.and_then(proc_fds);
    eprintln!(
        "hostile: {SLOW} slow-writers + {DISCONNECT} disconnectors + {NEVER_READ} never-readers \
         + {HEALTHY} healthy probes for {secs:.1}s against {addr} \
         (baseline threads {baseline_threads:?}, fds {baseline_fds:?})"
    );
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let slow: Vec<_> = (0..SLOW)
        .map(|_| std::thread::spawn(move || slow_writer(addr, deadline)))
        .collect();
    let disc: Vec<_> = (0..DISCONNECT)
        .map(|_| std::thread::spawn(move || mid_body_disconnector(addr, deadline)))
        .collect();
    let never: Vec<_> = (0..NEVER_READ)
        .map(|_| std::thread::spawn(move || never_reader(addr, deadline)))
        .collect();
    let healthy: Vec<_> = (0..HEALTHY)
        .map(|_| std::thread::spawn(move || healthy_prober(addr, deadline)))
        .collect();

    let slow_cycles: u64 = slow.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let torn: u64 = disc.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let opened: usize = never
        .into_iter()
        .map(|h| matches!(h.join(), Ok(true)))
        .filter(|&opened| opened)
        .count();
    let (mut probe_ok, mut probe_other) = (0u64, 0u64);
    for h in healthy {
        let (ok, other) = h.join().unwrap_or((0, 0));
        probe_ok += ok;
        probe_other += other;
    }
    eprintln!(
        "hostile: mix done ({slow_cycles} slowloris heads, {torn} torn bodies, \
         {opened}/{NEVER_READ} never-read sessions, probes {probe_ok} ok / {probe_other} other)"
    );

    let mut ok = true;
    if probe_ok == 0 {
        eprintln!("hostile: FAIL healthy probes got zero 200s during the abuse");
        ok = false;
    }

    // The server must still answer health checks and do real work: the
    // /simulate below has a fresh policy seed, so it runs the engine.
    match Client::new(addr).roundtrip("GET", "/healthz", b"") {
        Ok((200, body)) => {
            let text = String::from_utf8_lossy(&body).into_owned();
            match Json::parse(&text) {
                Ok(health) => {
                    let field = |k: &str| health.get(k).and_then(Json::as_u64).unwrap_or(0);
                    eprintln!(
                        "hostile: healthz ok (sessions {} opened / {} closed / {} reaped; \
                         {} client errors, active_sessions {})",
                        field("sessions_opened"),
                        field("sessions_closed"),
                        field("sessions_reaped"),
                        field("client_errors"),
                        field("active_sessions"),
                    );
                }
                Err(e) => {
                    eprintln!("hostile: FAIL healthz body unparseable: {e}");
                    ok = false;
                }
            }
        }
        Ok((status, _)) => {
            eprintln!("hostile: FAIL healthz got {status} after the mix");
            ok = false;
        }
        Err(e) => {
            eprintln!("hostile: FAIL healthz unreachable after the mix: {e}");
            ok = false;
        }
    }
    match Client::new(addr).roundtrip(
        "POST",
        "/simulate",
        load_body(LOAD_TRACE_SEED, fresh_seed()).as_bytes(),
    ) {
        Ok((200, _)) => eprintln!("hostile: post-abuse /simulate ok"),
        Ok((status, _)) => {
            eprintln!("hostile: FAIL post-abuse /simulate got {status}");
            ok = false;
        }
        Err(e) => {
            eprintln!("hostile: FAIL post-abuse /simulate: {e}");
            ok = false;
        }
    }

    // No leaked threads or sockets: counts must settle back to baseline.
    // Thread slack 2 covers a transient keep-alive of our own probes;
    // FD slack 8 covers /proc readdir raciness and late socket teardown.
    if let (Some(pid), Some(threads)) = (server_pid, baseline_threads) {
        ok &= settles_back("server threads", threads, 2, || proc_threads(pid));
    }
    if let (Some(pid), Some(fds)) = (server_pid, baseline_fds) {
        ok &= settles_back("server fds", fds, 8, || proc_fds(pid));
    }
    ok
}

fn main() {
    let mut addr_arg: Option<String> = None;
    let mut shards_arg = String::from("1,4");
    let mut clients_arg = String::from("1,8");
    let mut duration = 2.0f64;
    let mut workers = 1usize;
    let mut coalesce: Option<Duration> = None;
    let mut out_path = String::from("BENCH_7.json");
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut scaling_ratio: Option<f64> = None;
    let mut sessions: Option<usize> = None;
    let mut assert_snapshots: Option<usize> = None;
    let mut assert_fault = false;
    let mut session_pace_ms: Option<u64> = None;
    let mut expect_drain = false;
    let mut hostile = false;
    let mut hostile_secs = 8.0f64;
    let mut server_pid: Option<u32> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => addr_arg = Some(val(&mut args)),
            "--shards" => shards_arg = val(&mut args),
            "--clients" => clients_arg = val(&mut args),
            "--duration" => duration = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--coalesce-us" => {
                coalesce = Some(Duration::from_micros(
                    val(&mut args).parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--out" => out_path = val(&mut args),
            "--check" => check_path = Some(val(&mut args)),
            "--tolerance" => tolerance = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--check-scaling" => {
                scaling_ratio = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--sessions" => sessions = Some(val(&mut args).parse().unwrap_or_else(|_| usage())),
            "--assert-snapshots" => {
                assert_snapshots = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--assert-fault" => assert_fault = true,
            "--session-pace-ms" => {
                session_pace_ms = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--expect-drain" => expect_drain = true,
            "--hostile" => hostile = true,
            "--hostile-secs" => hostile_secs = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--server-pid" => server_pid = Some(val(&mut args).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }

    NEXT_SEED.store(unique_seed(), Ordering::Relaxed);
    let parse_addr = |a: &str| -> SocketAddr {
        a.parse().unwrap_or_else(|e| {
            eprintln!("error: bad --addr {a}: {e}");
            std::process::exit(1)
        })
    };

    // Hostile (chaos) mode short-circuits everything else. Against an
    // in-process server the leak check reads our own /proc entry; against
    // --addr it needs --server-pid (and is skipped without one).
    if hostile {
        if hostile_secs <= 0.0 {
            usage();
        }
        let (addr, local) = match &addr_arg {
            Some(a) => (parse_addr(a), None),
            None => {
                let local = start_local(1, workers, None);
                eprintln!("in-process server on {}", local.addr);
                (local.addr, Some(local))
            }
        };
        let pid = server_pid.or_else(|| local.as_ref().map(|_| std::process::id()));
        let ok = run_hostile(addr, hostile_secs, pid);
        if let Some(local) = local {
            local.stop();
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Session-verification mode short-circuits load generation entirely.
    if let Some(n) = sessions {
        let (addr, local) = match &addr_arg {
            Some(a) => (parse_addr(a), None),
            None => {
                let local = start_local(1, workers, None);
                eprintln!("in-process server on {}", local.addr);
                (local.addr, Some(local))
            }
        };
        let ok = run_sessions(
            addr,
            n,
            assert_snapshots,
            assert_fault,
            session_pace_ms,
            expect_drain,
        );
        if let Some(local) = local {
            local.stop();
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    let shard_counts: Vec<usize> = shards_arg
        .split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
        .collect();
    let client_counts: Vec<usize> = clients_arg
        .split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
        .collect();
    if shard_counts.is_empty()
        || shard_counts.contains(&0)
        || client_counts.is_empty()
        || duration <= 0.0
    {
        usage();
    }
    if addr_arg.is_some() && shard_counts.len() > 1 {
        eprintln!("error: --addr targets a fixed topology; pass a single --shards value");
        std::process::exit(1);
    }

    eprintln!("calibrating machine speed...");
    let calibration = calibration_score();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("calibration_score: {calibration:.0} iters/sec ({host_cores} cores)");

    let mut golden_match = true;
    let mut warm_vs_cold: Option<WarmVsCold> = None;
    let mut points = Vec::with_capacity(shard_counts.len() * client_counts.len());
    let mut repeated_points = Vec::with_capacity(shard_counts.len());
    for &shards in &shard_counts {
        // Target server for this shard count: external (--addr) or
        // in-process on an ephemeral port.
        let (addr, local) = match &addr_arg {
            Some(a) => (parse_addr(a), None),
            None => {
                let local = start_local(shards, workers, coalesce);
                eprintln!(
                    "in-process server on {} ({shards} shard(s) x {workers} worker(s))",
                    local.addr
                );
                (local.addr, Some(local))
            }
        };

        // Golden gate first: throughput numbers from a server computing
        // wrong answers are worthless. Re-checked per topology.
        let (golden_body, expected) = golden_expected();
        let this_match =
            match Client::new(addr).roundtrip("POST", "/simulate", golden_body.as_bytes()) {
                Ok((200, body)) => String::from_utf8_lossy(&body) == expected,
                Ok((status, body)) => {
                    eprintln!(
                        "golden request got {status}: {}",
                        String::from_utf8_lossy(&body)
                    );
                    false
                }
                Err(e) => {
                    eprintln!("golden request failed: {e}");
                    false
                }
            };
        eprintln!(
            "golden byte-compare vs direct SimBuilder ({shards} shard(s)): {}",
            if this_match { "MATCH" } else { "MISMATCH" }
        );
        golden_match &= this_match;

        if warm_vs_cold.is_none() {
            let wc = measure_warm_vs_cold(addr).unwrap_or_else(|e| {
                eprintln!("warm/cold probe failed: {e}");
                WarmVsCold {
                    cold_first_seconds: 0.0,
                    warm_median_seconds: 0.0,
                    cold_over_warm: 0.0,
                }
            });
            eprintln!(
                "warm-vs-cold: first request {:.3} ms, warm median {:.3} ms ({:.1}x)",
                wc.cold_first_seconds * 1e3,
                wc.warm_median_seconds * 1e3,
                wc.cold_over_warm
            );
            warm_vs_cold = Some(wc);
        }

        // Gated points first, each request a fresh body; then one
        // ungated repeated-body point at the highest client count.
        let max_clients = client_counts.iter().copied().max().expect("non-empty");
        let runs = client_counts
            .iter()
            .map(|&c| (c, false))
            .chain([(max_clients, true)]);
        for (clients, repeated) in runs {
            let pt = run_load_point(
                addr,
                shards,
                clients,
                Duration::from_secs_f64(duration),
                repeated,
            );
            let dist = if pt.per_shard_requests.is_empty() {
                String::from("n/a")
            } else {
                format!("{:?}", pt.per_shard_requests)
            };
            eprintln!(
                "shards={shards} clients={:3}{} {:8.0} req/s  ({} ok, {} errors, {} memo hits; \
                 p50 {:.3} ms, p99 {:.3} ms; per-shard {dist})",
                pt.clients,
                if repeated { " repeated" } else { "" },
                pt.requests_per_sec,
                pt.requests,
                pt.errors,
                pt.memo_hits,
                pt.p50_seconds * 1e3,
                pt.p99_seconds * 1e3,
            );
            if repeated {
                repeated_points.push(pt);
            } else {
                points.push(pt);
            }
        }

        // Tear down this topology's server before the next (or before
        // gating), so a gate failure still exits with listeners closed.
        if let Some(local) = local {
            local.stop();
        }
    }

    let warm_vs_cold = warm_vs_cold.expect("at least one shard count ran");
    let json = render_json(
        calibration,
        host_cores,
        &points,
        &repeated_points,
        warm_vs_cold,
        golden_match,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1)
    });
    let best = points
        .iter()
        .map(|p| p.requests_per_sec)
        .fold(0.0, f64::max);
    eprintln!("wrote {out_path}  (best {best:.0} req/s)");

    let mut failed = !golden_match;
    // The gates compare engine runs: a memo hit in a gated point means it
    // measured HTTP handling instead. The repeated-body point proves the
    // memo is live, so the fresh seeds are what keeps it out.
    for pt in &points {
        if pt.memo_hits > 0 {
            eprintln!(
                "memo check FAIL: gated point shards={} clients={} recorded {} memo hits{}",
                pt.shards,
                pt.clients,
                pt.memo_hits,
                if addr_arg.is_some() {
                    " (the counter is server-wide: is another client using --addr's server?)"
                } else {
                    ""
                }
            );
            failed = true;
        }
    }
    for pt in &repeated_points {
        if pt.memo_hits == 0 {
            eprintln!(
                "memo check FAIL: repeated-body point shards={} clients={} recorded no memo hits",
                pt.shards, pt.clients
            );
            failed = true;
        }
    }
    if let Some(base_path) = check_path {
        let baseline = std::fs::read_to_string(&base_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read --check baseline {base_path}: {e}");
            std::process::exit(1)
        });
        let failures = check_throughput_floor(&json, &baseline, tolerance);
        if failures.is_empty() {
            eprintln!(
                "throughput floor PASS (tolerance {:.0}%)",
                tolerance * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!("throughput floor FAIL: {} failure(s)", failures.len());
            failed = true;
        }
    }
    if let Some(ratio) = scaling_ratio {
        match check_scaling(&json, ratio) {
            ScalingVerdict::Pass {
                shards,
                clients,
                ratio: measured,
            } => eprintln!(
                "scaling gate PASS: {shards} shards sustained {measured:.2}x single-shard \
                 at {clients} clients (required > {ratio:.2}x)"
            ),
            ScalingVerdict::Skipped(reason) => {
                eprintln!("scaling gate SKIPPED: {reason}")
            }
            ScalingVerdict::Fail(line) => {
                eprintln!("{line}");
                eprintln!("scaling gate FAIL");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
