//! In-process integration tests: a real [`Server`] on an ephemeral port,
//! real TCP clients, and byte-level comparison of served reports against
//! direct `SimBuilder` runs.

use hbm_core::{ArbitrationKind, SimBuilder};
use hbm_serve::http::{
    read_response, read_response_full, read_response_head, write_request, ChunkedLines,
};
use hbm_serve::json::{Json, JsonLimits};
use hbm_serve::proto::{estimate_to_json, parse_sim_request, report_to_json};
use hbm_serve::server::{Server, ServerConfig, ServerStats};
use hbm_serve::shutdown::ShutdownFlag;
use hbm_traces::{TraceOptions, WorkloadSpec};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server plus the handle to join it.
struct TestServer {
    addr: SocketAddr,
    flag: ShutdownFlag,
    handle: JoinHandle<ServerStats>,
}

fn start_server(config: ServerConfig) -> TestServer {
    let flag = ShutdownFlag::new();
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let run_flag = flag.clone();
    let handle = std::thread::spawn(move || server.run(&run_flag).expect("server run"));
    TestServer { addr, flag, handle }
}

impl TestServer {
    fn stop(self) -> ServerStats {
        self.flag.trip();
        self.handle.join().expect("server thread")
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, method, path, body).expect("write request");
    read_response(&mut stream, Instant::now() + Duration::from_secs(30)).expect("read response")
}

/// Like [`request`], but also returns the (lowercased) response headers —
/// for tests asserting on `Retry-After`.
fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, method, path, body).expect("write request");
    read_response_full(&mut stream, Instant::now() + Duration::from_secs(30))
        .expect("read response")
}

/// Seconds from a `Retry-After` header, failing the test when absent or
/// non-numeric: every 429/503 the server emits must carry the hint.
fn retry_after_secs(headers: &HashMap<String, String>) -> u64 {
    headers
        .get("retry-after")
        .unwrap_or_else(|| panic!("429/503 must carry Retry-After, got {headers:?}"))
        .parse()
        .expect("Retry-After must be integral seconds")
}

/// A request whose last body bytes are held back, pinning the server's
/// reader mid-message (immune to idle cancellation) until
/// [`finish`](Self::finish) releases them — the deterministic way to land
/// a request on a server whose drain flag trips while it is in flight.
struct HeldRequest {
    stream: TcpStream,
    tail: Vec<u8>,
}

fn begin_request(addr: SocketAddr, path: &str, body: &[u8]) -> HeldRequest {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let split = body.len().saturating_sub(4);
    let mut first = head.into_bytes();
    first.extend_from_slice(&body[..split]);
    stream.write_all(&first).expect("write partial request");
    stream.flush().expect("flush partial request");
    HeldRequest {
        stream,
        tail: body[split..].to_vec(),
    }
}

impl HeldRequest {
    fn finish(mut self) -> (u16, HashMap<String, String>, Vec<u8>) {
        self.stream.write_all(&self.tail).expect("write body tail");
        self.stream.flush().expect("flush body tail");
        read_response_full(&mut self.stream, Instant::now() + Duration::from_secs(30))
            .expect("read response")
    }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        enable_test_endpoints: true,
        ..ServerConfig::default()
    }
}

const SIM_BODY: &str = r#"{
    "workload": {"kind": "cyclic", "pages": 32, "reps": 4, "seed": 9},
    "p": 4, "k": 24, "q": 2,
    "arbitration": "priority",
    "seed": 7
}"#;

/// The exact report the server must serve for [`SIM_BODY`], computed
/// through the plain (unshared, unbudgeted) `SimBuilder` path.
fn direct_report_json() -> String {
    let spec = WorkloadSpec::Cyclic { pages: 32, reps: 4 };
    let workload = spec.workload(4, 9, TraceOptions::default());
    let report = SimBuilder::new()
        .hbm_slots(24)
        .channels(2)
        .arbitration(ArbitrationKind::Priority)
        .seed(7)
        .run(&workload);
    report_to_json(&report)
}

#[test]
fn served_report_is_byte_identical_to_direct_simbuilder_run() {
    let server = start_server(test_config());
    let expected = direct_report_json();
    // Twice: once cold (pool generated for this request), once warm
    // (memoized pool + flat) — the bytes must not depend on which path ran.
    for round in ["cold", "warm"] {
        let (status, body) = request(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
        assert_eq!(status, 200, "{round}: {}", String::from_utf8_lossy(&body));
        assert_eq!(
            String::from_utf8(body).unwrap(),
            expected,
            "{round} response must match the direct SimBuilder run byte for byte"
        );
    }
    let stats = server.stop();
    assert_eq!(stats.cold_runs, 1);
    assert_eq!(stats.warm_runs, 1);
}

#[test]
fn concurrent_clients_all_get_identical_correct_reports() {
    let server = start_server(test_config());
    let expected = direct_report_json();
    let addr = server.addr;
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let (status, body) = request(addr, "POST", "/simulate", SIM_BODY.as_bytes());
                assert_eq!(status, 200);
                assert_eq!(String::from_utf8(body).unwrap(), expected);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stop();
    assert_eq!(stats.ok, 8);
    assert_eq!(stats.cold_runs + stats.warm_runs, 8);
}

#[test]
fn panicking_request_gets_500_and_the_server_survives() {
    let server = start_server(test_config());
    let (status, body) = request(server.addr, "POST", "/test/panic", b"");
    assert_eq!(status, 500);
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("panicked"));
    // The worker pool and every other path must still function.
    let (status, body) = request(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let stats = server.stop();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.ok, 1);
}

#[test]
fn over_budget_request_returns_truncated_report_not_a_hang() {
    let server = start_server(test_config());
    // A tick budget far below the workload's makespan: the run must stop
    // at the budget and say so.
    let body = r#"{
        "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
        "p": 8, "k": 16,
        "arbitration": "fifo",
        "max_ticks": 50
    }"#;
    let (status, resp) = request(server.addr, "POST", "/simulate", body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let report = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(report.get("truncated").unwrap().as_bool(), Some(true));
    assert_eq!(report.get("makespan").unwrap().as_u64(), Some(50));
    server.stop();
}

#[test]
fn server_ceiling_clamps_unbudgeted_requests() {
    // The server's own ceiling applies even when the client asks for no
    // budget at all.
    let config = ServerConfig {
        budget_ceiling: hbm_serve::CellBudget {
            max_ticks: Some(25),
            max_wall: None,
        },
        ..test_config()
    };
    let server = start_server(config);
    let body = r#"{
        "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
        "p": 8, "k": 16,
        "arbitration": "fifo"
    }"#;
    let (status, resp) = request(server.addr, "POST", "/simulate", body.as_bytes());
    assert_eq!(status, 200);
    let report = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(report.get("truncated").unwrap().as_bool(), Some(true));
    assert_eq!(report.get("makespan").unwrap().as_u64(), Some(25));
    server.stop();
}

#[test]
fn full_queue_rejects_with_429() {
    // Zero queue capacity: every submission is rejected before execution —
    // deterministic admission-control behaviour.
    let config = ServerConfig {
        queue_capacity: 0,
        ..test_config()
    };
    let server = start_server(config);
    let (status, headers, body) =
        request_full(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("queue full"));
    // Retry-After is derived from queue depth; with an empty zero-capacity
    // queue the hint is the one-second floor.
    assert_eq!(retry_after_secs(&headers), 1);
    let stats = server.stop();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn malformed_and_unknown_requests_get_4xx() {
    let server = start_server(test_config());
    let (status, _) = request(server.addr, "POST", "/simulate", b"{not json");
    assert_eq!(status, 400);
    let (status, _) = request(server.addr, "POST", "/simulate", b"{\"p\": 1}");
    assert_eq!(status, 400, "missing required fields");
    let (status, _) = request(server.addr, "GET", "/nope", b"");
    assert_eq!(status, 404);
    let (status, _) = request(
        server.addr,
        "POST",
        "/simulate",
        br#"{"workload": "no-such-builtin", "p": 1, "k": 16}"#,
    );
    assert_eq!(status, 400);
    // /test/panic must 404 when test endpoints are disabled.
    let prod = start_server(ServerConfig::default());
    let (status, _) = request(prod.addr, "POST", "/test/panic", b"");
    assert_eq!(status, 404);
    prod.stop();
    server.stop();
}

#[test]
fn healthz_reports_counters_and_drain_state() {
    let server = start_server(test_config());
    let (status, body) = request(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("active_connections").unwrap().as_u64(), Some(1));
    server.stop();
}

// ---------------------------------------------------------------------------
// Analytical estimates: /estimate takes the /simulate body but answers from
// the closed-form model without touching the engine.
// ---------------------------------------------------------------------------

/// Pulls one `{lo, est, hi}` band out of an estimate response.
fn band(est: &Json, metric: &str) -> (f64, f64, f64) {
    let b = est.get(metric).unwrap();
    (
        b.get("lo").unwrap().as_f64().unwrap(),
        b.get("est").unwrap().as_f64().unwrap(),
        b.get("hi").unwrap().as_f64().unwrap(),
    )
}

#[test]
fn estimate_brackets_the_simulated_makespan_without_running_the_engine() {
    let server = start_server(test_config());
    let (status, body) = request(server.addr, "POST", "/estimate", SIM_BODY.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let est = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let (lo, point, hi) = band(&est, "makespan");
    assert!(lo <= point && point <= hi, "band must bracket its estimate");
    let lb = est.get("lower_bound").unwrap().as_u64().unwrap() as f64;
    let ub = est.get("upper_bound").unwrap().as_u64().unwrap() as f64;
    assert!(
        lb <= point && point <= ub,
        "estimate {point} must respect the provable interval [{lb}, {ub}]"
    );
    for metric in ["mean_response", "inconsistency", "blocked_frac"] {
        let (lo, point, hi) = band(&est, metric);
        assert!(
            lo <= point && point <= hi,
            "{metric} band [{lo}, {hi}] must bracket its estimate {point}"
        );
    }

    // The same body through the real engine: the simulated makespan must
    // land inside the calibrated band widened by 50% each side (the band
    // is a ~90% envelope, not a guarantee; the slack keeps this a sanity
    // gate against gross model drift, not a flake).
    let (status, resp) = request(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
    assert_eq!(status, 200);
    let report = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    let makespan = report.get("makespan").unwrap().as_u64().unwrap() as f64;
    assert!(
        lo / 1.5 <= makespan && makespan <= hi * 1.5,
        "simulated makespan {makespan} outside the widened band [{lo}, {hi}]"
    );

    // Determinism: the same body must serve identical estimate bytes.
    let (status, again) = request(server.addr, "POST", "/estimate", SIM_BODY.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, again, "estimates must be deterministic");

    let stats = server.stop();
    // Three 200s total, but only the /simulate call reached the engine or
    // the trace-pool registry — the estimates were purely analytical.
    assert_eq!(stats.ok, 3);
    assert_eq!(
        stats.cold_runs + stats.warm_runs,
        1,
        "/estimate must not run the engine"
    );
}

#[test]
fn malformed_estimate_requests_get_400() {
    let server = start_server(test_config());
    let (status, _) = request(server.addr, "POST", "/estimate", b"{not json");
    assert_eq!(status, 400);
    let (status, _) = request(server.addr, "POST", "/estimate", b"{\"p\": 1}");
    assert_eq!(status, 400, "missing required fields");
    // k = 0 parses but is rejected where the engine path would reject it.
    let zero_k = SIM_BODY.replace("\"k\": 24", "\"k\": 0");
    let (status, resp) = request(server.addr, "POST", "/estimate", zero_k.as_bytes());
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&resp));
    let err = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("positive"));
    let stats = server.stop();
    assert_eq!(stats.client_errors, 3);
    assert_eq!(stats.ok, 0);
}

/// The bytes `/estimate` must serve for `body`: the model's answer on the
/// summary built straight from the spec.
fn expected_estimate(body: &str) -> Vec<u8> {
    use hbm_model::predict::{predict, ModelConfig};
    use hbm_traces::analysis::WorkloadSummary;
    let sim = parse_sim_request(body.as_bytes(), &JsonLimits::default()).expect("body parses");
    let (w, s) = (&sim.workload, &sim.settings);
    let summary = WorkloadSummary::from_spec_opts(w.spec, w.trace_seed, sim.p, w.opts);
    let cfg = ModelConfig::new(s.k, s.q, s.arbitration, s.replacement)
        .far_latency(s.far_latency.unwrap_or(1));
    estimate_to_json(&predict(&summary, &cfg)).into_bytes()
}

#[test]
fn cold_and_warm_estimates_serve_the_bytes_of_the_spec_summary() {
    let server = start_server(test_config());
    let (status, cold) = request(server.addr, "POST", "/estimate", SIM_BODY.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cold));
    let (status, warm) = request(server.addr, "POST", "/estimate", SIM_BODY.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&warm));
    assert_eq!(cold, warm, "cold and warm answers must be byte-identical");
    assert_eq!(cold, expected_estimate(SIM_BODY));

    // The first answer paid the summary on a worker; the repeat came from
    // the memo. /healthz reports both, per shard and in the totals.
    let (status, body) = request(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let shard = &health.get("shards").unwrap().as_array().unwrap()[0];
    for doc in [&health, shard] {
        assert_eq!(doc.get("estimates_cold").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("estimates_warm").unwrap().as_u64(), Some(1));
    }
    let stats = server.stop();
    assert_eq!((stats.estimates_cold, stats.estimates_warm), (1, 1));
    assert_eq!(stats.cold_runs + stats.warm_runs, 0, "no engine run");
}

#[test]
fn cold_estimate_goes_through_admission_control() {
    // Zero queue capacity: a cold estimate needs a worker, so it is
    // refused exactly like /simulate — 429 with Retry-After.
    let config = ServerConfig {
        queue_capacity: 0,
        ..test_config()
    };
    let server = start_server(config);
    let (status, headers, body) =
        request_full(server.addr, "POST", "/estimate", SIM_BODY.as_bytes());
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("queue full"));
    assert_eq!(retry_after_secs(&headers), 1);
    let stats = server.stop();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.ok, 0);
    assert_eq!((stats.estimates_cold, stats.estimates_warm), (0, 0));
}

#[test]
fn estimates_over_many_workloads_never_evict_a_warm_simulate_pool() {
    // Two pool slots, both held by /simulate workloads. Estimates over
    // more workloads than the registry holds still get correct answers,
    // but their pools are evicted before any pool a simulation uses.
    let config = ServerConfig {
        max_pools: 2,
        ..test_config()
    };
    let server = start_server(config);
    let sim_body = |seed: u64| {
        format!(
            r#"{{"workload": {{"kind": "cyclic", "pages": 16, "reps": 2, "seed": {seed}}}, "p": 2, "k": 8, "q": 1}}"#
        )
    };
    let est_body = |seed: u64| {
        format!(
            r#"{{"workload": {{"kind": "zipf", "pages": 32, "len": 200, "alpha": 1.1, "seed": {seed}}}, "p": 2, "k": 8, "q": 1}}"#
        )
    };
    for round in 0..2 {
        for seed in 0..4 {
            let body = est_body(seed);
            let (status, resp) = request(server.addr, "POST", "/estimate", body.as_bytes());
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
            assert_eq!(resp, expected_estimate(&body), "round {round} seed {seed}");
            for seed in [1, 2] {
                let (status, _) =
                    request(server.addr, "POST", "/simulate", sim_body(seed).as_bytes());
                assert_eq!(status, 200);
            }
        }
    }
    let stats = server.stop();
    assert_eq!(
        stats.cold_runs, 2,
        "only each simulate workload's first run is cold"
    );
    assert_eq!(stats.warm_runs, 14);
    assert_eq!((stats.estimates_cold, stats.estimates_warm), (8, 0));
}

// ---------------------------------------------------------------------------
// Batching axis: requests coalesced into one worker job must be
// observationally identical to uncoalesced execution.
// ---------------------------------------------------------------------------

fn coalescing_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        coalesce_window: Some(Duration::from_millis(200)),
        max_batch: 4,
        ..ServerConfig::default()
    }
}

#[test]
fn coalesced_concurrent_requests_are_byte_identical_to_scalar_runs() {
    // K concurrent same-(workload, p, budget) requests arrive inside one
    // coalescing window; each response must match the sequential scalar
    // baseline byte for byte, and the stats must prove batching happened.
    let server = start_server(coalescing_config());
    let expected = direct_report_json();
    let addr = server.addr;
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let (status, body) = request(addr, "POST", "/simulate", SIM_BODY.as_bytes());
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                assert_eq!(
                    String::from_utf8(body).unwrap(),
                    expected,
                    "batched response must match the scalar baseline byte for byte"
                );
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stop();
    assert_eq!(stats.ok, 4);
    assert_eq!(
        stats.batched_requests, 4,
        "every request must have gone through the coalescer"
    );
    assert!(stats.batches >= 1 && stats.batches <= 4);
}

#[test]
fn mixed_workloads_never_cross_batch() {
    // Two different workloads submitted concurrently under coalescing:
    // each must get its own correct report (a cross-batch would run the
    // wrong settings against the wrong flat workload).
    let server = start_server(coalescing_config());
    let addr = server.addr;
    let other_body = r#"{
        "workload": {"kind": "sawtooth", "pages": 16, "reps": 3, "seed": 5},
        "p": 4, "k": 24, "q": 2,
        "arbitration": "priority",
        "seed": 7
    }"#;
    let other_expected = {
        let spec = WorkloadSpec::Sawtooth { pages: 16, reps: 3 };
        let workload = spec.workload(4, 5, TraceOptions::default());
        let report = SimBuilder::new()
            .hbm_slots(24)
            .channels(2)
            .arbitration(ArbitrationKind::Priority)
            .seed(7)
            .run(&workload);
        report_to_json(&report)
    };
    let expected = direct_report_json();
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let (body, expected) = if i % 2 == 0 {
                (SIM_BODY.to_string(), expected.clone())
            } else {
                (other_body.to_string(), other_expected.clone())
            };
            std::thread::spawn(move || {
                let (status, resp) = request(addr, "POST", "/simulate", body.as_bytes());
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
                assert_eq!(String::from_utf8(resp).unwrap(), expected);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stop();
    assert_eq!(stats.ok, 6);
    assert_eq!(stats.batched_requests, 6);
}

#[test]
fn over_budget_request_coalesces_separately_and_truncates_alone() {
    // A tick-budgeted request shares a workload with unbudgeted ones but
    // has a different batch key (the budget is part of it), so it must
    // truncate at its own budget while the others complete fully.
    let server = start_server(coalescing_config());
    let addr = server.addr;
    let expected = direct_report_json();
    let budgeted_body = r#"{
        "workload": {"kind": "cyclic", "pages": 32, "reps": 4, "seed": 9},
        "p": 4, "k": 24, "q": 2,
        "arbitration": "priority",
        "seed": 7,
        "max_ticks": 10
    }"#;
    let mut clients: Vec<_> = (0..3)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let (status, body) = request(addr, "POST", "/simulate", SIM_BODY.as_bytes());
                assert_eq!(status, 200);
                assert_eq!(String::from_utf8(body).unwrap(), expected);
            })
        })
        .collect();
    clients.push(std::thread::spawn(move || {
        let (status, body) = request(addr, "POST", "/simulate", budgeted_body.as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let report = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(report.get("truncated").unwrap().as_bool(), Some(true));
        assert_eq!(report.get("makespan").unwrap().as_u64(), Some(10));
    }));
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stop();
    assert_eq!(stats.ok, 4);
    assert_eq!(stats.batched_requests, 4);
    assert!(
        stats.batches >= 2,
        "a budgeted request must not share a batch with unbudgeted ones"
    );
}

// ---------------------------------------------------------------------------
// Response memo: a repeated /simulate is answered from the memoized bytes of
// its complete run, never from a truncated or failed one.
// ---------------------------------------------------------------------------

/// The bytes `/simulate` must serve for `body`: a direct `SimBuilder` run
/// on an owned workload, with the body's settings and tick budget.
fn expected_report(body: &str) -> String {
    let sim = parse_sim_request(body.as_bytes(), &JsonLimits::default()).expect("body parses");
    let (w, s) = (&sim.workload, &sim.settings);
    let workload = w.spec.workload(sim.p, w.trace_seed, w.opts);
    let mut builder = SimBuilder::new()
        .hbm_slots(s.k)
        .channels(s.q)
        .arbitration(s.arbitration)
        .replacement(s.replacement)
        .seed(s.seed)
        .fault_plan(s.faults.clone());
    if let Some(latency) = s.far_latency {
        builder = builder.far_latency(latency);
    }
    if let Some(max_ticks) = sim.budget.max_ticks {
        builder = builder.max_ticks(max_ticks);
    }
    report_to_json(&builder.run(&workload))
}

/// `/simulate` with `body`, asserting a 200 whose bytes equal the direct
/// run's; returns the parsed report.
fn simulate_matches_direct_run(addr: SocketAddr, body: &str) -> Json {
    let (status, resp) = request(addr, "POST", "/simulate", body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let text = String::from_utf8(resp).unwrap();
    assert_eq!(text, expected_report(body), "body {body}");
    Json::parse(&text).unwrap()
}

/// The server's `simulate_memo_hits` total from `/healthz`.
fn memo_hits(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    health.get("simulate_memo_hits").unwrap().as_u64().unwrap()
}

#[test]
fn repeated_simulate_is_answered_from_the_memo_byte_for_byte() {
    let server = start_server(test_config());
    let expected = direct_report_json();
    let n = 5;
    for i in 0..n {
        let (status, body) = request(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(String::from_utf8(body).unwrap(), expected, "request {i}");
    }
    assert_eq!(memo_hits(server.addr), n - 1);
    // A hit answers the complete report whatever the request's wall
    // budget: the budget bounds work, and a hit does none.
    let walled = SIM_BODY.replace("\"seed\": 7", "\"seed\": 7, \"max_wall_ms\": 1");
    let (status, body) = request(server.addr, "POST", "/simulate", walled.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap(), expected);
    let stats = server.stop();
    assert_eq!(stats.simulate_memo_hits, n);
    assert_eq!((stats.cold_runs, stats.warm_runs), (1, n));
    assert_eq!(stats.ok, n + 2, "every simulate plus the healthz");
}

#[test]
fn truncated_reports_are_never_memoized() {
    let server = start_server(test_config());
    // Stopped by its tick budget: deterministic bytes, but not a result.
    let ticks = r#"{
        "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
        "p": 8, "k": 16, "arbitration": "fifo", "max_ticks": 50
    }"#;
    for _ in 0..2 {
        let report = simulate_matches_direct_run(server.addr, ticks);
        assert_eq!(report.get("truncated").unwrap().as_bool(), Some(true));
    }
    assert_eq!(
        memo_hits(server.addr),
        0,
        "a tick-truncated repeat runs again"
    );
    // Stopped by its wall budget, long before the run could finish.
    let wall = r#"{
        "workload": {"kind": "cyclic", "pages": 256, "reps": 400, "seed": 2},
        "p": 8, "k": 16, "arbitration": "fifo", "max_wall_ms": 1
    }"#;
    for _ in 0..2 {
        let (status, body) = request(server.addr, "POST", "/simulate", wall.as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let report = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(report.get("truncated").unwrap().as_bool(), Some(true));
    }
    let stats = server.stop();
    assert_eq!(stats.simulate_memo_hits, 0);
    assert_eq!(stats.cold_runs + stats.warm_runs, 4);
}

#[test]
fn failed_simulations_are_never_memoized() {
    let server = start_server(test_config());
    // Parses, then fails configuration validation on the worker.
    let invalid = r#"{"workload": {"kind": "cyclic", "pages": 8, "reps": 2}, "p": 2, "k": 0}"#;
    for _ in 0..2 {
        let (status, body) = request(server.addr, "POST", "/simulate", invalid.as_bytes());
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("invalid configuration"));
    }
    // A request that panics is answered 500 and leaves nothing behind.
    let (status, _) = request(server.addr, "POST", "/test/panic", b"");
    assert_eq!(status, 500);
    simulate_matches_direct_run(server.addr, SIM_BODY);
    let stats = server.stop();
    assert_eq!(stats.simulate_memo_hits, 0);
    assert_eq!((stats.client_errors, stats.panics, stats.ok), (2, 1, 1));
}

#[test]
fn settings_that_differ_get_distinct_memo_entries() {
    let server = start_server(test_config());
    let body = |extra: &str| {
        format!(
            r#"{{"workload": {{"kind": "zipf", "pages": 48, "len": 300, "alpha": 1.1, "seed": 4}},
                "p": 3, "k": 12, "q": 2, "arbitration": "fifo", "seed": 5{extra}}}"#
        )
    };
    let variants = [
        body(""),
        body("").replace("\"seed\": 5", "\"seed\": 6"),
        body(", \"far_latency\": 3"),
        body(", \"replacement\": \"random\""),
        body(r#", "faults": {"outages": [{"start": 10, "end": 40, "channels": 1}]}"#),
        body(", \"max_ticks\": 1000000"),
    ];
    for round in 0..2 {
        for v in &variants {
            let report = simulate_matches_direct_run(server.addr, v);
            assert_eq!(report.get("truncated").unwrap().as_bool(), Some(false));
        }
        let hits = memo_hits(server.addr);
        assert_eq!(
            hits,
            round * variants.len() as u64,
            "round {round}: each variant misses once, then hits"
        );
    }
    server.stop();
}

#[test]
fn response_memo_evicts_the_least_recently_used_at_flat_capacity() {
    let config = ServerConfig {
        flat_capacity: Some(2),
        ..test_config()
    };
    let server = start_server(config);
    let body = |seed: u64| SIM_BODY.replace("\"seed\": 7", &format!("\"seed\": {seed}"));
    // (policy seed, hit expected): A and B fill the memo, A refreshes,
    // C evicts B (the least recently used), then B evicts C.
    let steps = [
        (1, false),
        (2, false),
        (1, true),
        (3, false),
        (1, true),
        (2, false),
        (3, false),
    ];
    let mut hits = 0;
    for (i, (seed, hit)) in steps.into_iter().enumerate() {
        simulate_matches_direct_run(server.addr, &body(seed));
        hits += u64::from(hit);
        assert_eq!(memo_hits(server.addr), hits, "step {i} (seed {seed})");
    }
    server.stop();
}

#[test]
fn coalesced_batch_results_are_memoized() {
    let server = start_server(coalescing_config());
    let expected = direct_report_json();
    let addr = server.addr;
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || request(addr, "POST", "/simulate", SIM_BODY.as_bytes()))
        })
        .collect();
    for c in clients {
        let (status, body) = c.join().expect("client thread");
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), expected);
    }
    let (status, body) = request(addr, "POST", "/simulate", SIM_BODY.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap(), expected);
    let stats = server.stop();
    assert_eq!(
        stats.batched_requests, 4,
        "the repeat never reaches the coalescer"
    );
    assert_eq!(stats.simulate_memo_hits, 1);
}

#[test]
fn memo_hits_count_as_activity_for_the_idle_shrink() {
    // The load outlasts the idle window, so a server that ignored memo
    // hits would shrink mid-load; the window is 20 request intervals
    // wide, so only a stall of a whole second could shrink a busy one.
    let config = ServerConfig {
        idle_shrink_after: Some(Duration::from_secs(1)),
        ..test_config()
    };
    let server = start_server(config);
    let expected = direct_report_json();
    // One keep-alive connection, so no accept resets the idle clock: only
    // the requests themselves count as activity.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut exchange = |method: &str, path: &str, body: &[u8]| {
        write_request(&mut stream, method, path, body).expect("write request");
        read_response(&mut stream, Instant::now() + Duration::from_secs(30)).expect("response")
    };
    let mut simulate = || {
        let (status, body) = exchange("POST", "/simulate", SIM_BODY.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), expected);
    };
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed() < Duration::from_millis(1500) {
        simulate();
        n += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    // Silence past the idle window drops the memo: the next one runs.
    std::thread::sleep(Duration::from_millis(2500));
    simulate();
    drop(stream);
    let stats = server.stop();
    assert_eq!(
        stats.simulate_memo_hits,
        n - 1,
        "every request under load after the first is a hit"
    );
    assert_eq!((stats.cold_runs, stats.warm_runs), (1, n));
}

// ---------------------------------------------------------------------------
// Sharded serving.
// ---------------------------------------------------------------------------

#[test]
fn sharded_server_serves_correctly_and_reports_per_shard_counters() {
    let config = ServerConfig {
        shards: 2,
        ..test_config()
    };
    let server = start_server(config);
    let expected = direct_report_json();
    // Separate connections round-robin across shards.
    for _ in 0..4 {
        let (status, body) = request(server.addr, "POST", "/simulate", SIM_BODY.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            expected,
            "every shard must serve identical bytes"
        );
    }
    let (status, body) = request(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let shards = health.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), 2, "healthz must report each shard");
    let per_shard_ok: u64 = shards
        .iter()
        .map(|s| s.get("ok").unwrap().as_u64().unwrap())
        .sum();
    // The top-level counters are the per-shard sums (snapshotted before
    // this healthz response itself is counted).
    assert_eq!(health.get("ok").unwrap().as_u64(), Some(per_shard_ok));
    assert_eq!(per_shard_ok, 4);
    for s in shards {
        assert!(
            s.get("ok").unwrap().as_u64().unwrap() >= 1,
            "round-robin dispatch must spread requests across shards: {body:?}",
            body = String::from_utf8_lossy(&body)
        );
    }
    let stats = server.stop();
    assert_eq!(stats.ok, 5, "aggregated stats must sum across shards");
}

// ---------------------------------------------------------------------------
// Streaming sessions.
// ---------------------------------------------------------------------------

/// Opens a session and returns the parsed JSONL event lines.
fn run_session(addr: SocketAddr, body: &str) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", "/session", body.as_bytes()).expect("write request");
    let deadline = Instant::now() + Duration::from_secs(30);
    let (head, leftover) = read_response_head(&mut stream, deadline).expect("response head");
    assert_eq!(head.status, 200, "session open must succeed");
    assert!(head.chunked, "session stream must be chunked");
    let mut lines = ChunkedLines::new(leftover);
    let mut events = Vec::new();
    while let Some(line) = lines.next_line(&mut stream, deadline).expect("read line") {
        if line.is_empty() {
            continue;
        }
        events.push(Json::parse(std::str::from_utf8(&line).unwrap()).expect("valid JSONL line"));
    }
    events
}

const SESSION_BODY: &str = r#"{
    "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
    "p": 8, "k": 16,
    "arbitration": "fifo",
    "faults": {"outages": [{"start": 10, "end": 20, "channels": 1}]},
    "snapshot_period_ticks": 64
}"#;

#[test]
fn session_streams_snapshots_and_faults_then_completes() {
    let server = start_server(test_config());
    // The stateless response for the same simulation is the byte baseline
    // for the session's terminal report (the simulate path ignores the
    // session-only streaming knobs).
    let (status, scalar) = request(server.addr, "POST", "/simulate", SESSION_BODY.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&scalar));
    let scalar_report = String::from_utf8(scalar).unwrap();

    let events = run_session(server.addr, SESSION_BODY);
    assert!(events.len() >= 3, "expected a multi-line stream");
    assert_eq!(events[0].get("event").unwrap().as_str(), Some("open"));
    assert_eq!(events[0].get("p").unwrap().as_u64(), Some(8));
    assert_eq!(
        events[0].get("snapshot_period_ticks").unwrap().as_u64(),
        Some(64)
    );
    let snapshots: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("event").unwrap().as_str() == Some("snapshot"))
        .collect();
    assert!(
        snapshots.len() >= 3,
        "expected at least 3 snapshots, got {}",
        snapshots.len()
    );
    let mut last_tick = 0;
    for snap in &snapshots {
        let tick = snap.get("tick").unwrap().as_u64().unwrap();
        assert!(tick > last_tick, "snapshot ticks must advance");
        last_tick = tick;
        let report = snap.get("report").unwrap();
        assert_eq!(
            report.get("truncated").unwrap().as_bool(),
            Some(true),
            "mid-run snapshots are truncated by definition"
        );
    }
    let faults: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("event").unwrap().as_str() == Some("fault"))
        .collect();
    assert!(
        !faults.is_empty(),
        "the injected outage must stream a fault"
    );
    assert!(faults
        .iter()
        .any(|f| f.get("kind").unwrap().as_str() == Some("outage_start")));
    let done = events.last().unwrap();
    assert_eq!(done.get("event").unwrap().as_str(), Some("done"));
    assert_eq!(done.get("reason").unwrap().as_str(), Some("completed"));
    assert_eq!(
        done.get("report").unwrap().to_string(),
        scalar_report,
        "a completed session's final report must match /simulate byte for byte"
    );
    let stats = server.stop();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.sessions_reaped, 0);
}

#[test]
fn session_drains_with_a_terminal_line_on_shutdown() {
    let server = start_server(test_config());
    // Paced stream: the session would take many seconds; tripping the flag
    // mid-stream must end it promptly with a "draining" terminal line.
    let body = r#"{
        "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
        "p": 8, "k": 16,
        "arbitration": "fifo",
        "snapshot_period_ticks": 16,
        "pace_ms": 300
    }"#;
    let addr = server.addr;
    let flag = server.flag.clone();
    let tripper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        flag.trip();
    });
    let events = run_session(addr, body);
    tripper.join().unwrap();
    let done = events.last().expect("terminal line");
    assert_eq!(done.get("event").unwrap().as_str(), Some("done"));
    assert_eq!(done.get("reason").unwrap().as_str(), Some("draining"));
    let stats = server
        .handle
        .join()
        .expect("server drains with open session");
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn session_limit_rejects_with_429_and_draining_server_rejects_with_503() {
    let config = ServerConfig {
        max_sessions: 0,
        ..test_config()
    };
    let server = start_server(config);
    // Gauge full and no paced victim to shed: explicit 429 + Retry-After.
    let (status, headers, body) =
        request_full(server.addr, "POST", "/session", SESSION_BODY.as_bytes());
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert_eq!(retry_after_secs(&headers), 2);

    // Requests whose body completes after the drain flag trips land on the
    // draining rejection: 503 + Retry-After, for both open and resume.
    let open_conn = begin_request(server.addr, "/session", SESSION_BODY.as_bytes());
    let resume_conn = begin_request(server.addr, "/session/resume", br#"{"token": "whatever"}"#);
    std::thread::sleep(Duration::from_millis(150));
    server.flag.trip();
    for conn in [open_conn, resume_conn] {
        let (status, headers, body) = conn.finish();
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("draining"));
        assert_eq!(retry_after_secs(&headers), 5);
    }
    let stats = server.handle.join().expect("server thread");
    assert_eq!(stats.rejected, 1);
    assert!(stats.shed >= 2, "both draining rejections count as shed");
    assert_eq!(stats.sessions_opened, 0);
}

#[test]
fn malformed_session_request_gets_400() {
    let server = start_server(test_config());
    let (status, _) = request(server.addr, "POST", "/session", b"{not json");
    assert_eq!(status, 400);
    let body = SESSION_BODY.replace(
        "\"snapshot_period_ticks\": 64",
        "\"snapshot_period_ticks\": 0",
    );
    let (status, _) = request(server.addr, "POST", "/session", body.as_bytes());
    assert_eq!(status, 400, "a zero snapshot period is invalid");
    server.stop();
}

#[test]
fn stalled_request_head_gets_408_and_frees_the_slot() {
    // Slowloris shape: a client sends part of a request head and goes
    // quiet. The read must be bounded by `request_timeout` and answered
    // with a typed 408, not hold a connection slot forever.
    let config = ServerConfig {
        request_timeout: Duration::from_millis(250),
        ..test_config()
    };
    let server = start_server(config);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"POST /simulate HTTP/1.1\r\ncontent-")
        .expect("write partial head");
    stream.flush().unwrap();
    let (status, _headers, body) =
        read_response_full(&mut stream, Instant::now() + Duration::from_secs(10))
            .expect("408 response");
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("incomplete"));
    // The server keeps serving; idle keep-alive clients are *not* 408'd
    // (a fresh connection may take longer than request_timeout to send
    // its first byte only once it has sent any).
    let (status, _) = request(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let stats = server.stop();
    assert!(stats.client_errors >= 1);
}

// ---------------------------------------------------------------------------
// Resume tokens, alert rules, shedding, and the fixed-pool thread bound.
// ---------------------------------------------------------------------------

/// [`SESSION_BODY`] plus alert rules: the outage rule fires once (the
/// injected 10-tick outage exceeds the 5-tick bound); the blocked-frac
/// rule never can (the fraction is ≤ 1).
const ALERT_SESSION_BODY: &str = r#"{
    "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
    "p": 8, "k": 16,
    "arbitration": "fifo",
    "faults": {"outages": [{"start": 10, "end": 20, "channels": 1}]},
    "snapshot_period_ticks": 64,
    "alerts": [
        {"kind": "channel_outage_longer_than", "ticks": 5},
        {"kind": "blocked_frac_above", "x": 1.5}
    ]
}"#;

/// Opens a chunked stream and returns the socket plus its line reader.
fn open_stream(addr: SocketAddr, path: &str, body: &[u8]) -> (TcpStream, ChunkedLines) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", path, body).expect("write request");
    let deadline = Instant::now() + Duration::from_secs(30);
    let (head, leftover) = read_response_head(&mut stream, deadline).expect("response head");
    assert_eq!(head.status, 200, "stream open must succeed");
    assert!(head.chunked, "stream must be chunked");
    (stream, ChunkedLines::new(leftover))
}

/// Reads a stream to its end, returning the raw JSONL lines (the unit of
/// byte-identity for resume).
fn read_all_lines(stream: &mut TcpStream, lines: &mut ChunkedLines) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut out = Vec::new();
    while let Some(line) = lines.next_line(stream, deadline).expect("read line") {
        if !line.is_empty() {
            out.push(String::from_utf8(line).expect("utf-8 line"));
        }
    }
    out
}

#[test]
fn resumed_session_replays_a_byte_identical_suffix() {
    let server = start_server(test_config());
    // Golden uninterrupted stream for the byte baseline.
    let (mut gold_stream, mut gold_lines) =
        open_stream(server.addr, "/session", ALERT_SESSION_BODY.as_bytes());
    let golden = read_all_lines(&mut gold_stream, &mut gold_lines);
    assert!(golden.last().unwrap().contains("\"event\":\"done\""));

    // Interrupted client: read through the first snapshot, then vanish.
    let (mut stream, mut lines) =
        open_stream(server.addr, "/session", ALERT_SESSION_BODY.as_bytes());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut token = String::new();
    let acked = loop {
        let line = lines
            .next_line(&mut stream, deadline)
            .expect("read line")
            .expect("line before eof");
        if line.is_empty() {
            continue;
        }
        let event = Json::parse(std::str::from_utf8(&line).unwrap()).unwrap();
        match event.get("event").unwrap().as_str().unwrap() {
            "open" => token = event.get("token").unwrap().as_str().unwrap().to_string(),
            "snapshot" => break event.get("tick").unwrap().as_u64().unwrap(),
            _ => {}
        }
    };
    assert!(!token.is_empty(), "open line must carry a resume token");
    drop(stream); // mid-stream disconnect

    // Reattach at the acknowledged snapshot. The replayed stream after the
    // resumed open line must equal the golden stream after that snapshot
    // line, byte for byte.
    let resume_body = format!(r#"{{"token": "{token}", "last_tick": {acked}}}"#);
    let (mut stream, mut lines) =
        open_stream(server.addr, "/session/resume", resume_body.as_bytes());
    let resumed = read_all_lines(&mut stream, &mut lines);
    let reopen = Json::parse(&resumed[0]).unwrap();
    assert_eq!(reopen.get("event").unwrap().as_str(), Some("open"));
    assert_eq!(
        reopen.get("resumed_from_tick").unwrap().as_u64(),
        Some(acked)
    );

    let acked_idx = golden
        .iter()
        .position(|l| {
            let v = Json::parse(l).unwrap();
            v.get("event").unwrap().as_str() == Some("snapshot")
                && v.get("tick").unwrap().as_u64() == Some(acked)
        })
        .expect("golden stream contains the acknowledged snapshot");
    assert_eq!(
        &resumed[1..],
        &golden[acked_idx + 1..],
        "replayed suffix must be byte-identical to the uninterrupted stream"
    );
    // The suffix starts with the alert fired *at* the acknowledged
    // snapshot — alert lines follow their snapshot, so they replay.
    assert!(
        resumed[1].contains("\"event\":\"alert\""),
        "first replayed line should be the tick-{acked} alert: {}",
        resumed[1]
    );
    let stats = server.stop();
    assert_eq!(stats.sessions_resumed, 1);
    assert!(
        stats.alerts >= 3,
        "golden, interrupted, and resumed all fire"
    );
}

#[test]
fn resume_with_unknown_or_expired_token_gets_410() {
    let server = start_server(test_config());
    let (status, body) = request(
        server.addr,
        "POST",
        "/session/resume",
        br#"{"token": "no-such-token"}"#,
    );
    assert_eq!(status, 410, "{}", String::from_utf8_lossy(&body));
    let err = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(err
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("token"));
    let stats = server.stop();
    assert!(stats.client_errors >= 1);

    // With a zero TTL every minted token has expired by lookup time.
    let config = ServerConfig {
        resume_ttl: Duration::ZERO,
        ..test_config()
    };
    let server = start_server(config);
    let events = run_session(server.addr, SESSION_BODY);
    let token = events[0]
        .get("token")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resume_body = format!(r#"{{"token": "{token}"}}"#);
    let (status, _) = request(
        server.addr,
        "POST",
        "/session/resume",
        resume_body.as_bytes(),
    );
    assert_eq!(status, 410, "an expired token is Gone, not a server error");
    server.stop();
}

#[test]
fn newest_paced_session_is_shed_to_admit_new_demand() {
    let config = ServerConfig {
        max_sessions: 1,
        session_workers: 1,
        ..test_config()
    };
    let server = start_server(config);
    // A paced session parks between rounds for 500 ms at a time — the shed
    // policy's victim pool.
    let paced_body = r#"{
        "workload": {"kind": "cyclic", "pages": 64, "reps": 50, "seed": 1},
        "p": 8, "k": 16,
        "arbitration": "fifo",
        "snapshot_period_ticks": 16,
        "pace_ms": 500
    }"#;
    let addr = server.addr;
    let paced = std::thread::spawn(move || run_session(addr, paced_body));
    std::thread::sleep(Duration::from_millis(250));
    // The gauge is full: the new session evicts the paced one (graceful
    // degradation) instead of being turned away, and completes normally.
    let events = run_session(server.addr, SESSION_BODY);
    let done = events.last().expect("terminal line");
    assert_eq!(done.get("reason").unwrap().as_str(), Some("completed"));
    let shed_events = paced.join().expect("paced client");
    let shed_done = shed_events.last().expect("terminal line");
    assert_eq!(shed_done.get("event").unwrap().as_str(), Some("done"));
    assert_eq!(
        shed_done.get("reason").unwrap().as_str(),
        Some("shed"),
        "the evicted session must end with a complete shed line"
    );
    let stats = server.stop();
    assert_eq!(stats.sessions_shed, 1);
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.rejected, 0, "shedding admitted the request instead");
}

#[test]
fn alert_rules_fire_at_snapshots_and_are_counted() {
    let server = start_server(test_config());
    let events = run_session(server.addr, ALERT_SESSION_BODY);
    let alerts: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("event").unwrap().as_str() == Some("alert"))
        .collect();
    assert_eq!(alerts.len(), 1, "exactly the outage rule fires, once");
    let alert = alerts[0];
    assert_eq!(
        alert.get("kind").unwrap().as_str(),
        Some("channel_outage_longer_than")
    );
    assert_eq!(alert.get("rule").unwrap().as_u64(), Some(0));
    assert_eq!(alert.get("value").unwrap().as_f64(), Some(10.0));
    assert_eq!(alert.get("threshold").unwrap().as_f64(), Some(5.0));
    let tick = alert.get("tick").unwrap().as_u64().unwrap();
    assert!(tick >= 20, "the rule can only fire after the outage ends");
    // The alert line directly follows the snapshot that triggered it.
    let i = events
        .iter()
        .position(|e| e.get("event").unwrap().as_str() == Some("alert"))
        .unwrap();
    assert_eq!(
        events[i - 1].get("event").unwrap().as_str(),
        Some("snapshot")
    );
    assert_eq!(events[i - 1].get("tick").unwrap().as_u64(), Some(tick));
    // The firing is visible in /healthz and the final stats.
    let (status, body) = request(server.addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(health.get("alerts").unwrap().as_u64(), Some(1));
    let stats = server.stop();
    assert_eq!(stats.alerts, 1);
}

/// Current thread count of this process (test + in-process server).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
#[cfg(target_os = "linux")]
fn a_thousand_paced_sessions_run_on_a_fixed_thread_pool() {
    // The tentpole's acceptance bar: 1000 concurrent paced sessions on a
    // fixed mux pool, with OS thread count bounded by
    // session_workers + shards·workers + O(1) — not by the session count.
    const SESSIONS: usize = 1000;
    const OPENERS: usize = 8;
    let config = ServerConfig {
        shards: 1,
        workers: 1,
        session_workers: 4,
        max_sessions: SESSIONS + 8,
        max_connections: SESSIONS + 64,
        ..ServerConfig::default()
    };
    let server = start_server(config);
    let baseline = thread_count();
    // Small engine, long pace: each session lives ~seconds on wall pacing
    // alone, so opens overlap into genuine concurrency; per-session output
    // (~10 KB) fits in socket buffers, so unread streams never stall.
    let body = r#"{
        "workload": {"kind": "cyclic", "pages": 16, "reps": 8, "seed": 3},
        "p": 2, "k": 8,
        "arbitration": "fifo",
        "snapshot_period_ticks": 32,
        "pace_ms": 300
    }"#;
    let addr = server.addr;
    type OpenStream = (TcpStream, ChunkedLines);
    let streams: std::sync::Arc<std::sync::Mutex<Vec<OpenStream>>> =
        std::sync::Arc::new(std::sync::Mutex::new(Vec::with_capacity(SESSIONS)));
    // Each opener waits for its session's stream head before opening the
    // next, so at most OPENERS connection threads are mid-handshake at any
    // moment. Fire-and-forget opens would instead leave the accept loop a
    // backlog of up to SESSIONS pending connections, each briefly holding
    // a connection thread — a measure of client burst size under CPU
    // contention, not of what open sessions cost.
    let openers: Vec<_> = (0..OPENERS)
        .map(|_| {
            let streams = std::sync::Arc::clone(&streams);
            std::thread::spawn(move || {
                for _ in 0..SESSIONS / OPENERS {
                    let opened = open_stream(addr, "/session", body.as_bytes());
                    streams.lock().unwrap().push(opened);
                }
            })
        })
        .collect();
    for o in openers {
        o.join().expect("opener thread");
    }
    // Poll /healthz until every session closed, sampling the process
    // thread count and open-session gauge at each step.
    let mut max_threads = thread_count().max(baseline);
    let mut max_active = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(
            Instant::now() < deadline,
            "sessions did not complete in time"
        );
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        let health = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        max_active = max_active.max(health.get("active_sessions").unwrap().as_u64().unwrap());
        max_threads = max_threads.max(thread_count());
        let closed = health.get("sessions_closed").unwrap().as_u64().unwrap();
        let reaped = health.get("sessions_reaped").unwrap().as_u64().unwrap();
        let shed = health.get("sessions_shed").unwrap().as_u64().unwrap();
        if closed + reaped + shed >= SESSIONS as u64 {
            assert_eq!(
                closed, SESSIONS as u64,
                "every session must close cleanly (reaped {reaped}, shed {shed})"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // The bound: mux pool + shard workers + slack for opener/connection/
    // healthz threads. The point is the order of magnitude — 1000 open
    // sessions must not mean anywhere near 1000 threads.
    let budget = 4 + 1 + OPENERS + 16;
    assert!(
        max_threads <= baseline + budget,
        "thread count must stay fixed: baseline {baseline}, peak {max_threads}"
    );
    assert!(
        max_active >= 100,
        "sessions must genuinely overlap (peak open: {max_active})"
    );
    // Every buffered stream ends with a completed done line.
    let mut streams = streams.lock().unwrap();
    let mut completed = 0usize;
    for (s, lines) in streams.iter_mut() {
        let all = read_all_lines(s, lines);
        if all.iter().any(|l| l.contains("\"reason\":\"completed\"")) {
            completed += 1;
        }
    }
    assert_eq!(completed, SESSIONS);
    drop(streams);
    let stats = server.stop();
    assert_eq!(stats.sessions_opened as usize, SESSIONS);
    assert_eq!(stats.sessions_closed as usize, SESSIONS);
    assert_eq!(stats.sessions_reaped, 0);
}

#[test]
fn graceful_drain_finishes_in_flight_work_then_exits() {
    let server = start_server(test_config());
    // Keep-alive connection: first request served, then the flag trips;
    // the connection must close after the in-flight exchange rather than
    // mid-response, and run() must return.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    write_request(&mut stream, "POST", "/simulate", SIM_BODY.as_bytes()).unwrap();
    let (status, _) = read_response(&mut stream, Instant::now() + Duration::from_secs(30)).unwrap();
    assert_eq!(status, 200);
    let addr = server.addr;
    let stats = server.stop();
    assert_eq!(stats.ok, 1);
    // New connections after drain must be refused (the listener is gone).
    assert!(TcpStream::connect(addr).is_err());
}
