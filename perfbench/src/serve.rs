//! The serving workloads against an in-process `hbm_serve::server::Server`,
//! which stays a black box while under load: `serve_warm` in a closed
//! loop, `serve_estimate` in an open loop at a fixed rate. Traced runs
//! afterwards replay the same request bodies in-process through the public
//! stage functions to split each request's latency into its layers.

use crate::common::{mix, repeat_for, secs, timed, CellSpec, Ctx};
use crate::loadgen::{self, Body, Outcome, Scheduled};
use crate::report::Report;
use crate::stats::{backlog_growing, median, min, windowed_tail, Latency};
use crate::sys;
use hbm_core::{FlatWorkload, NoopObserver};
use hbm_experiments::common::TracePool;
use hbm_model::predict::{predict, ModelConfig};
use hbm_serve::json::{Json, JsonLimits};
use hbm_serve::proto::{estimate_to_json, parse_sim_request, report_to_json, SimRequest};
use hbm_serve::server::{Server, ServerConfig, ServerStats};
use hbm_serve::ShutdownFlag;
use hbm_traces::analysis::WorkloadSummary;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request timeout: a request this late has failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Interval between `/healthz` samples during load.
const HEALTHZ_EVERY_S: f64 = 0.25;

/// An in-process server on an ephemeral port.
struct Running {
    addr: SocketAddr,
    flag: ShutdownFlag,
    handle: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl Running {
    fn start(threads: usize) -> Running {
        let config = ServerConfig {
            workers: threads,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let flag = ShutdownFlag::new();
        let run_flag = flag.clone();
        let handle = std::thread::spawn(move || server.run(&run_flag));
        Running { addr, flag, handle }
    }

    /// Drains the server and waits for every one of its threads.
    fn stop(self) {
        self.flag.trip();
        match self.handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => eprintln!("serve: server error: {e}"),
            Err(_) => eprintln!("serve: server thread panicked"),
        }
    }
}

/// A `/simulate` or `/estimate` request body.
fn body_json(
    workload: &str,
    trace_seed: u64,
    p: usize,
    k: usize,
    q: usize,
    arb: &str,
    seed: u64,
) -> String {
    format!(
        "{{\"workload\":{{\"name\":\"{workload}\",\"seed\":{trace_seed}}},\"p\":{p},\"k\":{k},\"q\":{q},\"arbitration\":{arb},\"seed\":{seed}}}"
    )
}

/// Which endpoint a body targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Simulate,
    Estimate,
    Healthz,
}

/// A request the workload sends, its parsed form and expected response.
struct Request {
    kind: Kind,
    body: String,
    sim: Option<SimRequest>,
}

/// The parsed form of a body (the benchmark's own bodies always parse).
fn parsed(body: &str) -> SimRequest {
    parse_sim_request(body.as_bytes(), &JsonLimits::default()).expect("benchmark bodies parse")
}

/// A cell spec equal to the server's settings for `sim`.
fn cell_of(sim: &SimRequest) -> CellSpec {
    let s = &sim.settings;
    CellSpec {
        k: s.k,
        q: s.q,
        arbitration: s.arbitration,
        replacement: Some(s.replacement),
        far_latency: s.far_latency,
        seed: s.seed,
        max_ticks: sim.budget.max_ticks,
    }
}

/// The model configuration `/estimate` uses for `sim`.
fn model_config(sim: &SimRequest) -> ModelConfig {
    let s = &sim.settings;
    ModelConfig::new(s.k, s.q, s.arbitration, s.replacement).far_latency(s.far_latency.unwrap_or(1))
}

/// The exact bytes the server must answer with, computed in-process:
/// `SimBuilder` + `report_to_json` on an owned workload for `/simulate`,
/// `estimate_to_json(predict(from_spec_opts(..)))` for `/estimate`.
fn expected(req: &Request) -> Option<Vec<u8>> {
    let sim = req.sim.as_ref()?;
    let w = &sim.workload;
    Some(
        match req.kind {
            Kind::Simulate => {
                let workload = w.spec.workload(sim.p, w.trace_seed, w.opts);
                let report = cell_of(sim)
                    .builder()
                    .try_run(&workload)
                    .expect("benchmark bodies are valid configurations");
                report_to_json(&report)
            }
            Kind::Estimate => {
                let summary = WorkloadSummary::from_spec_opts(w.spec, w.trace_seed, sim.p, w.opts);
                estimate_to_json(&predict(&summary, &model_config(sim)))
            }
            Kind::Healthz => return None,
        }
        .into_bytes(),
    )
}

/// Warm trace pools the replay uses, one per workload at its largest p —
/// the state the server's registry holds after prewarm.
fn replay_pools(reqs: &[Request]) -> HashMap<String, TracePool> {
    let mut max_p: HashMap<String, (SimRequest, usize)> = HashMap::new();
    for r in reqs.iter().filter(|r| r.kind == Kind::Simulate) {
        let sim = r.sim.as_ref().expect("simulate bodies are parsed");
        let e = max_p
            .entry(sim.workload.cache_key())
            .or_insert((sim.clone(), sim.p));
        e.1 = e.1.max(sim.p);
    }
    max_p
        .into_iter()
        .map(|(key, (sim, p))| {
            let w = &sim.workload;
            let pool = TracePool::generate(w.spec, p, w.trace_seed, w.opts);
            for q in 1..=p {
                pool.flat(q);
            }
            (key, pool)
        })
        .collect()
}

/// Stage seconds of one replayed request.
#[derive(Default, Clone, Copy)]
struct Stages {
    parse: f64,
    summary: f64,
    predict: f64,
    flat: f64,
    setup: f64,
    run: f64,
    encode: f64,
    refs: u64,
    ticks: u64,
}

impl Stages {
    fn total(&self) -> f64 {
        self.parse + self.summary + self.predict + self.flat + self.setup + self.run + self.encode
    }
}

/// Replays one request in-process through the public stage functions,
/// returning its stage times and whether the bytes match the expected
/// response.
fn replay_one(
    ctx: &Ctx,
    req: &Request,
    want: &[u8],
    pools: &HashMap<String, TracePool>,
    id: u64,
) -> (Stages, bool) {
    let tracer = &ctx.tracer;
    let root = tracer.open("replay.request", None, id);
    // Times one stage and records it as a span under the request.
    let stage = |name: &str, t0: Instant| {
        let t1 = Instant::now();
        tracer.record(name, Some(root), id, t0, t1);
        (t1 - t0).as_secs_f64()
    };
    let mut st = Stages::default();
    let t = Instant::now();
    let sim = parsed(&req.body);
    st.parse = stage("serve.proto.parse", t);
    let bytes = match req.kind {
        Kind::Estimate => {
            let w = &sim.workload;
            let t = Instant::now();
            let summary = WorkloadSummary::from_spec_opts(w.spec, w.trace_seed, sim.p, w.opts);
            st.summary = stage("traces.summary", t);
            let t = Instant::now();
            let pred = predict(&summary, &model_config(&sim));
            st.predict = stage("model.predict", t);
            let t = Instant::now();
            let json = estimate_to_json(&pred);
            st.encode = stage("serve.proto.encode", t);
            json
        }
        _ => {
            let t = Instant::now();
            let flat: Arc<FlatWorkload> = pools[&sim.workload.cache_key()].flat(sim.p);
            st.flat = stage("core.flat", t);
            let t = Instant::now();
            let engine = cell_of(&sim)
                .builder()
                .try_build_flat(&flat)
                .expect("benchmark bodies are valid configurations");
            st.setup = stage("core.engine.setup", t);
            let t = Instant::now();
            let report = engine.run(&mut NoopObserver);
            st.run = stage("core.engine.run", t);
            st.refs = flat.total_refs() as u64;
            st.ticks = report.makespan;
            let t = Instant::now();
            let json = report_to_json(&report);
            st.encode = stage("serve.proto.encode", t);
            json
        }
    };
    tracer.close(root);
    (st, bytes.as_bytes() == want)
}

/// Counters read from `/healthz` samples taken during load.
#[derive(Default, Debug)]
struct Health {
    queued_max: f64,
    rejected: f64,
    shed: f64,
    warm: f64,
    cold: f64,
}

fn health(outcomes: &[Outcome]) -> Health {
    let samples: Vec<Json> = outcomes
        .iter()
        .filter_map(|o| o.response.as_ref())
        .filter_map(|b| Json::parse(std::str::from_utf8(b).ok()?).ok())
        .collect();
    let num = |j: &Json, f: &str| j.get(f).and_then(Json::as_f64).unwrap_or(0.0);
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Health::default();
    };
    Health {
        queued_max: samples.iter().map(|j| num(j, "queued")).fold(0.0, f64::max),
        rejected: num(last, "rejected") - num(first, "rejected"),
        shed: num(last, "shed") - num(first, "shed"),
        warm: num(last, "warm_runs") - num(first, "warm_runs"),
        cold: num(last, "cold_runs") - num(first, "cold_runs"),
    }
}

/// Interleaves `/healthz` samples (body index `healthz`) into a schedule.
fn with_healthz(mut schedule: Vec<Scheduled>, healthz: usize) -> Vec<Scheduled> {
    let end = schedule.last().and_then(|s| s.due).unwrap_or(0.0);
    let mut t = 0.0;
    while t <= end {
        schedule.push(Scheduled {
            due: Some(t),
            body: healthz,
        });
        t += HEALTHZ_EVERY_S;
    }
    schedule.sort_by(|a, b| a.due.unwrap_or(0.0).total_cmp(&b.due.unwrap_or(0.0)));
    schedule
}

/// The workload's fixed request mix.
struct Mix {
    reqs: Vec<Request>,
    bodies: Vec<Body>,
    /// Body indices in the order one cycle of the schedule sends them.
    cycle: Vec<usize>,
}

impl Mix {
    fn new(reqs: Vec<Request>, cycle: Vec<usize>) -> Mix {
        let bodies = reqs
            .iter()
            .map(|r| Body {
                path: match r.kind {
                    Kind::Simulate => "/simulate",
                    Kind::Estimate => "/estimate",
                    Kind::Healthz => "/healthz",
                },
                method: if r.kind == Kind::Healthz {
                    "GET"
                } else {
                    "POST"
                },
                bytes: r.body.clone().into_bytes(),
                expected: expected(r),
            })
            .collect();
        Mix {
            reqs,
            bodies,
            cycle,
        }
    }

    fn healthz(&self) -> usize {
        self.reqs
            .iter()
            .position(|r| r.kind == Kind::Healthz)
            .expect("every mix samples /healthz")
    }

    /// Set-up before the first timed request: bind a fresh server and send
    /// every `/simulate` body once so its workload is pooled. Returns the
    /// server and the seconds taken; prewarm requests count as attempted
    /// operations.
    fn set_up(&self, threads: usize, report: &mut Report) -> (Running, f64) {
        let t = Instant::now();
        let server = Running::start(threads);
        let mut client = loadgen::Client::new(server.addr);
        for (r, b) in self.reqs.iter().zip(&self.bodies) {
            if r.kind != Kind::Simulate {
                continue;
            }
            report.attempted += 1;
            match client.roundtrip(b.method, b.path, &b.bytes, TIMEOUT) {
                Ok((200, resp)) if Some(&resp) == b.expected.as_ref() => {}
                other => {
                    eprintln!(
                        "serve: prewarm of {} failed: {:?}",
                        r.body,
                        other.map(|(s, _)| s)
                    );
                    report.failed += 1;
                }
            }
        }
        (server, secs(t))
    }

    /// Seconds to answer every distinct body analytically (parse, summary,
    /// prediction and encoding): the fastest of as many answers as fit in
    /// 5% of `--seconds`, at least five. Returns it with the answer count.
    fn analytic_answer(&self, ctx: &Ctx) -> (f64, usize) {
        let mut best = f64::INFINITY;
        let budget = Duration::from_secs_f64(ctx.seconds * 0.05);
        let n = repeat_for(budget, 5, 1000, |_| {
            let (_, s) = timed(|| {
                for r in self.reqs.iter().filter(|r| r.kind != Kind::Healthz) {
                    let sim = parsed(&r.body);
                    let w = &sim.workload;
                    let summary =
                        WorkloadSummary::from_spec_opts(w.spec, w.trace_seed, sim.p, w.opts);
                    std::hint::black_box(estimate_to_json(&predict(&summary, &model_config(&sim))));
                }
            });
            best = best.min(s);
        });
        (best, n)
    }

    /// Runs one open-loop schedule at `rate` for `secs` seconds.
    fn load(
        &self,
        ctx: &Ctx,
        addr: SocketAddr,
        rate: f64,
        secs: f64,
        tracer: &crate::trace::Tracer,
    ) -> Vec<Outcome> {
        let n = ((rate * secs).round() as usize).max(1);
        let schedule = with_healthz(loadgen::uniform(rate, n, &self.cycle, 0.0), self.healthz());
        loadgen::run(addr, &self.bodies, &schedule, ctx.threads, tracer, TIMEOUT)
    }

    /// A closed-loop batch of `n` requests cycling through the mix (every
    /// 250th a `/healthz` sample), each sent as soon as one of the `nproc`
    /// connections is free.
    fn batch(
        &self,
        ctx: &Ctx,
        addr: SocketAddr,
        n: usize,
        tracer: &crate::trace::Tracer,
    ) -> Vec<Outcome> {
        let schedule: Vec<Scheduled> = (0..n)
            .map(|i| Scheduled {
                due: None,
                body: if i % 250 == 249 {
                    self.healthz()
                } else {
                    self.cycle[i % self.cycle.len()]
                },
            })
            .collect();
        loadgen::run(addr, &self.bodies, &schedule, ctx.threads, tracer, TIMEOUT)
    }

    fn kind(&self, o: &Outcome) -> Kind {
        self.reqs[o.body].kind
    }
}

/// Latencies (ms) of the outcomes of one kind.
fn latencies(mix: &Mix, outcomes: &[Outcome], kind: Kind) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| mix.kind(o) == kind)
        .map(Outcome::latency_ms)
        .collect()
}

/// Counts attempts and failures (non-200, wrong bytes, transport errors)
/// of the non-healthz requests.
fn tally(mix: &Mix, outcomes: &[Outcome], report: &mut Report) {
    for o in outcomes.iter().filter(|o| mix.kind(o) != Kind::Healthz) {
        report.attempted += 1;
        if !o.ok {
            if o.status == 200 {
                eprintln!(
                    "serve: response to {} differs from the expected bytes",
                    mix.reqs[o.body].body
                );
            }
            report.failed += 1;
        }
    }
}

/// Completed requests per second over the schedule's span.
fn achieved(outcomes: &[Outcome]) -> f64 {
    let first = outcomes.iter().map(|o| o.due).fold(f64::INFINITY, f64::min);
    let last = outcomes.iter().map(|o| o.done).fold(0.0, f64::max);
    let ok = outcomes.iter().filter(|o| o.ok).count();
    if last > first {
        ok as f64 / (last - first)
    } else {
        0.0
    }
}

/// Shared traced-run tail: replays every non-healthz request of
/// `outcomes`, charges stage times to layers and the rest of each
/// request's latency to `serve.transport.s`.
fn charge_replay(ctx: &Ctx, mix: &Mix, outcomes: &[Outcome], report: &mut Report) {
    let pools = replay_pools(&mix.reqs);
    let mut e2e = 0.0;
    let mut mismatches = 0u64;
    let mut summaries = 0u64;
    let mut predictions = 0u64;
    let mut flats = 0u64;
    let mut run_cpu = 0.0;
    for o in outcomes.iter().filter(|o| mix.kind(o) != Kind::Healthz) {
        let req = &mix.reqs[o.body];
        let want = mix.bodies[o.body].expected.as_deref().unwrap_or_default();
        let (st, same) = replay_one(ctx, req, want, &pools, o.index as u64);
        if !same {
            mismatches += 1;
        }
        let latency = o.latency_ms() / 1e3;
        e2e += latency;
        report.add("serve.proto.parse.s", st.parse);
        report.add("traces.summary.s", st.summary);
        report.add("model.predict.s", st.predict);
        report.add("core.flat.s", st.flat);
        report.add("core.engine.setup.s", st.setup);
        report.add("core.engine.run.s", st.run);
        report.add("serve.proto.encode.s", st.encode);
        report.add("serve.transport.s", (latency - st.total()).max(0.0));
        report.add("core.engine.run.refs", st.refs as f64);
        report.add("core.engine.run.ticks", st.ticks as f64);
        run_cpu += st.run;
        if req.kind == Kind::Estimate {
            summaries += 1;
            predictions += 1;
        } else {
            flats += 1;
        }
    }
    report.failed += mismatches;
    report.set("traces.summary.count", summaries as f64);
    report.set("model.predict.count", predictions as f64);
    report.set("core.flat.count", flats as f64);
    let refs = report.get("core.engine.run.refs");
    report.set(
        "core.engine.run.refs_per_s",
        if run_cpu > 0.0 { refs / run_cpu } else { 0.0 },
    );
    let h = health(outcomes);
    report.set("serve.queued", h.queued_max);
    report.set("serve.rejected", h.rejected);
    report.set("serve.shed", h.shed);
    report.set(
        "serve.pool.warm_ratio",
        if h.warm + h.cold > 0.0 {
            h.warm / (h.warm + h.cold)
        } else {
            0.0
        },
    );
    let failed = outcomes
        .iter()
        .filter(|o| mix.kind(o) != Kind::Healthz && !o.ok)
        .count();
    report.set("serve.failed", (failed as u64 + mismatches) as f64);
    let lags: Vec<f64> = outcomes.iter().map(Outcome::lag_ms).collect();
    report.set("loadgen.lag_ms", median(&lags));
    report.close_accounting(e2e);
}

/// Median latency (ms) of the non-healthz requests.
fn median_latency(mix: &Mix, outcomes: &[Outcome]) -> f64 {
    let v: Vec<f64> = outcomes
        .iter()
        .filter(|o| mix.kind(o) != Kind::Healthz)
        .map(Outcome::latency_ms)
        .collect();
    median(&v)
}

// ---------------------------------------------------------------------
// serve_warm

/// Requests per closed-loop batch; `wall_s` is the median time to serve
/// one batch.
const WARM_BATCH: usize = 500;
/// Samples per window of the windowed tail.
const TAIL_WINDOW: usize = 1000;

/// Small `/simulate` bodies whose engine run costs about as much as the
/// HTTP exchange: three cheap shapes at small p, sent three times per
/// cycle, and SpGEMM at p = 1 once per cycle.
fn warm_mix(seed: u64) -> Mix {
    let mut reqs = Vec::new();
    let shapes: [(&str, &[usize]); 4] = [
        ("dataset3-small", &[1, 2, 4]),
        ("zipf-small", &[1, 2]),
        ("uniform-small", &[1, 2]),
        ("spgemm-small", &[1]),
    ];
    for (si, (name, ps)) in shapes.iter().enumerate() {
        for (pi, &p) in ps.iter().enumerate() {
            // The seed picks trace and policy seeds; the simulated
            // configuration is fixed, so every seed costs about the same.
            let h = mix(seed, (si * 8 + p) as u64);
            let k = [32, 64, 128][pi % 3];
            let arb = ["\"fifo\"", "\"priority\""][(si + pi) % 2];
            let body = body_json(
                name,
                (h >> 32) % 1000 + 1,
                p,
                k,
                1 + pi % 2,
                arb,
                (h >> 24) % 100,
            );
            reqs.push(Request {
                kind: Kind::Simulate,
                sim: Some(parsed(&body)),
                body,
            });
        }
    }
    let spgemm = reqs.len() - 1;
    let mut cycle: Vec<usize> = (0..3).flat_map(|_| 0..spgemm).collect();
    cycle.push(spgemm);
    reqs.push(Request {
        kind: Kind::Healthz,
        body: String::new(),
        sim: None,
    });
    Mix::new(reqs, cycle)
}

/// How a serving workload offers its requests.
#[derive(Clone, Copy)]
enum Load {
    /// An open loop at this many requests per second.
    Open(f64),
    /// A closed-loop batch of this many requests.
    Closed(usize),
}

/// The traced run of a serving workload: the load untraced and then
/// traced (their median latencies give the tracing overhead), then the
/// traced requests replayed in-process for the layer split.
fn run_traced(ctx: &Ctx, mix: &Mix, server: Running, load: Load, report: &mut Report) {
    let offer = |tracer: &crate::trace::Tracer| match load {
        Load::Open(rate) => mix.load(ctx, server.addr, rate, ctx.seconds * 0.35, tracer),
        Load::Closed(n) => mix.batch(ctx, server.addr, n, tracer),
    };
    let plain = offer(&crate::trace::Tracer::new(false));
    let traced = offer(&ctx.tracer);
    server.stop();
    tally(mix, &plain, report);
    tally(mix, &traced, report);
    report.set(
        "trace.overhead_frac",
        median_latency(mix, &traced) / median_latency(mix, &plain) - 1.0,
    );
    charge_replay(ctx, mix, &traced, report);
}

/// Runs `serve_warm`: until 80% of `--seconds` has passed, a fresh server
/// is set up and serves one closed-loop batch of the body mix over `nproc`
/// connections.
pub fn run_warm(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mix = warm_mix(ctx.seed);
    if ctx.traced() {
        let (server, _) = mix.set_up(ctx.threads, &mut report);
        run_traced(ctx, &mix, server, Load::Closed(WARM_BATCH), &mut report);
        return report;
    }
    let mut lat_ms = Vec::new();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    repeat_for(Duration::from_secs_f64(ctx.seconds * 0.8), 5, 1000, |_| {
        let (server, setup_s) = mix.set_up(ctx.threads, &mut report);
        setups.push(setup_s);
        let (t, cpu0) = (Instant::now(), sys::cpu_seconds());
        let out = mix.batch(
            ctx,
            server.addr,
            WARM_BATCH,
            &crate::trace::Tracer::new(false),
        );
        walls.push(secs(t));
        cpus.push(sys::cpu_seconds() - cpu0);
        server.stop();
        tally(&mix, &out, &mut report);
        lat_ms.extend(out.iter().map(Outcome::service_ms));
    });
    let tail = windowed_tail(&lat_ms, TAIL_WINDOW);
    let (rank_s, answers) = mix.analytic_answer(ctx);
    let p50 = median(&lat_ms);
    let batches = walls.len();
    let note = format!(
        "closed loop, {} connections, n={}; tail = median over {} windows of {TAIL_WINDOW} of p{}",
        ctx.threads,
        lat_ms.len(),
        tail.windows,
        tail.pct
    );
    report.set_noted(
        "setup_s",
        median(&setups),
        format!("bind + prewarm, median of {batches}"),
    );
    let wall = min(&walls);
    report.set_noted(
        "wall_s",
        wall,
        format!("{WARM_BATCH}-request batch, fastest of {batches}"),
    );
    report.set_noted(
        "cpu_s",
        median(&cpus),
        format!("process CPU seconds per {WARM_BATCH}-request batch, median of {batches}"),
    );
    report.set_noted(
        "rank_s",
        rank_s,
        format!("summaries + predictions for the distinct bodies, fastest of {answers}"),
    );
    report.set_noted("p50_ms", p50, note.clone());
    report.set_noted("tail_ms", tail.value, note);
    report.set_noted(
        "capacity_rps",
        WARM_BATCH as f64 / wall,
        "requests per second a batch sustains with every connection busy",
    );
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report
}

// ---------------------------------------------------------------------
// serve_estimate

/// Offered rate: requests per second, sustained by the seed commit with
/// no backlog.
const ESTIMATE_RATE: f64 = 24.0;

/// `/estimate` on program-shaped builtins (the full-size `spgemm`
/// included) at p = 4, each followed by a warm `/simulate` on the same
/// workload at p = 1.
fn estimate_mix(seed: u64) -> Mix {
    let mut reqs = Vec::new();
    let mut cycle = Vec::new();
    for (i, name) in ["spgemm-small", "sort-small", "spgemm"].iter().enumerate() {
        let h = mix(seed, 100 + i as u64);
        // The seed picks trace seeds; the configuration is fixed.
        let trace_seed = (h >> 32) % 1000 + 1;
        let (k, q) = (128 << i, 1 + i);
        let arb = ["\"fifo\"", "\"priority\""][i % 2];
        for (kind, p) in [(Kind::Estimate, 4), (Kind::Simulate, 1)] {
            let body = body_json(name, trace_seed, p, k, q, arb, 0);
            cycle.push(reqs.len());
            reqs.push(Request {
                kind,
                sim: Some(parsed(&body)),
                body,
            });
        }
    }
    reqs.push(Request {
        kind: Kind::Healthz,
        body: String::new(),
        sim: None,
    });
    Mix::new(reqs, cycle)
}

/// Seconds of one open-loop segment: each segment runs on a freshly set-up
/// server.
const SEGMENT_S: f64 = 2.0;

/// Seconds to serve one cycle of the mix request by request: the sum over
/// the cycle's bodies of each body's fastest round trip (send to
/// response). A round trip leaves out how late the generator woke up, and
/// the fastest of many leaves out the moments another guest on the host
/// held the CPU or its caches.
fn cycle_service_s(mix: &Mix, outcomes: &[Outcome]) -> f64 {
    mix.cycle
        .iter()
        .map(|&b| {
            let trips: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.body == b && o.ok)
                .map(Outcome::service_ms)
                .collect();
            min(&trips) / 1e3
        })
        .sum()
}

/// Runs `serve_estimate`: until 80% of `--seconds` has passed, a fresh
/// server is set up and serves a [`SEGMENT_S`]-second open-loop segment.
pub fn run_estimate(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mix = estimate_mix(ctx.seed);
    if ctx.traced() {
        let (server, _) = mix.set_up(ctx.threads, &mut report);
        run_traced(ctx, &mix, server, Load::Open(ESTIMATE_RATE), &mut report);
        return report;
    }
    let off = crate::trace::Tracer::new(false);
    let mut setups = Vec::new();
    let mut cpus = Vec::new();
    let mut rates = Vec::new();
    let mut served = Vec::new();
    repeat_for(Duration::from_secs_f64(ctx.seconds * 0.8), 3, 1000, |_| {
        let (server, setup_s) = mix.set_up(ctx.threads, &mut report);
        setups.push(setup_s);
        let cpu0 = sys::cpu_seconds();
        let out = mix.load(ctx, server.addr, ESTIMATE_RATE, SEGMENT_S, &off);
        let cpu = sys::cpu_seconds() - cpu0;
        server.stop();
        tally(&mix, &out, &mut report);
        let requests: Vec<Outcome> = out
            .into_iter()
            .filter(|o| mix.kind(o) != Kind::Healthz)
            .collect();
        cpus.push(cpu * mix.cycle.len() as f64 / requests.len() as f64);
        rates.push(achieved(&requests));
        served.extend(requests);
    });
    let est = Latency::of(&latencies(&mix, &served, Kind::Estimate));
    let sim = Latency::of(&latencies(&mix, &served, Kind::Simulate));
    let lags: Vec<f64> = served.iter().map(Outcome::lag_ms).collect();
    if backlog_growing(&lags, est.tail) {
        eprintln!("serve_estimate: the generator fell behind at {ESTIMATE_RATE} req/s");
    }
    let (rank_s, answers) = mix.analytic_answer(ctx);
    let segments = setups.len();
    let note = format!(
        "/estimate at {ESTIMATE_RATE} req/s (mixed), n={}, tail p{}",
        est.n, est.tail_pct
    );
    report.set_noted(
        "setup_s",
        median(&setups),
        format!("bind + prewarm, median of {segments}"),
    );
    report.set_noted(
        "wall_s",
        cycle_service_s(&mix, &served),
        format!(
            "one {}-request cycle served request by request, fastest round trips",
            mix.cycle.len()
        ),
    );
    report.set_noted(
        "cpu_s",
        median(&cpus),
        format!(
            "process CPU seconds per {}-request cycle, median of {segments} segments",
            mix.cycle.len()
        ),
    );
    report.set_noted(
        "rank_s",
        rank_s,
        format!("summaries + predictions for the distinct bodies, fastest of {answers}"),
    );
    report.set_noted("p50_ms", est.p50, note.clone());
    report.set_noted("tail_ms", est.tail, note);
    report.set_noted(
        "sim_p50_ms",
        sim.p50,
        format!("/simulate share, n={}", sim.n),
    );
    report.set_noted(
        "capacity_rps",
        median(&rates),
        format!("completed per second at {ESTIMATE_RATE} req/s offered, median of {segments} segments"),
    );
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report
}
