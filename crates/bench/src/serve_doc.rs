//! The machine-readable serving-throughput document behind `BENCH_7.json`.
//!
//! [`harness`](crate::harness) answers "how many simulated ticks per
//! second does the *engine* sustain?"; this module answers the layer-up
//! question "how many *requests* per second does the `hbm-serve` service
//! sustain over real TCP, and at what tail latency?". The measurements are
//! produced by the `serve_bench` load-generator binary:
//!
//! ```text
//! cargo run --release -p hbm-bench --bin serve_bench -- --out BENCH_7.json
//! ```
//!
//! Schema 5 (after schema 4's `BENCH_5.json`) makes *shard count* a first
//! class axis: every load point records the `(shards, clients)` cell it
//! measured, plus the per-shard request distribution pulled from
//! `/healthz` deltas, so one hot listener shows up as imbalance instead of
//! being averaged away. The document also records `host_cores` (the
//! machine's available parallelism at measurement time) because shard
//! scaling is physically impossible past the core count — the scaling
//! gate refuses to produce false alarms on starved machines.
//!
//! Two gates read this document:
//!
//! * [`check_throughput_floor`] — the schema-4 calibration-normalized
//!   floor, matching points on `(shards, clients)`.
//! * [`check_scaling`] — schema 5's addition: a *self-relative* assertion
//!   that multi-shard throughput exceeds single-shard throughput by a
//!   required ratio at the highest common client count. Self-relative
//!   means no baseline file and no cross-machine normalization — both
//!   cells come from the same run on the same machine.
//!
//! Both read only the `"serve"` points, whose requests are all engine
//! runs (each carries a fresh policy seed, so the server's response memo
//! never answers it). The `"repeated_body"` points send one body over
//! and over and are answered from the memo; they are recorded, never
//! gated. Every point records its `memo_hits`.
//!
//! Unlike the harness document this one is rendered *and* re-read through
//! the real JSON codec ([`hbm_serve::json`]) — the regression gate
//! dogfoods the parser the server itself uses. Cross-machine
//! comparability reuses the harness's [`calibration_score`]: the floor
//! gate scales the baseline's requests/sec by the calibration ratio, so
//! a slower CI runner does not read as a serving regression.
//!
//! [`calibration_score`]: crate::harness::calibration_score

use hbm_serve::json::{fmt_f64, Json, Number};

/// One measured load point: `clients` concurrent connections driving a
/// `shards`-shard server flat-out for a fixed duration.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Listener shards the target server ran with.
    pub shards: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Completed (200) requests over the window.
    pub requests: u64,
    /// Failed requests (non-200, transport errors). Honest runs keep this
    /// at 0; the gate refuses documents where errors outnumber successes.
    pub errors: u64,
    /// Wall-clock seconds of the measurement window.
    pub wall_seconds: f64,
    /// `requests / wall_seconds` — the sustained throughput figure.
    pub requests_per_sec: f64,
    /// Median request latency in seconds.
    pub p50_seconds: f64,
    /// 90th-percentile request latency in seconds.
    pub p90_seconds: f64,
    /// 99th-percentile request latency in seconds — the tail the ISSUE's
    /// acceptance criteria quote.
    pub p99_seconds: f64,
    /// Worst observed request latency in seconds.
    pub max_seconds: f64,
    /// Requests routed to each shard over the window (`/healthz` delta),
    /// indexed by shard id. Empty when the target exposes no per-shard
    /// counters (pre-schema-5 servers).
    pub per_shard_requests: Vec<u64>,
    /// `/simulate`s the server answered from its response memo over the
    /// window (`/healthz` `simulate_memo_hits` delta). A gated point sends
    /// a fresh policy seed with every request, so it must record 0: each
    /// of its requests is an engine run. 0 when the target exposes no
    /// such counter.
    pub memo_hits: u64,
}

/// The cold-versus-warm setup delta: the first request against a fresh
/// server pays trace generation + flatten (cold [`TracePool`]); repeats
/// ride the memoized pool and recycled scratch.
///
/// [`TracePool`]: hbm_serve::pool::TracePool
#[derive(Debug, Clone, Copy)]
pub struct WarmVsCold {
    /// Latency of the very first request (cold pool), seconds.
    pub cold_first_seconds: f64,
    /// Median latency of the following warm repeats, seconds.
    pub warm_median_seconds: f64,
    /// `cold_first_seconds / warm_median_seconds`.
    pub cold_over_warm: f64,
}

/// Latency percentile over an *unsorted* sample (sorts a copy). `p` in
/// [0, 1]; nearest-rank on the sorted sample. Returns 0 for an empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summarizes a latency sample (seconds) into a [`LoadPoint`].
pub fn summarize(
    shards: usize,
    clients: usize,
    latencies: &[f64],
    errors: u64,
    wall_seconds: f64,
) -> LoadPoint {
    let wall = wall_seconds.max(1e-9);
    LoadPoint {
        shards,
        clients,
        requests: latencies.len() as u64,
        errors,
        wall_seconds: wall,
        requests_per_sec: latencies.len() as f64 / wall,
        p50_seconds: percentile(latencies, 0.50),
        p90_seconds: percentile(latencies, 0.90),
        p99_seconds: percentile(latencies, 0.99),
        max_seconds: latencies.iter().cloned().fold(0.0, f64::max),
        per_shard_requests: Vec::new(),
        memo_hits: 0,
    }
}

fn num(x: f64) -> Json {
    Json::Num(Number::F(if x.is_finite() { x } else { 0.0 }))
}

/// One load point as a JSON object.
fn point_json(pt: &LoadPoint) -> Json {
    Json::obj(vec![
        ("shards", Json::from(pt.shards as u64)),
        ("clients", Json::from(pt.clients as u64)),
        ("requests", Json::from(pt.requests)),
        ("errors", Json::from(pt.errors)),
        ("wall_seconds", num(pt.wall_seconds)),
        ("requests_per_sec", num(pt.requests_per_sec)),
        ("p50_seconds", num(pt.p50_seconds)),
        ("p90_seconds", num(pt.p90_seconds)),
        ("p99_seconds", num(pt.p99_seconds)),
        ("max_seconds", num(pt.max_seconds)),
        (
            "per_shard_requests",
            Json::Arr(
                pt.per_shard_requests
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect(),
            ),
        ),
        ("memo_hits", Json::from(pt.memo_hits)),
    ])
}

/// Writes `"key": [ ... ]` with one load point per line.
fn push_points(out: &mut String, key: &str, points: &[LoadPoint]) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, pt) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", point_json(pt)));
    }
    out.push_str("  ],\n");
}

/// Renders the full `BENCH_7.json` document (schema 5). Layout mirrors the
/// harness document — line-oriented, one load point per line — but every
/// value goes through [`fmt_f64`], so the file is an exact fixed point of
/// the server's own codec.
///
/// `points` go under `"serve"`, which both gates read. `repeated` goes
/// under `"repeated_body"`: load points that send one body over and over,
/// so the server answers them from its response memo. They show what
/// HTTP handling alone sustains; no gate reads them, and the summary
/// covers `points` only.
pub fn render_json(
    calibration: f64,
    host_cores: usize,
    points: &[LoadPoint],
    repeated: &[LoadPoint],
    warm_vs_cold: WarmVsCold,
    golden_match: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(
        "  \"command\": \"cargo run --release -p hbm-bench --bin serve_bench -- --out BENCH_7.json\",\n",
    );
    out.push_str(&format!(
        "  \"calibration_score\": {},\n",
        fmt_f64(calibration)
    ));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    push_points(&mut out, "serve", points);
    push_points(&mut out, "repeated_body", repeated);
    let wc = Json::obj(vec![
        ("cold_first_seconds", num(warm_vs_cold.cold_first_seconds)),
        ("warm_median_seconds", num(warm_vs_cold.warm_median_seconds)),
        ("cold_over_warm", num(warm_vs_cold.cold_over_warm)),
    ]);
    out.push_str(&format!("  \"warm_vs_cold\": {wc},\n"));
    out.push_str(&format!("  \"golden_match\": {golden_match},\n"));
    let best = points
        .iter()
        .map(|p| p.requests_per_sec)
        .fold(0.0, f64::max);
    let worst_p99 = points.iter().map(|p| p.p99_seconds).fold(0.0, f64::max);
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!(
        "    \"best_requests_per_sec\": {},\n",
        fmt_f64(best)
    ));
    out.push_str(&format!(
        "    \"worst_p99_seconds\": {}\n",
        fmt_f64(worst_p99)
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// A parsed serve-bench document — the fields the gates need.
#[derive(Debug, Clone)]
pub struct ParsedDoc {
    /// Machine calibration score recorded at measurement time.
    pub calibration: f64,
    /// Host core count recorded at measurement time (1 when the document
    /// predates schema 5).
    pub host_cores: usize,
    /// The load points, in document order.
    pub points: Vec<LoadPoint>,
    /// Whether the served bytes matched a direct `SimBuilder` run.
    pub golden_match: bool,
}

/// Re-reads a document produced by [`render_json`], through the real JSON
/// parser. `None` on anything malformed. Schema-4 documents (no `shards`
/// axis) parse with `shards = 1` and an empty per-shard distribution, so
/// old baselines keep working as `--check` inputs.
pub fn parse_doc(text: &str) -> Option<ParsedDoc> {
    let v = Json::parse(text).ok()?;
    let calibration = v.get("calibration_score")?.as_f64()?;
    let host_cores = v.get("host_cores").and_then(Json::as_usize).unwrap_or(1);
    let golden_match = v.get("golden_match")?.as_bool()?;
    let Json::Arr(serve) = v.get("serve")? else {
        return None;
    };
    let mut points = Vec::with_capacity(serve.len());
    for pt in serve {
        points.push(LoadPoint {
            shards: pt.get("shards").and_then(Json::as_usize).unwrap_or(1),
            clients: pt.get("clients")?.as_usize()?,
            requests: pt.get("requests")?.as_u64()?,
            errors: pt.get("errors")?.as_u64()?,
            wall_seconds: pt.get("wall_seconds")?.as_f64()?,
            requests_per_sec: pt.get("requests_per_sec")?.as_f64()?,
            p50_seconds: pt.get("p50_seconds")?.as_f64()?,
            p90_seconds: pt.get("p90_seconds")?.as_f64()?,
            p99_seconds: pt.get("p99_seconds")?.as_f64()?,
            max_seconds: pt.get("max_seconds")?.as_f64()?,
            per_shard_requests: pt
                .get("per_shard_requests")
                .and_then(Json::as_array)
                .map(|arr| arr.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default(),
            memo_hits: pt.get("memo_hits").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Some(ParsedDoc {
        calibration,
        host_cores,
        points,
        golden_match,
    })
}

/// Compares a current document against a baseline. A load point fails the
/// floor when its requests/sec drops more than `tolerance` below the
/// baseline's calibration-normalized figure (matching on shard + client
/// count); the whole document fails when golden_match is false or errors
/// outnumber successes at any point. Cells present on only one side are
/// informational, not failures. Returns human-readable failure lines;
/// empty means the gate passes.
pub fn check_throughput_floor(
    current_json: &str,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(current) = parse_doc(current_json) else {
        return vec!["current serve-bench document is malformed".into()];
    };
    let Some(baseline) = parse_doc(baseline_json) else {
        return vec!["baseline serve-bench document is malformed".into()];
    };
    if !current.golden_match {
        failures.push("GOLDEN MISMATCH: served bytes diverged from direct SimBuilder run".into());
    }
    for pt in &current.points {
        if pt.errors > pt.requests {
            failures.push(format!(
                "UNHEALTHY LOAD POINT shards={} clients={}: {} errors vs {} successes",
                pt.shards, pt.clients, pt.errors, pt.requests
            ));
        }
    }
    let scale = if current.calibration > 0.0 && baseline.calibration > 0.0 {
        current.calibration / baseline.calibration
    } else {
        1.0
    };
    for b in &baseline.points {
        let Some(c) = current
            .points
            .iter()
            .find(|c| c.clients == b.clients && c.shards == b.shards)
        else {
            continue;
        };
        let floor = b.requests_per_sec * scale * (1.0 - tolerance);
        if floor > 0.0 && c.requests_per_sec < floor {
            failures.push(format!(
                "THROUGHPUT REGRESSION shards={} clients={}: {:.0} req/s vs baseline {:.0} \
                 (machine-normalized floor {:.0}, tolerance {:.0}%)",
                b.shards,
                b.clients,
                c.requests_per_sec,
                b.requests_per_sec,
                floor,
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// Outcome of the self-relative shard-scaling gate.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingVerdict {
    /// Multi-shard throughput cleared the required ratio; carries the
    /// measured `(shards, clients, ratio)` of the judged cell.
    Pass {
        /// Shard count of the multi-shard cell.
        shards: usize,
        /// Client count the ratio was measured at.
        clients: usize,
        /// `multi_shard_rps / single_shard_rps`.
        ratio: f64,
    },
    /// Multi-shard throughput failed to clear the ratio; carries the
    /// human-readable failure line.
    Fail(String),
    /// The document cannot support a scaling judgement (no multi-shard
    /// points, no common client count, or the host had fewer cores than
    /// shards — scaling past the core count is physically impossible and
    /// gating on it would only produce false alarms). Carries the reason.
    Skipped(String),
}

/// The self-relative scaling gate over one document: at the highest client
/// count measured under both 1 shard and the document's maximum shard
/// count, the multi-shard cell must sustain more than `min_ratio` times
/// the single-shard throughput. Both cells come from the same run on the
/// same machine, so no baseline or calibration is involved.
pub fn check_scaling(current_json: &str, min_ratio: f64) -> ScalingVerdict {
    let Some(doc) = parse_doc(current_json) else {
        return ScalingVerdict::Fail("serve-bench document is malformed".into());
    };
    if !doc.golden_match {
        return ScalingVerdict::Fail(
            "GOLDEN MISMATCH: served bytes diverged from direct SimBuilder run".into(),
        );
    }
    let max_shards = doc.points.iter().map(|p| p.shards).max().unwrap_or(0);
    if max_shards < 2 {
        return ScalingVerdict::Skipped("document has no multi-shard load points".into());
    }
    if doc.host_cores < max_shards {
        return ScalingVerdict::Skipped(format!(
            "host had {} core(s) for {} shards; shard scaling cannot manifest",
            doc.host_cores, max_shards
        ));
    }
    // Judge at the highest client count present in both shard columns: a
    // single client rides one connection pinned to one shard, so low
    // client counts cannot exhibit shard scaling by construction.
    let common = doc
        .points
        .iter()
        .filter(|p| p.shards == max_shards)
        .filter_map(|p| {
            doc.points
                .iter()
                .find(|q| q.shards == 1 && q.clients == p.clients)
                .map(|q| (p, q))
        })
        .max_by_key(|(p, _)| p.clients);
    let Some((multi, single)) = common else {
        return ScalingVerdict::Skipped(
            "no client count was measured under both 1 shard and the maximum shard count".into(),
        );
    };
    if single.requests_per_sec <= 0.0 {
        return ScalingVerdict::Fail(format!(
            "single-shard cell clients={} sustained no throughput",
            single.clients
        ));
    }
    let ratio = multi.requests_per_sec / single.requests_per_sec;
    if ratio > min_ratio {
        ScalingVerdict::Pass {
            shards: max_shards,
            clients: multi.clients,
            ratio,
        }
    } else {
        ScalingVerdict::Fail(format!(
            "SCALING REGRESSION clients={}: {} shards sustained {:.0} req/s vs {:.0} \
             single-shard ({:.2}x, required > {:.2}x)",
            multi.clients,
            max_shards,
            multi.requests_per_sec,
            single.requests_per_sec,
            ratio,
            min_ratio
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(shards: usize, clients: usize, rps: f64) -> LoadPoint {
        LoadPoint {
            shards,
            clients,
            requests: (rps * 2.0) as u64,
            errors: 0,
            wall_seconds: 2.0,
            requests_per_sec: rps,
            p50_seconds: 0.001,
            p90_seconds: 0.002,
            p99_seconds: 0.004,
            max_seconds: 0.010,
            per_shard_requests: vec![(rps * 2.0) as u64 / shards.max(1) as u64; shards],
            memo_hits: 0,
        }
    }

    fn wc() -> WarmVsCold {
        WarmVsCold {
            cold_first_seconds: 0.020,
            warm_median_seconds: 0.002,
            cold_over_warm: 10.0,
        }
    }

    fn doc(calib: f64, cores: usize, points: &[LoadPoint], golden: bool) -> String {
        render_json(calib, cores, points, &[], wc(), golden)
    }

    #[test]
    fn document_round_trips_through_the_real_parser() {
        let json = doc(1e8, 4, &[point(1, 4, 400.0), point(4, 4, 1200.0)], true);
        assert!(json.contains("\"schema_version\": 5"));
        let parsed = parse_doc(&json).expect("own output must parse");
        assert_eq!(parsed.calibration, 1e8);
        assert_eq!(parsed.host_cores, 4);
        assert!(parsed.golden_match);
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[1].shards, 4);
        assert_eq!(parsed.points[1].clients, 4);
        assert_eq!(parsed.points[1].requests_per_sec, 1200.0);
        assert_eq!(parsed.points[1].p99_seconds, 0.004);
        assert_eq!(parsed.points[1].per_shard_requests.len(), 4);
        // The whole document is valid JSON for any consumer, not just ours.
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn schema_4_documents_parse_with_shard_defaults() {
        // A pre-shards document (no shards / per_shard_requests / host_cores
        // keys) must still parse so old baselines keep working.
        let legacy = r#"{
            "calibration_score": 1e8,
            "golden_match": true,
            "serve": [
                {"clients": 4, "requests": 800, "errors": 0,
                 "wall_seconds": 2.0, "requests_per_sec": 400.0,
                 "p50_seconds": 0.001, "p90_seconds": 0.002,
                 "p99_seconds": 0.004, "max_seconds": 0.010}
            ]
        }"#;
        let parsed = parse_doc(legacy).expect("legacy doc must parse");
        assert_eq!(parsed.host_cores, 1);
        assert_eq!(parsed.points[0].shards, 1);
        assert!(parsed.points[0].per_shard_requests.is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [0.004, 0.001, 0.002, 0.003];
        assert_eq!(percentile(&sample, 0.50), 0.002);
        assert_eq!(percentile(&sample, 0.99), 0.004);
        assert_eq!(percentile(&sample, 0.0), 0.001);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn summarize_computes_consistent_rates() {
        let lat = vec![0.001; 100];
        let pt = summarize(2, 4, &lat, 0, 2.0);
        assert_eq!(pt.shards, 2);
        assert_eq!(pt.requests, 100);
        assert!((pt.requests_per_sec - 50.0).abs() < 1e-9);
        assert_eq!(pt.p99_seconds, 0.001);
        assert_eq!(pt.max_seconds, 0.001);
    }

    #[test]
    fn floor_gate_fires_only_past_tolerance() {
        let base = doc(1e8, 4, &[point(1, 4, 1000.0)], true);
        let ok = doc(1e8, 4, &[point(1, 4, 800.0)], true);
        let bad = doc(1e8, 4, &[point(1, 4, 700.0)], true);
        assert!(check_throughput_floor(&ok, &base, 0.25).is_empty());
        let failures = check_throughput_floor(&bad, &base, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("THROUGHPUT REGRESSION shards=1 clients=4"));
    }

    #[test]
    fn floor_gate_matches_on_shard_count() {
        // The same client count at a different shard count is a different
        // cell — no cross-comparison.
        let base = doc(1e8, 4, &[point(4, 8, 4000.0)], true);
        let cur = doc(1e8, 4, &[point(1, 8, 100.0)], true);
        assert!(check_throughput_floor(&cur, &base, 0.25).is_empty());
    }

    #[test]
    fn floor_gate_normalizes_by_calibration() {
        // Baseline from a machine 2x faster: our floor halves.
        let base = doc(2e8, 4, &[point(1, 4, 1000.0)], true);
        let cur = doc(1e8, 4, &[point(1, 4, 450.0)], true);
        assert!(check_throughput_floor(&cur, &base, 0.25).is_empty());
        let cur_bad = doc(1e8, 4, &[point(1, 4, 300.0)], true);
        assert_eq!(check_throughput_floor(&cur_bad, &base, 0.25).len(), 1);
    }

    #[test]
    fn golden_mismatch_and_unknown_clients_behave() {
        let base = doc(1e8, 4, &[point(1, 8, 1000.0)], true);
        // Unknown client counts are not failures...
        let cur = doc(1e8, 4, &[point(1, 4, 10.0)], true);
        assert!(check_throughput_floor(&cur, &base, 0.25).is_empty());
        // ...but a golden mismatch always is.
        let cur_bad = doc(1e8, 4, &[point(1, 4, 10.0)], false);
        let failures = check_throughput_floor(&cur_bad, &base, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("GOLDEN MISMATCH"));
    }

    #[test]
    fn malformed_documents_fail_closed() {
        let good = doc(1e8, 4, &[point(1, 4, 100.0)], true);
        assert!(!check_throughput_floor("{}", &good, 0.25).is_empty());
        assert!(!check_throughput_floor(&good, "not json", 0.25).is_empty());
        assert!(matches!(check_scaling("{}", 1.5), ScalingVerdict::Fail(_)));
    }

    #[test]
    fn scaling_gate_passes_and_fails_on_the_highest_common_client_count() {
        // clients=1 cannot scale (one connection, one shard) and must not
        // be the judged cell; clients=8 is.
        let good = doc(
            1e8,
            4,
            &[
                point(1, 1, 1000.0),
                point(1, 8, 1000.0),
                point(4, 1, 1000.0),
                point(4, 8, 2000.0),
            ],
            true,
        );
        match check_scaling(&good, 1.5) {
            ScalingVerdict::Pass {
                shards,
                clients,
                ratio,
            } => {
                assert_eq!(shards, 4);
                assert_eq!(clients, 8);
                assert!((ratio - 2.0).abs() < 1e-9);
            }
            other => panic!("expected Pass, got {other:?}"),
        }
        let flat = doc(1e8, 4, &[point(1, 8, 1000.0), point(4, 8, 1200.0)], true);
        match check_scaling(&flat, 1.5) {
            ScalingVerdict::Fail(line) => assert!(line.contains("SCALING REGRESSION")),
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn scaling_gate_skips_when_it_cannot_judge() {
        // No multi-shard points.
        let single = doc(1e8, 4, &[point(1, 8, 1000.0)], true);
        assert!(matches!(
            check_scaling(&single, 1.5),
            ScalingVerdict::Skipped(_)
        ));
        // Fewer cores than shards: physically cannot scale.
        let starved = doc(1e8, 1, &[point(1, 8, 1000.0), point(4, 8, 1000.0)], true);
        match check_scaling(&starved, 1.5) {
            ScalingVerdict::Skipped(reason) => assert!(reason.contains("core")),
            other => panic!("expected Skipped, got {other:?}"),
        }
        // No common client count across shard columns.
        let disjoint = doc(1e8, 4, &[point(1, 2, 1000.0), point(4, 8, 4000.0)], true);
        assert!(matches!(
            check_scaling(&disjoint, 1.5),
            ScalingVerdict::Skipped(_)
        ));
        // A golden mismatch fails even where scaling would be skipped.
        let mismatch = doc(1e8, 4, &[point(1, 8, 1000.0)], false);
        assert!(matches!(
            check_scaling(&mismatch, 1.5),
            ScalingVerdict::Fail(_)
        ));
    }

    #[test]
    fn repeated_body_points_are_recorded_but_never_gated() {
        let mut gated = [point(1, 8, 1000.0), point(4, 8, 2000.0)];
        gated[1].memo_hits = 3;
        // Memo-served points are far faster and scale worse; neither may
        // leak into the summary, the floor or the scaling verdict.
        let repeated = [point(1, 8, 50_000.0), point(4, 8, 60_000.0)];
        let json = render_json(1e8, 4, &gated, &repeated, wc(), true);
        let parsed = parse_doc(&json).expect("own output must parse");
        assert_eq!(parsed.points.len(), 2);
        assert_eq!(parsed.points[1].memo_hits, 3);
        let v = Json::parse(&json).unwrap();
        let recorded = v.get("repeated_body").unwrap().as_array().unwrap();
        assert_eq!(recorded.len(), 2);
        assert_eq!(
            recorded[1].get("requests_per_sec").unwrap().as_f64(),
            Some(60_000.0)
        );
        let best = v.get("summary").unwrap().get("best_requests_per_sec");
        assert_eq!(best.unwrap().as_f64(), Some(2000.0));
        assert!(matches!(
            check_scaling(&json, 1.5),
            ScalingVerdict::Pass { .. }
        ));
        assert!(check_throughput_floor(&json, &json, 0.25).is_empty());
    }
}
