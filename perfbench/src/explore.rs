//! The `explore` workload: the calls `repro explore` makes, in order —
//! `ExploreSpec::parse` → `explore::rank` → `sim_targets` →
//! `explore::simulate` (fresh journal) → `artifact_json` — on a grid of
//! about 10^5 cells over cyclic, zipf, mergesort and SpGEMM axes.

use crate::common::{
    charge_parallel, fastest, fnv, mix, repeat_for, replay_best, secs, timed, CellSpec, Checksum,
    Ctx, StageTotals,
};
use crate::report::Report;
use crate::stats::{median, min, Latency};
use crate::sys;
use hbm_core::FlatWorkload;
use hbm_experiments::common::{CellBudget, TracePool};
use hbm_experiments::explore::{
    artifact_json, explore_cell_key, rank, sim_targets, simulate, ExploreRecord, ExploreRunOptions,
    ExploreSpec, RankCaps, RankOutcome, RankedCell,
};
use hbm_experiments::journal::JournalFile;
use hbm_model::predict::{predict, ModelConfig};
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::TraceOptions;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells the simulation pass is asked to simulate (`--sim-cells`).
const SIM_CELLS: usize = 40;

/// Scalar replays per simulated target; the fastest gives its latency.
const REPLAYS: usize = 3;

/// Output caps, as `repro explore --top 10 --sim-cells 40` sets them.
const CAPS: RankCaps = RankCaps {
    top: 10,
    uncertain: SIM_CELLS,
    frontier: 256,
};

/// The grid spec for this seed: trace and policy seeds vary, the axes do
/// not, so every seed explores the same number of cells. The Dataset-3
/// axis comes first, so the simulated frontier (taken in grid order) is
/// made of its cells, whose traces and costs do not depend on the seed.
fn grid_spec(seed: u64) -> String {
    let s = |salt| mix(seed, salt) >> 40;
    format!(
        r#"{{
  "workloads": [
    {{"workload": {{"name": "dataset3"}}, "p": [4, 8], "seed": 1}},
    {{"workload": {{"kind": "zipf", "pages": 256, "len": 2000, "alpha": 1.1}}, "p": [2, 4], "seed": {}}},
    {{"workload": {{"name": "sort-small"}}, "p": [2, 8], "seed": {}}},
    {{"workload": {{"name": "spgemm-small"}}, "p": [2, 8], "seed": {}}}
  ],
  "k": {{"min": 4, "max": 4096, "steps": 100, "scale": "log"}},
  "q": [1, 2, 4, 8, 16],
  "far_latency": [1, 4],
  "arbitration": ["fifo", "priority", {{"kind": "dynamic_priority", "period": 64}}, "random_pick", {{"kind": "fr_fcfs", "row_shift": 3}}],
  "replacement": ["lru", "fifo", "clock", "random"],
  "sim_seed": {},
  "max_ticks": 20000000
}}
"#,
        s(11),
        s(12),
        s(13),
        s(14)
    )
}

/// What one run of the job produced.
struct Job {
    wall: f64,
    /// Seconds of the job's set-up: reading and parsing the grid spec.
    setup: f64,
    /// Seconds from the start of the parse to the end of `rank`.
    rank_s: f64,
    spec: ExploreSpec,
    outcome: RankOutcome,
    targets: Vec<RankedCell>,
    sims: HashMap<u64, ExploreRecord>,
    failures: usize,
    artifact: String,
    /// The simulate span: (wall seconds, process CPU seconds).
    sim_span: (f64, f64),
}

/// Runs the fixed job once, with spans under an `explore.job` root.
fn run_job(ctx: &Ctx, spec_path: &Path, rep: usize) -> Job {
    let tracer = &ctx.tracer;
    let req = rep as u64;
    let start = Instant::now();
    let root = tracer.open("explore.job", None, req);
    let (spec, parse_s) = timed(|| {
        // `repro explore --grid` reads the spec from a file.
        tracer.span("experiments.explore.parse", Some(root), req, || {
            let text = std::fs::read_to_string(spec_path).expect("read the grid spec");
            ExploreSpec::parse(&text).expect("the benchmark's grid spec is valid")
        })
    });
    let (outcome, rank_only_s) = timed(|| {
        tracer.span("experiments.explore.rank", Some(root), req, || {
            rank(&spec, &CAPS)
        })
    });
    let targets = sim_targets(&outcome, SIM_CELLS);
    let path = ctx.scratch_file(&format!("explore-{rep}"));
    let _ = std::fs::remove_file(&path);
    let journal = JournalFile::<ExploreRecord>::open(&path).expect("open a fresh explore journal");
    let opts = ExploreRunOptions {
        budget: CellBudget {
            max_ticks: spec.max_ticks,
            max_wall: None,
        },
        threads: ctx.threads,
        ..ExploreRunOptions::default()
    };
    let (cpu0, t0) = (sys::cpu_seconds(), Instant::now());
    let sim = simulate(&spec, &targets, &journal, &opts);
    let t1 = Instant::now();
    let sim_span = ((t1 - t0).as_secs_f64(), sys::cpu_seconds() - cpu0);
    tracer.record("experiments.explore.simulate", Some(root), req, t0, t1);
    drop(journal);
    let _ = std::fs::remove_file(&path);
    for f in &sim.failures {
        eprintln!("explore: {f}");
    }
    let failures = sim.failures.len() + sim.cancelled;
    let artifact = tracer.span("experiments.explore.artifact", Some(root), req, || {
        artifact_json(&spec, &outcome, &sim.results)
    });
    tracer.close(root);
    Job {
        wall: secs(start),
        setup: parse_s,
        rank_s: parse_s + rank_only_s,
        spec,
        outcome,
        targets,
        sims: sim.results,
        failures,
        artifact,
        sim_span,
    }
}

/// The replay of one job: rank-pass and simulate-pass stage totals,
/// per-cell latencies, mismatches and the model's band verdicts.
struct Replay {
    summary_s: f64,
    summaries: u64,
    predict_s: f64,
    predictions: u64,
    generate_s: f64,
    generated: u64,
    stages: StageTotals,
    cell_ms: Vec<f64>,
    mismatches: usize,
    within_band: usize,
}

/// Replays the rank pass's summaries and predictions, then every
/// simulated target through the scalar engine, comparing each simulated
/// record with its replay.
fn replay(ctx: &Ctx, job: &Job) -> Replay {
    let tracer = &ctx.tracer;
    let spec = &job.spec;
    let mut out = Replay {
        summary_s: 0.0,
        summaries: 0,
        predict_s: 0.0,
        predictions: 0,
        generate_s: 0.0,
        generated: 0,
        stages: StageTotals::default(),
        cell_ms: Vec::new(),
        mismatches: 0,
        within_band: 0,
    };
    let root = tracer.open("replay.explore", None, 0);
    for axis in &spec.workloads {
        for &p in &axis.p {
            let (summary, s) = fastest(REPLAYS, || {
                tracer.span("traces.summary", Some(root), 0, || {
                    WorkloadSummary::from_spec(axis.spec, axis.seed, p)
                })
            });
            out.summary_s += s;
            out.summaries += 1;
            for &far in &spec.far_latency {
                let (_, s) = fastest(REPLAYS, || {
                    tracer.span("model.predict", Some(root), 0, || {
                        for &k in &spec.k {
                            for &q in &spec.q {
                                for &arb in &spec.arbitration {
                                    for &rep in &spec.replacement {
                                        let cfg = ModelConfig::new(k, q, arb, rep).far_latency(far);
                                        std::hint::black_box(predict(&summary, &cfg));
                                    }
                                }
                            }
                        }
                    })
                });
                out.predict_s += s;
                out.predictions +=
                    (spec.k.len() * spec.q.len() * spec.arbitration.len() * spec.replacement.len())
                        as u64;
            }
        }
    }

    // Simulated targets, grouped as `simulate` groups them.
    let mut groups: BTreeMap<(usize, usize), Vec<&RankedCell>> = BTreeMap::new();
    for c in &job.targets {
        groups.entry((c.wi, c.p)).or_default().push(c);
    }
    let mut max_p: BTreeMap<usize, usize> = BTreeMap::new();
    for &(wi, p) in groups.keys() {
        let e = max_p.entry(wi).or_insert(p);
        *e = (*e).max(p);
    }
    let mut pools = HashMap::new();
    for (&wi, &p) in &max_p {
        let axis = &spec.workloads[wi];
        let (pool, s) = fastest(REPLAYS, || {
            tracer.span("traces.generate", Some(root), 0, || {
                TracePool::generate(axis.spec, p, axis.seed, TraceOptions::default())
            })
        });
        out.generate_s += s;
        out.generated += 1;
        pools.insert(wi, pool);
    }
    for ((wi, p), cells) in &groups {
        let (flat, s) = fastest(REPLAYS, || {
            tracer.span("core.flat", Some(root), 0, || {
                Arc::new(FlatWorkload::new(&pools[wi].workload(*p)))
            })
        });
        out.stages.flat_s += s;
        out.stages.flats += 1;
        for c in cells {
            let cell = CellSpec {
                k: c.k,
                q: c.q,
                arbitration: c.arbitration,
                replacement: Some(c.replacement),
                far_latency: Some(c.far),
                seed: spec.sim_seed,
                max_ticks: spec.max_ticks,
            };
            let key = explore_cell_key(
                &spec.workload_label(c.wi),
                c.p,
                c.k,
                c.q,
                c.far,
                c.arbitration,
                c.replacement,
                spec.sim_seed,
            );
            let replayed = replay_best(tracer, Some(root), 0, &flat, &cell, REPLAYS);
            let agrees = match (replayed, job.sims.get(&key)) {
                (Ok(r), Some(rec)) => {
                    out.stages.add_cell(&r, flat.total_refs());
                    out.cell_ms.push((r.setup_s + r.run_s) * 1e3);
                    if c.pred.makespan.covers(rec.makespan as f64, 0.0) {
                        out.within_band += 1;
                    }
                    let s = &r.report;
                    rec.makespan == s.makespan
                        && rec.mean_response.to_bits() == s.response.mean.to_bits()
                        && rec.inconsistency.to_bits() == s.response.inconsistency.to_bits()
                        && rec.hit_rate.to_bits() == s.hit_rate.to_bits()
                        && rec.truncated == s.truncated
                }
                _ => false,
            };
            if !agrees {
                eprintln!(
                    "explore: target (w{wi}, p={p}, k={}, q={}) disagrees with its replay",
                    c.k, c.q
                );
                out.mismatches += 1;
            }
        }
    }
    tracer.close(root);
    out
}

/// Failures of one job: failed or missing targets, and an artifact that
/// differs from the first job's.
fn job_failures(job: &Job, first: Option<u64>) -> u64 {
    let missing = job.targets.len().saturating_sub(job.sims.len());
    let drift = first.is_some_and(|h| h != fnv(job.artifact.as_bytes()));
    if drift {
        eprintln!("explore: artifact bytes differ between repetitions of the same job");
    }
    (job.failures + missing) as u64 + u64::from(drift)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    // Written where `repro explore --grid` would read it.
    let spec_path = ctx.scratch_file("explore-grid");
    std::fs::write(&spec_path, grid_spec(ctx.seed)).expect("write the grid spec");
    let untraced = Ctx {
        tracer: crate::trace::Tracer::new(false),
        out_dir: ctx.out_dir.clone(),
        ..*ctx
    };
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut setups = Vec::new();
    let mut ranks = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<u64> = None;
    let mut last = None;
    let budget = Duration::from_secs_f64(ctx.seconds * if ctx.traced() { 0.5 } else { 0.8 });
    repeat_for(budget, 5, 1000, |rep| {
        // A traced run alternates untraced and traced jobs; their wall
        // times give the tracing overhead.
        let runs: &[&Ctx] = if ctx.traced() {
            &[&untraced, ctx]
        } else {
            &[ctx]
        };
        for (i, c) in runs.iter().enumerate() {
            last = None;
            let cpu0 = sys::cpu_seconds();
            let job = run_job(c, &spec_path, rep);
            let cpu = sys::cpu_seconds() - cpu0;
            report.attempted += job.targets.len() as u64;
            report.failed += job_failures(&job, first);
            first.get_or_insert(fnv(job.artifact.as_bytes()));
            if i + 1 == runs.len() && ctx.traced() {
                traced_walls.push(job.wall);
            } else {
                walls.push(job.wall);
                cpus.push(cpu);
                setups.push(job.setup);
                ranks.push(job.rank_s);
            }
            last = Some(job);
        }
    });
    let _ = std::fs::remove_file(&spec_path);
    let job = last.expect("at least one job ran");
    let rep = replay(ctx, &job);
    report.failed += rep.mismatches as u64;
    report.failed += crate::golden::check(ctx, "explore", fnv(job.artifact.as_bytes()));

    if ctx.traced() {
        charge_traced(ctx, &mut report, &job, &rep);
        report.set(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        report.close_accounting(job.wall);
        return report;
    }
    let jobs = walls.len();
    let wall = median(&walls);
    let cells = Latency::of(&rep.cell_ms);
    report.set_noted(
        "setup_s",
        median(&setups),
        format!("reading and parsing the grid spec, median of {jobs} jobs"),
    );
    report.set_noted(
        "wall_s",
        wall,
        format!("median of {jobs} jobs"),
    );
    report.set_noted(
        "cpu_s",
        median(&cpus),
        format!("process CPU seconds per job, median of {jobs}"),
    );
    report.set_noted(
        "rank_s",
        min(&ranks),
        format!("parse + rank, fastest of {jobs} jobs"),
    );
    let note = format!(
        "scalar replay of {} simulated targets, tail p{}",
        cells.n, cells.tail_pct
    );
    report.set_noted("p50_ms", cells.p50, note.clone());
    report.set_noted("tail_ms", cells.tail, note);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report
}

/// Charges the traced job's spans and the replay to layers.
fn charge_traced(ctx: &Ctx, report: &mut Report, job: &Job, rep: &Replay) {
    let spans = ctx.tracer.spans();
    let root = spans
        .iter()
        .rposition(|s| s.name == "explore.job")
        .expect("traced job root span");
    let span_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    };
    report.set(
        "experiments.explore.parse.s",
        span_s("experiments.explore.parse"),
    );
    report.set(
        "experiments.explore.artifact.s",
        span_s("experiments.explore.artifact"),
    );
    // The rank pass is serial apart from the summaries' own fan-out, so
    // replayed summary and prediction seconds count in full.
    let rank_wall = span_s("experiments.explore.rank");
    report.set("traces.summary.s", rep.summary_s);
    report.set("traces.summary.count", rep.summaries as f64);
    report.set("model.predict.s", rep.predict_s);
    report.set("model.predict.count", rep.predictions as f64);
    report.set(
        "experiments.explore.rank.s",
        (rank_wall - rep.summary_s - rep.predict_s).max(0.0),
    );
    report.set(
        "experiments.explore.rank.cells",
        job.outcome.total_cells as f64,
    );
    // `simulate` generates its pools before fanning out; the rest of the
    // span runs on the worker threads.
    report.set("traces.generate.s", rep.generate_s);
    report.set("traces.generate.count", rep.generated as f64);
    let (wall, cpu) = job.sim_span;
    let fan_out = (
        (wall - rep.generate_s).max(0.0),
        (cpu - rep.generate_s).max(0.0),
    );
    charge_parallel(
        report,
        &[fan_out],
        &[rep.stages],
        ctx.threads,
        "experiments.explore.simulate.s",
    );
    report.set("experiments.explore.simulate.cells", job.sims.len() as f64);
    report.set(
        "model.within_band_ratio",
        if job.sims.is_empty() {
            0.0
        } else {
            rep.within_band as f64 / job.sims.len() as f64
        },
    );
    let mut sum = Checksum::new();
    for c in &job.targets {
        let key = explore_cell_key(
            &job.spec.workload_label(c.wi),
            c.p,
            c.k,
            c.q,
            c.far,
            c.arbitration,
            c.replacement,
            job.spec.sim_seed,
        );
        if let Some(r) = job.sims.get(&key) {
            sum.fold(r.makespan);
            sum.fold(r.hit_rate.to_bits());
        }
    }
    report.set("core.sim.checksum", sum.as_metric());
}
