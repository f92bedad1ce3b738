//! The `sweep` workload: journaled FIFO-vs-challenger sweeps over
//! Figure-2-shaped SpGEMM and mergesort pools plus the Dataset-3 cyclic
//! adversary, as `repro sweep` runs them (trace generation included).

use crate::common::{
    charge_parallel, fastest, mix, repeat_for, replay_best, secs, timed, CellSpec, Checksum, Ctx,
    StageTotals,
};
use crate::report::Report;
use crate::stats::{median, min, Latency};
use crate::sys;
use hbm_core::{ArbitrationKind, FlatWorkload, SimBuilder};
use hbm_experiments::common::{hbm_sizes_for, Scale, TracePool};
use hbm_experiments::journal::{run_journaled_sweep, SweepJournal, SweepRunOptions};
use hbm_experiments::sweep::RatioCell;
use hbm_model::predict::{predict, ModelConfig};
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::{SortAlgo, TraceOptions, WorkloadSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sweep of the job.
struct Dataset {
    tag: &'static str,
    spec: WorkloadSpec,
    ps: &'static [usize],
    challenger: ArbitrationKind,
}

/// Channels per cell (the paper's single far channel).
const Q: usize = 1;

/// Scalar replays per cell; the fastest gives the cell's latency.
const REPLAYS: usize = 3;

/// The fixed job: three sweeps whose p-axes reach 64, so cell costs span
/// two orders of magnitude within each sweep.
fn datasets() -> [Dataset; 3] {
    [
        Dataset {
            tag: "spgemm-fifo-vs-priority",
            spec: WorkloadSpec::SpGemm {
                n: 48,
                density: 0.10,
            },
            ps: &[1, 4, 16, 64],
            challenger: ArbitrationKind::Priority,
        },
        Dataset {
            tag: "mergesort-fifo-vs-dynamic",
            spec: WorkloadSpec::Sort {
                algo: SortAlgo::Mergesort,
                n: 600,
            },
            ps: &[1, 4, 16, 64],
            challenger: ArbitrationKind::DynamicPriority { period: 1_000 },
        },
        Dataset {
            tag: "dataset3-fifo-vs-priority",
            spec: WorkloadSpec::Cyclic {
                pages: 64,
                reps: 10,
            },
            ps: &[1, 2, 4, 8, 16, 32, 64],
            challenger: ArbitrationKind::Priority,
        },
    ]
}

/// What one run of the job produced.
struct Job {
    wall: f64,
    /// Seconds of the job's set-up, before its first cell.
    setup: f64,
    cells: Vec<Vec<RatioCell>>,
    failures: usize,
    journal_bytes: u64,
    checksum: Checksum,
    pools: Vec<TracePool>,
    ks: Vec<Vec<usize>>,
    /// Per sweep: (wall seconds, process CPU seconds).
    sweeps: Vec<(f64, f64)>,
}

/// Runs the fixed job once, with spans under a `sweep.job` root. The job
/// first sets up every sweep as `repro sweep` does before its first cell
/// (trace pool, k-axis, fresh journal), then runs the sweeps.
fn run_job(ctx: &Ctx, rep: usize) -> Job {
    let tracer = &ctx.tracer;
    let req = rep as u64;
    let start = Instant::now();
    let root = tracer.open("sweep.job", None, req);
    let mut job = Job {
        wall: 0.0,
        setup: 0.0,
        cells: Vec::new(),
        failures: 0,
        journal_bytes: 0,
        checksum: Checksum::new(),
        pools: Vec::new(),
        ks: Vec::new(),
        sweeps: Vec::new(),
    };
    let mut journals = Vec::new();
    for (i, d) in datasets().iter().enumerate() {
        let seed = mix(ctx.seed, i as u64);
        let max_p = *d.ps.last().expect("non-empty p-axis");
        let pool = tracer.span("traces.generate", Some(root), req, || {
            TracePool::generate(d.spec, max_p, seed, TraceOptions::default())
        });
        // The k-axis needs the working set, which generates a probe trace.
        let ks = tracer.span("traces.generate", Some(root), req, || {
            hbm_sizes_for(&pool, Scale::Small)
        });
        let path = ctx.scratch_file(&format!("sweep-{i}-{rep}"));
        let _ = std::fs::remove_file(&path);
        let journal = SweepJournal::open(&path).expect("open a fresh sweep journal");
        journals.push((journal, path));
        job.pools.push(pool);
        job.ks.push(ks);
    }
    job.setup = secs(start);
    let opts = SweepRunOptions {
        threads: ctx.threads,
        ..SweepRunOptions::default()
    };
    for (i, (d, (journal, path))) in datasets().iter().zip(journals).enumerate() {
        let seed = mix(ctx.seed, i as u64);
        let (cpu0, t0) = (sys::cpu_seconds(), Instant::now());
        let outcome = run_journaled_sweep(
            &job.pools[i],
            d.tag,
            d.ps,
            &job.ks[i],
            |_| d.challenger,
            Q,
            seed,
            &journal,
            &opts,
        );
        let t1 = Instant::now();
        job.sweeps
            .push(((t1 - t0).as_secs_f64(), sys::cpu_seconds() - cpu0));
        tracer.record("experiments.sweep", Some(root), req, t0, t1);
        job.journal_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        drop(journal);
        let _ = std::fs::remove_file(&path);
        job.failures += outcome.failures.len() + outcome.cancelled;
        for c in &outcome.cells {
            for x in [
                c.p as u64,
                c.k as u64,
                c.fifo_makespan,
                c.challenger_makespan,
                c.fifo_hit_rate.to_bits(),
                c.challenger_hit_rate.to_bits(),
                u64::from(c.truncated),
            ] {
                job.checksum.fold(x);
            }
        }
        job.cells.push(outcome.cells);
    }
    tracer.close(root);
    job.wall = secs(start);
    job
}

/// Cells a complete job yields.
fn expected_cells(job: &Job) -> usize {
    datasets()
        .iter()
        .zip(&job.ks)
        .map(|(d, ks)| d.ps.len() * ks.len())
        .sum()
}

/// The replay of one job's cells: per-sweep stage totals, per-cell
/// latencies and the number of cells whose replay disagrees.
struct Replay {
    stages: Vec<StageTotals>,
    cell_ms: Vec<f64>,
    mismatches: usize,
}

/// Replays every cell of `job` on this thread through the scalar engine
/// and compares each against the journaled sweep's result.
fn replay(ctx: &Ctx, job: &Job) -> Replay {
    let tracer = &ctx.tracer;
    let mut out = Replay {
        stages: Vec::new(),
        cell_ms: Vec::new(),
        mismatches: 0,
    };
    for (i, d) in datasets().iter().enumerate() {
        let seed = mix(ctx.seed, i as u64);
        let mut st = StageTotals::default();
        let root = tracer.open("replay.sweep", None, i as u64);
        let pool = &job.pools[i];
        let ks = &job.ks[i];
        let mut got = job.cells[i].iter();
        for &p in d.ps {
            let (flat, s) = fastest(REPLAYS, || {
                tracer.span("core.flat", Some(root), i as u64, || {
                    Arc::new(FlatWorkload::new(&pool.workload(p)))
                })
            });
            st.flat_s += s;
            st.flats += 1;
            for &k in ks {
                let cell = got.next();
                let mut pair = Vec::new();
                for arbitration in [ArbitrationKind::Fifo, d.challenger] {
                    let spec = CellSpec {
                        k,
                        q: Q,
                        arbitration,
                        replacement: None,
                        far_latency: None,
                        seed,
                        max_ticks: None,
                    };
                    match replay_best(tracer, Some(root), i as u64, &flat, &spec, REPLAYS) {
                        Ok(r) => {
                            st.add_cell(&r, flat.total_refs());
                            out.cell_ms.push((r.setup_s + r.run_s) * 1e3);
                            pair.push(r.report);
                        }
                        Err(e) => eprintln!("sweep replay: {e}"),
                    }
                }
                let agrees = match (cell, pair.as_slice()) {
                    (Some(c), [f, ch]) => {
                        c.p == p
                            && c.k == k
                            && c.fifo_makespan == f.makespan
                            && c.challenger_makespan == ch.makespan
                            && c.fifo_hit_rate.to_bits() == f.hit_rate.to_bits()
                            && c.challenger_hit_rate.to_bits() == ch.hit_rate.to_bits()
                    }
                    _ => false,
                };
                if !agrees {
                    eprintln!(
                        "sweep: cell {} p={p} k={k} disagrees with its replay",
                        d.tag
                    );
                    out.mismatches += 1;
                }
            }
        }
        tracer.close(root);
        out.stages.push(st);
    }
    out
}

/// Seconds to answer the job's grid analytically: a workload summary per
/// (sweep, p) and one model prediction per simulated cell.
fn analytic_answer(ctx: &Ctx, ks: &[Vec<usize>]) -> f64 {
    let defaults = *SimBuilder::new().config();
    let (_, s) = timed(|| {
        for (i, d) in datasets().iter().enumerate() {
            let seed = mix(ctx.seed, i as u64);
            for &p in d.ps {
                let summary = WorkloadSummary::from_spec(d.spec, seed, p);
                for &k in &ks[i] {
                    for arb in [ArbitrationKind::Fifo, d.challenger] {
                        let cfg = ModelConfig::new(k, Q, arb, defaults.replacement)
                            .far_latency(defaults.far_latency);
                        std::hint::black_box(predict(&summary, &cfg));
                    }
                }
            }
        }
    });
    s
}

/// Checks a job against the first job's checksum and its own shape.
fn job_failures(job: &Job, first: Option<Checksum>) -> u64 {
    let missing = expected_cells(job).saturating_sub(job.cells.iter().map(Vec::len).sum());
    let drift = first.is_some_and(|c| c != job.checksum);
    if drift {
        eprintln!("sweep: checksum differs between repetitions of the same job");
    }
    (job.failures + missing) as u64 + u64::from(drift)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    if ctx.traced() {
        run_traced(ctx, &mut report);
        return report;
    }
    let budget = Duration::from_secs_f64(ctx.seconds * 0.6);
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<Checksum> = None;
    let mut last = None;
    repeat_for(budget, 5, 100, |rep| {
        // Free the previous job's pools first, so peak memory is one job's.
        last = None;
        let cpu0 = sys::cpu_seconds();
        let job = run_job(ctx, rep);
        cpus.push(sys::cpu_seconds() - cpu0);
        report.attempted += expected_cells(&job) as u64;
        report.failed += job_failures(&job, first);
        first.get_or_insert(job.checksum);
        walls.push(job.wall);
        setups.push(job.setup);
        last = Some(job);
    });
    let job = last.expect("at least one job ran");
    let rep = replay(ctx, &job);
    report.attempted += (rep.cell_ms.len() / 2) as u64;
    report.failed += rep.mismatches as u64;
    report.failed += crate::golden::check(ctx, "sweep", job.checksum.0);
    let mut ranks = Vec::new();
    repeat_for(Duration::from_secs_f64(ctx.seconds * 0.1), 5, 20, |_| {
        ranks.push(analytic_answer(ctx, &job.ks));
    });

    let cells = Latency::of(&rep.cell_ms);
    let jobs = walls.len();
    let wall = median(&walls);
    report.set_noted(
        "setup_s",
        median(&setups),
        format!("trace pools, k-axes and journals before the first cell, median of {jobs} jobs"),
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
        format!(
            "summaries + predictions for the job's cells, fastest of {}",
            ranks.len()
        ),
    );
    let note = format!(
        "scalar replay of {} cells, tail p{}",
        cells.n, cells.tail_pct
    );
    report.set_noted("p50_ms", cells.p50, note.clone());
    report.set_noted("tail_ms", cells.tail, note);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report
}

/// The traced run: untraced and traced jobs alternate (their difference
/// is the tracing overhead), then the last traced job is replayed to
/// split each sweep's wall time into its layers.
fn run_traced(ctx: &Ctx, report: &mut Report) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let untraced_ctx = Ctx {
        tracer: crate::trace::Tracer::new(false),
        out_dir: ctx.out_dir.clone(),
        ..*ctx
    };
    let mut first: Option<Checksum> = None;
    repeat_for(Duration::from_secs_f64(ctx.seconds * 0.4), 1, 5, |rep| {
        let a = run_job(&untraced_ctx, rep);
        let b = run_job(ctx, rep);
        for j in [&a, &b] {
            report.attempted += expected_cells(j) as u64;
            report.failed += job_failures(j, first);
            first.get_or_insert(j.checksum);
        }
        plain.push(a.wall);
        traced.push(b.wall);
        last = Some(b);
    });
    let job = last.expect("at least one traced job ran");
    let rep = replay(ctx, &job);
    report.attempted += (rep.cell_ms.len() / 2) as u64;
    report.failed += rep.mismatches as u64;
    report.failed += crate::golden::check(ctx, "sweep", job.checksum.0);

    // Generation is timed directly: the self time of the last traced
    // job's `traces.generate` spans.
    let spans = ctx.tracer.spans();
    let self_s = crate::trace::self_times(&spans);
    let job_root = spans
        .iter()
        .rposition(|s| s.name == "sweep.job")
        .expect("traced job root span");
    let generate: Vec<f64> = spans
        .iter()
        .zip(&self_s)
        .filter(|(s, _)| s.parent == Some(job_root) && s.name == "traces.generate")
        .map(|(_, &t)| t)
        .collect();
    report.set("traces.generate.s", generate.iter().sum());
    report.set("traces.generate.count", generate.len() as f64);
    charge_parallel(
        report,
        &job.sweeps,
        &rep.stages,
        ctx.threads,
        "experiments.sweep.s",
    );
    report.set("core.sim.checksum", job.checksum.as_metric());
    report.set(
        "experiments.sweep.failed",
        (job.failures + rep.mismatches) as f64,
    );
    report.set("experiments.journal.bytes", job.journal_bytes as f64);
    report.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    report.close_accounting(job.wall);
}
