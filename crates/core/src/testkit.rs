//! Shared test support for differential and conformance testing.
//!
//! This module generates randomized simulation *cells* — a `(SimConfig,
//! Workload)` pair — spanning the full policy cross-product, and checks
//! that [`Engine`] and [`OracleEngine`] agree on them **bit-identically**:
//! same [`Report`] (floats compared by bit pattern), same observer event
//! streams, same per-core response-time histograms.
//!
//! Generators are deterministic functions of a `u64` seed rather than
//! proptest strategies, so the library carries no test-framework
//! dependency; property tests shrink over the seed/parameter integers and
//! call [`random_cell`] / [`check_conformance`] inside the property.

use crate::arbitration::ArbitrationKind;
use crate::config::SimConfig;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::metrics::Report;
use crate::observer::RecordingObserver;
use crate::oracle::OracleEngine;
use crate::replacement::ReplacementKind;
use crate::rng::Xoshiro256;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// One differential test cell: a configuration plus a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Simulation parameters.
    pub config: SimConfig,
    /// The traces to replay.
    pub workload: Workload,
}

/// Every arbitration kind, parameterized with the given remap period /
/// row shift where applicable. Covers all five paper policies (FIFO,
/// Priority, the Permute family, RandomPick) plus the FR-FCFS extension.
pub fn all_arbitrations(period: u64) -> Vec<ArbitrationKind> {
    vec![
        ArbitrationKind::Fifo,
        ArbitrationKind::Priority,
        ArbitrationKind::DynamicPriority { period },
        ArbitrationKind::CyclePriority { period },
        ArbitrationKind::CycleReversePriority { period },
        ArbitrationKind::InterleavePriority { period },
        ArbitrationKind::SweepPriority { period },
        ArbitrationKind::RandomPick,
        ArbitrationKind::FrFcfs { row_shift: 2 },
    ]
}

/// All replacement kinds.
pub fn all_replacements() -> [ReplacementKind; 4] {
    ReplacementKind::ALL
}

/// A deterministic pseudo-random workload: `p` traces over a universe of
/// `pages` local pages, each at most `max_len` references (empty traces
/// included on purpose — they are an engine edge case). Three per-trace
/// styles are mixed: cyclic sweeps (replacement adversaries), uniform
/// random, and hot-page skew (coalescing exercise when `shared`).
pub fn random_workload(seed: u64, p: usize, pages: u32, max_len: usize, shared: bool) -> Workload {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut traces = Vec::with_capacity(p);
    for _ in 0..p {
        let len = rng.gen_index(max_len + 1);
        let style = rng.gen_index(3);
        let mut t = Vec::with_capacity(len);
        for i in 0..len {
            let page = match style {
                0 => (i as u32) % pages,
                1 => rng.gen_index(pages as usize) as u32,
                _ => {
                    if rng.gen_index(2) == 0 {
                        0
                    } else {
                        rng.gen_index(pages as usize) as u32
                    }
                }
            };
            t.push(page);
        }
        traces.push(t);
    }
    if shared {
        Workload::shared_from_refs(traces)
    } else {
        Workload::from_refs(traces)
    }
}

/// A fully random cell derived from one seed: random arbitration (all 9
/// kinds), replacement (all 4), `p ≤ 6`, `k ≤ 16`, `q ≤ 4`, remap period
/// `T ≤ 24`, `far_latency ≤ 3`, disjoint or shared traces.
pub fn random_cell(seed: u64) -> Cell {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let p = 1 + rng.gen_index(6);
    let pages = 1 + rng.gen_index(12) as u32;
    let max_len = rng.gen_index(33);
    let shared = rng.gen_index(4) == 0;
    let hbm_slots = 1 + rng.gen_index(16);
    let channels = 1 + rng.gen_index(4);
    let far_latency = 1 + rng.gen_index(3) as u64;
    let period = 1 + rng.gen_index(24) as u64;
    let arbs = all_arbitrations(period);
    let arbitration = arbs[rng.gen_index(arbs.len())];
    let replacement = all_replacements()[rng.gen_index(4)];
    let sim_seed = rng.next_u64();
    let workload = random_workload(rng.next_u64(), p, pages, max_len, shared);
    Cell {
        config: SimConfig {
            hbm_slots,
            channels,
            arbitration,
            replacement,
            far_latency,
            seed: sim_seed,
            max_ticks: 100_000,
        },
        workload,
    }
}

/// Workload shapes for the exhaustive conformance grid. Deliberately
/// varied: disjoint cyclic sweeps (replacement adversaries), disjoint
/// uniform-random, shared hot-page traces (exercises fetch coalescing),
/// and a ragged mix with an empty trace (engine edge case).
pub fn grid_workloads() -> Vec<Workload> {
    vec![
        // Four cores cycling over six pages each — thrashes small HBM.
        Workload::from_refs(vec![(0..6).cycle().take(18).collect(); 4]),
        // Pseudo-random disjoint traces.
        random_workload(11, 3, 8, 24, false),
        // Shared universe: cross-core coalescing actually occurs.
        random_workload(23, 4, 5, 20, true),
        // Ragged: one empty trace, one singleton, one longer.
        Workload::from_refs(vec![vec![], vec![2], vec![0, 1, 2, 3, 0, 1, 2, 3]]),
    ]
}

/// The exhaustive 288-cell conformance grid: 9 arbitration kinds × 4
/// replacement kinds × 4 workload shapes × 2 parameter sets of
/// `(hbm_slots, channels, far_latency, remap period)`. This single
/// definition backs the Engine/Oracle differential suite
/// (`tests/differential.rs`), the bounds-interval test, and the
/// `hbm-model` calibration/validation grid, so all three always agree on
/// what "the conformance grid" means.
pub fn conformance_grid() -> Vec<Cell> {
    let params = [(4usize, 1usize, 1u64, 5u64), (8, 2, 3, 3)];
    let workloads = grid_workloads();
    let mut cells = Vec::new();
    for &(k, q, far, period) in &params {
        for arbitration in all_arbitrations(period) {
            for replacement in all_replacements() {
                for (wi, w) in workloads.iter().enumerate() {
                    cells.push(Cell {
                        config: SimConfig {
                            hbm_slots: k,
                            channels: q,
                            arbitration,
                            replacement,
                            far_latency: far,
                            seed: 0x5eed ^ (wi as u64),
                            max_ticks: 100_000,
                        },
                        workload: w.clone(),
                    });
                }
            }
        }
    }
    cells
}

/// A deterministic pseudo-random [`FaultPlan`] scheduled inside
/// `[0, horizon)`: up to 3 outage windows (widths 1–3 channels), up to 3
/// degradation windows (1–4 extra ticks), and a transient model in three
/// seeds out of four (probabilities spanning 0.1–1.0, retry bounds 1–4).
/// Plans are occasionally empty on purpose — the empty-plan identity is
/// part of the contract under test.
pub fn random_fault_plan(seed: u64, horizon: u64) -> FaultPlan {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xfa17_fa17_fa17_fa17);
    let horizon = horizon.max(2);
    let mut plan = FaultPlan::new();
    let window = |rng: &mut Xoshiro256| {
        let start = rng.gen_index(horizon as usize - 1) as u64;
        let len = 1 + rng.gen_index(((horizon - start) as usize).min(40)) as u64;
        (start, start + len)
    };
    for _ in 0..rng.gen_index(4) {
        let (start, end) = window(&mut rng);
        plan = plan.outage(start, end, 1 + rng.gen_index(3));
    }
    for _ in 0..rng.gen_index(4) {
        let (start, end) = window(&mut rng);
        plan = plan.degradation(start, end, 1 + rng.gen_index(4) as u64);
    }
    if rng.gen_index(4) != 0 {
        let prob = [0.1, 0.5, 0.9, 1.0][rng.gen_index(4)];
        plan = plan.transient(prob, 1 + rng.gen_index(4) as u32, rng.next_u64());
    }
    plan
}

/// Runs the optimized [`Engine`], recording every event.
pub fn run_engine(config: SimConfig, workload: &Workload) -> (Report, RecordingObserver) {
    run_engine_with_faults(config, FaultPlan::default(), workload)
}

/// Runs the naive [`OracleEngine`], recording every event.
pub fn run_oracle(config: SimConfig, workload: &Workload) -> (Report, RecordingObserver) {
    run_oracle_with_faults(config, FaultPlan::default(), workload)
}

/// Runs the optimized [`Engine`] under a fault plan, recording every event.
pub fn run_engine_with_faults(
    config: SimConfig,
    plan: FaultPlan,
    workload: &Workload,
) -> (Report, RecordingObserver) {
    let mut obs = RecordingObserver::default();
    let report = Engine::with_faults(config, plan, workload).run(&mut obs);
    (report, obs)
}

/// Runs the naive [`OracleEngine`] under a fault plan, recording every
/// event.
pub fn run_oracle_with_faults(
    config: SimConfig,
    plan: FaultPlan,
    workload: &Workload,
) -> (Report, RecordingObserver) {
    let mut obs = RecordingObserver::default();
    let report = OracleEngine::with_faults(config, plan, workload).run(&mut obs);
    (report, obs)
}

/// Per-core response-time histograms (`response → count`) from a recorded
/// serve stream.
pub fn response_histograms(obs: &RecordingObserver, p: usize) -> Vec<BTreeMap<u64, u64>> {
    let mut hists = vec![BTreeMap::new(); p];
    for &(_, core, _, response, _) in &obs.serves {
        *hists[core as usize].entry(response).or_insert(0) += 1;
    }
    hists
}

fn first_diff<T: PartialEq + Debug>(name: &str, engine: &[T], oracle: &[T]) -> Result<(), String> {
    if engine == oracle {
        return Ok(());
    }
    let i = engine
        .iter()
        .zip(oracle)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| engine.len().min(oracle.len()));
    Err(format!(
        "{name} streams diverge (engine has {} events, oracle {}); first difference at index {i}:\n  engine: {:?}\n  oracle: {:?}",
        engine.len(),
        oracle.len(),
        engine.get(i),
        oracle.get(i),
    ))
}

macro_rules! cmp_count {
    ($field:ident, $a:expr, $b:expr) => {
        if $a.$field != $b.$field {
            return Err(format!(
                concat!(stringify!($field), " differs: engine {:?} vs oracle {:?}"),
                $a.$field, $b.$field
            ));
        }
    };
}

macro_rules! cmp_f64_bits {
    ($field:ident, $a:expr, $b:expr) => {
        if $a.$field.to_bits() != $b.$field.to_bits() {
            return Err(format!(
                concat!(
                    stringify!($field),
                    " differs bitwise: engine {:?} vs oracle {:?}"
                ),
                $a.$field, $b.$field
            ));
        }
    };
}

/// Field-by-field comparison of two reports; floats must match **bit for
/// bit** (both engines perform the identical arithmetic in the identical
/// order, so even accumulated means and stddevs are reproducible exactly).
pub fn compare_reports(engine: &Report, oracle: &Report) -> Result<(), String> {
    cmp_count!(makespan, engine, oracle);
    cmp_count!(served, engine, oracle);
    cmp_count!(hits, engine, oracle);
    cmp_count!(misses, engine, oracle);
    cmp_count!(fetches, engine, oracle);
    cmp_count!(evictions, engine, oracle);
    cmp_count!(remaps, engine, oracle);
    cmp_count!(truncated, engine, oracle);
    cmp_count!(max_queue_len, engine, oracle);
    {
        let (engine, oracle) = (&engine.faults, &oracle.faults);
        cmp_count!(outage_blocked_ticks, engine, oracle);
        cmp_count!(degraded_fetches, engine, oracle);
        cmp_count!(transient_faults, engine, oracle);
    }
    cmp_f64_bits!(hit_rate, engine, oracle);
    cmp_f64_bits!(mean_queue_len, engine, oracle);
    {
        let (engine, oracle) = (&engine.response, &oracle.response);
        cmp_count!(count, engine, oracle);
        cmp_count!(min, engine, oracle);
        cmp_count!(max, engine, oracle);
        cmp_count!(p99_upper_bound, engine, oracle);
        cmp_f64_bits!(mean, engine, oracle);
        cmp_f64_bits!(inconsistency, engine, oracle);
    }
    if engine.per_core.len() != oracle.per_core.len() {
        return Err(format!(
            "per_core length differs: engine {} vs oracle {}",
            engine.per_core.len(),
            oracle.per_core.len()
        ));
    }
    for (c, (engine, oracle)) in engine.per_core.iter().zip(&oracle.per_core).enumerate() {
        let err = |msg: String| format!("per_core[{c}]: {msg}");
        let inner = (|| -> Result<(), String> {
            cmp_count!(served, engine, oracle);
            cmp_count!(hits, engine, oracle);
            cmp_count!(finish_tick, engine, oracle);
            cmp_count!(max_response, engine, oracle);
            cmp_f64_bits!(mean_response, engine, oracle);
            Ok(())
        })();
        inner.map_err(err)?;
    }
    Ok(())
}

/// Comparison of complete event streams from both engines — stronger than
/// the report comparison: the two simulations must emit the very same
/// enqueue/evict/serve/fetch/remap/completion sequences.
pub fn compare_events(
    engine: &RecordingObserver,
    oracle: &RecordingObserver,
) -> Result<(), String> {
    first_diff("enqueue", &engine.enqueues, &oracle.enqueues)?;
    first_diff("eviction", &engine.evictions, &oracle.evictions)?;
    first_diff("serve", &engine.serves, &oracle.serves)?;
    first_diff("fetch", &engine.fetches, &oracle.fetches)?;
    first_diff("remap", &engine.remaps, &oracle.remaps)?;
    first_diff("completion", &engine.completions, &oracle.completions)?;
    first_diff("fault", &engine.faults, &oracle.faults)?;
    Ok(())
}

/// Runs one cell through both engines and verifies full agreement:
/// bit-identical [`Report`], identical event streams, and identical
/// per-core response-time histograms. Returns the (shared) report on
/// success, a human-readable divergence description on failure.
pub fn check_conformance(config: SimConfig, workload: &Workload) -> Result<Report, String> {
    check_conformance_with_faults(config, FaultPlan::default(), workload)
}

/// [`check_conformance`] under an injected [`FaultPlan`]: both engines run
/// the same plan and must still agree bit for bit — fault events and
/// counters included.
pub fn check_conformance_with_faults(
    config: SimConfig,
    plan: FaultPlan,
    workload: &Workload,
) -> Result<Report, String> {
    let (engine_report, engine_obs) = run_engine_with_faults(config, plan.clone(), workload);
    let (oracle_report, oracle_obs) = run_oracle_with_faults(config, plan, workload);
    compare_reports(&engine_report, &oracle_report)?;
    compare_events(&engine_obs, &oracle_obs)?;
    let p = workload.cores();
    let engine_hists = response_histograms(&engine_obs, p);
    let oracle_hists = response_histograms(&oracle_obs, p);
    for (c, (he, ho)) in engine_hists.iter().zip(&oracle_hists).enumerate() {
        if he != ho {
            return Err(format!(
                "per-core response histogram differs for core {c}:\n  engine: {he:?}\n  oracle: {ho:?}"
            ));
        }
    }
    Ok(engine_report)
}

/// Like [`check_conformance`] but panics with full cell context on any
/// divergence. Returns the shared report.
pub fn assert_conformance(config: SimConfig, workload: &Workload) -> Report {
    assert_conformance_with_faults(config, FaultPlan::default(), workload)
}

/// Like [`check_conformance_with_faults`] but panics with full cell
/// context (fault plan included) on any divergence.
pub fn assert_conformance_with_faults(
    config: SimConfig,
    plan: FaultPlan,
    workload: &Workload,
) -> Report {
    match check_conformance_with_faults(config, plan.clone(), workload) {
        Ok(report) => report,
        Err(msg) => panic!(
            "Engine and OracleEngine diverge!\n{msg}\nconfig: {config:?}\nfaults: {plan:?}\nworkload ({} cores, shared: {}): {:?}",
            workload.cores(),
            workload.is_shared(),
            workload
                .traces()
                .iter()
                .map(|t| t.as_slice().to_vec())
                .collect::<Vec<_>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CoreId;

    #[test]
    fn random_workload_is_deterministic() {
        let a = random_workload(7, 4, 8, 20, false);
        let b = random_workload(7, 4, 8, 20, false);
        assert_eq!(a.cores(), b.cores());
        for c in 0..a.cores() as CoreId {
            assert_eq!(a.trace(c).as_slice(), b.trace(c).as_slice());
        }
    }

    #[test]
    fn random_cell_spans_policies() {
        // Over a modest seed range the generator must hit every
        // arbitration and replacement kind.
        let mut arbs = std::collections::HashSet::new();
        let mut reps = std::collections::HashSet::new();
        for seed in 0..200 {
            let cell = random_cell(seed);
            arbs.insert(std::mem::discriminant(&cell.config.arbitration));
            reps.insert(cell.config.replacement);
        }
        assert_eq!(arbs.len(), 9, "all arbitration kinds generated");
        assert_eq!(reps.len(), 4, "all replacement kinds generated");
    }

    #[test]
    fn conformance_on_a_handful_of_cells() {
        for seed in 0..8 {
            let cell = random_cell(seed);
            assert_conformance(cell.config, &cell.workload);
        }
    }

    #[test]
    fn random_fault_plan_is_deterministic_and_valid() {
        let mut nonempty = 0;
        for seed in 0..50 {
            let a = random_fault_plan(seed, 200);
            let b = random_fault_plan(seed, 200);
            assert_eq!(a, b, "same seed, same plan");
            a.validate()
                .unwrap_or_else(|e| panic!("generated plan invalid: {e} ({a:?})"));
            if !a.is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 40, "most generated plans carry faults");
    }

    #[test]
    fn faulty_conformance_on_a_handful_of_cells() {
        for seed in 0..8 {
            let cell = random_cell(seed);
            let plan = random_fault_plan(seed, 200);
            assert_conformance_with_faults(cell.config, plan, &cell.workload);
        }
    }

    #[test]
    fn histograms_count_serves() {
        let w = Workload::from_refs(vec![vec![0, 0, 0]]);
        let (_, obs) = run_engine(SimConfig::default(), &w);
        let h = response_histograms(&obs, 1);
        assert_eq!(h[0].get(&1), Some(&2), "two hits at response 1");
        assert_eq!(h[0].get(&2), Some(&1), "one miss at response 2");
    }
}
