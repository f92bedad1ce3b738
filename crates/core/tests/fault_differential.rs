//! Differential conformance suite under injected faults: `Engine` vs
//! `OracleEngine` with an active [`hbm_core::FaultPlan`].
//!
//! The fault-free differential suite (`differential.rs`) pins the two
//! engines to one canonical trajectory; this suite extends that contract
//! to *faulty machines*. The fast engine batches fault accounting across
//! its event-driven fast-forward spans (boundary-clamped), while the
//! oracle evaluates the plan literally every tick — so any drift in the
//! outage/degradation/transient semantics shows up as a bit-level
//! divergence here.
//!
//! Layers:
//! 1. a seeded grid of outage + degradation + transient cells across the
//!    policy space, including full outages (`q_eff = 0`) and the `k < p`
//!    pinning corner;
//! 2. proptest-randomized `(cell, plan)` pairs that shrink failures;
//! 3. the empty-plan identity: a run with an empty plan must be
//!    report- and event-identical to a plain run, and fault counters on
//!    fault-free runs must be all-zero.

use hbm_core::testkit::{
    all_arbitrations, all_replacements, assert_conformance_with_faults,
    check_conformance_with_faults, compare_events, compare_reports, random_cell, random_fault_plan,
    random_workload, run_engine, run_engine_with_faults,
};
use hbm_core::{FaultEvent, FaultPlan, SimConfig, Workload};
use proptest::prelude::*;

/// Fault schedules for the seeded grid, chosen to hit each fault class
/// alone and in combination, plus the degenerate-but-valid extremes.
fn grid_plans() -> Vec<FaultPlan> {
    vec![
        // Single outage window narrower than q.
        FaultPlan::new().outage(3, 12, 1),
        // Full outage: q_eff drops to 0 no matter the machine width.
        FaultPlan::new().outage(5, 15, usize::MAX),
        // Back-to-back outages with a shared boundary.
        FaultPlan::new().outage(2, 6, 1).outage(6, 10, 2),
        // Degradation alone, overlapping pair.
        FaultPlan::new()
            .degradation(0, 20, 2)
            .degradation(10, 30, 3),
        // Transient failures at moderate and certain probability.
        FaultPlan::new().transient(0.5, 3, 0xfeed),
        FaultPlan::new().transient(1.0, 2, 7),
        // Everything at once.
        FaultPlan::new()
            .outage(4, 9, 1)
            .degradation(6, 18, 2)
            .transient(0.25, 4, 99),
    ]
}

/// Seeded fault grid: every arbitration kind × every plan shape × two
/// workload shapes (one with `k < p`), all bit-identical across engines.
#[test]
fn seeded_fault_grid() {
    let workloads = [
        random_workload(31, 4, 8, 20, false),
        // k < p: the pinning-guard corner must also hold under outages.
        Workload::from_refs(vec![vec![0, 1]; 6]),
    ];
    let ks = [8usize, 2];
    let mut cells = 0u32;
    for arbitration in all_arbitrations(5) {
        for plan in grid_plans() {
            for (wi, w) in workloads.iter().enumerate() {
                let config = SimConfig {
                    hbm_slots: ks[wi],
                    channels: 2,
                    arbitration,
                    replacement: all_replacements()[cells as usize % 4],
                    far_latency: 1 + (cells as u64 % 3),
                    seed: 0xfa_5eed ^ cells as u64,
                    max_ticks: 100_000,
                };
                assert_conformance_with_faults(config, plan.clone(), w);
                cells += 1;
            }
        }
    }
    assert!(cells >= 100, "grid ran {cells} cells, expected >= 100");
}

/// A full outage over the whole run: the machine stalls (blocked ticks
/// accumulate), then drains once the window lifts — identically in both
/// engines, with the blocked-tick counter agreeing with the window width.
#[test]
fn full_outage_blocks_then_drains() {
    let w = Workload::from_refs(vec![vec![0, 1, 2], vec![3, 4, 5]]);
    let plan = FaultPlan::new().outage(0, 50, usize::MAX);
    let config = SimConfig {
        hbm_slots: 8,
        max_ticks: 10_000,
        ..SimConfig::default()
    };
    let report = assert_conformance_with_faults(config, plan, &w);
    assert!(!report.truncated, "run must finish after the outage lifts");
    assert!(
        report.makespan > 50,
        "nothing can be served before tick 50 (makespan {})",
        report.makespan
    );
    assert!(
        report.faults.outage_blocked_ticks >= 49,
        "queued requests were blocked for most of the window (got {})",
        report.faults.outage_blocked_ticks
    );
}

/// Outage events fire exactly on the window boundaries, even when the
/// fast engine is fast-forwarding across an otherwise inert span.
#[test]
fn outage_events_fire_on_boundary_ticks() {
    let w = Workload::from_refs(vec![vec![0, 1, 2, 3]]);
    // far_latency 40 creates long inert spans; the outage sits inside one.
    let plan = FaultPlan::new().outage(10, 25, 1);
    let config = SimConfig {
        hbm_slots: 4,
        channels: 2,
        far_latency: 40,
        max_ticks: 100_000,
        ..SimConfig::default()
    };
    let (_, obs) = run_engine_with_faults(config, plan.clone(), &w);
    let starts: Vec<_> = obs
        .faults
        .iter()
        .filter(|(_, e)| matches!(e, FaultEvent::OutageStart { .. }))
        .collect();
    let ends: Vec<_> = obs
        .faults
        .iter()
        .filter(|(_, e)| matches!(e, FaultEvent::OutageEnd { .. }))
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].0, 10, "start event on the boundary tick");
    assert_eq!(ends.len(), 1);
    assert_eq!(ends[0].0, 25, "end event on the boundary tick");
    assert_conformance_with_faults(config, plan, &w);
}

/// Certain transient failure with retry bound r multiplies every
/// transfer's latency by exactly (1 + r) — and still terminates.
#[test]
fn certain_transient_failure_terminates_via_retry_bound() {
    let w = Workload::from_refs(vec![vec![0, 1, 2, 3, 4]]);
    let plan = FaultPlan::new().transient(1.0, 3, 42);
    let config = SimConfig {
        hbm_slots: 8,
        max_ticks: 10_000,
        ..SimConfig::default()
    };
    let report = assert_conformance_with_faults(config, plan, &w);
    assert!(!report.truncated, "retry bound guarantees progress");
    assert_eq!(report.served, 5);
    assert_eq!(
        report.faults.transient_faults,
        5 * 3,
        "every fetch fails max_retries times at p = 1.0"
    );
}

/// Randomized `(cell, plan)` pairs over the whole generator space.
#[test]
fn random_faulty_cells_conform() {
    for seed in 0..48 {
        let cell = random_cell(seed);
        let plan = random_fault_plan(seed.wrapping_mul(0x9e37), 300);
        assert_conformance_with_faults(cell.config, plan, &cell.workload);
    }
}

/// The empty-plan identity on a fixed grid: running through the fault
/// path with no faults must be bit-identical — report, events, counters —
/// to the plain fault-free run.
#[test]
fn empty_plan_reproduces_fault_free_run() {
    for seed in 0..24 {
        let cell = random_cell(seed);
        let (plain_report, plain_obs) = run_engine(cell.config, &cell.workload);
        let (faulty_report, faulty_obs) =
            run_engine_with_faults(cell.config, FaultPlan::new(), &cell.workload);
        compare_reports(&faulty_report, &plain_report)
            .unwrap_or_else(|e| panic!("seed {seed}: empty-plan report drift: {e}"));
        compare_events(&faulty_obs, &plain_obs)
            .unwrap_or_else(|e| panic!("seed {seed}: empty-plan event drift: {e}"));
        assert!(
            plain_report.faults.is_zero(),
            "fault counters must be zero on fault-free runs"
        );
        assert!(
            faulty_obs.faults.is_empty(),
            "no fault events without a plan"
        );
    }
}

/// A plan scheduled entirely after the makespan changes nothing either.
#[test]
fn post_makespan_plan_is_inert() {
    let w = Workload::from_refs(vec![vec![0, 1, 0, 1], vec![2, 3]]);
    let config = SimConfig {
        hbm_slots: 8,
        ..SimConfig::default()
    };
    let (plain, _) = run_engine(config, &w);
    let late = plain.makespan + 100;
    let plan = FaultPlan::new()
        .outage(late, late + 10, 1)
        .degradation(late, late + 10, 5);
    let (faulty, obs) = run_engine_with_faults(config, plan.clone(), &w);
    compare_reports(&faulty, &plain).unwrap();
    assert!(faulty.faults.is_zero());
    assert!(obs.faults.is_empty());
    assert_conformance_with_faults(config, plan, &w);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated `(cell, plan)` pair: engines agree bit for bit.
    #[test]
    fn prop_faulty_cells_conform(cell_seed in 0u64..1u64 << 48, plan_seed in 0u64..1u64 << 48) {
        let cell = random_cell(cell_seed);
        let plan = random_fault_plan(plan_seed, 400);
        if let Err(msg) = check_conformance_with_faults(cell.config, plan.clone(), &cell.workload) {
            prop_assert!(false, "divergence: {msg}\nplan: {plan:?}\nconfig: {:?}", cell.config);
        }
    }

    /// The empty-plan identity as a property over the cell space.
    #[test]
    fn prop_empty_plan_identity(seed in 0u64..1u64 << 48) {
        let cell = random_cell(seed);
        let (plain_report, plain_obs) = run_engine(cell.config, &cell.workload);
        let (faulty_report, faulty_obs) =
            run_engine_with_faults(cell.config, FaultPlan::new(), &cell.workload);
        prop_assert!(compare_reports(&faulty_report, &plain_report).is_ok());
        prop_assert!(compare_events(&faulty_obs, &plain_obs).is_ok());
        prop_assert!(plain_report.faults.is_zero());
    }
}
