//! `repro explore` — million-config design-space exploration.
//!
//! The analytical model ([`hbm_model`]) prices one configuration in
//! microseconds; the simulator prices it in milliseconds to minutes. The
//! explorer exploits that gap: it enumerates a declarative configuration
//! grid (workloads × p × far latency × k × q × arbitration × replacement),
//! ranks **every** cell analytically in a single streaming pass, and then
//! simulates only the cells the ranking says matter — the predicted
//! Pareto frontier over (k, q, makespan) plus the cells whose calibrated
//! uncertainty band is widest. A million-cell grid costs a million
//! closed-form evaluations and a few dozen simulations.
//!
//! ## Grid specification
//!
//! The grid is a JSON file. Workload/arbitration/replacement values use
//! **exactly** the `hbm-serve` `/simulate` grammar (the parsers are
//! shared, not re-implemented), and numeric axes are either explicit
//! lists or `{min, max, steps, scale}` ranges:
//!
//! ```json
//! {
//!   "workloads": [
//!     {"workload": {"name": "dataset3-small"}, "p": [2, 4, 8], "seed": 1}
//!   ],
//!   "k": {"min": 4, "max": 4096, "steps": 64, "scale": "log"},
//!   "q": [1, 2, 4],
//!   "far_latency": [4],
//!   "arbitration": ["fifo", "priority", {"kind": "dynamic_priority", "period": 64}],
//!   "replacement": ["lru", "random"],
//!   "sim_seed": 42,
//!   "max_ticks": 2000000
//! }
//! ```
//!
//! `far_latency` defaults to `[1]` (the engine default), `arbitration` to
//! `["fifo", "priority"]`, `replacement` to `["lru"]`, `sim_seed` to `0`.
//!
//! ## Determinism and resumability
//!
//! The rank pass is a pure function of the spec and the committed
//! calibration — no clocks, no RNG, no thread-order dependence. The
//! simulation pass checkpoints every completed cell through the same
//! crash-safe journal machinery as `repro sweep`
//! ([`JournalFile<ExploreRecord>`]), so a SIGKILLed exploration resumed
//! with the same `--journal` re-simulates only the missing cells and
//! emits a **byte-identical** artifact. The artifact deliberately
//! contains no timestamps; wall-clock numbers go to stderr only.

use crate::common::{
    run_sim_budgeted_flat, CellBudget, ResultTable, ScratchPool, SimSettings, TracePool,
};
use crate::journal::{json_hex, JournalFile, JournalRecord};
use hbm_core::fxhash::FxHasher;
use hbm_core::{ArbitrationKind, FaultPlan, ReplacementKind};
use hbm_model::calibration::ENVELOPE;
use hbm_model::predict::{arb_index, predict, ModelConfig, Prediction, ARB_KINDS};
use hbm_serve::json::{fmt_f64, Json};
use hbm_serve::proto::{parse_arbitration, parse_replacement, parse_workload};
use hbm_serve::shutdown::ShutdownFlag;
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::{TraceOptions, WorkloadSpec};
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hasher;
use std::time::Duration;

/// Journal format tag for explore cells, hashed into every key. Bumping
/// it invalidates journals written by incompatible versions.
pub const EXPLORE_TAG: &str = "hbm-explore-journal-v1";

/// One workload axis of the grid: a generator spec, its trace seed, and
/// the thread counts to explore it at.
#[derive(Debug, Clone)]
pub struct WorkloadAxis {
    /// The trace generator.
    pub spec: WorkloadSpec,
    /// Trace-generation seed.
    pub seed: u64,
    /// Thread counts (`p`) to evaluate, ascending and deduplicated.
    pub p: Vec<usize>,
}

/// A parsed, validated exploration grid.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Workload axes (outermost grid dimension).
    pub workloads: Vec<WorkloadAxis>,
    /// HBM capacities (`k`), ascending and deduplicated.
    pub k: Vec<usize>,
    /// Channel counts (`q`), ascending and deduplicated.
    pub q: Vec<usize>,
    /// Far-memory latencies, ascending and deduplicated.
    pub far_latency: Vec<u64>,
    /// Arbitration policies, in spec order.
    pub arbitration: Vec<ArbitrationKind>,
    /// Replacement policies, in spec order.
    pub replacement: Vec<ReplacementKind>,
    /// RNG seed for stochastic policies in the simulation pass.
    pub sim_seed: u64,
    /// Optional per-cell tick budget for the simulation pass.
    pub max_ticks: Option<u64>,
}

/// Expands a numeric axis: an explicit list (`[1, 2, 4]`) or a range
/// object (`{"min": 4, "max": 4096, "steps": 64, "scale": "log"}`,
/// `scale` ∈ {`log`, `linear`}, default `log`). The result is sorted
/// ascending, deduplicated, and non-empty.
fn expand_axis(v: &Json, field: &str) -> Result<Vec<u64>, String> {
    let mut vals: Vec<u64> = Vec::new();
    if let Some(arr) = v.as_array() {
        for x in arr {
            vals.push(
                x.as_u64()
                    .ok_or_else(|| format!("grid spec '{field}': expected integers"))?,
            );
        }
    } else if v.get("min").is_some() {
        let get = |f: &str| -> Result<u64, String> {
            v.get(f)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("grid spec '{field}.{f}': expected an integer"))
        };
        let (min, max) = (get("min")?, get("max")?);
        let steps = v
            .get("steps")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("grid spec '{field}.steps': expected an integer"))?;
        let scale = v.get("scale").and_then(Json::as_str).unwrap_or("log");
        if steps == 0 || max < min {
            return Err(format!(
                "grid spec '{field}': need steps >= 1 and max >= min"
            ));
        }
        if scale == "log" && min == 0 {
            return Err(format!("grid spec '{field}': log scale needs min >= 1"));
        }
        if steps == 1 {
            vals.push(min);
        } else {
            for i in 0..steps {
                let t = i as f64 / (steps - 1) as f64;
                let x = match scale {
                    "log" => min as f64 * (max as f64 / min as f64).powf(t),
                    "linear" => min as f64 + (max as f64 - min as f64) * t,
                    other => {
                        return Err(format!(
                            "grid spec '{field}.scale': unknown scale '{other}'"
                        ))
                    }
                };
                vals.push(x.round() as u64);
            }
        }
    } else {
        return Err(format!(
            "grid spec '{field}': expected a list or {{min, max, steps[, scale]}}"
        ));
    }
    vals.sort_unstable();
    vals.dedup();
    if vals.is_empty() {
        return Err(format!("grid spec '{field}': axis is empty"));
    }
    Ok(vals)
}

/// [`expand_axis`] for axes whose values must be positive `usize`s.
fn expand_axis_usize(v: &Json, field: &str) -> Result<Vec<usize>, String> {
    let vals = expand_axis(v, field)?;
    if vals.contains(&0) {
        return Err(format!("grid spec '{field}': values must be >= 1"));
    }
    Ok(vals.into_iter().map(|x| x as usize).collect())
}

impl ExploreSpec {
    /// Parses and validates a grid-spec JSON document.
    pub fn parse(text: &str) -> Result<ExploreSpec, String> {
        let v = Json::parse(text).map_err(|e| format!("grid spec: invalid json: {e}"))?;
        let wl = v
            .get("workloads")
            .ok_or("grid spec: missing 'workloads'")?
            .as_array()
            .ok_or("grid spec 'workloads': expected an array")?;
        if wl.is_empty() {
            return Err("grid spec 'workloads': need at least one workload".into());
        }
        let mut workloads = Vec::with_capacity(wl.len());
        for (i, entry) in wl.iter().enumerate() {
            let spec = parse_workload(
                entry
                    .get("workload")
                    .ok_or_else(|| format!("grid spec workloads[{i}]: missing 'workload'"))?,
            )
            .map_err(|e| format!("grid spec workloads[{i}]: {e}"))?;
            let seed = entry.get("seed").and_then(Json::as_u64).unwrap_or(0);
            let p = expand_axis_usize(
                entry
                    .get("p")
                    .ok_or_else(|| format!("grid spec workloads[{i}]: missing 'p'"))?,
                "p",
            )?;
            workloads.push(WorkloadAxis { spec, seed, p });
        }
        let k = expand_axis_usize(v.get("k").ok_or("grid spec: missing 'k'")?, "k")?;
        let q = expand_axis_usize(v.get("q").ok_or("grid spec: missing 'q'")?, "q")?;
        let far_latency = match v.get("far_latency") {
            Some(fv) => {
                let vals = expand_axis(fv, "far_latency")?;
                if vals.contains(&0) {
                    return Err("grid spec 'far_latency': values must be >= 1".into());
                }
                vals
            }
            None => vec![1],
        };
        let arbitration = match v.get("arbitration") {
            Some(av) => {
                let arr = av
                    .as_array()
                    .ok_or("grid spec 'arbitration': expected an array")?;
                let mut arbs = Vec::with_capacity(arr.len());
                for a in arr {
                    let arb = parse_arbitration(a).map_err(|e| format!("grid spec: {e}"))?;
                    if !arbs.contains(&arb) {
                        arbs.push(arb);
                    }
                }
                if arbs.is_empty() {
                    return Err("grid spec 'arbitration': axis is empty".into());
                }
                arbs
            }
            None => vec![ArbitrationKind::Fifo, ArbitrationKind::Priority],
        };
        let replacement = match v.get("replacement") {
            Some(rv) => {
                let arr = rv
                    .as_array()
                    .ok_or("grid spec 'replacement': expected an array")?;
                let mut reps = Vec::with_capacity(arr.len());
                for r in arr {
                    let rep = parse_replacement(r).map_err(|e| format!("grid spec: {e}"))?;
                    if !reps.contains(&rep) {
                        reps.push(rep);
                    }
                }
                if reps.is_empty() {
                    return Err("grid spec 'replacement': axis is empty".into());
                }
                reps
            }
            None => vec![ReplacementKind::Lru],
        };
        let sim_seed = v.get("sim_seed").and_then(Json::as_u64).unwrap_or(0);
        let max_ticks = v.get("max_ticks").and_then(Json::as_u64);
        let spec = ExploreSpec {
            workloads,
            k,
            q,
            far_latency,
            arbitration,
            replacement,
            sim_seed,
            max_ticks,
        };
        const MAX_CELLS: u128 = 1 << 36;
        if spec.total_cells() > MAX_CELLS {
            return Err(format!(
                "grid spec: {} cells exceeds the {MAX_CELLS}-cell cap",
                spec.total_cells()
            ));
        }
        Ok(spec)
    }

    /// Total raw grid cells (every axis combination).
    pub fn total_cells(&self) -> u128 {
        let p_cells: u128 = self.workloads.iter().map(|w| w.p.len() as u128).sum();
        p_cells
            * self.k.len() as u128
            * self.q.len() as u128
            * self.far_latency.len() as u128
            * self.arbitration.len() as u128
            * self.replacement.len() as u128
    }

    /// The canonical identity string of workload axis `wi` — hashed into
    /// journal keys and printed in the artifact. Mirrors the server's
    /// `WorkloadKey::cache_key` convention (`Debug` of the spec is stable
    /// and injective enough to key on).
    pub fn workload_label(&self, wi: usize) -> String {
        let w = &self.workloads[wi];
        format!("{:?}|seed={}", w.spec, w.seed)
    }
}

/// One winner cell surfaced by the rank pass: the best (arbitration,
/// replacement) pair at its (workload, p, far, k, q) coordinate, with
/// the full model prediction attached.
#[derive(Debug, Clone, Copy)]
pub struct RankedCell {
    /// Workload axis index into [`ExploreSpec::workloads`].
    pub wi: usize,
    /// Thread count.
    pub p: usize,
    /// Far-memory latency.
    pub far: u64,
    /// HBM capacity.
    pub k: usize,
    /// Channel count.
    pub q: usize,
    /// Winning arbitration policy.
    pub arbitration: ArbitrationKind,
    /// Winning replacement policy.
    pub replacement: ReplacementKind,
    /// The model's full prediction for the winning pair.
    pub pred: Prediction,
    /// Global enumeration index of the winning raw cell — the
    /// deterministic tie-breaker for equal estimates.
    pub index: u64,
}

/// Output of the analytical rank pass.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Raw cells evaluated (every axis combination).
    pub total_cells: u128,
    /// Winner cells (one per (workload, p, far, k, q) coordinate).
    pub winners: u64,
    /// How often each arbitration *family* (by
    /// [`arb_index`]) produced the winning policy at a coordinate.
    pub policy_wins: [u64; ARB_KINDS],
    /// Top winners by predicted makespan, ascending.
    pub ranked: Vec<RankedCell>,
    /// Predicted Pareto frontier over (k, q, makespan) within each
    /// (workload, p, far) group, in deterministic grid order. Capped at
    /// [`RankCaps::frontier`]; `frontier_total` counts the uncapped set.
    pub frontier: Vec<RankedCell>,
    /// Total frontier cells before the cap.
    pub frontier_total: u64,
    /// Top winners by model uncertainty, descending — the cells whose
    /// predictions deserve simulation the most.
    pub uncertain: Vec<RankedCell>,
}

/// Output-size caps for the rank pass.
#[derive(Debug, Clone, Copy)]
pub struct RankCaps {
    /// Ranked-list length.
    pub top: usize,
    /// Uncertainty-list length.
    pub uncertain: usize,
    /// Frontier-list length (`frontier_total` still counts everything).
    pub frontier: usize,
}

/// Bounded top-set over `RankedCell`s ordered by a `(u64, u64)` key
/// (max-heap evicts the largest key, so the set retains the `cap`
/// smallest keys). Largest-first selections invert their key bits.
struct TopSet {
    cap: usize,
    heap: BinaryHeap<TopEntry>,
}

struct TopEntry {
    key: (u64, u64),
    cell: RankedCell,
}

impl PartialEq for TopEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for TopEntry {}
impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl TopSet {
    fn new(cap: usize) -> TopSet {
        TopSet {
            cap,
            heap: BinaryHeap::with_capacity(cap + 1),
        }
    }

    fn push(&mut self, key: (u64, u64), cell: RankedCell) {
        if self.cap == 0 {
            return;
        }
        if self.heap.len() == self.cap {
            // Full: only displace the current worst.
            if self.heap.peek().is_some_and(|w| key < w.key) {
                self.heap.pop();
            } else {
                return;
            }
        }
        self.heap.push(TopEntry { key, cell });
    }

    fn into_sorted(self) -> Vec<RankedCell> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.cell)
            .collect()
    }
}

/// Flags the Pareto-minimal cells of one (workload, p, far) group laid
/// out k-major (`ests[ki * qn + qi]`, both axes ascending). A cell is
/// dominated when another cell has `k' <= k`, `q' <= q`, `est' <= est`
/// with at least one strict inequality; the sweep keeps a prefix-min
/// over all smaller-k rows plus a running row minimum, so the whole
/// group is classified in O(kn·qn).
fn pareto_flags(ests: &[f64], kn: usize, qn: usize) -> Vec<bool> {
    assert_eq!(ests.len(), kn * qn);
    let mut flags = vec![false; kn * qn];
    // prefix[qi] = min est over k' < current row, q' <= qi.
    let mut prefix = vec![f64::INFINITY; qn];
    for ki in 0..kn {
        let mut row_min = f64::INFINITY;
        for qi in 0..qn {
            let est = ests[ki * qn + qi];
            // `<=` on the prior-row prefix: k' < k is already strict.
            // `<=` on the row minimum: q' < q is already strict.
            flags[ki * qn + qi] = !(prefix[qi] <= est || row_min <= est);
            row_min = row_min.min(est);
            prefix[qi] = prefix[qi].min(row_min);
        }
    }
    flags
}

/// Ranks the entire grid analytically in one streaming pass.
///
/// Per (workload, p) the workload summary is computed once (streaming,
/// no trace retained); per (workload, p, far) group the best
/// (arbitration, replacement) pair is reduced per (k, q) coordinate, the
/// group's Pareto frontier is extracted, and the winners feed the
/// bounded ranked/uncertain sets. Memory is O(|k|·|q|) per group plus
/// the caps — independent of total grid size.
pub fn rank(spec: &ExploreSpec, caps: &RankCaps) -> RankOutcome {
    #[derive(Clone, Copy)]
    struct GroupCell {
        arb: ArbitrationKind,
        rep: ReplacementKind,
        pred: Prediction,
        index: u64,
    }

    let (kn, qn) = (spec.k.len(), spec.q.len());
    let mut index: u64 = 0;
    let mut winners: u64 = 0;
    let mut policy_wins = [0u64; ARB_KINDS];
    let mut ranked = TopSet::new(caps.top);
    let mut uncertain = TopSet::new(caps.uncertain);
    let mut frontier = Vec::new();
    let mut frontier_total: u64 = 0;
    let mut best: Vec<Option<GroupCell>> = vec![None; kn * qn];
    let mut ests: Vec<f64> = vec![0.0; kn * qn];

    for (wi, axis) in spec.workloads.iter().enumerate() {
        for &p in &axis.p {
            let summary = WorkloadSummary::from_spec(axis.spec, axis.seed, p);
            for &far in &spec.far_latency {
                best.iter_mut().for_each(|b| *b = None);
                for (ki, &k) in spec.k.iter().enumerate() {
                    for (qi, &q) in spec.q.iter().enumerate() {
                        let slot = &mut best[ki * qn + qi];
                        for &arb in &spec.arbitration {
                            for &rep in &spec.replacement {
                                let cfg = ModelConfig::new(k, q, arb, rep).far_latency(far);
                                let pred = predict(&summary, &cfg);
                                // Strict `<` keeps the first-seen policy on
                                // ties — deterministic in spec order.
                                if slot.is_none_or(|b| pred.makespan.est < b.pred.makespan.est) {
                                    *slot = Some(GroupCell {
                                        arb,
                                        rep,
                                        pred,
                                        index,
                                    });
                                }
                                index += 1;
                            }
                        }
                        let w = slot.expect("every coordinate evaluates >= 1 policy");
                        ests[ki * qn + qi] = w.pred.makespan.est;
                    }
                }
                let flags = pareto_flags(&ests, kn, qn);
                for (ci, cell) in best.iter().enumerate() {
                    let (ki, qi) = (ci / qn, ci % qn);
                    let w = cell.expect("group fully evaluated");
                    let rc = RankedCell {
                        wi,
                        p,
                        far,
                        k: spec.k[ki],
                        q: spec.q[qi],
                        arbitration: w.arb,
                        replacement: w.rep,
                        pred: w.pred,
                        index: w.index,
                    };
                    winners += 1;
                    policy_wins[arb_index(w.arb)] += 1;
                    ranked.push((w.pred.makespan.est.to_bits(), w.index), rc);
                    // Bit-flip inverts the order: retain the *largest*
                    // uncertainties (scores are finite and >= 0).
                    uncertain.push((!w.pred.uncertainty.to_bits(), w.index), rc);
                    if flags[ci] {
                        frontier_total += 1;
                        if frontier.len() < caps.frontier {
                            frontier.push(rc);
                        }
                    }
                }
            }
        }
    }
    RankOutcome {
        total_cells: spec.total_cells(),
        winners,
        policy_wins,
        ranked: ranked.into_sorted(),
        frontier,
        frontier_total,
        uncertain: uncertain.into_sorted(),
    }
}

/// The cells the rank pass nominates for simulation: the Pareto frontier
/// first (grid order), then the highest-uncertainty winners, deduplicated
/// and capped at `cap`.
pub fn sim_targets(outcome: &RankOutcome, cap: usize) -> Vec<RankedCell> {
    let mut seen = std::collections::HashSet::new();
    let mut targets = Vec::new();
    for cell in outcome.frontier.iter().chain(outcome.uncertain.iter()) {
        if targets.len() >= cap {
            break;
        }
        if seen.insert(cell.index) {
            targets.push(*cell);
        }
    }
    targets
}

/// Hash key identifying one explore cell in the journal. Two cells
/// collide only if every input that affects the simulation matches.
#[allow(clippy::too_many_arguments)]
pub fn explore_cell_key(
    workload: &str,
    p: usize,
    k: usize,
    q: usize,
    far: u64,
    arbitration: ArbitrationKind,
    replacement: ReplacementKind,
    sim_seed: u64,
) -> u64 {
    let mut h = FxHasher::default();
    h.write(EXPLORE_TAG.as_bytes());
    h.write(workload.as_bytes());
    h.write_usize(p);
    h.write_usize(k);
    h.write_usize(q);
    h.write_u64(far);
    h.write_u64(sim_seed);
    h.write(format!("{arbitration:?}|{replacement:?}").as_bytes());
    h.finish()
}

fn cell_key_of(spec: &ExploreSpec, c: &RankedCell) -> u64 {
    explore_cell_key(
        &spec.workload_label(c.wi),
        c.p,
        c.k,
        c.q,
        c.far,
        c.arbitration,
        c.replacement,
        spec.sim_seed,
    )
}

/// One simulated explore cell — the journal record type. f64 metrics
/// round-trip as IEEE-754 bit patterns so resumed runs stay bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreRecord {
    /// Simulated makespan (ticks).
    pub makespan: u64,
    /// Simulated mean response time.
    pub mean_response: f64,
    /// Simulated inconsistency (response-time stddev).
    pub inconsistency: f64,
    /// Simulated HBM hit rate.
    pub hit_rate: f64,
    /// True if the cell hit its tick/wall budget before completing.
    pub truncated: bool,
}

impl JournalRecord for ExploreRecord {
    fn format_line(&self, key: u64) -> String {
        format!(
            "{{\"key\":\"{key:016x}\",\"makespan\":{},\"mean_response_bits\":\"{:016x}\",\
             \"inconsistency_bits\":\"{:016x}\",\"hit_rate_bits\":\"{:016x}\",\"truncated\":{}}}\n",
            self.makespan,
            self.mean_response.to_bits(),
            self.inconsistency.to_bits(),
            self.hit_rate.to_bits(),
            self.truncated,
        )
    }

    fn parse_line(line: &str) -> Option<(u64, ExploreRecord)> {
        let line = line.trim_end();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let v = Json::parse(line).ok()?;
        let key = json_hex(&v, "key")?;
        Some((
            key,
            ExploreRecord {
                makespan: v.get("makespan")?.as_u64()?,
                mean_response: f64::from_bits(json_hex(&v, "mean_response_bits")?),
                inconsistency: f64::from_bits(json_hex(&v, "inconsistency_bits")?),
                hit_rate: f64::from_bits(json_hex(&v, "hit_rate_bits")?),
                truncated: v.get("truncated")?.as_bool()?,
            },
        ))
    }
}

/// Execution options for the simulation pass.
#[derive(Clone, Default)]
pub struct ExploreRunOptions {
    /// Per-cell tick/wall budget.
    pub budget: CellBudget,
    /// Worker threads; 0 means [`hbm_par::default_threads`].
    pub threads: usize,
    /// Artificial per-cell delay (the CI kill-window lever).
    pub throttle: Option<Duration>,
    /// Cooperative cancellation; a tripped flag stops scheduling cells.
    pub cancel: Option<ShutdownFlag>,
}

/// Result of the simulation pass.
pub struct SimOutcome {
    /// Journal key → simulated metrics for every completed target.
    pub results: HashMap<u64, ExploreRecord>,
    /// Targets restored from the journal instead of re-run.
    pub resumed: usize,
    /// Targets skipped because the cancel flag tripped.
    pub cancelled: usize,
    /// Human-readable failures (typed sim errors, journal IO, panics).
    pub failures: Vec<String>,
}

/// Simulates the selected cells with crash-safe journaling.
///
/// Each unjournaled target is one parallel work item: it fetches its
/// (workload, p) memoized [`FlatWorkload`](hbm_core::FlatWorkload), runs,
/// and is journaled (and flushed) the moment it finishes. Journaled
/// targets are skipped entirely, so a resumed exploration re-simulates
/// only the gap.
pub fn simulate(
    spec: &ExploreSpec,
    targets: &[RankedCell],
    journal: &JournalFile<ExploreRecord>,
    opts: &ExploreRunOptions,
) -> SimOutcome {
    let mut results = HashMap::new();
    let mut resumed = 0;
    let mut todo: Vec<(u64, RankedCell)> = Vec::new();
    for cell in targets {
        let key = cell_key_of(spec, cell);
        if let Some(r) = journal.get(key) {
            results.insert(key, *r);
            resumed += 1;
        } else {
            todo.push((key, *cell));
        }
    }
    // One trace pool per workload axis, generated at the largest p any of
    // its cells needs (smaller p reuses the prefix of the traces).
    let mut pool_p: HashMap<usize, usize> = HashMap::new();
    for (_, c) in &todo {
        let e = pool_p.entry(c.wi).or_insert(c.p);
        *e = (*e).max(c.p);
    }
    let pools: HashMap<usize, TracePool> = pool_p
        .iter()
        .map(|(&wi, &max_p)| {
            let w = &spec.workloads[wi];
            (
                wi,
                TracePool::generate(w.spec, max_p, w.seed, TraceOptions::default()),
            )
        })
        .collect();

    let workers = if opts.threads == 0 {
        hbm_par::default_threads()
    } else {
        opts.threads
    };
    let scratches = ScratchPool::new();
    let fresh = hbm_par::try_parallel_map_with(&todo, workers, |(key, c)| {
        if opts.cancel.as_ref().is_some_and(|c| c.is_set()) {
            return Ok(None);
        }
        if let Some(throttle) = opts.throttle {
            std::thread::sleep(throttle);
        }
        let flat = pools[&c.wi].flat(c.p);
        let settings = SimSettings {
            k: c.k,
            q: c.q,
            arbitration: c.arbitration,
            replacement: c.replacement,
            far_latency: Some(c.far),
            seed: spec.sim_seed,
            faults: FaultPlan::default(),
        };
        let r = scratches
            .with(|scratch| run_sim_budgeted_flat(&flat, &settings, opts.budget, scratch))
            .map_err(|e| e.to_string())?;
        let rec = ExploreRecord {
            makespan: r.makespan,
            mean_response: r.response.mean,
            inconsistency: r.response.inconsistency,
            hit_rate: r.hit_rate,
            truncated: r.truncated,
        };
        journal
            .record(*key, &rec)
            .map_err(|e| format!("journal write failed: {e}"))?;
        Ok::<Option<ExploreRecord>, String>(Some(rec))
    });

    let mut cancelled = 0;
    let mut failures = Vec::new();
    for ((key, c), res) in todo.iter().zip(fresh) {
        let at = format!("cell (workload {}, p={}, k={}, q={})", c.wi, c.p, c.k, c.q);
        match res {
            Ok(Ok(Some(rec))) => {
                results.insert(*key, rec);
            }
            Ok(Ok(None)) => cancelled += 1,
            Ok(Err(e)) => failures.push(format!("{at}: {e}")),
            Err(panic) => failures.push(format!("{at} panicked: {}", panic.message)),
        }
    }
    SimOutcome {
        results,
        resumed,
        cancelled,
        failures,
    }
}

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes one cell for the artifact: coordinates, model prediction,
/// and (when simulated) the measured metrics plus the
/// prediction-vs-simulation verdict.
fn cell_json(spec: &ExploreSpec, c: &RankedCell, sims: &HashMap<u64, ExploreRecord>) -> String {
    let key = cell_key_of(spec, c);
    let (sim_makespan, sim_response, within_band) = match sims.get(&key) {
        Some(r) => (
            r.makespan.to_string(),
            fmt_f64(r.mean_response),
            c.pred.makespan.covers(r.makespan as f64, 0.0).to_string(),
        ),
        None => ("null".into(), "null".into(), "null".into()),
    };
    format!(
        "{{\"workload\":\"{}\",\"p\":{},\"far_latency\":{},\"k\":{},\"q\":{},\
         \"arbitration\":\"{:?}\",\"replacement\":\"{:?}\",\
         \"predicted_makespan\":{},\"band_lo\":{},\"band_hi\":{},\
         \"predicted_response\":{},\"predicted_inconsistency\":{},\
         \"uncertainty\":{},\"clamped\":{},\"lower_bound\":{},\"upper_bound\":{},\
         \"sim_makespan\":{},\"sim_response\":{},\"within_band\":{}}}",
        esc(&spec.workload_label(c.wi)),
        c.p,
        c.far,
        c.k,
        c.q,
        c.arbitration,
        c.replacement,
        fmt_f64(c.pred.makespan.est),
        fmt_f64(c.pred.makespan.lo),
        fmt_f64(c.pred.makespan.hi),
        fmt_f64(c.pred.mean_response.est),
        fmt_f64(c.pred.inconsistency.est),
        fmt_f64(c.pred.uncertainty),
        c.pred.clamped,
        c.pred.lower_bound,
        c.pred.upper_bound,
        sim_makespan,
        sim_response,
        within_band,
    )
}

/// Arbitration family name for `policy_wins` entries, by [`arb_index`].
const ARB_FAMILY: [&str; ARB_KINDS] = [
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "sweep_priority",
    "random_pick",
    "fr_fcfs",
];

fn cell_list_json(
    spec: &ExploreSpec,
    cells: &[RankedCell],
    sims: &HashMap<u64, ExploreRecord>,
) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&cell_json(spec, c, sims));
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
    out
}

/// Serializes the full exploration artifact. Deterministic by
/// construction — fixed field order, grid-ordered cells, no timestamps,
/// floats through the shared shortest-roundtrip formatter — so a fresh
/// and a resumed run of the same grid produce **byte-identical** files.
pub fn artifact_json(
    spec: &ExploreSpec,
    outcome: &RankOutcome,
    sims: &HashMap<u64, ExploreRecord>,
) -> String {
    let mut disagreements = 0u64;
    let mut seen = std::collections::HashSet::new();
    for c in outcome
        .frontier
        .iter()
        .chain(outcome.uncertain.iter())
        .chain(outcome.ranked.iter())
    {
        if !seen.insert(c.index) {
            continue;
        }
        if let Some(r) = sims.get(&cell_key_of(spec, c)) {
            if !c.pred.makespan.covers(r.makespan as f64, 0.0) {
                disagreements += 1;
            }
        }
    }
    let wins: Vec<String> = (0..ARB_KINDS)
        .filter(|&i| outcome.policy_wins[i] > 0)
        .map(|i| {
            format!(
                "{{\"arbitration\":\"{}\",\"wins\":{}}}",
                ARB_FAMILY[i], outcome.policy_wins[i]
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"hbm-explore-v1\",\n  \"grid\": {{\"workloads\":{},\"k\":{},\"q\":{},\
         \"far_latency\":{},\"arbitration\":{},\"replacement\":{},\"total_cells\":{},\
         \"winners\":{}}},\n  \"envelope\": {{\"calibration_cells\":{},\
         \"makespan_median_abs\":{},\"conformance_makespan_median_abs\":{}}},\n  \
         \"policy_wins\": [{}],\n  \"ranked\": {},\n  \"frontier\": {},\n  \
         \"frontier_total\": {},\n  \"uncertain\": {},\n  \"simulated\": {},\n  \
         \"disagreements\": {}\n}}\n",
        spec.workloads.len(),
        spec.k.len(),
        spec.q.len(),
        spec.far_latency.len(),
        spec.arbitration.len(),
        spec.replacement.len(),
        outcome.total_cells,
        outcome.winners,
        ENVELOPE.cells,
        fmt_f64(ENVELOPE.makespan.median_abs),
        fmt_f64(ENVELOPE.conformance_makespan_median_abs),
        wins.join(","),
        cell_list_json(spec, &outcome.ranked, sims),
        cell_list_json(spec, &outcome.frontier, sims),
        outcome.frontier_total,
        cell_list_json(spec, &outcome.uncertain, sims),
        sims.len(),
        disagreements,
    )
}

/// Human-readable table of the ranked cells (the artifact's `ranked`
/// list), with simulated makespans where available.
pub fn summary_table(
    spec: &ExploreSpec,
    outcome: &RankOutcome,
    sims: &HashMap<u64, ExploreRecord>,
) -> ResultTable {
    let mut table = ResultTable::new(
        "Design-space exploration — top configurations by predicted makespan",
        &[
            "workload",
            "p",
            "far",
            "k",
            "q",
            "arbitration",
            "replacement",
            "pred_makespan",
            "band",
            "sim_makespan",
            "within_band",
        ],
    );
    for c in &outcome.ranked {
        let key = cell_key_of(spec, c);
        let (sim, within) = match sims.get(&key) {
            Some(r) => (
                r.makespan.to_string(),
                c.pred.makespan.covers(r.makespan as f64, 0.0).to_string(),
            ),
            None => ("-".into(), "-".into()),
        };
        table.push_row(vec![
            format!("{:?}", spec.workloads[c.wi].spec),
            c.p.to_string(),
            c.far.to_string(),
            c.k.to_string(),
            c.q.to_string(),
            format!("{:?}", c.arbitration),
            format!("{:?}", c.replacement),
            format!("{:.0}", c.pred.makespan.est),
            format!("[{:.0}, {:.0}]", c.pred.makespan.lo, c.pred.makespan.hi),
            sim,
            within,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static TMP_SEQ: AtomicU32 = AtomicU32::new(0);

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(stem: &str) -> TempPath {
            let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            TempPath(std::env::temp_dir().join(format!(
                "hbm-explore-test-{}-{stem}-{n}.jsonl",
                std::process::id()
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    const TINY_SPEC: &str = r#"{
        "workloads": [
            {"workload": {"kind": "cyclic", "pages": 16, "reps": 4}, "p": [2, 4], "seed": 1}
        ],
        "k": [8, 16, 32],
        "q": [1, 2],
        "arbitration": ["fifo", "priority"],
        "replacement": ["lru"],
        "sim_seed": 7
    }"#;

    #[test]
    fn expand_axis_list_sorts_and_dedups() {
        let v = Json::parse("[4, 1, 4, 2]").unwrap();
        assert_eq!(expand_axis(&v, "k").unwrap(), vec![1, 2, 4]);
    }

    #[test]
    fn expand_axis_log_range_hits_endpoints() {
        let v = Json::parse(r#"{"min": 4, "max": 4096, "steps": 11, "scale": "log"}"#).unwrap();
        let vals = expand_axis(&v, "k").unwrap();
        assert_eq!(*vals.first().unwrap(), 4);
        assert_eq!(*vals.last().unwrap(), 4096);
        assert!(vals.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    #[test]
    fn expand_axis_linear_range() {
        let v = Json::parse(r#"{"min": 0, "max": 10, "steps": 6, "scale": "linear"}"#).unwrap();
        assert_eq!(expand_axis(&v, "q").unwrap(), vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn expand_axis_rejects_garbage() {
        for bad in [
            "[]",
            "\"x\"",
            r#"{"min": 4, "max": 2, "steps": 3}"#,
            r#"{"min": 0, "max": 8, "steps": 3, "scale": "log"}"#,
            r#"{"min": 1, "max": 8, "steps": 3, "scale": "cubic"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(expand_axis(&v, "k").is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn spec_parse_round_trips_the_tiny_grid() {
        let spec = ExploreSpec::parse(TINY_SPEC).unwrap();
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.workloads[0].p, vec![2, 4]);
        assert_eq!(spec.k, vec![8, 16, 32]);
        assert_eq!(spec.q, vec![1, 2]);
        assert_eq!(spec.far_latency, vec![1], "default far latency");
        assert_eq!(spec.arbitration.len(), 2);
        assert_eq!(spec.replacement, vec![ReplacementKind::Lru]);
        assert_eq!(spec.sim_seed, 7);
        // 2 p-cells × 3 k × 2 q × 2 arb × 1 rep × 1 far.
        assert_eq!(spec.total_cells(), 24);
    }

    #[test]
    fn spec_parse_rejects_missing_axes() {
        for bad in [
            "{}",
            r#"{"workloads": [], "k": [1], "q": [1]}"#,
            r#"{"workloads": [{"workload": {"kind": "cyclic", "pages": 4, "reps": 1}, "p": [1]}], "q": [1]}"#,
            r#"{"workloads": [{"workload": {"kind": "nope"}, "p": [1]}], "k": [1], "q": [1]}"#,
        ] {
            assert!(ExploreSpec::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn pareto_flags_hand_case() {
        // k-major 2×2 grid: rows k ascending, cols q ascending.
        //   (k0,q0)=10  (k0,q1)=9
        //   (k1,q0)=8   (k1,q1)=8
        // (k1,q1) is dominated by (k1,q0): same k, smaller q, equal est.
        let flags = pareto_flags(&[10.0, 9.0, 8.0, 8.0], 2, 2);
        assert_eq!(flags, vec![true, true, true, false]);
    }

    #[test]
    fn pareto_flags_equal_est_prefers_smaller_k() {
        let flags = pareto_flags(&[5.0, 5.0], 2, 1);
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn pareto_flags_all_distinct_frontier() {
        // est strictly decreasing in k, increasing in q: the q0 column and
        // the k-max row trade off; (k0,q1) is dominated by (k0,q0) iff
        // est(k0,q0) <= est(k0,q1).
        let flags = pareto_flags(&[4.0, 6.0, 2.0, 5.0], 2, 2);
        assert_eq!(flags, vec![true, false, true, false]);
    }

    #[test]
    fn rank_is_deterministic_and_respects_caps() {
        let spec = ExploreSpec::parse(TINY_SPEC).unwrap();
        let caps = RankCaps {
            top: 5,
            uncertain: 3,
            frontier: 100,
        };
        let a = rank(&spec, &caps);
        let b = rank(&spec, &caps);
        assert_eq!(a.total_cells, 24);
        assert_eq!(a.winners, 12, "one winner per (p, far, k, q)");
        assert_eq!(a.ranked.len(), 5);
        assert_eq!(a.uncertain.len(), 3);
        assert!(a.frontier_total >= 2, "each group keeps >= 1 frontier cell");
        assert!(
            a.ranked
                .windows(2)
                .all(|w| w[0].pred.makespan.est <= w[1].pred.makespan.est),
            "ranked ascending by estimate"
        );
        assert!(
            a.uncertain
                .windows(2)
                .all(|w| w[0].pred.uncertainty >= w[1].pred.uncertainty),
            "uncertain descending by score"
        );
        let empty = HashMap::new();
        assert_eq!(
            artifact_json(&spec, &a, &empty),
            artifact_json(&spec, &b, &empty),
            "rank pass must be bit-deterministic"
        );
        let wins: u64 = a.policy_wins.iter().sum();
        assert_eq!(wins, a.winners);
    }

    #[test]
    fn explore_record_round_trips_bit_exactly() {
        let rec = ExploreRecord {
            makespan: 123_456,
            mean_response: 0.1 + 0.2,
            inconsistency: 3.5,
            hit_rate: 0.75,
            truncated: false,
        };
        let line = rec.format_line(99);
        let (key, got) = <ExploreRecord as JournalRecord>::parse_line(&line).unwrap();
        assert_eq!(key, 99);
        assert_eq!(got, rec);
        assert_eq!(got.mean_response.to_bits(), rec.mean_response.to_bits());
        // Torn line: must not parse.
        assert!(<ExploreRecord as JournalRecord>::parse_line(&line[..line.len() / 2]).is_none());
    }

    #[test]
    fn explore_cell_keys_separate_every_parameter() {
        let k = |w: &str, p, kk, q, far, arb, rep, seed| {
            explore_cell_key(w, p, kk, q, far, arb, rep, seed)
        };
        let base = k(
            "w",
            2,
            8,
            1,
            4,
            ArbitrationKind::Fifo,
            ReplacementKind::Lru,
            0,
        );
        let variants = [
            k(
                "x",
                2,
                8,
                1,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                3,
                8,
                1,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                2,
                9,
                1,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                2,
                8,
                2,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                2,
                8,
                1,
                5,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                2,
                8,
                1,
                4,
                ArbitrationKind::Priority,
                ReplacementKind::Lru,
                0,
            ),
            k(
                "w",
                2,
                8,
                1,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Clock,
                0,
            ),
            k(
                "w",
                2,
                8,
                1,
                4,
                ArbitrationKind::Fifo,
                ReplacementKind::Lru,
                1,
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided");
        }
    }

    #[test]
    fn simulate_then_resume_is_byte_identical() {
        let spec = ExploreSpec::parse(TINY_SPEC).unwrap();
        let caps = RankCaps {
            top: 4,
            uncertain: 4,
            frontier: 100,
        };
        let outcome = rank(&spec, &caps);
        let targets = sim_targets(&outcome, 6);
        assert!(!targets.is_empty() && targets.len() <= 6);

        let tmp = TempPath::new("resume");
        let full = {
            let journal = JournalFile::<ExploreRecord>::open(&tmp.0).unwrap();
            let sim = simulate(&spec, &targets, &journal, &ExploreRunOptions::default());
            assert!(sim.failures.is_empty(), "{:?}", sim.failures);
            assert_eq!(sim.resumed, 0);
            assert_eq!(sim.results.len(), targets.len());
            artifact_json(&spec, &outcome, &sim.results)
        };
        // Truncate the journal to its first 2 lines — a mid-run kill —
        // and resume: the artifact must come back byte-identical.
        let text = std::fs::read_to_string(&tmp.0).unwrap();
        let keep: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&tmp.0, keep).unwrap();
        let journal = JournalFile::<ExploreRecord>::open(&tmp.0).unwrap();
        assert_eq!(journal.len(), 2);
        let sim = simulate(&spec, &targets, &journal, &ExploreRunOptions::default());
        assert!(sim.failures.is_empty(), "{:?}", sim.failures);
        assert_eq!(sim.resumed, 2);
        assert_eq!(artifact_json(&spec, &outcome, &sim.results), full);
        assert!(full.contains("\"within_band\":"));
        assert!(full.contains("\"schema\": \"hbm-explore-v1\""));
    }

    #[test]
    fn tripped_cancel_skips_everything() {
        let spec = ExploreSpec::parse(TINY_SPEC).unwrap();
        let outcome = rank(
            &spec,
            &RankCaps {
                top: 4,
                uncertain: 4,
                frontier: 100,
            },
        );
        let targets = sim_targets(&outcome, 4);
        let tmp = TempPath::new("cancel");
        let journal = JournalFile::<ExploreRecord>::open(&tmp.0).unwrap();
        let flag = ShutdownFlag::new();
        flag.trip();
        let sim = simulate(
            &spec,
            &targets,
            &journal,
            &ExploreRunOptions {
                cancel: Some(flag),
                ..ExploreRunOptions::default()
            },
        );
        assert_eq!(sim.cancelled, targets.len());
        assert!(sim.results.is_empty());
        assert!(sim.failures.is_empty());
    }

    #[test]
    fn predictions_track_simulation_on_the_tiny_grid() {
        // Not an envelope test (that lives in hbm-model's validation
        // suite) — just a smoke check that sim results land in the same
        // order of magnitude as predictions and inside the proved bounds.
        let spec = ExploreSpec::parse(TINY_SPEC).unwrap();
        let outcome = rank(
            &spec,
            &RankCaps {
                top: 4,
                uncertain: 0,
                frontier: 100,
            },
        );
        let targets: Vec<RankedCell> = outcome.ranked.clone();
        let tmp = TempPath::new("track");
        let journal = JournalFile::<ExploreRecord>::open(&tmp.0).unwrap();
        let sim = simulate(&spec, &targets, &journal, &ExploreRunOptions::default());
        assert!(sim.failures.is_empty(), "{:?}", sim.failures);
        for c in &targets {
            let r = &sim.results[&cell_key_of(&spec, c)];
            assert!(r.makespan >= c.pred.lower_bound);
            assert!(r.makespan <= c.pred.upper_bound);
        }
    }
}
