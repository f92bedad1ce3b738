//! The closed-form predictor: from a [`WorkloadSummary`] and a
//! [`ModelConfig`] to a [`Prediction`] in O(1) float operations.
//!
//! The derivation (DESIGN.md §18) in brief. Let `p` be the core count,
//! `f` the far latency, `m(s)` the summed per-core LRU miss count at a
//! per-core share of `s` HBM slots, and `m̂(s)` the critical (worst)
//! core's miss count at that share.
//!
//! * **Fair split** (FIFO-family behaviour): every core holds `⌊k/p⌋`
//!   slots for the whole run → `m_fair = m(⌊k/p⌋)`.
//! * **Batched** (Priority-family behaviour): the running core owns the
//!   whole HBM while it runs → `m_batch = m(k)` (with `m(s)` capped at
//!   the per-core working set this approaches one fetch per distinct
//!   page, the Lemma-1 ideal).
//! * A per-arbitration *batching coefficient* `β ∈ [0, 1]` interpolates:
//!   `m_eff = β·m_batch + (1−β)·m_fair`. β is fitted, not assumed.
//!
//! The channel path must move `m_eff` fetches of `f` ticks each through
//! `q` channels (`E[attempts]` per fetch under transient faults, plus
//! channel-ticks lost to partial outages); the critical-core path must
//! execute its own trace plus its own misses serially. Makespan is the
//! larger path plus an α-weighted fraction of the smaller (imperfect
//! overlap), plus ticks where *zero* channels were up, scaled by a
//! fitted per-(arbitration, replacement) constant κ, and clamped into
//! the provable `[lower_bound, upper_bound]` interval.
//!
//! Mean response time is a two-point mixture: hits cost 1 tick, misses
//! cost `1 + f·E[attempts] + W` where `W = w·f·ρ/(1−ρ)` is an M/M/1-style
//! queueing wait at channel utilization `ρ` with fitted weight `w`.
//! Inconsistency (the paper's response-time stddev) is the mixture's
//! stddev; the blocked fraction is full-outage time over the makespan.

use crate::calibration::{Calibration, Envelope, MetricEnvelope};
use hbm_core::{ArbitrationKind, FaultPlan, ReplacementKind};
use hbm_traces::analysis::WorkloadSummary;

/// Number of arbitration families the calibration tables index over.
pub const ARB_KINDS: usize = 9;
/// Number of replacement policies the calibration tables index over.
pub const REP_KINDS: usize = 4;

/// Dense index of an arbitration kind into the calibration tables.
/// Parameterized variants (periods, row shifts) share their family's
/// entry: the fitted constants capture the family's batching behaviour,
/// which the parameters perturb only mildly.
pub fn arb_index(kind: ArbitrationKind) -> usize {
    match kind {
        ArbitrationKind::Fifo => 0,
        ArbitrationKind::Priority => 1,
        ArbitrationKind::DynamicPriority { .. } => 2,
        ArbitrationKind::CyclePriority { .. } => 3,
        ArbitrationKind::CycleReversePriority { .. } => 4,
        ArbitrationKind::InterleavePriority { .. } => 5,
        ArbitrationKind::SweepPriority { .. } => 6,
        ArbitrationKind::RandomPick => 7,
        ArbitrationKind::FrFcfs { .. } => 8,
    }
}

/// Dense index of a replacement policy into the calibration tables.
pub fn rep_index(kind: ReplacementKind) -> usize {
    match kind {
        ReplacementKind::Lru => 0,
        ReplacementKind::Fifo => 1,
        ReplacementKind::Clock => 2,
        ReplacementKind::Random => 3,
    }
}

/// What the model needs to know about a [`FaultPlan`]: aggregate totals,
/// not the schedule. Computed once per plan by [`FaultSummary::from_plan`]
/// and then shared across every `(k, arbitration, replacement)` cell that
/// reuses the plan — only `q` changes the outage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Ticks during which *every* channel is down (`q_eff = 0`): the
    /// machine serves hits but admits no fetch, so these ticks add to the
    /// makespan of any fetch-bound run and drive the blocked fraction.
    pub full_outage_ticks: u64,
    /// Σ over ticks of `min(channels_down, q)` for partial outages —
    /// channel-ticks of capacity lost while the machine still made
    /// progress. Divided by `q` this is the equivalent serial delay.
    pub lost_channel_ticks: f64,
    /// Σ over degradation windows of `duration × extra_latency`: the
    /// total extra channel-ticks available to be charged to fetches that
    /// start inside a window.
    pub degraded_extra_ticks: f64,
    /// Σ of degradation window durations (ticks covered by ≥1 window).
    pub degraded_span: u64,
    /// Expected transfer attempts per fetch under the transient-failure
    /// model (`1.0` when there is none). With per-attempt failure
    /// probability `P` and a hard retry bound `R`,
    /// `E = Σ_{a=1}^{R} a·P^{a−1}(1−P) + (R+1)·P^R`.
    pub mean_attempts: f64,
}

impl FaultSummary {
    /// The fault-free summary.
    pub const NONE: FaultSummary = FaultSummary {
        full_outage_ticks: 0,
        lost_channel_ticks: 0.0,
        degraded_extra_ticks: 0.0,
        degraded_span: 0,
        mean_attempts: 1.0,
    };

    /// Summarizes `plan` as seen by a machine with `q` far channels.
    pub fn from_plan(plan: &FaultPlan, q: usize) -> Self {
        if q == 0 {
            return FaultSummary::NONE;
        }
        // Outage windows may overlap; per-tick down-counts add (the
        // engine disables the last `down(t)` channels). Sweep boundary
        // events to accumulate exact per-segment counts.
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(plan.outages.len() * 2);
        for o in &plan.outages {
            if o.end > o.start && o.channels > 0 {
                events.push((o.start, o.channels as i64));
                events.push((o.end, -(o.channels as i64)));
            }
        }
        events.sort_unstable();
        let mut full_outage_ticks = 0u64;
        let mut lost_channel_ticks = 0.0f64;
        let mut down = 0i64;
        let mut prev = 0u64;
        for &(t, delta) in &events {
            if t > prev && down > 0 {
                let span = t - prev;
                let eff_down = (down as u64).min(q as u64);
                if eff_down as usize >= q {
                    full_outage_ticks += span;
                } else {
                    lost_channel_ticks += span as f64 * eff_down as f64;
                }
            }
            prev = t.max(prev);
            down += delta;
        }
        // Degradation windows: overlaps add extra latency, mirroring the
        // engine's per-start accumulation.
        let mut degraded_extra_ticks = 0.0f64;
        for d in &plan.degradations {
            if d.end > d.start {
                degraded_extra_ticks += (d.end - d.start) as f64 * d.extra_latency as f64;
            }
        }
        let mut spans: Vec<(u64, u64)> = plan
            .degradations
            .iter()
            .filter(|d| d.end > d.start)
            .map(|d| (d.start, d.end))
            .collect();
        spans.sort_unstable();
        let mut degraded_span = 0u64;
        let mut cover_end = 0u64;
        for (s, e) in spans {
            let s = s.max(cover_end);
            if e > s {
                degraded_span += e - s;
                cover_end = e;
            }
        }
        let mean_attempts = match plan.transient {
            None => 1.0,
            Some(t) => expected_attempts(t.fail_prob, t.max_retries),
        };
        FaultSummary {
            full_outage_ticks,
            lost_channel_ticks,
            degraded_extra_ticks,
            degraded_span,
            mean_attempts,
        }
    }

    /// True when the summary is indistinguishable from fault-free. Only
    /// then may predictions be clamped against the fault-free
    /// [`makespan_upper_bound`](hbm_core::bounds::makespan_upper_bound).
    pub fn is_zero(&self) -> bool {
        self.full_outage_ticks == 0
            && self.lost_channel_ticks == 0.0
            && self.degraded_extra_ticks == 0.0
            && (self.mean_attempts - 1.0).abs() < 1e-12
    }
}

/// `E[attempts]` per transfer: geometric with success probability
/// `1 − fail_prob`, truncated by the hard retry bound (the attempt after
/// the `max_retries`-th failure always succeeds).
fn expected_attempts(fail_prob: f64, max_retries: u32) -> f64 {
    let p = fail_prob.clamp(0.0, 1.0);
    let r = max_retries.max(1);
    let mut e = 0.0;
    let mut pow = 1.0; // p^(a-1)
    for a in 1..=r {
        e += a as f64 * pow * (1.0 - p);
        pow *= p;
    }
    // All r attempts failed (prob p^r): the (r+1)-th succeeds for sure.
    e + (r as f64 + 1.0) * pow
}

/// One design-space cell as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// HBM capacity in slots.
    pub k: usize,
    /// Far channel count.
    pub q: usize,
    /// Arbitration policy (parameterized variants share their family's
    /// calibration entry).
    pub arbitration: ArbitrationKind,
    /// HBM replacement policy.
    pub replacement: ReplacementKind,
    /// Far-transfer latency in ticks.
    pub far_latency: u64,
    /// Aggregate fault summary ([`FaultSummary::NONE`] when fault-free).
    pub faults: FaultSummary,
}

impl ModelConfig {
    /// A fault-free cell at the default far latency of 1.
    pub fn new(
        k: usize,
        q: usize,
        arbitration: ArbitrationKind,
        replacement: ReplacementKind,
    ) -> Self {
        ModelConfig {
            k,
            q,
            arbitration,
            replacement,
            far_latency: 1,
            faults: FaultSummary::NONE,
        }
    }

    /// Sets the far latency.
    pub fn far_latency(mut self, f: u64) -> Self {
        self.far_latency = f;
        self
    }

    /// Attaches a fault summary.
    pub fn faults(mut self, faults: FaultSummary) -> Self {
        self.faults = faults;
        self
    }
}

/// A point estimate with its calibrated uncertainty interval. The band is
/// derived from the committed error envelope: if signed relative errors
/// `(pred − sim)/sim` historically span `[q05, q95]`, the simulator value
/// compatible with estimate `e` spans `[e/(1+q95), e/(1+q05)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower edge of the 90% band.
    pub lo: f64,
    /// The point estimate.
    pub est: f64,
    /// Upper edge of the 90% band.
    pub hi: f64,
}

impl Band {
    fn from_envelope(est: f64, env: &MetricEnvelope) -> Band {
        // err = (pred − sim)/sim > −1 always, so 1 + q > 0.
        let lo = est / (1.0 + env.p95.max(-0.99));
        let hi = est / (1.0 + env.p05.max(-0.99));
        Band {
            lo: lo.min(est),
            est,
            hi: hi.max(est),
        }
    }

    /// Relative width of the band: `(hi − lo) / max(est, 1)` — the
    /// model's own uncertainty score for ranking cells to re-simulate.
    pub fn rel_width(&self) -> f64 {
        (self.hi - self.lo) / self.est.max(1.0)
    }

    /// True if `value` lies inside the band widened by `slack`
    /// (multiplicative: `[lo/(1+slack), hi·(1+slack)]`).
    pub fn covers(&self, value: f64, slack: f64) -> bool {
        value >= self.lo / (1.0 + slack) && value <= self.hi * (1.0 + slack)
    }
}

/// The model's output for one cell: the four paper metrics as bands,
/// plus the provable interval and bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted makespan (ticks), clamped into `[lower_bound,
    /// upper_bound]` (upper only when fault-free — outages can push real
    /// runs past the fault-free ceiling).
    pub makespan: Band,
    /// Predicted mean response time (ticks per reference).
    pub mean_response: Band,
    /// Predicted inconsistency (response-time standard deviation).
    pub inconsistency: Band,
    /// Predicted fraction of the makespan spent in full outage.
    pub blocked_frac: Band,
    /// Effective miss ratio the prediction is built on.
    pub miss_ratio: f64,
    /// Lemma-1 lower bound on the makespan (ticks).
    pub lower_bound: u64,
    /// Serial-channel upper bound on the fault-free makespan (ticks).
    pub upper_bound: u64,
    /// Uncertainty score: the makespan band's relative width, inflated by
    /// how hard the estimate was clamped (a clamp means the closed form
    /// disagreed with a proof — trust it less).
    pub uncertainty: f64,
    /// True if the raw estimate fell outside the provable interval.
    pub clamped: bool,
}

/// The provable makespan interval from summary statistics alone: mirrors
/// [`hbm_core::bounds::makespan_lower_bound`] /
/// [`makespan_upper_bound`](hbm_core::bounds::makespan_upper_bound)
/// without needing the traces.
pub fn summary_bounds(summary: &WorkloadSummary, q: usize, far_latency: u64) -> (u64, u64) {
    if summary.total_refs == 0 {
        return (0, 0);
    }
    let lb = summary
        .max_trace_len
        .max(summary.footprint.div_ceil(q.max(1) as u64))
        .max(2);
    let ub = summary
        .total_refs
        .saturating_mul(far_latency.saturating_add(1))
        .saturating_add(1);
    (lb, ub)
}

/// Raw (pre-κ, pre-clamp) estimates — the quantities calibration fits κ
/// against. Public so `repro calibrate` can refit without a circular
/// dependency on the fitted constants.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawEstimates {
    /// Raw makespan (ticks).
    pub makespan: f64,
    /// Raw mean response time.
    pub mean_response: f64,
    /// Raw inconsistency.
    pub inconsistency: f64,
    /// Raw blocked fraction.
    pub blocked_frac: f64,
    /// Effective miss ratio.
    pub miss_ratio: f64,
}

/// Computes the raw closed-form estimates under `cal`'s shape parameters
/// (β, α, wait weight) with κ ≡ 1.
pub fn raw_estimates(cal: &Calibration, s: &WorkloadSummary, c: &ModelConfig) -> RawEstimates {
    if s.cores == 0 || s.total_refs == 0 {
        return RawEstimates::default();
    }
    let p = s.cores;
    let q = c.q.max(1) as f64;
    let f = c.far_latency.max(1) as f64;
    let ai = arb_index(c.arbitration);
    let beta = cal.beta[ai].clamp(0.0, 1.0);

    // Effective miss counts: β-interpolation between the fair ⌊k/p⌋
    // split and whole-machine batching.
    let m_fair = s.misses_at_share(c.k / p) as f64;
    let m_batch = s.misses_at_share(c.k) as f64;
    let m_eff = beta * m_batch + (1.0 - beta) * m_fair;
    let crit_fair = s.max_misses_at_share(c.k / p) as f64;
    let crit_batch = s.max_misses_at_share(c.k) as f64;
    let m_crit = beta * crit_batch + (1.0 - beta) * crit_fair;

    let attempts = c.faults.mean_attempts.max(1.0);
    // Channel path: every effective miss holds a channel for f ticks per
    // attempt; q channels drain in parallel. Partial outages remove
    // channel-ticks; degradations stretch fetches that start in-window
    // (approximated by the covered fraction of the run).
    let chan_work = m_eff * f * attempts;
    let crit_path = s.max_trace_len as f64 + m_crit * f * attempts;
    let t0 = (chan_work / q).max(crit_path).max(1.0);
    let degr_extra = if c.faults.degraded_extra_ticks > 0.0 {
        m_eff * c.faults.degraded_extra_ticks / t0.max(c.faults.degraded_span as f64)
    } else {
        0.0
    };
    let chan_path = (chan_work + degr_extra + c.faults.lost_channel_ticks) / q;

    // Imperfect overlap: the shorter path hides behind the longer one
    // only partially; α is the fitted exposed fraction.
    let hi = chan_path.max(crit_path);
    let lo = chan_path.min(crit_path);
    let makespan = hi + cal.alpha[ai] * lo + c.faults.full_outage_ticks as f64;

    // Response mixture: hits cost 1; misses cost 1 + f·attempts + wait,
    // with an M/M/1-style wait at channel utilization ρ.
    let miss_ratio = (m_eff / s.total_refs as f64).clamp(0.0, 1.0);
    let rho = (chan_work / q / makespan.max(1.0)).clamp(0.0, 0.98);
    let wait = cal.wait_weight * f * rho / (1.0 - rho);
    let resp_miss = 1.0 + f * attempts + wait;
    let mean_response = 1.0 + miss_ratio * (resp_miss - 1.0);
    let inconsistency = (resp_miss - 1.0) * (miss_ratio * (1.0 - miss_ratio)).sqrt();
    let blocked_frac = (c.faults.full_outage_ticks as f64 / makespan.max(1.0)).clamp(0.0, 1.0);

    RawEstimates {
        makespan,
        mean_response,
        inconsistency,
        blocked_frac,
        miss_ratio,
    }
}

impl Calibration {
    /// Predicts all four metrics for one cell, applying κ, clamping the
    /// makespan into its provable interval, and attaching `envelope`'s
    /// uncertainty bands.
    pub fn predict_with(
        &self,
        envelope: &Envelope,
        s: &WorkloadSummary,
        c: &ModelConfig,
    ) -> Prediction {
        let raw = raw_estimates(self, s, c);
        let (lb, ub) = summary_bounds(s, c.q, c.far_latency);
        let ai = arb_index(c.arbitration);
        let ri = rep_index(c.replacement);

        let scaled = raw.makespan * self.kappa_makespan[ai][ri];
        // The upper bound only holds fault-free; outages can exceed it.
        let clamp_hi = if c.faults.is_zero() {
            ub as f64
        } else {
            f64::INFINITY
        };
        let est_mk = scaled.clamp(lb as f64, clamp_hi.max(lb as f64));
        let clamped = (est_mk - scaled).abs() > 1e-9;

        let mut makespan = Band::from_envelope(est_mk, &envelope.makespan);
        // The band may not contradict the proofs either.
        makespan.lo = makespan.lo.max(lb as f64);
        if c.faults.is_zero() {
            makespan.hi = makespan.hi.min(ub as f64).max(makespan.lo);
        }
        makespan.est = est_mk.clamp(makespan.lo, makespan.hi.max(makespan.lo));

        let est_resp = (raw.mean_response * self.kappa_response[ai][ri]).max(1.0);
        let mut mean_response = Band::from_envelope(est_resp, &envelope.mean_response);
        mean_response.lo = mean_response.lo.max(1.0);

        let est_inc = (raw.inconsistency * self.kappa_inconsistency[ai][ri]).max(0.0);
        let mut inconsistency = Band::from_envelope(est_inc, &envelope.inconsistency);
        inconsistency.lo = inconsistency.lo.max(0.0);

        // Blocked fraction rescales with the calibrated makespan (same
        // outage ticks over a better denominator) and is absolute-error
        // banded: envelope quantiles for it are differences, not ratios.
        let est_blocked = if c.faults.full_outage_ticks == 0 {
            0.0
        } else {
            (c.faults.full_outage_ticks as f64 / est_mk.max(1.0)).clamp(0.0, 1.0)
        };
        let blocked_frac = Band {
            lo: (est_blocked - envelope.blocked_frac.p95.abs()).max(0.0),
            est: est_blocked,
            hi: (est_blocked + envelope.blocked_frac.p95.abs()).min(1.0),
        };

        let clamp_penalty = if raw.makespan > 0.0 {
            (scaled - est_mk).abs() / est_mk.max(1.0)
        } else {
            0.0
        };
        let uncertainty = makespan.rel_width() + clamp_penalty;

        Prediction {
            makespan,
            mean_response,
            inconsistency,
            blocked_frac,
            miss_ratio: raw.miss_ratio,
            lower_bound: lb,
            upper_bound: ub,
            uncertainty,
            clamped,
        }
    }
}

/// Predicts one cell with the committed calibration
/// ([`crate::calibration::FIT`]) and envelope
/// ([`crate::calibration::ENVELOPE`]) — the entry point `repro explore`
/// and `POST /estimate` use.
pub fn predict(s: &WorkloadSummary, c: &ModelConfig) -> Prediction {
    crate::calibration::FIT.predict_with(&crate::calibration::ENVELOPE, s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_core::Workload;

    fn summary() -> WorkloadSummary {
        let trace: Vec<u32> = (0..16u32).cycle().take(160).collect();
        WorkloadSummary::from_workload(&Workload::from_refs(vec![trace; 4]))
    }

    #[test]
    fn expected_attempts_limits() {
        assert!((expected_attempts(0.0, 3) - 1.0).abs() < 1e-12);
        // P = 1: every attempt fails until the bound forces success at
        // attempt R + 1.
        assert!((expected_attempts(1.0, 3) - 4.0).abs() < 1e-12);
        // Unbounded geometric mean 1/(1-P) = 2 at P = 0.5; the truncation
        // can only pull it down slightly for large R.
        let e = expected_attempts(0.5, 30);
        assert!((e - 2.0).abs() < 1e-6, "e = {e}");
    }

    #[test]
    fn fault_summary_of_empty_plan_is_zero() {
        let fs = FaultSummary::from_plan(&FaultPlan::new(), 4);
        assert!(fs.is_zero());
        assert_eq!(fs, FaultSummary::NONE);
    }

    #[test]
    fn fault_summary_splits_full_and_partial_outages() {
        let plan = FaultPlan::new()
            .outage(0, 10, 1) // partial: 10 ticks × 1 channel
            .outage(20, 25, 9); // full: channels ≥ q
        let fs = FaultSummary::from_plan(&plan, 2);
        assert_eq!(fs.full_outage_ticks, 5);
        assert!((fs.lost_channel_ticks - 10.0).abs() < 1e-12);
        assert!(!fs.is_zero());
    }

    #[test]
    fn fault_summary_overlapping_outages_add() {
        // Two 1-channel outages overlapping on [5, 10) take a q=2 machine
        // to a full outage there.
        let plan = FaultPlan::new().outage(0, 10, 1).outage(5, 15, 1);
        let fs = FaultSummary::from_plan(&plan, 2);
        assert_eq!(fs.full_outage_ticks, 5);
        assert!((fs.lost_channel_ticks - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fault_summary_degradation_totals() {
        let plan = FaultPlan::new().degradation(0, 10, 3).degradation(5, 15, 2);
        let fs = FaultSummary::from_plan(&plan, 2);
        assert!((fs.degraded_extra_ticks - (30.0 + 20.0)).abs() < 1e-12);
        assert_eq!(fs.degraded_span, 15, "overlap covered once");
    }

    #[test]
    fn summary_bounds_match_trace_bounds() {
        let w = Workload::from_refs(vec![vec![0, 1, 2, 0, 1, 2]; 4]);
        let s = WorkloadSummary::from_workload(&w);
        for q in [1usize, 2, 4] {
            for f in [1u64, 3] {
                let (lb, ub) = summary_bounds(&s, q, f);
                assert_eq!(lb, hbm_core::bounds::makespan_lower_bound(&w, 8, q));
                assert_eq!(ub, hbm_core::bounds::makespan_upper_bound(&w, 8, q, f));
            }
        }
        let empty = WorkloadSummary::from_workload(&Workload::new());
        assert_eq!(summary_bounds(&empty, 2, 1), (0, 0));
    }

    #[test]
    fn prediction_stays_in_provable_interval_when_fault_free() {
        let s = summary();
        for k in [1usize, 8, 16, 32, 64, 128] {
            for q in [1usize, 2, 4] {
                for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
                    let c = ModelConfig::new(k, q, arb, ReplacementKind::Lru);
                    let pred = predict(&s, &c);
                    let (lb, ub) = summary_bounds(&s, q, 1);
                    assert!(
                        pred.makespan.est >= lb as f64,
                        "est below lb at k={k} q={q}"
                    );
                    assert!(
                        pred.makespan.est <= ub as f64,
                        "est above ub at k={k} q={q}"
                    );
                    assert!(pred.makespan.lo <= pred.makespan.est);
                    assert!(pred.makespan.est <= pred.makespan.hi);
                    assert!(pred.mean_response.est >= 1.0);
                    assert!(pred.inconsistency.est >= 0.0);
                    assert_eq!(pred.blocked_frac.est, 0.0);
                }
            }
        }
    }

    #[test]
    fn arb_and_rep_indices_are_dense_and_in_range() {
        for (i, kind) in [
            ArbitrationKind::Fifo,
            ArbitrationKind::Priority,
            ArbitrationKind::DynamicPriority { period: 3 },
            ArbitrationKind::CyclePriority { period: 3 },
            ArbitrationKind::CycleReversePriority { period: 3 },
            ArbitrationKind::InterleavePriority { period: 3 },
            ArbitrationKind::SweepPriority { period: 3 },
            ArbitrationKind::RandomPick,
            ArbitrationKind::FrFcfs { row_shift: 2 },
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(arb_index(kind), i);
        }
        for (i, kind) in ReplacementKind::ALL.into_iter().enumerate() {
            assert_eq!(rep_index(kind), i);
        }
    }
}
