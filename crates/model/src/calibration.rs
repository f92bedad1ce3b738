//! Fitted constants and the committed error envelope.
//!
//! [`FIT`] holds the shape parameters (per-arbitration batching
//! coefficient β, overlap weight α, queueing wait weight) and the
//! per-(arbitration, replacement) scale factors κ fitted by
//! `repro calibrate` against the simulator over the 288-cell conformance
//! grid, the Figure-2-style (SpGEMM/Sort × p × k) grids, the
//! Figure-3-style cyclic-adversary grid, and a faulted sub-grid.
//!
//! [`ENVELOPE`] records the resulting *signed relative error* quantiles
//! per metric (`err = (pred − sim)/sim`; for the blocked fraction the
//! errors are absolute differences since the metric lives in `[0, 1]`,
//! and inconsistency errors use `max(sim, 1)` as the denominator so
//! near-zero simulator values do not blow up the quantiles). The
//! envelope is committed twice on purpose: as these constants (used at
//! prediction time to attach uncertainty bands) and as the artifact
//! `results/model_envelope.json` (exactly [`Envelope::to_json`]'s
//! bytes); `tests/model_validation.rs` fails if the two drift apart or
//! if a fresh conformance-grid run degrades more than 20% beyond
//! [`Envelope::conformance_makespan_median_abs`].
//!
//! To refit after a model or simulator change: run `repro calibrate`,
//! paste the printed constants over [`FIT`] and [`ENVELOPE`], and commit
//! the regenerated artifact it writes.

use crate::predict::{ARB_KINDS, REP_KINDS};

/// The model's fitted parameters. See the module docs for what each
/// field is and how it is (re)fitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Per-arbitration batching coefficient β ∈ [0, 1] (index =
    /// [`crate::predict::arb_index`]): 0 = fair-split behaviour,
    /// 1 = ideal priority batching.
    pub beta: [f64; ARB_KINDS],
    /// Per-arbitration exposed fraction of the shorter path (channel vs
    /// critical core) that the longer path fails to hide — FIFO's
    /// round-robin interleaving overlaps differently than Priority's
    /// batching, so α is fitted per family like β.
    pub alpha: [f64; ARB_KINDS],
    /// Weight of the M/M/1-style queueing wait in the miss response.
    pub wait_weight: f64,
    /// Makespan scale per (arbitration, replacement).
    pub kappa_makespan: [[f64; REP_KINDS]; ARB_KINDS],
    /// Mean-response scale per (arbitration, replacement).
    pub kappa_response: [[f64; REP_KINDS]; ARB_KINDS],
    /// Inconsistency scale per (arbitration, replacement).
    pub kappa_inconsistency: [[f64; REP_KINDS]; ARB_KINDS],
}

impl Calibration {
    /// The neutral, unfitted calibration (κ ≡ 1): the starting point
    /// `repro calibrate` searches from, and a useful baseline for tests
    /// that must not depend on fitted numbers.
    pub const fn uncalibrated() -> Self {
        Calibration {
            beta: [0.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25, 0.0],
            alpha: [0.25; ARB_KINDS],
            wait_weight: 1.0,
            kappa_makespan: [[1.0; REP_KINDS]; ARB_KINDS],
            kappa_response: [[1.0; REP_KINDS]; ARB_KINDS],
            kappa_inconsistency: [[1.0; REP_KINDS]; ARB_KINDS],
        }
    }
}

/// Signed-error quantiles for one metric over the calibration corpus.
/// `p05`..`p95` are nearest-rank quantiles of the signed errors;
/// `median_abs` is the median of their absolute values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricEnvelope {
    /// 5th percentile of signed errors.
    pub p05: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median signed error.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Median absolute error.
    pub median_abs: f64,
}

impl MetricEnvelope {
    /// An all-zero envelope (useful as a neutral placeholder).
    pub const ZERO: MetricEnvelope = MetricEnvelope {
        p05: 0.0,
        p25: 0.0,
        p50: 0.0,
        p75: 0.0,
        p95: 0.0,
        median_abs: 0.0,
    };

    /// Builds the envelope from a set of signed errors. Empty input
    /// yields [`ZERO`](Self::ZERO). Quantiles are nearest-rank on the
    /// sorted values (deterministic, no interpolation).
    pub fn from_errors(mut errs: Vec<f64>) -> Self {
        if errs.is_empty() {
            return MetricEnvelope::ZERO;
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| {
            let idx = ((errs.len() - 1) as f64 * p).round() as usize;
            errs[idx]
        };
        let mut abs: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
        abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_abs = abs[((abs.len() - 1) as f64 * 0.5).round() as usize];
        MetricEnvelope {
            p05: q(0.05),
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p95: q(0.95),
            median_abs,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"p05\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \"p95\": {}, \"median_abs\": {}}}",
            fmt(self.p05),
            fmt(self.p25),
            fmt(self.p50),
            fmt(self.p75),
            fmt(self.p95),
            fmt(self.median_abs),
        )
    }
}

/// The committed per-metric error envelope plus corpus bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Makespan relative-error quantiles over the whole corpus.
    pub makespan: MetricEnvelope,
    /// Mean-response relative-error quantiles.
    pub mean_response: MetricEnvelope,
    /// Inconsistency error quantiles (denominator `max(sim, 1)`).
    pub inconsistency: MetricEnvelope,
    /// Blocked-fraction *absolute* error quantiles.
    pub blocked_frac: MetricEnvelope,
    /// Calibration corpus size (cells).
    pub cells: u64,
    /// Median |relative error| on makespan over the 288-cell conformance
    /// grid alone — the number the acceptance criterion (≤ 0.15) and the
    /// CI regression test (≤ 1.2× this) gate on.
    pub conformance_makespan_median_abs: f64,
}

impl Envelope {
    /// Renders the envelope exactly as the committed artifact
    /// `results/model_envelope.json` stores it. Deterministic: fixed key
    /// order, shortest-roundtrip float formatting, trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"hbm-model-envelope-v1\",\n  \"cells\": {},\n  \"conformance_makespan_median_abs\": {},\n  \"makespan\": {},\n  \"mean_response\": {},\n  \"inconsistency\": {},\n  \"blocked_frac\": {}\n}}\n",
            self.cells,
            fmt(self.conformance_makespan_median_abs),
            self.makespan.to_json(),
            self.mean_response.to_json(),
            self.inconsistency.to_json(),
            self.blocked_frac.to_json(),
        )
    }
}

/// Shortest-roundtrip float formatting with a forced decimal point, so
/// the artifact is valid JSON with unambiguous float typing.
fn fmt(x: f64) -> String {
    if x == x.trunc() && x.is_finite() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// The committed calibration, produced by `repro calibrate` (see the
/// module docs for the refit procedure).
pub static FIT: Calibration = Calibration {
    beta: [
        0.15000000000000002,
        0.6000000000000001,
        0.4,
        0.30000000000000004,
        0.2,
        0.4,
        0.30000000000000004,
        0.25,
        0.25,
    ],
    alpha: [0.1, 0.5, 0.5, 0.5, 0.4, 0.45, 0.5, 0.30000000000000004, 0.5],
    wait_weight: 0.25,
    kappa_makespan: [
        [
            0.9656084656084657,
            0.9656084656084657,
            0.9656084656084657,
            0.9656084656084657,
        ],
        [
            0.7692307692307693,
            0.7692307692307693,
            0.7692307692307693,
            0.7692307692307693,
        ],
        [
            0.7222222222222222,
            0.7222222222222222,
            0.7222222222222222,
            0.7272727272727273,
        ],
        [
            0.7777777777777778,
            0.7777777777777778,
            0.7777777777777778,
            0.8021390374331551,
        ],
        [
            0.769230769230769,
            0.769230769230769,
            0.769230769230769,
            0.769230769230769,
        ],
        [
            0.8411214953271028,
            0.8411214953271028,
            0.8411214953271028,
            0.8460236886632826,
        ],
        [
            0.8181818181818182,
            0.8181818181818182,
            0.8181818181818182,
            0.8181818181818182,
        ],
        [
            0.8163265306122449,
            0.8163265306122449,
            0.8163265306122449,
            0.8163265306122449,
        ],
        [
            0.7272727272727273,
            0.7272727272727273,
            0.7272727272727273,
            0.7272727272727273,
        ],
    ],
    kappa_response: [
        [
            1.0000123989208465,
            0.6173498005829379,
            0.6248550508564424,
            0.6248550508564424,
        ],
        [
            1.0703989419094193,
            0.9013605442176872,
            0.9013605442176872,
            0.9013605442176872,
        ],
        [1.0807031249999999, 0.9, 0.9, 0.9],
        [
            0.8793425099581504,
            0.8793425099581504,
            0.8793425099581504,
            0.9,
        ],
        [
            0.8461538461538461,
            0.8461538461538461,
            0.8461538461538461,
            0.8461538461538461,
        ],
        [
            0.9026662734432174,
            0.9026662734432174,
            0.9026662734432174,
            0.9130434782608695,
        ],
        [
            0.8793425099581504,
            0.8793425099581504,
            0.8793425099581504,
            0.9333333333333333,
        ],
        [
            0.802047781569966,
            0.802047781569966,
            0.802047781569966,
            0.802047781569966,
        ],
        [
            0.9013605442176872,
            0.9013605442176872,
            0.9013605442176872,
            0.9013605442176872,
        ],
    ],
    kappa_inconsistency: [
        [
            0.9999731191105653,
            0.6072501775342107,
            0.6171199478462315,
            0.6171199478462315,
        ],
        [
            2.110811733525323,
            0.9990942344080144,
            0.9990942344080144,
            0.9990942344080144,
        ],
        [
            13.786037571963684,
            0.9709757676119856,
            0.9867572497085114,
            0.9867572497085114,
        ],
        [
            0.9573958256816469,
            0.9502385175390845,
            0.9635558227772996,
            0.9687375340829253,
        ],
        [
            0.7414672572547658,
            0.7311421816776157,
            0.7195579062296055,
            0.6923521102888963,
        ],
        [
            0.9624622572967396,
            0.951194018082875,
            0.9666539830659517,
            0.9666539830659517,
        ],
        [
            0.9573958256816469,
            0.9502385175390845,
            0.9635558227772996,
            0.9687375340829253,
        ],
        [
            0.8538842362970805,
            0.8438871982183425,
            0.8576030819246103,
            0.8576030819246103,
        ],
        [
            1.0845758178247382,
            0.9363934190911616,
            1.0891267948993013,
            1.0891267948993013,
        ],
    ],
};

/// The committed error envelope matching [`FIT`]; mirrored byte-for-byte
/// by `results/model_envelope.json`.
pub static ENVELOPE: Envelope = Envelope {
    makespan: MetricEnvelope {
        p05: -0.3590097161525733,
        p25: -0.0927021696252465,
        p50: -0.0005611815422289111,
        p75: 0.17948717948717943,
        p95: 0.7123745819397991,
        median_abs: 0.13343799058084782,
    },
    mean_response: MetricEnvelope {
        p05: -0.4578498865653592,
        p25: -0.1573881932021468,
        p50: 0.0,
        p75: 0.17076171874999968,
        p95: 0.5714936355678198,
        median_abs: 0.16231189029696855,
    },
    inconsistency: MetricEnvelope {
        p05: -1.0,
        p25: -0.82915619758885,
        p50: -0.15840182038216077,
        p75: 0.3375165506992453,
        p95: 3.1395684334847744,
        median_abs: 0.6435937420983333,
    },
    blocked_frac: MetricEnvelope {
        p05: -0.008099690597987985,
        p25: 0.0,
        p50: 0.0027433861685316613,
        p75: 0.023190950135755617,
        p95: 0.07549704508442906,
        median_abs: 0.005239687848383502,
    },
    cells: 452,
    conformance_makespan_median_abs: 0.14716031631919477,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_from_errors_quantiles() {
        let errs: Vec<f64> = (-50..=50).map(|i| i as f64 / 100.0).collect();
        let env = MetricEnvelope::from_errors(errs);
        assert!((env.p50 - 0.0).abs() < 1e-12);
        assert!((env.p05 + 0.45).abs() < 1e-12);
        assert!((env.p95 - 0.45).abs() < 1e-12);
        assert!((env.median_abs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn envelope_of_empty_errors_is_zero() {
        assert_eq!(MetricEnvelope::from_errors(vec![]), MetricEnvelope::ZERO);
    }

    #[test]
    fn to_json_is_deterministic_and_parseable_shape() {
        let j = ENVELOPE.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"schema\": \"hbm-model-envelope-v1\""));
        assert!(j.contains("\"makespan\": {\"p05\": "));
        assert_eq!(j, ENVELOPE.to_json());
    }

    #[test]
    fn fmt_forces_decimal_point() {
        assert_eq!(fmt(1.0), "1.0");
        assert_eq!(fmt(0.125), "0.125");
        assert_eq!(fmt(-0.5), "-0.5");
    }
}
