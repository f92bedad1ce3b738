//! # hbm-model — the analytical fast path
//!
//! A closed-form performance model of the paper's HBM machine: given a
//! [`WorkloadSummary`](hbm_traces::analysis::WorkloadSummary) (per-core
//! miss-ratio curves, request volumes, footprint) and a [`ModelConfig`]
//! (`k`, `q`, arbitration, replacement, far latency, fault summary), it
//! predicts **makespan**, **mean response time**, **blocked fraction**,
//! and **inconsistency** — each as a [`Band`] carrying a calibrated
//! uncertainty interval — without running the simulator.
//!
//! One prediction costs O(1) after the summary's one-time per-workload
//! pass, so a million-cell design-space grid ranks in seconds; that is
//! the contract `repro explore` (hbm-experiments) and `POST /estimate`
//! (hbm-serve) build on. Where the simulator spends a tick per simulated
//! tick, the model spends a handful of float operations per *run*.
//!
//! ## The model in one paragraph
//!
//! Per-core LRU miss-ratio curves give the miss count `m(k)` under an
//! equal `⌊k/p⌋` HBM split; a per-arbitration *batching coefficient* β
//! interpolates between that fair split (FIFO-family, β = 0) and ideal
//! priority batching (β = 1), where every page crosses a far channel
//! exactly once. The predicted makespan is the larger of the channel
//! path `m·f/q` and the critical core's own path, plus an α-weighted
//! contention overlap, scaled by a per-(arbitration, replacement)
//! calibration factor κ fitted against the simulator, and finally
//! clamped into the provable interval
//! [`makespan_lower_bound`](hbm_core::bounds::makespan_lower_bound) ≤
//! makespan ≤
//! [`makespan_upper_bound`](hbm_core::bounds::makespan_upper_bound).
//! Mean response and inconsistency follow from a two-point
//! (hit/miss) response mixture; the blocked fraction is driven by the
//! fault summary's full-outage ticks. DESIGN.md §18 derives each term.
//!
//! ## Calibration and the error envelope
//!
//! `repro calibrate` fits κ over the 288-cell conformance grid plus the
//! Figure 2/Figure 3 sweep grids, and records the resulting signed
//! relative-error quantiles per metric as a committed artifact
//! (`results/model_envelope.json`) mirrored by the constants in
//! [`calibration::FIT`]. The envelope is what turns a point estimate
//! into a band, and `tests/model_validation.rs` fails CI if the model
//! drifts more than 20% beyond the committed envelope.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod predict;

pub use calibration::{Calibration, Envelope, MetricEnvelope};
pub use predict::{
    arb_index, rep_index, summary_bounds, Band, FaultSummary, ModelConfig, Prediction,
};
