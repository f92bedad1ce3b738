//! # hbm-core — the HBM+DRAM model simulator
//!
//! A from-scratch implementation of the theoretical model and simulator of
//! DeLayo, Zhang, Agrawal, Bender, Berry, Das, Moseley & Phillips,
//! *Automatic HBM Management: Models and Algorithms* (SPAA 2022).
//!
//! ## The model (paper §2)
//!
//! `p` cores each replay a disjoint page-reference sequence against a shared
//! High-Bandwidth Memory of `k` block slots. HBM connects to unbounded DRAM
//! through `q ≪ p` *far channels*. Every block transfer costs one tick. A
//! request that hits in HBM is served in 1 tick; a miss must win a far
//! channel, taking ≥ 2 ticks and potentially unboundedly long under
//! contention. The objective is **makespan** — the tick at which the last
//! core finishes — which the paper shows is the right metric (miss counts
//! are not, §2).
//!
//! Two policies govern the system (§1.1):
//!
//! * the **far-channel arbitration policy** ([`arbitration`]) picks which
//!   `≤ q` queued requests cross to DRAM each tick — FIFO is Ω(p)-
//!   competitive in the worst case (Theorem 2) while Priority is O(1)-
//!   competitive (Theorem 1) and O(q)-competitive with `q` channels
//!   (Theorem 3);
//! * the **block-replacement policy** ([`replacement`]) picks eviction
//!   victims — LRU and friends all work (replacement "is not the problem").
//!
//! ## Quick example
//!
//! ```
//! use hbm_core::{ArbitrationKind, ReplacementKind, SimBuilder, Workload};
//!
//! // Four cores cycling over eight pages each, HBM holding half of them.
//! let trace: Vec<u32> = (0..8).cycle().take(64).collect();
//! let workload = Workload::from_refs(vec![trace; 4]);
//!
//! let fifo = SimBuilder::new()
//!     .hbm_slots(16)
//!     .channels(1)
//!     .arbitration(ArbitrationKind::Fifo)
//!     .replacement(ReplacementKind::Lru)
//!     .run(&workload);
//!
//! let prio = SimBuilder::new()
//!     .hbm_slots(16)
//!     .channels(1)
//!     .arbitration(ArbitrationKind::Priority)
//!     .replacement(ReplacementKind::Lru)
//!     .run(&workload);
//!
//! // Priority protects the working sets of high-priority cores.
//! assert!(prio.makespan <= fifo.makespan);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbitration;
pub mod bounds;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod flat;
pub mod fxhash;
pub mod hbm;
pub mod ids;
pub mod metrics;
pub mod observer;
pub mod oracle;
pub mod page_index;
pub mod replacement;
pub mod rng;
pub mod slab_list;
pub mod stats;
pub mod testkit;
pub mod workload;

pub use arbitration::{ArbitrationKind, ArbitrationPolicy, Request};
pub use config::{SimBuilder, SimConfig};
pub use engine::{Engine, EngineScratch};
pub use error::{ConfigError, SimError};
pub use fault::{DegradationWindow, FaultPlan, OutageWindow, TransientFaults};
pub use flat::FlatWorkload;
pub use ids::{CoreId, GlobalPage, LocalPage, Tick};
pub use metrics::{CoreReport, FaultCounters, Report, ResponseSummary};
pub use observer::{FaultEvent, NoopObserver, RecordingObserver, SimObserver};
pub use oracle::OracleEngine;
pub use page_index::PageIndexer;
pub use replacement::{ReplacementKind, ReplacementPolicy};
pub use workload::{Trace, Workload};
