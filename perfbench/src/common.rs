//! Helpers shared by the workloads: the run context, scalar cell replays
//! timed stage by stage, and the result checksum.

use crate::report::Report;
use crate::trace::Tracer;
use hbm_core::{
    ArbitrationKind, FlatWorkload, NoopObserver, ReplacementKind, Report as SimReport, SimBuilder,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Span recorder (disabled for untraced runs).
    pub tracer: Tracer,
    /// Worker threads and client connections (`min(2, nproc)`).
    pub threads: usize,
    /// Scratch directory inside the checkout for journals and spans.
    pub out_dir: PathBuf,
    /// Print result fingerprints for the golden table.
    pub print_golden: bool,
}

impl Ctx {
    /// A per-run file name under the scratch directory.
    pub fn scratch_file(&self, stem: &str) -> PathBuf {
        self.out_dir
            .join(format!("{stem}-{}-{}.tmp", std::process::id(), self.seed))
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Repeats `f` until `budget` has passed, at least `min` and at most
/// `max` times.
pub fn repeat_for(budget: Duration, min: usize, max: usize, mut f: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < max && (n < min || start.elapsed() < budget) {
        f(n);
        n += 1;
    }
    n
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive fold of simulated results into one checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Checksum {
    /// The empty checksum.
    pub fn new() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn fold(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x0100_0000_01b3);
    }

    /// The checksum as an exactly representable JSON number (53 bits).
    pub fn as_metric(&self) -> f64 {
        (self.0 >> 11) as f64
    }
}

/// FNV-1a of a byte string, for comparing artifacts by value.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One simulation cell's parameters.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// HBM slots.
    pub k: usize,
    /// Channels.
    pub q: usize,
    /// Arbitration policy.
    pub arbitration: ArbitrationKind,
    /// Replacement policy (`None` keeps the builder default).
    pub replacement: Option<ReplacementKind>,
    /// Far-memory latency (`None` keeps the builder default).
    pub far_latency: Option<u64>,
    /// Policy RNG seed.
    pub seed: u64,
    /// Tick budget.
    pub max_ticks: Option<u64>,
}

impl CellSpec {
    /// The builder for this cell, configured as the library's sweep and
    /// server paths configure theirs.
    pub fn builder(&self) -> SimBuilder {
        let mut b = SimBuilder::new()
            .hbm_slots(self.k)
            .channels(self.q)
            .arbitration(self.arbitration)
            .seed(self.seed);
        if let Some(r) = self.replacement {
            b = b.replacement(r);
        }
        if let Some(f) = self.far_latency {
            b = b.far_latency(f);
        }
        if let Some(t) = self.max_ticks {
            b = b.max_ticks(t);
        }
        b
    }
}

/// A cell replayed on the benchmark's thread with its stages timed.
pub struct Replayed {
    /// The simulation report.
    pub report: SimReport,
    /// Seconds in `SimBuilder::try_build_flat` (engine construction).
    pub setup_s: f64,
    /// Seconds in `Engine::run`.
    pub run_s: f64,
}

/// Replays one cell through `SimBuilder::try_build_flat` and
/// `Engine::run`, timing each, inside spans under `parent`.
pub fn replay_cell(
    tracer: &Tracer,
    parent: Option<usize>,
    req: u64,
    flat: &Arc<FlatWorkload>,
    cell: &CellSpec,
) -> Result<Replayed, String> {
    let t0 = Instant::now();
    let engine = cell
        .builder()
        .try_build_flat(flat)
        .map_err(|e| format!("replay config rejected: {e}"))?;
    let t1 = Instant::now();
    let report = engine.run(&mut NoopObserver);
    let t2 = Instant::now();
    tracer.record("core.engine.setup", parent, req, t0, t1);
    tracer.record("core.engine.run", parent, req, t1, t2);
    Ok(Replayed {
        report,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    })
}

/// Replays a cell `n` times and keeps the fastest replay (setup + run),
/// which rejects bursts of interference from other guests on the host.
/// Only the first replay is traced.
pub fn replay_best(
    tracer: &Tracer,
    parent: Option<usize>,
    req: u64,
    flat: &Arc<FlatWorkload>,
    cell: &CellSpec,
    n: usize,
) -> Result<Replayed, String> {
    let mut best = replay_cell(tracer, parent, req, flat, cell)?;
    let off = Tracer::new(false);
    for _ in 1..n {
        let r = replay_cell(&off, None, req, flat, cell)?;
        if r.setup_s + r.run_s < best.setup_s + best.run_s {
            best = r;
        }
    }
    Ok(best)
}

/// Runs `f` `n` times and returns the last result with the fastest time.
pub fn fastest<R>(n: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let (mut r, mut best) = timed(&mut f);
    for _ in 1..n {
        let (next, s) = timed(&mut f);
        r = next;
        best = best.min(s);
    }
    (r, best)
}

/// Stage seconds accumulated over many replayed cells.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    /// Flat-workload construction seconds.
    pub flat_s: f64,
    /// Flat constructions.
    pub flats: u64,
    /// Engine construction seconds.
    pub setup_s: f64,
    /// Engine run seconds.
    pub run_s: f64,
    /// References simulated.
    pub refs: u64,
    /// Simulated ticks (sum of makespans).
    pub ticks: u64,
}

impl StageTotals {
    /// Adds one replayed cell over a workload of `refs` references.
    pub fn add_cell(&mut self, r: &Replayed, refs: usize) {
        self.setup_s += r.setup_s;
        self.run_s += r.run_s;
        self.refs += refs as u64;
        self.ticks += r.report.makespan;
    }
}

/// Splits library spans that ran on `threads` workers into layers. Span
/// `i` took `spans[i] = (wall, cpu)` wall and process CPU seconds, and its
/// cells were replayed single-threaded into `stages[i]`. A replayed stage
/// second counts `1 / threads` of a wall second; worker capacity the
/// process left unused is `par.idle.s`; what remains is the span's own
/// self time, charged to `own_layer`. `core.engine.run.refs_per_s` is
/// references per single-threaded `Engine::run` second.
pub fn charge_parallel(
    report: &mut Report,
    spans: &[(f64, f64)],
    stages: &[StageTotals],
    threads: usize,
    own_layer: &str,
) {
    let t = threads as f64;
    let (mut busy, mut capacity, mut run_s) = (0.0, 0.0, 0.0);
    for (&(wall, cpu), st) in spans.iter().zip(stages) {
        let idle = (wall - cpu / t).max(0.0);
        let replayed = (st.flat_s + st.setup_s + st.run_s) / t;
        report.add("core.flat.s", st.flat_s / t);
        report.add("core.flat.count", st.flats as f64);
        report.add("core.engine.setup.s", st.setup_s / t);
        report.add("core.engine.run.s", st.run_s / t);
        report.add("core.engine.run.refs", st.refs as f64);
        report.add("core.engine.run.ticks", st.ticks as f64);
        report.add("par.idle.s", idle);
        report.add(own_layer, (wall - idle - replayed).max(0.0));
        busy += cpu;
        capacity += t * wall;
        run_s += st.run_s;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.set("par.cpu_util", ratio(busy, capacity));
    let refs = report.get("core.engine.run.refs");
    report.set("core.engine.run.refs_per_s", ratio(refs, run_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let (mut a, mut b) = (Checksum::new(), Checksum::new());
        a.fold(1);
        a.fold(2);
        b.fold(2);
        b.fold(1);
        assert_ne!(a, b);
        assert!(a.as_metric() < 2f64.powi(53));
    }

    #[test]
    fn repeat_respects_min_and_max() {
        assert_eq!(repeat_for(Duration::ZERO, 3, 10, |_| ()), 3);
        assert_eq!(repeat_for(Duration::from_secs(60), 1, 4, |_| ()), 4);
    }
}
