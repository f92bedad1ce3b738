//! The machine-readable benchmark harness behind `BENCH_4.json`.
//!
//! Criterion benches (the `benches/` targets) answer "how long does one
//! artifact regeneration take, statistically?"; this module answers the CI
//! question "how many simulated ticks per second does the engine sustain on
//! pinned workloads, and did a PR regress it?". It runs a fixed grid of
//! seeded cells shaped like the paper's figures — Fig 2 (sort/SpGEMM under
//! contention), Fig 3 (the cyclic FIFO-killer sweep), Fig 6 (pointer-chase
//! style uniform-random far-latency traffic) — at two scales, and emits one
//! JSON document per run:
//!
//! ```text
//! cargo run --release -p hbm-bench --bin bench_harness -- --out BENCH_4.json
//! ```
//!
//! The JSON is hand-rolled (the workspace's `serde` is an offline no-op
//! stand-in) in a deliberately line-oriented layout: one cell object per
//! line, so the regression checker ([`parse_cells`]) can re-read its own
//! output without a full JSON parser. Schema and gating policy are
//! documented in README.md §"Benchmarking & regression gating" and
//! DESIGN.md §10.
//!
//! Cross-machine comparability: every run also measures a fixed synthetic
//! [`calibration_score`] (a pure CPU loop, independent of the engine). The
//! regression check scales the baseline's ticks/sec by the ratio of
//! calibration scores, so a faster or slower CI runner does not read as an
//! engine change.

use hbm_core::{ArbitrationKind, Engine, NoopObserver, SimBuilder, Workload};
use hbm_experiments::common::{run_cell, run_cell_flat, ScratchPool, TracePool};
use hbm_traces::adversarial::{cyclic_workload, figure3_hbm_slots};
use hbm_traces::{SortAlgo, TraceOptions, WorkloadSpec};
use std::time::Instant;

/// Bench scale: `Small` is the CI smoke grid (sub-second cells), `Medium`
/// the local perf-tracking grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// CI smoke scale — the whole grid runs in a few seconds.
    Small,
    /// Local perf-tracking scale — larger traces, stabler ticks/sec.
    Medium,
}

impl BenchScale {
    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<BenchScale> {
        match s {
            "small" => Some(BenchScale::Small),
            "medium" => Some(BenchScale::Medium),
            _ => None,
        }
    }

    /// Stable name for JSON output.
    pub fn name(self) -> &'static str {
        match self {
            BenchScale::Small => "small",
            BenchScale::Medium => "medium",
        }
    }
}

/// One pinned benchmark cell: a seeded workload plus a full configuration.
pub struct CellSpec {
    /// Stable identifier, e.g. `fig3/FIFO/p16` — the regression-gate key.
    pub id: String,
    /// Figure-shaped group: `fig2`, `fig3` (the adversarial sweep), `fig6`.
    pub group: &'static str,
    /// The workload to replay.
    pub workload: Workload,
    /// HBM slots `k`.
    pub k: usize,
    /// Far channels `q`.
    pub q: usize,
    /// Arbitration policy.
    pub arbitration: ArbitrationKind,
    /// Far-channel latency in ticks.
    pub far_latency: u64,
    /// Simulation seed.
    pub seed: u64,
}

/// Measured outcome of one cell.
pub struct CellResult {
    /// The spec's stable id.
    pub id: String,
    /// The spec's group.
    pub group: &'static str,
    /// Cores `p`.
    pub p: usize,
    /// HBM slots `k`.
    pub k: usize,
    /// Far channels `q`.
    pub q: usize,
    /// Far latency in ticks.
    pub far_latency: u64,
    /// Total trace references replayed per run.
    pub total_refs: u64,
    /// Simulated ticks per run (the report makespan).
    pub ticks: u64,
    /// Best (minimum) wall-clock seconds over the measurement iterations
    /// (engine construction **plus** the run — the full per-cell cost).
    pub wall_seconds: f64,
    /// Best (minimum) engine-construction seconds over the iterations:
    /// everything between "workload in hand" and "ready to step" —
    /// flattening, page-index build, and buffer allocation.
    pub setup_seconds: f64,
    /// `ticks / wall_seconds` for the best iteration.
    pub ticks_per_sec: f64,
    /// `total_refs / wall_seconds` for the best iteration.
    pub refs_per_sec: f64,
    /// Current RSS (VmRSS) in bytes sampled just before the cell, after
    /// resetting the kernel's peak counter. 0 when unavailable.
    pub rss_before_bytes: u64,
    /// Peak RSS growth attributable to this cell:
    /// `VmHWM_after − rss_before_bytes`, with the peak counter reset via
    /// `/proc/self/clear_refs` before the cell ran. Unlike the raw VmHWM
    /// (which is monotone across the whole process and once made every
    /// cell after the hungriest one report the same number), this is a
    /// genuine per-cell figure. 0 when the reset is unsupported.
    pub peak_rss_delta_bytes: u64,
    /// Process peak RSS (VmHWM) in bytes observed after the cell, 0 when
    /// unavailable. Kept for continuity: a process-lifetime high-water
    /// mark, monotone across cells by nature — use
    /// [`peak_rss_delta_bytes`](Self::peak_rss_delta_bytes) for per-cell
    /// attribution.
    pub peak_rss_bytes: u64,
    /// Hit count, pinned by the seed (a cheap trajectory checksum).
    pub hits: u64,
}

/// Builds the pinned cell grid for one scale. Seeds, shapes and parameters
/// are frozen: changing them invalidates `results/bench_baseline.json`.
pub fn cells(scale: BenchScale) -> Vec<CellSpec> {
    let mut out = Vec::new();
    let (fig3_ps, fig3_pages, fig3_reps) = match scale {
        BenchScale::Small => (vec![8usize, 16, 32], 64u32, 10usize),
        BenchScale::Medium => (vec![16, 32, 64], 256, 30),
    };

    // Fig 3: the Dataset-3 cyclic FIFO-killer sweep (the adversarial
    // sweep the tentpole's ticks/sec target is quoted on). far_latency 1
    // is the paper's model; the far=4 and far=16 variants model the
    // HBM↔DRAM latency gap of a real far link (§5's KNL measurements put
    // queued far accesses at an order of magnitude over an HBM hit) and
    // exercise the engine's idle-tick fast-forward path.
    for &p in &fig3_ps {
        let k = figure3_hbm_slots(p, fig3_pages, 4);
        for arb in [
            ArbitrationKind::Fifo,
            ArbitrationKind::Priority,
            ArbitrationKind::DynamicPriority {
                period: 10 * k as u64,
            },
        ] {
            out.push(CellSpec {
                id: format!("fig3/{}/p{p}", short_label(arb)),
                group: "fig3",
                workload: cyclic_workload(p, fig3_pages, fig3_reps),
                k,
                q: 1,
                arbitration: arb,
                far_latency: 1,
                seed: 42,
            });
        }
        for far in [4u64, 16] {
            for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
                out.push(CellSpec {
                    id: format!("fig3/{}/p{p}/far{far}", short_label(arb)),
                    group: "fig3",
                    workload: cyclic_workload(p, fig3_pages, fig3_reps),
                    k,
                    q: 1,
                    arbitration: arb,
                    far_latency: far,
                    seed: 42,
                });
            }
        }
    }

    // Fig 2: program-shaped traces (SpGEMM and mergesort) under
    // contention — the regime where policies diverge.
    let (spgemm_n, sort_n, fig2_p) = match scale {
        BenchScale::Small => (80usize, 4_000usize, 16usize),
        BenchScale::Medium => (150, 10_000, 32),
    };
    for (name, spec) in [
        (
            "spgemm",
            WorkloadSpec::SpGemm {
                n: spgemm_n,
                density: 0.10,
            },
        ),
        (
            "sort",
            WorkloadSpec::Sort {
                algo: SortAlgo::Mergesort,
                n: sort_n,
            },
        ),
    ] {
        let w = spec.workload(fig2_p, 42, TraceOptions::default());
        let k = (2 * w.trace(0).unique_pages()).max(16);
        for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
            out.push(CellSpec {
                id: format!("fig2/{name}/{}/p{fig2_p}", short_label(arb)),
                group: "fig2",
                workload: w.clone(),
                k,
                q: 1,
                arbitration: arb,
                far_latency: 1,
                seed: 42,
            });
        }
    }

    // Fig 6 shape: pointer-chase style uniform-random references over a
    // working set far beyond HBM, on a slow (far_latency 4) link with two
    // channels — latency-bound traffic like the §5 KNL microbenchmarks.
    let (chase_pages, chase_len, chase_p) = match scale {
        BenchScale::Small => (4_096u32, 20_000usize, 16usize),
        BenchScale::Medium => (8_192, 60_000, 32),
    };
    let chase = WorkloadSpec::Uniform {
        pages: chase_pages,
        len: chase_len,
    }
    .workload(chase_p, 42, TraceOptions::default());
    for arb in [ArbitrationKind::Fifo, ArbitrationKind::Priority] {
        out.push(CellSpec {
            id: format!("fig6/chase/{}/p{chase_p}", short_label(arb)),
            group: "fig6",
            workload: chase.clone(),
            k: 1_024,
            q: 2,
            arbitration: arb,
            far_latency: 4,
            seed: 42,
        });
    }

    out
}

fn short_label(arb: ArbitrationKind) -> &'static str {
    match arb {
        ArbitrationKind::Fifo => "FIFO",
        ArbitrationKind::Priority => "Priority",
        ArbitrationKind::DynamicPriority { .. } => "Dynamic",
        _ => "other",
    }
}

fn build_engine(spec: &CellSpec) -> Engine {
    SimBuilder::new()
        .hbm_slots(spec.k)
        .channels(spec.q)
        .arbitration(spec.arbitration)
        .far_latency(spec.far_latency)
        .seed(spec.seed)
        .try_build(&spec.workload)
        .expect("pinned bench cell config is valid")
}

/// Times one cell: repeats the run until at least `min_wall` seconds and
/// two iterations have elapsed (capped at 12 iterations), keeping the best
/// iteration — the standard defence against scheduler noise on short
/// cells. Construction and run are timed separately so `setup_seconds`
/// isolates the per-cell flatten/index/allocate cost; `wall_seconds` is
/// their sum (the historical definition, keeping ticks/sec baselines
/// comparable). The kernel's peak-RSS counter is reset before the cell, so
/// `peak_rss_delta_bytes` attributes growth to this cell alone.
pub fn measure(spec: &CellSpec, min_wall: f64) -> CellResult {
    reset_peak_rss();
    let rss_before = current_rss_bytes();
    let mut best = f64::INFINITY;
    let mut best_setup = f64::INFINITY;
    let mut report = build_engine(spec).run(&mut NoopObserver); // warm-up
    let mut spent = 0.0;
    let mut iters = 0u32;
    while (spent < min_wall || iters < 2) && iters < 12 {
        let t0 = Instant::now();
        let engine = build_engine(spec);
        let setup = t0.elapsed().as_secs_f64().max(1e-9);
        report = engine.run(&mut NoopObserver);
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        spent += dt;
        best = best.min(dt);
        best_setup = best_setup.min(setup);
        iters += 1;
    }
    let ticks = report.makespan;
    let total_refs = spec.workload.total_refs() as u64;
    let peak = peak_rss_bytes();
    CellResult {
        id: spec.id.clone(),
        group: spec.group,
        p: spec.workload.cores(),
        k: spec.k,
        q: spec.q,
        far_latency: spec.far_latency,
        total_refs,
        ticks,
        wall_seconds: best,
        setup_seconds: best_setup,
        ticks_per_sec: ticks as f64 / best,
        refs_per_sec: total_refs as f64 / best,
        rss_before_bytes: rss_before,
        peak_rss_delta_bytes: peak.saturating_sub(rss_before),
        peak_rss_bytes: peak,
        hits: report.hits,
    }
}

/// Reads one `kB` field from `/proc/self/status`, in bytes; 0 when the
/// file or field is unavailable (non-Linux).
fn status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Process peak RSS in bytes from `/proc/self/status` (`VmHWM`); 0 when
/// unavailable (non-Linux).
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// Current RSS in bytes from `/proc/self/status` (`VmRSS`); 0 when
/// unavailable.
pub fn current_rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Resets the kernel's peak-RSS counter (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`, so the next `VmHWM` read is a
/// per-interval peak rather than a process-lifetime one. Returns false
/// when unsupported (non-Linux, restricted procfs) — peak deltas then
/// degrade to the old monotone semantics rather than erroring.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Outcome of one owned-vs-shared sweep-grid comparison (the tentpole's
/// headline measurement): the same fig2-shaped (p, k, policy) grid run
/// twice through the same `hbm_par` fan-out the real sweeps use — once
/// per-cell-owned (every worker re-flattens its cell's workload and
/// allocates fresh engine state, the pre-optimization per-cell cost
/// model, with the redundant flattens racing each other for memory
/// bandwidth and stacking concurrently in RSS) and once shared (one
/// memoized [`FlatWorkload`] per p via the [`TracePool`], scratches
/// recycled through a pool). The wall-clock ratio is therefore an
/// end-to-end sweep-throughput figure, not a microbenchmark of flatten
/// alone, and both passes must produce bit-identical trajectories
/// (`checksum_match`).
pub struct SweepGridComparison {
    /// Scale name the grid was built for.
    pub scale: &'static str,
    /// Number of (p, k, policy) cells in the grid.
    pub cells: usize,
    /// Wall seconds for the per-cell-owned pass.
    pub owned_wall_seconds: f64,
    /// Wall seconds for the shared-flat + recycled-scratch pass.
    pub shared_wall_seconds: f64,
    /// `owned_wall_seconds / shared_wall_seconds`.
    pub speedup: f64,
    /// Peak-RSS growth (bytes) during the owned pass, peak counter reset
    /// before the pass. 0 when the reset is unsupported.
    pub owned_peak_rss_delta_bytes: u64,
    /// Peak-RSS growth (bytes) during the shared pass.
    pub shared_peak_rss_delta_bytes: u64,
    /// Whether both passes produced identical (makespan, hits) checksums —
    /// false would mean sharing changed simulation results, a correctness
    /// bug that invalidates the timing comparison.
    pub checksum_match: bool,
}

/// Runs the owned-vs-shared sweep-grid comparison for one scale. The grid
/// shape is frozen (like [`cells`]): SpGEMM under contention across a
/// thread sweep × HBM-size multipliers × both policies, seed 42.
pub fn sweep_grid_comparison(scale: BenchScale) -> SweepGridComparison {
    let (n, ps, mults) = match scale {
        BenchScale::Small => (80usize, vec![1usize, 2, 4, 8, 16], vec![1usize, 2, 5]),
        BenchScale::Medium => (150, vec![4usize, 8, 16, 32, 64], vec![1usize, 2, 3, 5]),
    };
    let seed = 42u64;
    let spec = WorkloadSpec::SpGemm { n, density: 0.10 };
    let max_p = *ps.iter().max().expect("non-empty thread sweep");
    let pool = TracePool::generate(spec, max_p, seed, TraceOptions::default());
    let ws = pool.working_set().max(1);
    let grid: Vec<(usize, usize, ArbitrationKind)> = ps
        .iter()
        .flat_map(|&p| {
            mults.iter().flat_map(move |&m| {
                [ArbitrationKind::Fifo, ArbitrationKind::Priority]
                    .into_iter()
                    .map(move |arb| (p, (m * ws).max(16), arb))
            })
        })
        .collect();
    // `parallel_map` preserves input order, so folding the per-cell
    // signatures in grid order is deterministic despite the fan-out.
    let checksum = |sigs: &[u64]| {
        sigs.iter()
            .fold(0u64, |sum, &sig| sum.wrapping_mul(31).wrapping_add(sig))
    };

    // Warm caches, worker threads and the allocator before timing.
    let (wp, wk, warb) = grid[0];
    std::hint::black_box(run_cell(&pool.workload(wp), wk, 1, warb, seed));

    // Owned pass: every cell pays flatten + index + allocation on its
    // worker, exactly what each sweep cell cost before the sharing work.
    reset_peak_rss();
    let owned_before = current_rss_bytes();
    let t0 = Instant::now();
    let owned_sigs = hbm_par::parallel_map(&grid, |&(p, k, arb)| {
        let r = run_cell(&pool.workload(p), k, 1, arb, seed);
        r.makespan ^ r.hits
    });
    let owned_wall = t0.elapsed().as_secs_f64().max(1e-9);
    let owned_delta = peak_rss_bytes().saturating_sub(owned_before);
    let owned_sum = checksum(&owned_sigs);

    // Shared pass: one memoized flatten per p, scratches recycled across
    // workers through the pool — the sweep code path after the sharing
    // work.
    reset_peak_rss();
    let shared_before = current_rss_bytes();
    let scratches = ScratchPool::new();
    let t1 = Instant::now();
    let shared_sigs = hbm_par::parallel_map(&grid, |&(p, k, arb)| {
        let flat = pool.flat(p);
        let r = scratches.with(|scratch| run_cell_flat(&flat, k, 1, arb, seed, scratch));
        r.makespan ^ r.hits
    });
    let shared_wall = t1.elapsed().as_secs_f64().max(1e-9);
    let shared_delta = peak_rss_bytes().saturating_sub(shared_before);
    let shared_sum = checksum(&shared_sigs);

    SweepGridComparison {
        scale: scale.name(),
        cells: grid.len(),
        owned_wall_seconds: owned_wall,
        shared_wall_seconds: shared_wall,
        speedup: owned_wall / shared_wall,
        owned_peak_rss_delta_bytes: owned_delta,
        shared_peak_rss_delta_bytes: shared_delta,
        checksum_match: owned_sum == shared_sum,
    }
}

/// A fixed synthetic CPU score (iterations/second of a pure integer loop),
/// engine-independent, used to normalize ticks/sec across machines. The
/// loop body is frozen: changing it invalidates checked-in baselines.
pub fn calibration_score() -> f64 {
    // xorshift + data-dependent adds over a small table: exercises ALU and
    // L1 like the simulator's hot loop, finishes in ~50 ms.
    let mut table = [0u64; 1024];
    let mut x = 0x9e3779b97f4a7c15u64;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    const ITERS: u64 = 20_000_000;
    let t0 = Instant::now();
    let mut acc = 0u64;
    let mut idx = 0usize;
    for _ in 0..ITERS {
        let v = table[idx];
        acc = acc.wrapping_add(v ^ (acc >> 3));
        idx = (v.wrapping_add(acc) & 1023) as usize;
    }
    let dt = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(acc);
    ITERS as f64 / dt
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.0".into()
    }
}

/// Aggregate ticks/sec of a group: total ticks over total best-wall time.
pub fn group_ticks_per_sec(results: &[CellResult], group: &str) -> f64 {
    let (ticks, wall) = results
        .iter()
        .filter(|r| r.group == group)
        .fold((0u64, 0.0f64), |(t, w), r| {
            (t + r.ticks, w + r.wall_seconds)
        });
    if wall > 0.0 {
        ticks as f64 / wall
    } else {
        0.0
    }
}

fn json_f6(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".into()
    }
}

/// Renders the full benchmark document (schema 6). `pre_pr` optionally
/// carries the pre-optimization `(fig3_ticks_per_sec, calibration_score)`
/// pair measured on the same machine, so the emitted JSON records the
/// speedup the PR delivered on the adversarial sweep; `sweep_grids`
/// carries the owned-vs-shared comparisons (one per scale).
///
/// Schema 6 drops the batch-engine comparison section and its speedup
/// gate verdict, along with the batch engine they measured. Schema 5 switched per-cell
/// `wall_seconds` to microsecond precision (sub-millisecond cells used to
/// flatten to `0.000`); schema 3 added per-cell `setup_seconds`,
/// `rss_before_bytes` and `peak_rss_delta_bytes` plus the top-level
/// `sweep_grid` section. Older documents still parse — the gates simply
/// skip data their baselines lack.
pub fn render_json(
    scale_names: &str,
    calibration: f64,
    results: &[CellResult],
    pre_pr: Option<(f64, f64)>,
    sweep_grids: &[SweepGridComparison],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 6,\n");
    out.push_str(
        "  \"command\": \"cargo run --release -p hbm-bench --bin bench_harness -- --out BENCH_9.json\",\n",
    );
    out.push_str(&format!("  \"scales\": \"{scale_names}\",\n"));
    out.push_str(&format!(
        "  \"calibration_score\": {},\n",
        json_f(calibration)
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"group\": \"{}\", \"p\": {}, \"k\": {}, \"q\": {}, \"far_latency\": {}, \"total_refs\": {}, \"ticks\": {}, \"wall_seconds\": {}, \"setup_seconds\": {}, \"ticks_per_sec\": {}, \"refs_per_sec\": {}, \"rss_before_bytes\": {}, \"peak_rss_delta_bytes\": {}, \"peak_rss_bytes\": {}, \"hits\": {}}}{comma}\n",
            r.id,
            r.group,
            r.p,
            r.k,
            r.q,
            r.far_latency,
            r.total_refs,
            r.ticks,
            json_f6(r.wall_seconds),
            json_f6(r.setup_seconds),
            json_f(r.ticks_per_sec),
            json_f(r.refs_per_sec),
            r.rss_before_bytes,
            r.peak_rss_delta_bytes,
            r.peak_rss_bytes,
            r.hits,
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sweep_grid\": [\n");
    for (i, g) in sweep_grids.iter().enumerate() {
        let comma = if i + 1 == sweep_grids.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"scale\": \"{}\", \"cells\": {}, \"owned_wall_seconds\": {}, \"shared_wall_seconds\": {}, \"shared_vs_owned_speedup\": {}, \"owned_peak_rss_delta_bytes\": {}, \"shared_peak_rss_delta_bytes\": {}, \"checksum_match\": {}}}{comma}\n",
            g.scale,
            g.cells,
            json_f6(g.owned_wall_seconds),
            json_f6(g.shared_wall_seconds),
            json_f(g.speedup),
            g.owned_peak_rss_delta_bytes,
            g.shared_peak_rss_delta_bytes,
            g.checksum_match,
        ));
    }
    out.push_str("  ],\n");
    let fig3 = group_ticks_per_sec(results, "fig3");
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"fig3_ticks_per_sec\": {},\n", json_f(fig3)));
    out.push_str(&format!(
        "    \"fig2_ticks_per_sec\": {},\n",
        json_f(group_ticks_per_sec(results, "fig2"))
    ));
    out.push_str(&format!(
        "    \"fig6_ticks_per_sec\": {},\n",
        json_f(group_ticks_per_sec(results, "fig6"))
    ));
    out.push_str(&format!(
        "    \"total_wall_seconds\": {}\n",
        json_f(results.iter().map(|r| r.wall_seconds).sum())
    ));
    out.push_str("  }");
    if let Some((pre_fig3, pre_calib)) = pre_pr {
        let adj = if calibration > 0.0 && pre_calib > 0.0 {
            pre_fig3 * (calibration / pre_calib)
        } else {
            pre_fig3
        };
        let speedup = if adj > 0.0 { fig3 / adj } else { 0.0 };
        out.push_str(",\n  \"pre_pr_baseline\": {\n");
        out.push_str(&format!(
            "    \"fig3_ticks_per_sec\": {},\n",
            json_f(pre_fig3)
        ));
        out.push_str(&format!(
            "    \"calibration_score\": {},\n",
            json_f(pre_calib)
        ));
        out.push_str(&format!(
            "    \"fig3_speedup_vs_pre_pr\": {}\n",
            json_f(speedup)
        ));
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

/// One parsed cell from a harness JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// The cell's stable id.
    pub id: String,
    /// Its measured ticks/sec.
    pub ticks_per_sec: f64,
    /// Its best engine-setup seconds; `None` for schema-2 documents, which
    /// predate the field.
    pub setup_seconds: Option<f64>,
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .map_or(line.len(), |i| i + start);
    line[start..end].parse().ok()
}

/// Re-reads the cells of a harness-emitted JSON document. Relies on the
/// line-oriented layout [`render_json`] produces (one cell per line); this
/// is the regression checker's parser, not a general JSON parser.
pub fn parse_cells(json: &str) -> Vec<ParsedCell> {
    json.lines()
        .filter_map(|line| {
            let id = extract_str(line, "id")?;
            let tps = extract_num(line, "ticks_per_sec")?;
            Some(ParsedCell {
                id,
                ticks_per_sec: tps,
                setup_seconds: extract_num(line, "setup_seconds"),
            })
        })
        .collect()
}

/// The calibration score recorded in a harness JSON document.
pub fn parse_calibration(json: &str) -> Option<f64> {
    json.lines()
        .find_map(|l| extract_num(l, "calibration_score"))
}

/// Compares a current run against a baseline document. A cell regresses
/// when its calibration-normalized ticks/sec falls more than `tolerance`
/// (e.g. 0.25) below the baseline's. Cells present on only one side are
/// reported as informational, not failures (grids may grow across PRs).
/// Returns human-readable failure lines; empty means the gate passes.
pub fn check_regression(current_json: &str, baseline_json: &str, tolerance: f64) -> Vec<String> {
    let current = parse_cells(current_json);
    let baseline = parse_cells(baseline_json);
    let cur_calib = parse_calibration(current_json).unwrap_or(0.0);
    let base_calib = parse_calibration(baseline_json).unwrap_or(0.0);
    let scale = if cur_calib > 0.0 && base_calib > 0.0 {
        cur_calib / base_calib
    } else {
        1.0
    };
    let mut failures = Vec::new();
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.id == b.id) else {
            continue;
        };
        let expected = b.ticks_per_sec * scale;
        if expected > 0.0 && c.ticks_per_sec < expected * (1.0 - tolerance) {
            failures.push(format!(
                "REGRESSION {}: {:.0} ticks/s vs baseline {:.0} (machine-normalized {:.0}, tolerance {:.0}%)",
                b.id,
                c.ticks_per_sec,
                b.ticks_per_sec,
                expected,
                tolerance * 100.0
            ));
        }
    }
    failures
}

/// Setup-time floor below which the gate does not fire: cells whose
/// baseline setup is under 50 µs are timer-noise-dominated and gating them
/// would flake.
const SETUP_NOISE_FLOOR_SECONDS: f64 = 50e-6;

/// Compares per-cell `setup_seconds` against a baseline document. A cell
/// fails when its calibration-normalized setup time grew more than
/// `tolerance` (e.g. 0.30) over the baseline's — the gate behind the
/// tentpole's O(1)-allocation claim: re-introducing per-cell flatten or
/// allocation cost shows up here even when run time hides it. Cells
/// missing from either side, cells whose baseline predates `setup_seconds`
/// (schema 2), and cells below the 50 µs noise floor are skipped.
/// Returns human-readable failure lines; empty means the gate passes.
pub fn check_setup_regression(
    current_json: &str,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let current = parse_cells(current_json);
    let baseline = parse_cells(baseline_json);
    let cur_calib = parse_calibration(current_json).unwrap_or(0.0);
    let base_calib = parse_calibration(baseline_json).unwrap_or(0.0);
    // Setup *time* scales inversely with machine speed: a machine twice as
    // fast (calibration 2x) should finish setup in half the time.
    let scale = if cur_calib > 0.0 && base_calib > 0.0 {
        base_calib / cur_calib
    } else {
        1.0
    };
    let mut failures = Vec::new();
    for b in &baseline {
        let Some(base_setup) = b.setup_seconds else {
            continue;
        };
        if base_setup < SETUP_NOISE_FLOOR_SECONDS {
            continue;
        }
        let Some(cur_setup) = current
            .iter()
            .find(|c| c.id == b.id)
            .and_then(|c| c.setup_seconds)
        else {
            continue;
        };
        let expected = base_setup * scale;
        if cur_setup > expected * (1.0 + tolerance) {
            failures.push(format!(
                "SETUP REGRESSION {}: {:.1} us vs baseline {:.1} us (machine-normalized {:.1} us, tolerance {:.0}%)",
                b.id,
                cur_setup * 1e6,
                base_setup * 1e6,
                expected * 1e6,
                tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(id: &str, group: &'static str, ticks: u64, wall: f64) -> CellResult {
        fake_result_setup(id, group, ticks, wall, 0.001)
    }

    fn fake_result_setup(
        id: &str,
        group: &'static str,
        ticks: u64,
        wall: f64,
        setup: f64,
    ) -> CellResult {
        CellResult {
            id: id.into(),
            group,
            p: 4,
            k: 8,
            q: 1,
            far_latency: 1,
            total_refs: 100,
            ticks,
            wall_seconds: wall,
            setup_seconds: setup,
            ticks_per_sec: ticks as f64 / wall,
            refs_per_sec: 100.0 / wall,
            rss_before_bytes: 1 << 19,
            peak_rss_delta_bytes: 1 << 18,
            peak_rss_bytes: 1 << 20,
            hits: 7,
        }
    }

    fn fake_grid() -> SweepGridComparison {
        SweepGridComparison {
            scale: "small",
            cells: 30,
            owned_wall_seconds: 2.0,
            shared_wall_seconds: 1.0,
            speedup: 2.0,
            owned_peak_rss_delta_bytes: 4 << 20,
            shared_peak_rss_delta_bytes: 1 << 20,
            checksum_match: true,
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let results = vec![
            fake_result("fig3/FIFO/p8", "fig3", 10_000, 0.5),
            fake_result("fig2/sort/Priority/p16", "fig2", 4_000, 0.25),
        ];
        let json = render_json("small", 1e8, &results, Some((123.0, 1e8)), &[fake_grid()]);
        let cells = parse_cells(&json);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].id, "fig3/FIFO/p8");
        assert!((cells[0].ticks_per_sec - 20_000.0).abs() < 1.0);
        assert_eq!(cells[0].setup_seconds, Some(0.001));
        assert_eq!(parse_calibration(&json), Some(1e8));
        assert!(json.contains("\"schema_version\": 6"));
        assert!(json.contains("\"fig3_speedup_vs_pre_pr\""));
        assert!(json.contains("\"rss_before_bytes\": 524288"));
        assert!(json.contains("\"peak_rss_delta_bytes\": 262144"));
        assert!(json.contains("\"shared_vs_owned_speedup\": 2.000"));
        assert!(json.contains("\"checksum_match\": true"));
    }

    /// Satellite regression: sub-millisecond cells used to flatten to
    /// `"wall_seconds": 0.000` under the 3-digit formatter; the document
    /// must keep microsecond precision.
    #[test]
    fn fast_cell_wall_seconds_keep_microsecond_precision() {
        let json = render_json(
            "small",
            1e8,
            &[fake_result("fast", "fig3", 500, 0.000417)],
            None,
            &[],
        );
        assert!(
            json.contains("\"wall_seconds\": 0.000417"),
            "microseconds lost: {json}"
        );
    }

    #[test]
    fn regression_gate_fires_only_past_tolerance() {
        let base = render_json(
            "small",
            1e8,
            &[fake_result("a", "fig3", 1000, 1.0)],
            None,
            &[],
        );
        let ok = render_json(
            "small",
            1e8,
            &[fake_result("a", "fig3", 800, 1.0)],
            None,
            &[],
        );
        let bad = render_json(
            "small",
            1e8,
            &[fake_result("a", "fig3", 700, 1.0)],
            None,
            &[],
        );
        assert!(check_regression(&ok, &base, 0.25).is_empty());
        assert_eq!(check_regression(&bad, &base, 0.25).len(), 1);
    }

    #[test]
    fn regression_gate_normalizes_by_calibration() {
        // Baseline measured on a machine 2x faster (calibration 2e8): raw
        // ticks/sec halves on the current machine, but the gate must pass.
        let base = render_json(
            "small",
            2e8,
            &[fake_result("a", "fig3", 1000, 1.0)],
            None,
            &[],
        );
        let cur = render_json(
            "small",
            1e8,
            &[fake_result("a", "fig3", 550, 1.0)],
            None,
            &[],
        );
        assert!(check_regression(&cur, &base, 0.25).is_empty());
        let cur_bad = render_json(
            "small",
            1e8,
            &[fake_result("a", "fig3", 300, 1.0)],
            None,
            &[],
        );
        assert_eq!(check_regression(&cur_bad, &base, 0.25).len(), 1);
    }

    #[test]
    fn unknown_cells_are_not_failures() {
        let base = render_json(
            "small",
            1e8,
            &[fake_result("gone", "fig3", 1000, 1.0)],
            None,
            &[],
        );
        let cur = render_json(
            "small",
            1e8,
            &[fake_result("new", "fig3", 10, 1.0)],
            None,
            &[],
        );
        assert!(check_regression(&cur, &base, 0.25).is_empty());
    }

    #[test]
    fn setup_gate_fires_only_past_tolerance() {
        let base = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.001)],
            None,
            &[],
        );
        let ok = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.00125)],
            None,
            &[],
        );
        let bad = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.0015)],
            None,
            &[],
        );
        assert!(check_setup_regression(&ok, &base, 0.30).is_empty());
        let failures = check_setup_regression(&bad, &base, 0.30);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("SETUP REGRESSION a"));
    }

    #[test]
    fn setup_gate_normalizes_by_calibration_inversely() {
        // Baseline from a machine 2x faster: our setup times are allowed
        // to be ~2x the baseline's before the gate fires.
        let base = render_json(
            "small",
            2e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.001)],
            None,
            &[],
        );
        let cur = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.0024)],
            None,
            &[],
        );
        assert!(check_setup_regression(&cur, &base, 0.30).is_empty());
        let cur_bad = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 0.003)],
            None,
            &[],
        );
        assert_eq!(check_setup_regression(&cur_bad, &base, 0.30).len(), 1);
    }

    #[test]
    fn setup_gate_skips_pre_schema3_baselines_and_noise_floor() {
        // A schema-2 baseline line has no setup_seconds field: skipped.
        let base_v2 = "    {\"id\": \"a\", \"group\": \"fig3\", \"ticks_per_sec\": 1000.0}\n  \"calibration_score\": 100000000.0\n";
        let cur = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 10.0)],
            None,
            &[],
        );
        assert!(check_setup_regression(&cur, base_v2, 0.30).is_empty());
        // A baseline below the 50 us noise floor is skipped too.
        let base_tiny = render_json(
            "small",
            1e8,
            &[fake_result_setup("a", "fig3", 1000, 1.0, 10e-6)],
            None,
            &[],
        );
        assert!(check_setup_regression(&cur, &base_tiny, 0.30).is_empty());
    }

    #[test]
    fn sweep_grid_comparison_is_bit_identical_and_positive() {
        let g = sweep_grid_comparison(BenchScale::Small);
        assert_eq!(g.scale, "small");
        assert_eq!(g.cells, 5 * 3 * 2);
        assert!(g.checksum_match, "shared path must be bit-identical");
        assert!(g.owned_wall_seconds > 0.0);
        assert!(g.shared_wall_seconds > 0.0);
        assert!(g.speedup > 0.0);
    }

    #[test]
    fn rss_helpers_are_consistent_on_linux() {
        // On Linux both reads succeed and peak >= current; elsewhere both
        // return 0 and the reset reports unsupported.
        let cur = current_rss_bytes();
        let peak = peak_rss_bytes();
        if cur > 0 {
            assert!(peak >= cur, "VmHWM {peak} below VmRSS {cur}");
        } else {
            assert_eq!(peak, 0);
        }
    }

    #[test]
    fn small_grid_is_pinned() {
        let grid = cells(BenchScale::Small);
        assert!(grid.len() >= 15, "grid has {} cells", grid.len());
        assert!(grid.iter().any(|c| c.group == "fig3" && c.far_latency == 1));
        assert!(grid.iter().any(|c| c.group == "fig3" && c.far_latency == 4));
        assert!(grid
            .iter()
            .any(|c| c.group == "fig3" && c.far_latency == 16));
        assert!(grid.iter().any(|c| c.group == "fig2"));
        assert!(grid.iter().any(|c| c.group == "fig6"));
        // Ids are unique: they key the regression gate.
        let mut ids: Vec<&String> = grid.iter().map(|c| &c.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), grid.len());
    }

    #[test]
    fn measure_produces_consistent_rates() {
        let spec = &cells(BenchScale::Small)[0];
        let r = measure(spec, 0.01);
        assert!(r.ticks > 0);
        assert!(r.wall_seconds > 0.0);
        assert!((r.ticks_per_sec - r.ticks as f64 / r.wall_seconds).abs() < 1e-6);
        assert_eq!(r.total_refs, spec.workload.total_refs() as u64);
        // Setup is a strict part of the best full iteration, so the best
        // setup can never exceed the best wall time.
        assert!(r.setup_seconds > 0.0);
        assert!(r.setup_seconds <= r.wall_seconds);
    }

    #[test]
    fn group_aggregate_pools_ticks_and_wall() {
        let results = vec![
            fake_result("a", "fig3", 1000, 1.0),
            fake_result("b", "fig3", 3000, 1.0),
            fake_result("c", "fig2", 99, 1.0),
        ];
        assert!((group_ticks_per_sec(&results, "fig3") - 2000.0).abs() < 1e-9);
    }
}
