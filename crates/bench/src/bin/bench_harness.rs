//! CLI for the continuous-benchmark harness (see `hbm_bench::harness`).
//!
//! Generate the benchmark document:
//!
//! ```text
//! cargo run --release -p hbm-bench --bin bench_harness -- --out BENCH_9.json
//! ```
//!
//! Flags:
//! - `--out <path>`: write the JSON document (default `BENCH_9.json`)
//! - `--scale small|medium|both`: cell grid to run (default `both`)
//! - `--check <baseline.json>`: after measuring, gate against a baseline —
//!   both the ticks/sec gate and the `setup_seconds` gate (the latter at
//!   `--setup-tolerance`, skipped for baselines predating schema 3)
//! - `--tolerance <frac>`: allowed ticks/sec drop for `--check` (default 0.25)
//! - `--setup-tolerance <frac>`: allowed per-cell setup-time growth for
//!   `--check` (default 0.30)
//! - `--pre-pr <path>`: a harness JSON measured on the pre-optimization
//!   engine (same machine); embeds its fig3 ticks/sec and the speedup
//!   this build achieves over it into the output's `pre_pr_baseline`.
//!   Defaults to `results/bench_pre_pr.json` when that file exists
//!   (pass `--pre-pr none` to suppress)
//! - `--min-wall <secs>`: minimum measurement time per cell (default 0.2)
//! - `--passes <n>`: measure the full grid `n` times and keep each cell's
//!   best pass (default 3). Shared hosts drift in CPU speed on a scale of
//!   seconds-to-minutes — longer than one cell's measurement window — so
//!   best-of-passes is what makes numbers comparable across runs; the
//!   calibration score is likewise sampled once per pass and the maximum
//!   is recorded.
//!
//! Exit status: 0 on success, 1 on a regression (or usage error), so CI
//! can gate directly on this binary.

use hbm_bench::harness::{
    calibration_score, cells, check_regression, check_setup_regression, group_ticks_per_sec,
    measure, parse_calibration, render_json, sweep_grid_comparison, BenchScale,
    SweepGridComparison,
};

fn usage() -> ! {
    eprintln!(
        "usage: bench_harness [--out FILE] [--scale small|medium|both] \
         [--check BASELINE.json] [--tolerance FRAC] \
         [--setup-tolerance FRAC] [--pre-pr PRE.json] [--min-wall SECS] [--passes N]"
    );
    std::process::exit(1);
}

fn main() {
    const PRE_PR_DEFAULT: &str = "results/bench_pre_pr.json";

    let mut out_path = String::from("BENCH_9.json");
    let mut scale_arg = String::from("both");
    let mut check_path: Option<String> = None;
    let mut pre_pr_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut setup_tolerance = 0.30f64;
    let mut min_wall = 0.2f64;
    let mut passes = 3usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--out" => out_path = val(&mut args),
            "--scale" => scale_arg = val(&mut args),
            "--check" => check_path = Some(val(&mut args)),
            "--pre-pr" => pre_pr_path = Some(val(&mut args)),
            "--tolerance" => tolerance = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--setup-tolerance" => {
                setup_tolerance = val(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--min-wall" => min_wall = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--passes" => {
                passes = val(&mut args).parse().unwrap_or_else(|_| usage());
                if passes == 0 {
                    usage();
                }
            }
            _ => usage(),
        }
    }

    if pre_pr_path.is_none() && std::path::Path::new(PRE_PR_DEFAULT).exists() {
        pre_pr_path = Some(PRE_PR_DEFAULT.to_string());
    }
    if pre_pr_path.as_deref() == Some("none") {
        pre_pr_path = None;
    }

    let scales: Vec<BenchScale> = match scale_arg.as_str() {
        "both" => vec![BenchScale::Small, BenchScale::Medium],
        s => vec![BenchScale::parse(s).unwrap_or_else(|| usage())],
    };

    // Best-of-passes: each pass re-measures calibration and every cell;
    // a cell keeps its fastest pass. One pass only ever *raises* recorded
    // throughput, so more passes monotonically tighten the estimate of
    // peak machine speed for both the cells and the calibration score.
    let mut calibration = 0.0f64;
    let mut results: Vec<hbm_bench::harness::CellResult> = Vec::new();
    for pass in 1..=passes {
        eprintln!("pass {pass}/{passes}: calibrating machine speed...");
        let c = calibration_score();
        calibration = calibration.max(c);
        eprintln!("calibration_score: {c:.0} iters/sec");
        let mut cell_no = 0usize;
        for scale in &scales {
            for spec in cells(*scale) {
                // Namespace medium cells so both scales coexist in one file.
                let id = if *scale == BenchScale::Medium {
                    format!("medium/{}", spec.id)
                } else {
                    spec.id.clone()
                };
                let mut r = measure(&spec, min_wall);
                r.id = id;
                eprintln!(
                    "{:40} {:>12.0} ticks/s  ({} ticks, {:.4}s run, {:.6}s setup)",
                    r.id, r.ticks_per_sec, r.ticks, r.wall_seconds, r.setup_seconds
                );
                if pass == 1 {
                    results.push(r);
                } else {
                    // Best-of-passes per metric: the fastest pass keeps the
                    // throughput fields, while setup keeps its own minimum
                    // (the two bests need not come from the same pass).
                    let best_setup = results[cell_no].setup_seconds.min(r.setup_seconds);
                    if r.ticks_per_sec > results[cell_no].ticks_per_sec {
                        results[cell_no] = r;
                    }
                    results[cell_no].setup_seconds = best_setup;
                }
                cell_no += 1;
            }
        }
    }

    let pre_pr = pre_pr_path.map(|p| {
        let json =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read --pre-pr {p}: {e}"));
        let cells = hbm_bench::harness::parse_cells(&json);
        // Recompute the fig3 aggregate from the pre-PR document's cells to
        // tolerate hand-edited summaries: pool ticks over wall via the
        // recorded per-cell rates is not possible from (id, tps) alone, so
        // trust its recorded summary line first, cell mean as fallback.
        let fig3 = extract_summary_fig3(&json).unwrap_or_else(|| {
            let f3: Vec<f64> = cells
                .iter()
                .filter(|c| c.id.contains("fig3/"))
                .map(|c| c.ticks_per_sec)
                .collect();
            f3.iter().sum::<f64>() / f3.len().max(1) as f64
        });
        let calib = parse_calibration(&json).unwrap_or(calibration);
        (fig3, calib)
    });

    // The headline tentpole measurement: owned-vs-shared sweep grid, once
    // per scale (single-threaded inside, so one run is representative).
    let sweep_grids: Vec<SweepGridComparison> = scales
        .iter()
        .map(|&s| {
            eprintln!("sweep-grid comparison ({})...", s.name());
            let g = sweep_grid_comparison(s);
            eprintln!(
                "sweep-grid {}: owned {:.3}s, shared {:.3}s, speedup {:.2}x, \
                 peak-RSS delta {} -> {} bytes, checksums {}",
                g.scale,
                g.owned_wall_seconds,
                g.shared_wall_seconds,
                g.speedup,
                g.owned_peak_rss_delta_bytes,
                g.shared_peak_rss_delta_bytes,
                if g.checksum_match { "match" } else { "DIVERGE" },
            );
            g
        })
        .collect();

    let scale_names = scales
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join("+");
    let json = render_json(&scale_names, calibration, &results, pre_pr, &sweep_grids);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!(
        "wrote {out_path}  (fig3 aggregate: {:.0} ticks/s)",
        group_ticks_per_sec(&results, "fig3")
    );

    if let Some(base_path) = check_path {
        let baseline = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("cannot read --check baseline {base_path}: {e}"));
        let mut failures = check_regression(&json, &baseline, tolerance);
        failures.extend(check_setup_regression(&json, &baseline, setup_tolerance));
        if failures.is_empty() {
            eprintln!(
                "regression gate PASS (throughput tolerance {:.0}%, setup tolerance {:.0}%)",
                tolerance * 100.0,
                setup_tolerance * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!("regression gate FAIL: {} cell(s) regressed", failures.len());
            std::process::exit(1);
        }
    }
}

/// Pulls `"fig3_ticks_per_sec": N` out of a harness document's summary.
fn extract_summary_fig3(json: &str) -> Option<f64> {
    let line = json
        .lines()
        .find(|l| l.contains("\"fig3_ticks_per_sec\""))?;
    let start = line.find(':')? + 1;
    line[start..].trim().trim_end_matches(',').parse().ok()
}
