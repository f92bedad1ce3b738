//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve_warm|serve_estimate|explore|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! One workload per process, so `setup_s` and `peak_rss_mb` belong to
//! that workload alone. `--workload all` runs every workload in its own
//! child process, untraced and then traced, and prints a table. The last
//! line of a single-workload run is the JSON result; `README.md` defines
//! every metric.

mod common;
mod explore;
mod golden;
mod loadgen;
mod report;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;

use common::Ctx;
use report::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["sweep", "serve_warm", "serve_estimate", "explore"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--golden" => args.golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let names = report::END_TO_END
        .iter()
        .chain(&report::PRINTED_ONLY)
        .chain(&report::PER_LAYER);
    assert!(
        names
            .map(|(n, _)| n)
            .chain(&WORKLOADS)
            .all(|n| stats::valid_name(n)),
        "every metric and workload name follows the name rule"
    );
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        threads: sys::threads(),
        out_dir: PathBuf::from(".bench_out"),
        print_golden: args.golden,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::FAILURE;
    }
    let report = match args.workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "serve_warm" => serve::run_warm(&ctx),
        "serve_estimate" => serve::run_estimate(&ctx),
        "explore" => explore::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    if args.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_json(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    print_report(&args.workload, &report, args.trace, ctx.threads);
    println!("{}", report.json_line(args.trace));
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed or returned wrong output",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints every metric by name with its unit and note; metrics the result
/// line does not carry are marked.
fn print_report(workload: &str, report: &Report, traced: bool, threads: usize) {
    println!(
        "# {workload} ({}; {threads} worker threads/connections)",
        if traced { "traced" } else { "untraced" }
    );
    let carried = report.metrics(traced).len();
    for (i, (name, unit, v)) in report.printed(traced).into_iter().enumerate() {
        let note = report
            .notes
            .get(name)
            .map_or(String::new(), |n| format!("  [{n}]"));
        let gate = if i < carried { "" } else { "  (printed only)" };
        println!("{name:<36} {v:>16.6} {unit}{note}{gate}");
    }
    println!(
        "{:<36} {:>16.6} ratio  [{} of {} operations]",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
}

/// Runs every workload untraced and traced, each in its own child
/// process, echoes their output and ends with a table of the untraced
/// end-to-end metrics, `failed_frac` included.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = report::END_TO_END
        .iter()
        .chain(&report::PRINTED_ONLY)
        .map(|(n, _)| *n)
        .chain(["failed_frac"])
        .collect();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            match out {
                Ok(o) => {
                    let stdout = String::from_utf8_lossy(&o.stdout);
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    let human: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('{')).collect();
                    println!("{}", human.join("\n"));
                    ok &= o.status.success();
                    if trace == "0" {
                        // The human lines read "name value unit ...".
                        let value = |name: &str| {
                            human
                                .iter()
                                .find_map(|l| {
                                    let mut f = l.split_whitespace();
                                    (f.next() == Some(name)).then(|| f.next())?
                                })
                                .unwrap_or("-")
                                .to_string()
                        };
                        rows.push((w, names.iter().map(|n| value(n)).collect::<Vec<_>>()));
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {w}: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("\n| workload | {} |", names.join(" | "));
    println!("|---|{}", "---|".repeat(names.len()));
    for (w, cells) in rows {
        println!("| {w} | {} |", cells.join(" | "));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
