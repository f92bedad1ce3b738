//! `hbm-serve` — the simulation server binary.
//!
//! ```text
//! hbm-serve [--addr HOST:PORT] [--shards N] [--workers N] [--queue N]
//!           [--max-wall-ms MS] [--max-ticks N] [--idle-shrink-secs S]
//!           [--coalesce-us US] [--max-batch N] [--max-sessions N]
//!           [--session-workers N] [--resume-ttl-secs S]
//! ```
//!
//! Binds, prints the listening address on stdout (`listening on ...`, the
//! line the CI smoke job and the load generator's `--spawn` mode wait
//! for), and serves until SIGTERM/SIGINT — which drains in-flight
//! requests, rejects new ones, and exits 0 with a stats summary on
//! stderr.

use hbm_serve::pool::CellBudget;
use hbm_serve::server::{Server, ServerConfig};
use hbm_serve::shutdown::ShutdownFlag;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: hbm-serve [--addr HOST:PORT] [--shards N] [--workers N] [--queue N]\n\
         \x20                [--max-wall-ms MS] [--max-ticks N] [--idle-shrink-secs S]\n\
         \x20                [--coalesce-us US] [--max-batch N] [--max-sessions N]\n\
         \x20                [--session-workers N] [--resume-ttl-secs S]\n\
         \x20                [--enable-test-endpoints]\n\
         \n\
         POST /simulate with a JSON body; POST /session for a streaming\n\
         JSONL session; POST /session/resume {{token, last_tick}} to\n\
         reattach a dropped session; GET /healthz for stats (totals +\n\
         per-shard). --shards N runs N independent listener shards\n\
         (round-robin dispatch); --coalesce-us enables same-workload\n\
         request batching; --session-workers N sizes the fixed session\n\
         multiplexer pool (all open sessions share its threads).\n\
         See README.md 'Running the server' for the request format."
    );
    std::process::exit(2)
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    match args.next().map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("error: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut args, "--addr"),
            "--shards" => {
                config.shards = parse_flag(&mut args, "--shards");
                if config.shards == 0 {
                    eprintln!("error: --shards must be at least 1");
                    usage()
                }
            }
            "--workers" => config.workers = parse_flag(&mut args, "--workers"),
            "--coalesce-us" => {
                config.coalesce_window = Some(Duration::from_micros(parse_flag(
                    &mut args,
                    "--coalesce-us",
                )))
            }
            "--max-batch" => config.max_batch = parse_flag(&mut args, "--max-batch"),
            "--max-sessions" => config.max_sessions = parse_flag(&mut args, "--max-sessions"),
            "--session-workers" => {
                config.session_workers = parse_flag(&mut args, "--session-workers");
                if config.session_workers == 0 {
                    eprintln!("error: --session-workers must be at least 1");
                    usage()
                }
            }
            "--resume-ttl-secs" => {
                config.resume_ttl = Duration::from_secs(parse_flag(&mut args, "--resume-ttl-secs"))
            }
            "--queue" => config.queue_capacity = parse_flag(&mut args, "--queue"),
            "--max-wall-ms" => {
                config.budget_ceiling = CellBudget {
                    max_wall: Some(Duration::from_millis(parse_flag(
                        &mut args,
                        "--max-wall-ms",
                    ))),
                    ..config.budget_ceiling
                }
            }
            "--max-ticks" => {
                config.budget_ceiling = CellBudget {
                    max_ticks: Some(parse_flag(&mut args, "--max-ticks")),
                    ..config.budget_ceiling
                }
            }
            "--idle-shrink-secs" => {
                config.idle_shrink_after = Some(Duration::from_secs(parse_flag(
                    &mut args,
                    "--idle-shrink-secs",
                )))
            }
            "--enable-test-endpoints" => config.enable_test_endpoints = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage()
            }
        }
    }

    let flag = ShutdownFlag::with_signal_handlers();
    let server = match Server::bind(addr.as_str(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to bind {addr}: {e}");
            std::process::exit(1)
        }
    };
    match server.local_addr() {
        Ok(local) => println!("listening on {local}"),
        Err(e) => {
            eprintln!("error: no local address: {e}");
            std::process::exit(1)
        }
    }
    match server.run(&flag) {
        Ok(stats) => {
            eprintln!(
                "drained cleanly: {} requests ({} ok, {} rejected, {} shed, {} client errors, \
                 {} panics; {} cold / {} warm runs ({} memo hits); \
                 {} cold / {} warm estimates; \
                 {} batches / {} batched; \
                 {} sessions opened / {} closed / {} reaped / {} resumed / {} shed; \
                 {} alerts)",
                stats.requests,
                stats.ok,
                stats.rejected,
                stats.shed,
                stats.client_errors,
                stats.panics,
                stats.cold_runs,
                stats.warm_runs,
                stats.simulate_memo_hits,
                stats.estimates_cold,
                stats.estimates_warm,
                stats.batches,
                stats.batched_requests,
                stats.sessions_opened,
                stats.sessions_closed,
                stats.sessions_reaped,
                stats.sessions_resumed,
                stats.sessions_shed,
                stats.alerts
            );
        }
        Err(e) => {
            eprintln!("error: server loop failed: {e}");
            std::process::exit(1)
        }
    }
}
