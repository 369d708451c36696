//! The `warlock` command-line tool.
//!
//! A text-mode counterpart of the original GUI: reads a warehouse
//! description (see [`warlock::config_file`] for the format), runs the
//! advisor session, and prints the requested outputs.
//!
//! ```text
//! warlock <config-file> [command]
//!
//! commands:
//!   rank              ranked fragmentation candidates (default)
//!   analyze [RANK]    detailed query statistic of a ranked candidate (default 1)
//!   allocate [RANK]   physical allocation scheme of a ranked candidate (default 1)
//!   recommend         judge allocation policies head-to-head in the disk simulator
//!   excluded          threshold-excluded candidates with reasons
//!   csv               ranking as CSV (for plotting)
//!   json              complete advisory as JSON (ranking + analysis + allocation)
//! ```
//!
//! The advisor's knobs (`max_candidates`, `chunk_size`, …) are set in
//! the configuration file's `[advisor]` section. Evaluation runs on
//! one thread; a `parallelism` key is accepted but has no effect.
//!
//! Exit codes: 0 on success (including an empty ranking — `rank`,
//! `csv`, `json` and `excluded` report whatever survived), 1 on runtime
//! failures (unreadable or invalid input, `analyze`/`allocate` rank out
//! of range), 2 on usage errors (unknown command or option, malformed
//! rank argument).

use std::env;
use std::process::ExitCode;

use warlock::config_file::{demo_config, render_config};
use warlock::json::ToJson;
use warlock::report::{
    ranking_csv, render_allocation, render_analysis, render_ranking, render_recommendation,
};
use warlock::Warlock;

const USAGE: &str = "usage: warlock <config-file> [rank|analyze [N]|allocate [N]|recommend|excluded|csv|json]\n       warlock init   (print a starter configuration)";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("warlock: unknown option `{flag}`\n{USAGE}");
        return ExitCode::from(2);
    }
    // `warlock init` emits the APB-1-like starter configuration.
    if args.first().map(String::as_str) == Some("init") {
        print!("{}", render_config(&demo_config()));
        return ExitCode::SUCCESS;
    }
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let command = args.get(1).map(String::as_str).unwrap_or("rank");
    // Parse the rank argument up front: a malformed value is a usage
    // error (exit 2), not a silent fall-back to rank 1.
    let rank_arg = match args.get(2) {
        None => 1,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("warlock: invalid rank argument `{s}` (expected a positive integer)");
                return ExitCode::from(2);
            }
        },
    };
    if !matches!(command, "analyze" | "allocate") && args.get(2).is_some() {
        eprintln!("warlock: `{command}` takes no rank argument\n{USAGE}");
        return ExitCode::from(2);
    }

    let session = match Warlock::from_config_path(path) {
        Ok(s) => s,
        Err(e) => {
            // `from_config_path` errors already name the offending file.
            eprintln!("warlock: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        "rank" => session.rank().map(|r| print!("{}", render_ranking(r))),
        "csv" => session.rank().map(|r| print!("{}", ranking_csv(r))),
        "json" => session
            .session_report()
            .map(|r| println!("{}", r.to_json().pretty())),
        "excluded" => session
            .rank()
            .map(|report| print!("{}", warlock::report::render_excluded(report))),
        "analyze" => session
            .analyze(rank_arg)
            .map(|analysis| print!("{}", render_analysis(&analysis))),
        "allocate" => session
            .plan_allocation(rank_arg)
            .map(|plan| print!("{}", render_allocation(&plan))),
        "recommend" => session
            .recommend_policy()
            .map(|rec| print!("{}", render_recommendation(&rec))),
        other => {
            eprintln!("warlock: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("warlock: {e}");
            ExitCode::FAILURE
        }
    }
}
