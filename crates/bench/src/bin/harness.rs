//! The experiment harness: regenerates the paper's quantitative tables
//! (index in `DESIGN.md` §5) and writes a machine-readable
//! `BENCH_results.json` so the performance trajectory (bytes, rounds,
//! wall-clock, throughput) is trackable across PRs.
//!
//! Usage:
//!   cargo run -p mpca-bench --release --bin harness            # run everything
//!   cargo run -p mpca-bench --release --bin harness -- E1-comm-thm1 E4-lower-bound
//!   cargo run -p mpca-bench --release --bin harness -- --list
//!   cargo run -p mpca-bench --release --bin harness -- --json out.json E13-engine-sweep

use std::time::Instant;

use mpca_bench::{all_experiments, Table};
use mpca_metrics::json::escape;

fn json_string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    format!("[{}]", cells.join(","))
}

/// One experiment's run record for the JSON report.
struct Record {
    table: Table,
    wall_ms: u128,
}

impl Record {
    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .table
            .rows
            .iter()
            .map(|row| json_string_array(row))
            .collect();
        format!(
            "{{\"id\":\"{}\",\"caption\":\"{}\",\"wall_ms\":{},\"headers\":{},\"rows\":[{}]}}",
            escape(&self.table.id),
            escape(&self.table.caption),
            self.wall_ms,
            json_string_array(&self.table.headers),
            rows.join(","),
        )
    }
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// checkout (results files must stay writable from release tarballs).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn write_json(path: &str, records: &[Record]) {
    let total_wall: u128 = records.iter().map(|r| r.wall_ms).sum();
    let body: Vec<String> = records.iter().map(Record::to_json).collect();
    let build_profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let document = format!(
        "{{\"schema\":\"mpc-aborts/bench-results/v1\",\
         \"meta\":{{\"git_rev\":\"{}\",\"build_profile\":\"{}\"}},\
         \"total_wall_ms\":{},\"experiments\":[{}]}}\n",
        escape(&git_rev()),
        build_profile,
        total_wall,
        body.join(","),
    );
    match std::fs::write(path, document) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let registry = all_experiments();

    if args.iter().any(|a| a == "--list") {
        for (id, _) in &registry {
            println!("{id}");
        }
        return;
    }

    let explicit_json_path = match args.iter().position(|a| a == "--json") {
        Some(pos) => {
            args.remove(pos);
            if pos < args.len() {
                Some(args.remove(pos))
            } else {
                eprintln!("--json requires a path argument");
                std::process::exit(1);
            }
        }
        None => None,
    };

    let full_run = args.is_empty() || args.iter().any(|a| a == "all");
    let selected: Vec<&mpca_bench::Experiment> = if full_run {
        registry.iter().collect()
    } else {
        registry
            .iter()
            .filter(|(id, _)| args.iter().any(|a| a == id))
            .collect()
    };

    // Subset runs only write JSON when a path was given explicitly, so a
    // spot-check of one experiment never clobbers the full-results file
    // tracking the cross-PR trajectory.
    let json_path = match (explicit_json_path, full_run) {
        (Some(path), _) => Some(path),
        (None, true) => Some("BENCH_results.json".to_string()),
        (None, false) => None,
    };

    if selected.is_empty() {
        eprintln!("no matching experiments; use --list to see the available ids");
        std::process::exit(1);
    }

    let mut records = Vec::with_capacity(selected.len());
    for (id, run) in selected {
        eprintln!("running {id} ...");
        let start = Instant::now();
        let table = run();
        let wall_ms = start.elapsed().as_millis();
        println!("{}", table.render());
        records.push(Record { table, wall_ms });
    }
    match json_path {
        Some(path) => write_json(&path, &records),
        None => eprintln!("subset run: pass --json <path> to write machine-readable results"),
    }
}
