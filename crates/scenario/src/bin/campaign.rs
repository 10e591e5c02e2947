//! The campaign CLI: run an adversarial-scenario campaign through the
//! session pool, render the oracle's verdicts, and record/replay execution
//! traces.
//!
//! Usage:
//!   cargo run -p mpca-scenario --release --bin campaign                 # standard campaign
//!   cargo run -p mpca-scenario --release --bin campaign -- --tiny      # CI smoke plan (n ≤ 8)
//!   cargo run -p mpca-scenario --release --bin campaign -- --sweep     # full cross-product sweep (150+ scenarios)
//!   cargo run -p mpca-scenario --release --bin campaign -- --sweep --tiny   # sweep smoke plan (n ≤ 12)
//!   cargo run -p mpca-scenario --release --bin campaign -- --seed 7 --workers 4 --backend parallel
//!   cargo run -p mpca-scenario --release --bin campaign -- --sweep --tiny --record trace.json
//!   cargo run -p mpca-scenario --release --bin campaign -- --replay trace.json --backend parallel
//!   cargo run -p mpca-scenario --release --bin campaign -- --tiny --metrics metrics.json
//!   cargo run -p mpca-scenario --release --bin campaign -- --list
//!   cargo run -p mpca-scenario --release --bin campaign -- --search --tiny --seed 7
//!   cargo run -p mpca-scenario --release --bin campaign -- --search --tiny --rig loosen-flooding --cex-dir tests/counterexamples
//!   cargo run -p mpca-scenario --release --bin campaign -- --replay-cex tests/counterexamples --backend parallel
//!   cargo run -p mpca-scenario --release --bin campaign -- --soak 10 --rate 200 --capacity 8
//!
//! `--soak SECS` switches from one-shot batch mode to the `mpca-obs`
//! open-loop soak harness: a seeded arrival schedule admits mixed-traffic
//! scenarios (the tiny sweep's cross-product, re-seeded per cycle) through
//! a bounded queue at `--rate` arrivals/s, sheds what does not fit, and
//! emits windowed latency/throughput/abort telemetry as
//! `mpc-aborts/soak/v1` JSON (stdout, or `--soak-out PATH`). `--spans
//! PATH` additionally exports the sampled slowest sessions as Chrome
//! trace-event JSON for Perfetto.
//!
//! Every run is **traced**: sessions fold their event stream into a trace
//! summary as they record it, the oracle's identified-abort predicate runs
//! behaviourally against the trace, and `--record <path>` writes the
//! per-scenario trace digests to a replayable file. Runs without
//! `--sweep` also retain every stream for the predicate oracle; `--sweep`
//! runs keep only the summaries. `--replay <path>` rebuilds the recorded campaign from
//! the file's `(campaign, seed)` identity, re-executes it (on any backend —
//! digests are backend-independent) and fails on any digest mismatch.
//!
//! `--search` flips the predicate plane into a coverage-guided adversary
//! search (see `mpca_scenario::search`): seeded candidate mutation over the
//! sweep grids, novel predicate violations shrunk to minimal specs, and
//! `--cex-dir DIR` persisting each as a `.cex` counterexample file.
//! Without `--rig` the search fails (exit 1) on any novel find — that is
//! the CI tripwire; with `--rig loosen-flooding` it fails unless the
//! planted find IS found — that is the searcher's own health check.
//! `--replay-cex DIR` re-executes every checked-in counterexample and
//! fails on any digest/verdict divergence.
//!
//! Exit status is non-zero when any scenario's verdicts do not match its
//! expectation, or when a replay diverges from its recording — which is
//! what the CI smoke steps rely on. Sweep runs narrate progress to stderr
//! while the pool drains.

use std::time::{Duration, Instant};

use mpca_engine::{Parallel, Sequential, SessionProgress};
use mpca_obs::{run_soak, SoakConfig};
use mpca_scenario::{
    campaign_by_name, run_search, standard_campaign, sweep_campaign, tiny_campaign,
    tiny_sweep_campaign, Campaign, CampaignReport, Counterexample, Rig, SearchConfig, SearchReport,
    SoakWorkload,
};
use mpca_trace::TraceFile;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--sweep] [--tiny] [--seed N] [--workers N] \
         [--backend sequential|parallel] [--record PATH] [--replay PATH] \
         [--metrics PATH] [--list]\n\
         \x20      campaign --search [--tiny] [--seed N] [--budget N] \
         [--rig loosen-flooding] [--cex-dir DIR] [--workers N] [--backend B]\n\
         \x20      campaign --replay-cex DIR [--backend B]\n\
         \x20      campaign --soak SECS [--rate R] [--capacity N] [--window SECS] \
         [--soak-out PATH] [--spans PATH] [--seed N] [--workers N] [--backend B]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut Vec<String>, pos: usize) -> T {
    args.remove(pos);
    if pos >= args.len() {
        usage();
    }
    args.remove(pos).parse().unwrap_or_else(|_| usage())
}

/// A progress observer for long sweeps: one stderr line every `stride`
/// completed sessions (and at the end), with batch throughput so far.
fn narrate(total: usize) -> impl Fn(SessionProgress) + Send + Sync {
    let stride = (total / 10).max(1);
    let start = Instant::now();
    move |progress: SessionProgress| {
        if progress.completed.is_multiple_of(stride) || progress.completed == progress.total {
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "  [{}/{}] {:.1} scenarios/s (last: {})",
                progress.completed,
                progress.total,
                progress.completed as f64 / elapsed,
                progress.label,
            );
        }
    }
}

fn run_campaign(
    campaign: &Campaign,
    backend: &str,
    workers: usize,
    progress: bool,
) -> CampaignReport {
    let total = campaign.scenarios().len();
    let result = match (backend, progress) {
        ("sequential", false) => campaign.run_traced(Sequential, workers),
        ("parallel", false) => campaign.run_traced(Parallel::default(), workers),
        // Progress-narrated sweeps skip full-stream retention: each session
        // folds its summary while recording and stores no event (the
        // trace-predicate property trivially holds without a stream).
        ("sequential", true) => {
            campaign.run_configured(Sequential, workers, true, false, narrate(total))
        }
        ("parallel", true) => {
            campaign.run_configured(Parallel::default(), workers, true, false, narrate(total))
        }
        _ => usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("campaign failed to execute: {e}");
        std::process::exit(1);
    })
}

/// Writes the campaign's metrics-registry snapshot (JSON, schema
/// `mpc-aborts/metrics/v1`) to `path`.
fn write_metrics(path: &str) {
    let snapshot = mpca_metrics::Snapshot::capture();
    match std::fs::write(path, snapshot.to_json()) {
        Ok(()) => eprintln!(
            "wrote metrics snapshot ({} counters, {} histograms) to {path}",
            snapshot.counters.len(),
            snapshot.histograms.len(),
        ),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the adversary search on the chosen backend, persists any shrunk
/// counterexamples, and exits non-zero per the rig contract (see the
/// module docs).
fn run_search_mode(config: &SearchConfig, backend: &str, cex_dir: Option<&str>) {
    eprintln!(
        "searching: seed {}, budget {}, {} workers, {backend} backend{}{}",
        config.seed,
        config.budget,
        config.workers,
        if config.tiny { ", tiny grids" } else { "" },
        config
            .rig
            .map(|r| format!(", rig {}", r.name()))
            .unwrap_or_default(),
    );
    let report: SearchReport = match backend {
        "sequential" => run_search(config, Sequential),
        "parallel" => run_search(config, Parallel::default()),
        _ => usage(),
    }
    .unwrap_or_else(|e| {
        eprintln!("search failed to execute: {e}");
        std::process::exit(1);
    });
    println!("{}", report.summary());
    for signature in &report.coverage {
        println!("  coverage {signature}");
    }
    for cex in &report.counterexamples {
        println!(
            "  counterexample {} violates [{}] at events [{}..{}] (digest {})",
            cex.label,
            cex.violated.join(","),
            cex.span.0,
            cex.span.1,
            cex.digest,
        );
    }
    if let Some(dir) = cex_dir {
        if !report.counterexamples.is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot create {dir}: {e}");
                std::process::exit(1);
            });
        }
        for cex in &report.counterexamples {
            let path = format!("{dir}/{}.cex", cex.label);
            match std::fs::write(&path, cex.render()) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    match config.rig {
        // Rigged runs are the searcher's health check: the planted
        // violation MUST be found, shrunk and emitted.
        Some(rig) => {
            if report.counterexamples.is_empty() {
                eprintln!(
                    "SEARCH UNHEALTHY: rig {} planted a violation the search did not find",
                    rig.name()
                );
                std::process::exit(1);
            }
        }
        // Unrigged runs are the tripwire: any novel violation is a real
        // bug in protocol, harness or predicate plane.
        None => {
            if !report.findings.is_empty() {
                for finding in &report.findings {
                    eprintln!(
                        "NOVEL VIOLATION {}: [{}] outside the expected set",
                        finding.candidate.label(),
                        finding.novel.join(","),
                    );
                }
                std::process::exit(1);
            }
        }
    }
}

/// Options for the open-loop soak mode, straight off the command line.
struct SoakOptions {
    secs: f64,
    rate: f64,
    capacity: Option<usize>,
    window: f64,
    soak_out: Option<String>,
    spans: Option<String>,
}

/// Runs the `mpca-obs` soak harness over the [`SoakWorkload`] mixed-traffic
/// stream, emits the windowed time-series JSON (stdout or `--soak-out`),
/// optionally exports Chrome trace-event spans, and exits non-zero if any
/// admitted session failed to execute.
fn run_soak_mode(opts: &SoakOptions, seed: u64, workers: usize, backend: &str) {
    if opts.secs <= 0.0 || opts.rate <= 0.0 || opts.window <= 0.0 {
        usage();
    }
    let workload = SoakWorkload::new(seed);
    let mut config = SoakConfig::new(Duration::from_secs_f64(opts.secs), opts.rate)
        .with_workers(workers)
        .with_seed(seed)
        .with_window(Duration::from_secs_f64(opts.window));
    if let Some(capacity) = opts.capacity {
        config = config.with_capacity(capacity);
    }
    eprintln!(
        "soaking: {:.1}s at {:.1} arrivals/s, queue bound {}, {workers} workers, \
         {} scenario templates, {backend} backend, seed {seed}",
        opts.secs,
        opts.rate,
        config.capacity,
        workload.templates(),
    );
    let report = match backend {
        "sequential" => run_soak(&config, &Sequential, |index| workload.task(index)),
        "parallel" => run_soak(&config, &Parallel::default(), |index| workload.task(index)),
        _ => usage(),
    };
    eprintln!(
        "soak done in {:.1}s: {} arrivals ({} admitted, {} shed), {} completed \
         ({} aborted, {} errors); wall p50/p99 {:.1}/{:.1} ms, queue p99 {:.1} ms, \
         {:.1} scenarios/s over {} windows",
        report.elapsed.as_secs_f64(),
        report.arrivals,
        report.admitted,
        report.shed,
        report.completed,
        report.aborted,
        report.errors,
        report.wall_p50_us as f64 / 1e3,
        report.wall_p99_us as f64 / 1e3,
        report.queue_p99_us as f64 / 1e3,
        report.scenarios_per_sec(),
        report.windows.len(),
    );
    let json = report.to_json();
    match &opts.soak_out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => eprintln!("wrote soak time-series to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        },
        None => println!("{json}"),
    }
    if let Some(path) = &opts.spans {
        let trace = report.chrome_trace();
        match std::fs::write(path, trace.render()) {
            Ok(()) => eprintln!(
                "wrote Chrome trace-event spans for {} sampled sessions to {path}",
                report.sampled.len()
            ),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if report.errors > 0 {
        eprintln!("{} sessions failed to execute", report.errors);
        std::process::exit(1);
    }
}

/// Replays every `*.cex` file under `dir` on the chosen backend; any
/// mismatch (or an unparseable/empty directory) is fatal.
fn replay_counterexamples(dir: &str, backend: &str) {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {dir}: {e}");
            std::process::exit(1);
        })
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cex"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .cex files under {dir}");
        std::process::exit(1);
    }
    let mut failed = false;
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let cex = Counterexample::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", path.display());
            std::process::exit(1);
        });
        let mismatches = match backend {
            "sequential" => cex.replay(Sequential),
            "parallel" => cex.replay(Parallel::default()),
            _ => usage(),
        }
        .unwrap_or_else(|e| {
            eprintln!("{} failed to execute: {e}", cex.label);
            std::process::exit(1);
        });
        if mismatches.is_empty() {
            eprintln!("replayed {} clean ({})", cex.label, path.display());
        } else {
            failed = true;
            for mismatch in &mismatches {
                eprintln!("CEX MISMATCH {}: {mismatch}", cex.label);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "{} counterexamples replayed clean on {backend}",
        paths.len()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    let mut flag = |name: &str| {
        if let Some(pos) = args.iter().position(|a| a == name) {
            args.remove(pos);
            true
        } else {
            false
        }
    };
    let tiny = flag("--tiny");
    let sweep = flag("--sweep");
    let list = flag("--list");
    let search = flag("--search");
    let seed: u64 = match args.iter().position(|a| a == "--seed") {
        Some(pos) => parse(&mut args, pos),
        None => 0,
    };
    let workers: usize = match args.iter().position(|a| a == "--workers") {
        Some(pos) => parse(&mut args, pos),
        None => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2),
    };
    let backend: String = match args.iter().position(|a| a == "--backend") {
        Some(pos) => parse(&mut args, pos),
        None => "sequential".into(),
    };
    let record: Option<String> = args
        .iter()
        .position(|a| a == "--record")
        .map(|pos| parse(&mut args, pos));
    let replay: Option<String> = args
        .iter()
        .position(|a| a == "--replay")
        .map(|pos| parse(&mut args, pos));
    let metrics: Option<String> = args
        .iter()
        .position(|a| a == "--metrics")
        .map(|pos| parse(&mut args, pos));
    let budget: Option<usize> = args
        .iter()
        .position(|a| a == "--budget")
        .map(|pos| parse(&mut args, pos));
    let rig: Option<String> = args
        .iter()
        .position(|a| a == "--rig")
        .map(|pos| parse(&mut args, pos));
    let cex_dir: Option<String> = args
        .iter()
        .position(|a| a == "--cex-dir")
        .map(|pos| parse(&mut args, pos));
    let replay_cex: Option<String> = args
        .iter()
        .position(|a| a == "--replay-cex")
        .map(|pos| parse(&mut args, pos));
    let soak: Option<f64> = args
        .iter()
        .position(|a| a == "--soak")
        .map(|pos| parse(&mut args, pos));
    let rate: f64 = match args.iter().position(|a| a == "--rate") {
        Some(pos) => parse(&mut args, pos),
        None => 50.0,
    };
    let capacity: Option<usize> = args
        .iter()
        .position(|a| a == "--capacity")
        .map(|pos| parse(&mut args, pos));
    let window: f64 = match args.iter().position(|a| a == "--window") {
        Some(pos) => parse(&mut args, pos),
        None => 1.0,
    };
    let soak_out: Option<String> = args
        .iter()
        .position(|a| a == "--soak-out")
        .map(|pos| parse(&mut args, pos));
    let spans: Option<String> = args
        .iter()
        .position(|a| a == "--spans")
        .map(|pos| parse(&mut args, pos));
    if !args.is_empty() {
        usage();
    }

    // Counterexample replay: re-execute every checked-in `.cex` file and
    // fail on any divergence from its pinned digest/verdicts.
    if let Some(dir) = replay_cex {
        replay_counterexamples(&dir, &backend);
        return;
    }

    // Search mode: coverage-guided adversary search over the sweep grids.
    if search {
        let mut config = if tiny {
            SearchConfig::tiny(seed)
        } else {
            SearchConfig::new(seed)
        };
        config.workers = workers;
        if let Some(budget) = budget {
            config.budget = budget;
        }
        if let Some(name) = &rig {
            config.rig = Some(Rig::from_name(name).unwrap_or_else(|| {
                eprintln!("unknown rig '{name}' (known: loosen-flooding)");
                std::process::exit(2);
            }));
        }
        run_search_mode(&config, &backend, cex_dir.as_deref());
        return;
    }

    // The metrics plane is off by default (zero hot-path overhead); the
    // flag turns it on before any session runs so the snapshot covers the
    // whole campaign.
    if metrics.is_some() {
        mpca_metrics::set_enabled(true);
    }

    // Soak mode: sustained open-loop load through the bounded admission
    // queue, with windowed telemetry instead of oracle verdict tables.
    if let Some(secs) = soak {
        let opts = SoakOptions {
            secs,
            rate,
            capacity,
            window,
            soak_out,
            spans,
        };
        run_soak_mode(&opts, seed, workers, &backend);
        if let Some(path) = metrics {
            write_metrics(&path);
        }
        return;
    }

    // Replay path: the recorded file names the campaign and seed; the
    // command-line campaign/seed flags are ignored (backend and workers
    // still apply — trace digests are backend-independent by contract).
    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let recorded = TraceFile::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        });
        let campaign = campaign_by_name(&recorded.campaign, recorded.seed).unwrap_or_else(|| {
            eprintln!("unknown recorded campaign '{}'", recorded.campaign);
            std::process::exit(1);
        });
        eprintln!(
            "replaying campaign '{}' (seed {}, {} recorded sessions, {backend} backend)",
            recorded.campaign,
            recorded.seed,
            recorded.sessions.len(),
        );
        let report = run_campaign(&campaign, &backend, workers, sweep);
        let mismatches = recorded.compare(report.trace_summaries());
        if mismatches.is_empty() {
            eprintln!(
                "replay clean: {} trace digests identical to the recording",
                recorded.sessions.len()
            );
        } else {
            for mismatch in &mismatches {
                eprintln!("TRACE MISMATCH {mismatch}");
            }
            std::process::exit(1);
        }
        if !report.all_as_expected() {
            eprintln!("replay verdicts diverge from expectations");
            std::process::exit(1);
        }
        // `--replay X --record Y` re-records the replayed execution (e.g.
        // to migrate a trace file), rather than silently ignoring the flag.
        if let Some(path) = record {
            let file = TraceFile::new(
                recorded.campaign.clone(),
                recorded.seed,
                report.backend,
                report.trace_summaries(),
            );
            match std::fs::write(&path, file.render()) {
                Ok(()) => eprintln!(
                    "re-recorded {} trace digests to {path}",
                    file.sessions.len()
                ),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = metrics {
            write_metrics(&path);
        }
        return;
    }

    let campaign = match (sweep, tiny) {
        (true, true) => tiny_sweep_campaign(seed),
        (true, false) => sweep_campaign(seed),
        (false, true) => tiny_campaign(seed),
        (false, false) => standard_campaign(seed),
    };

    if list {
        for scenario in campaign.scenarios() {
            println!("{}", scenario.label);
        }
        return;
    }

    eprintln!(
        "running campaign '{}' ({} scenarios, {workers} workers, {backend} backend, seed {seed})",
        campaign.name,
        campaign.scenarios().len()
    );
    let report = run_campaign(&campaign, &backend, workers, sweep);
    println!("{}", report.render());
    println!("{}", report.summary());

    if let Some(path) = record {
        let file = TraceFile::new(
            campaign.name.clone(),
            seed,
            report.backend,
            report.trace_summaries(),
        );
        match std::fs::write(&path, file.render()) {
            Ok(()) => eprintln!("recorded {} trace digests to {path}", file.sessions.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = metrics {
        write_metrics(&path);
    }

    if !report.all_as_expected() {
        for outcome in report.unexpected() {
            eprintln!(
                "UNEXPECTED verdicts for {} ({}): {}",
                outcome.scenario.label,
                outcome.verdict_letters(),
                outcome
                    .checks
                    .iter()
                    .map(|c| format!("{}: {}", c.property.name(), c.details))
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
        std::process::exit(1);
    }
}
