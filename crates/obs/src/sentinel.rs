//! The bench regression sentinel: diffs a fresh `BENCH_results.json`
//! against a checked-in baseline with per-metric tolerance bands.
//!
//! The baseline (`mpc-aborts/bench-baseline/v1`) is a list of *checks*.
//! Each check addresses one cell of one experiment table — by experiment
//! id, a row matched on its leading cells, and a column matched by header —
//! records the blessed measurement, and bounds the acceptable band with
//! absolute `min`/`max` limits. The sentinel re-extracts the cell from a
//! fresh results document, prints a drift table, and fails when any check
//! is out of band **or cannot be resolved at all** (a renamed experiment
//! or dropped column is drift too, just of the schema).
//!
//! This replaces the ad-hoc inline python gates CI used to carry for E18
//! (metrics overhead) and E19 (hot-path wall): one auditable tool, one
//! auditable baseline file. Both documents are read with the workspace
//! JSON parser, [`mpca_metrics::json`].

/// Schema tag the baseline document must carry.
pub const BASELINE_SCHEMA: &str = "mpc-aborts/bench-baseline/v1";

/// The workspace JSON value, re-exported for callers that reach it
/// through the sentinel.
pub use mpca_metrics::json::Json;

/// The outcome of one baseline check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Check name from the baseline file.
    pub name: String,
    /// What the fresh results document measured (`None`: unresolvable —
    /// missing experiment, row, column, or unparseable cell).
    pub measured: Option<f64>,
    /// The blessed measurement recorded in the baseline.
    pub baseline: f64,
    /// Lower bound of the band, if any.
    pub min: Option<f64>,
    /// Upper bound of the band, if any.
    pub max: Option<f64>,
    /// `true` when the measurement resolved and sits inside the band.
    pub ok: bool,
}

impl CheckResult {
    /// Relative drift vs the blessed value, as a percentage (0 when the
    /// baseline is 0 or the measurement is unresolved).
    pub fn drift_pct(&self) -> f64 {
        match self.measured {
            Some(m) if self.baseline.abs() > 1e-12 => {
                (m - self.baseline) / self.baseline.abs() * 100.0
            }
            _ => 0.0,
        }
    }
}

/// The sentinel's verdict over every baseline check.
#[derive(Debug, Clone)]
pub struct SentinelReport {
    /// Per-check outcomes, baseline order.
    pub checks: Vec<CheckResult>,
}

impl SentinelReport {
    /// `true` when every check resolved and sits inside its band.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Renders the drift table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>12} {:>12} {:>8} {:>22}  {}\n",
            "check", "measured", "baseline", "drift", "band", "status"
        ));
        for c in &self.checks {
            let band = match (c.min, c.max) {
                (Some(lo), Some(hi)) => format!("{lo:.3} ..= {hi:.3}"),
                (Some(lo), None) => format!(">= {lo:.3}"),
                (None, Some(hi)) => format!("<= {hi:.3}"),
                (None, None) => "(informational)".into(),
            };
            let measured = match c.measured {
                Some(m) => format!("{m:.3}"),
                None => "unresolved".into(),
            };
            out.push_str(&format!(
                "{:<34} {:>12} {:>12.3} {:>7.1}% {:>22}  {}\n",
                c.name,
                measured,
                c.baseline,
                c.drift_pct(),
                band,
                if c.ok { "ok" } else { "DRIFT" }
            ));
        }
        out
    }
}

/// Runs every baseline check against a fresh results document. Errors are
/// *structural* (unparseable documents, wrong schema, malformed checks);
/// a missing experiment or out-of-band value is a failed check in the
/// report, not an `Err`.
pub fn run_sentinel(results_text: &str, baseline_text: &str) -> Result<SentinelReport, String> {
    let results = Json::parse(results_text).map_err(|e| format!("results: {e}"))?;
    let baseline = Json::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    match baseline.get("schema").and_then(Json::as_str) {
        Some(BASELINE_SCHEMA) => {}
        other => {
            return Err(format!(
                "baseline schema {other:?}, want {BASELINE_SCHEMA:?}"
            ))
        }
    }
    let checks = baseline
        .get("checks")
        .and_then(Json::as_array)
        .ok_or("baseline has no checks array")?;
    let mut outcomes = Vec::with_capacity(checks.len());
    for (i, check) in checks.iter().enumerate() {
        let name = check
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("check #{i} has no name"))?
            .to_string();
        let blessed = check
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("check {name:?} has no blessed value"))?;
        let min = check.get("min").and_then(Json::as_f64);
        let max = check.get("max").and_then(Json::as_f64);
        let measured = extract(&results, check);
        let ok = match measured {
            None => false,
            Some(m) => min.is_none_or(|lo| m >= lo) && max.is_none_or(|hi| m <= hi),
        };
        outcomes.push(CheckResult {
            name,
            measured,
            baseline: blessed,
            min,
            max,
            ok,
        });
    }
    Ok(SentinelReport { checks: outcomes })
}

/// Resolves one check's cell in the results document and parses its
/// leading number. Cells carry human-facing suffixes ("653 ms wall",
/// "202.3 scenarios/s", "+4.6%"), so extraction takes the longest leading
/// `[+-]?digits[.digits]` prefix.
fn extract(results: &Json, check: &Json) -> Option<f64> {
    let experiment_id = check.get("experiment").and_then(Json::as_str)?;
    let row_matchers = check.get("row").and_then(Json::as_array)?;
    let column = check.get("column").and_then(Json::as_str)?;
    let experiment = results
        .get("experiments")
        .and_then(Json::as_array)?
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some(experiment_id))?;
    let headers = experiment.get("headers").and_then(Json::as_array)?;
    let col_idx = headers.iter().position(|h| h.as_str() == Some(column))?;
    let row = experiment
        .get("rows")
        .and_then(Json::as_array)?
        .iter()
        .filter_map(Json::as_array)
        .find(|cells| {
            row_matchers
                .iter()
                .enumerate()
                .all(|(i, want)| cells.get(i).and_then(|c| c.as_str()) == want.as_str())
        })?;
    leading_number(row.get(col_idx)?.as_str()?)
}

/// Parses the leading signed decimal of a table cell.
fn leading_number(cell: &str) -> Option<f64> {
    let cell = cell.trim_start();
    let mut end = 0;
    for (i, c) in cell.char_indices() {
        let leading_sign = i == 0 && (c == '+' || c == '-');
        if c.is_ascii_digit() || c == '.' || leading_sign {
            end = i + c.len_utf8();
        } else {
            break;
        }
    }
    cell[..end].trim_start_matches('+').parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results_doc(p99: f64, overhead: f64) -> String {
        format!(
            r#"{{"schema": "mpc-aborts/bench-results/v1", "total_wall_ms": 100,
                "meta": {{"git_rev": "abc1234", "build_profile": "release"}},
                "experiments": [
                  {{"id": "E16-sweep", "caption": "sweep", "wall_ms": 50,
                    "headers": ["plan", "protocol", "wall p99 ms"],
                    "rows": [["broadcast", "x", "1.20"],
                             ["TOTAL", "", "{p99:.2}"]]}},
                  {{"id": "E18-metrics", "caption": "overhead", "wall_ms": 50,
                    "headers": ["config", "overhead"],
                    "rows": [["metrics-off", "-"],
                             ["metrics-on", "{overhead:+.1}%"]]}}
                ]}}"#
        )
    }

    const BASELINE: &str = r#"{
        "schema": "mpc-aborts/bench-baseline/v1",
        "checks": [
            {"name": "e16-wall-p99-ms", "experiment": "E16-sweep",
             "row": ["TOTAL"], "column": "wall p99 ms",
             "value": 4.0, "max": 7.0},
            {"name": "e18-overhead-pct", "experiment": "E18-metrics",
             "row": ["metrics-on"], "column": "overhead",
             "value": 4.6, "max": 10.0}
        ]}"#;

    #[test]
    fn in_band_results_pass() {
        let report = run_sentinel(&results_doc(4.2, 3.1), BASELINE).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checks.len(), 2);
        assert_eq!(report.checks[0].measured, Some(4.2));
        assert_eq!(report.checks[1].measured, Some(3.1));
        assert!(report.render().contains("ok"));
    }

    #[test]
    fn a_2x_p99_drift_fails() {
        let report = run_sentinel(&results_doc(8.0, 3.1), BASELINE).unwrap();
        assert!(!report.passed());
        assert!(!report.checks[0].ok, "p99 out of band");
        assert!(report.checks[1].ok);
        assert!(report.render().contains("DRIFT"));
    }

    #[test]
    fn negative_overhead_cells_parse_and_pass() {
        let report = run_sentinel(&results_doc(4.0, -1.4), BASELINE).unwrap();
        assert_eq!(report.checks[1].measured, Some(-1.4));
        assert!(report.checks[1].ok);
    }

    #[test]
    fn a_missing_experiment_is_drift_of_the_schema() {
        let slim = r#"{"experiments": []}"#;
        let report = run_sentinel(slim, BASELINE).unwrap();
        assert!(!report.passed());
        assert!(report.checks.iter().all(|c| c.measured.is_none()));
        assert!(report.render().contains("unresolved"));
    }

    #[test]
    fn malformed_documents_are_structural_errors() {
        assert!(run_sentinel("{", BASELINE).is_err());
        assert!(run_sentinel(&results_doc(4.0, 0.0), "{}").is_err());
        let wrong_schema = r#"{"schema": "nope", "checks": []}"#;
        assert!(run_sentinel(&results_doc(4.0, 0.0), wrong_schema).is_err());
    }

    #[test]
    fn leading_numbers_survive_their_suffixes() {
        assert_eq!(leading_number("653 ms wall"), Some(653.0));
        assert_eq!(leading_number("202.3 scenarios/s"), Some(202.3));
        assert_eq!(leading_number("+4.6%"), Some(4.6));
        assert_eq!(leading_number("-1.4%"), Some(-1.4));
        assert_eq!(leading_number("1.23"), Some(1.23));
        assert_eq!(leading_number("flagged"), None);
        assert_eq!(leading_number(""), None);
    }
}
