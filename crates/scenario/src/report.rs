//! Campaign-level reporting: per-scenario verdicts plus batch telemetry.

use std::time::Duration;

use mpca_engine::nearest_rank;
use mpca_trace::TraceSummary;

use crate::oracle::ScenarioOutcome;

/// The result of running a [`Campaign`](crate::Campaign): one evaluated
/// outcome per scenario, in submission order, plus batch telemetry from the
/// engine.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign's name.
    pub name: String,
    /// Evaluated scenarios, in submission order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Wall-clock time of the pooled batch.
    pub wall: Duration,
    /// Worker count the batch ran on.
    pub workers: usize,
    /// Execution backend that drove the sessions.
    pub backend: &'static str,
}

impl CampaignReport {
    /// Column headers matching [`ScenarioOutcome::row_cells`]: scenario
    /// identity, execution shape, then one verdict column per property in
    /// [`Property::ALL`](crate::Property::ALL) order, the expectation-match
    /// column, and one charged-bytes column per protocol phase in
    /// [`Phase::ALL`](mpca_metrics::Phase::ALL) order.
    pub const ROW_HEADERS: [&'static str; 21] = [
        "scenario",
        "protocol",
        "adversary",
        "n",
        "h",
        "rounds",
        "honest bits",
        "aborts",
        "A",
        "I",
        "F",
        "B",
        "L",
        "P",
        "expected?",
        "setup B",
        "crs B",
        "comm B",
        "shar B",
        "verif B",
        "out B",
    ];

    /// Number of scenarios evaluated.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when the campaign evaluated no scenarios.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Scenarios with at least one violated property.
    pub fn violations(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.holds()).collect()
    }

    /// Scenarios whose verdicts do **not** match their expectation — a
    /// violated baseline, or a control the oracle failed to flag. An empty
    /// list is the campaign-level pass condition.
    pub fn unexpected(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.as_expected()).collect()
    }

    /// `true` when every scenario's verdicts match its expectation.
    pub fn all_as_expected(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::as_expected)
    }

    /// Nearest-rank session-wall quantile across the campaign (`q` in
    /// `[0, 1]`); `Duration::ZERO` on an empty campaign. Telemetry, not part
    /// of any determinism contract.
    pub fn wall_quantile(&self, q: f64) -> Duration {
        self.quantile(|o| o.report.wall, q)
    }

    /// Median session wall across the campaign.
    pub fn wall_p50(&self) -> Duration {
        self.wall_quantile(0.50)
    }

    /// 99th-percentile session wall across the campaign.
    pub fn wall_p99(&self) -> Duration {
        self.wall_quantile(0.99)
    }

    /// Nearest-rank queue-wait quantile across the campaign (`q` in
    /// `[0, 1]`); `Duration::ZERO` on an empty campaign. Telemetry, not part
    /// of any determinism contract.
    pub fn queue_quantile(&self, q: f64) -> Duration {
        self.quantile(|o| o.report.queue_wait, q)
    }

    /// Median pool queue wait across the campaign.
    pub fn queue_p50(&self) -> Duration {
        self.queue_quantile(0.50)
    }

    /// 99th-percentile pool queue wait across the campaign.
    pub fn queue_p99(&self) -> Duration {
        self.queue_quantile(0.99)
    }

    /// The `q`-quantile of one per-scenario duration.
    fn quantile(&self, of: impl Fn(&ScenarioOutcome) -> Duration, q: f64) -> Duration {
        let mut sorted: Vec<Duration> = self.outcomes.iter().map(of).collect();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// The per-scenario trace summaries of a traced campaign run
    /// ([`Campaign::run_traced`](crate::Campaign::run_traced)), in
    /// submission order — what `campaign --record` writes into a
    /// [`TraceFile`](mpca_trace::TraceFile) and `--replay` compares.
    /// Empty when the campaign ran untraced.
    pub fn trace_summaries(&self) -> Vec<(String, TraceSummary)> {
        self.outcomes
            .iter()
            .filter_map(|o| {
                o.report
                    .trace
                    .clone()
                    .map(|summary| (o.scenario.label.clone(), summary))
            })
            .collect()
    }

    /// A stable, backend-independent digest of every verdict — one line per
    /// scenario (`label=HHHHHH`). Byte-identical across backends and worker
    /// counts; the determinism proptests compare exactly this string.
    pub fn verdict_digest(&self) -> String {
        self.outcomes
            .iter()
            .map(|o| format!("{}={}", o.scenario.label, o.verdict_letters()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "campaign '{}': {} scenarios on {} workers ({} backend), \
             {} violated, {} unexpected, {:.2}s",
            self.name,
            self.len(),
            self.workers,
            self.backend,
            self.violations().len(),
            self.unexpected().len(),
            self.wall.as_secs_f64(),
        )
    }

    /// Renders the campaign as an aligned plain-text table (one row per
    /// scenario; columns per [`CampaignReport::ROW_HEADERS`]).
    pub fn render(&self) -> String {
        let headers = Self::ROW_HEADERS;
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(ScenarioOutcome::row_cells)
            .collect();

        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        let mut out = String::new();
        out.push_str(&fmt_line(&header_cells));
        out.push('\n');
        out.push_str(&"-".repeat(fmt_line(&header_cells).len()));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_line(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::tiny_campaign;
    use mpca_engine::Sequential;

    #[test]
    fn tiny_campaign_report_renders_and_passes() {
        let report = tiny_campaign(3).run(Sequential, 2).expect("tiny campaign");
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
        assert!(report.all_as_expected(), "{}", report.render());
        assert!(report.violations().is_empty());
        assert!(report.unexpected().is_empty());
        let rendered = report.render();
        assert!(rendered.contains("smoke-honest-n8-h8"));
        assert!(rendered.contains("holds"));
        assert!(report.summary().contains("2 scenarios"));
        let digest = report.verdict_digest();
        assert_eq!(digest.lines().count(), 2);
        assert!(digest.contains("=HHHHHH"), "{digest}");
        // Pooled sessions always wait a nonzero time for a worker pickup.
        assert!(report.queue_p99() >= report.queue_p50());
        assert!(report.queue_p99() > std::time::Duration::ZERO);
    }
}
