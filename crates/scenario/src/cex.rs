//! Shrunk search counterexamples as **permanent regression artefacts**.
//!
//! `campaign --search` shrinks every novel predicate violation it finds to
//! a minimal [`Scenario`] and writes it as a counterexample file — three
//! JSON lines (schema `mpc-aborts/counterexample/v1`) holding the scenario
//! identity (protocol, grid point, seed, the [`codec`](crate::codec)-encoded
//! adversary) and the expected outcome (trace digest, violated predicate
//! names, first-violation span). Each line is parsed with
//! [`mpca_metrics::json`], and every string field is written through its
//! [`escape`].
//!
//! [`Counterexample::replay`] re-executes the scenario from scratch on any
//! backend and fails on any divergence, so checked-in counterexamples under
//! `tests/counterexamples/` stay regression tests forever: the digest pins
//! the execution bit-for-bit and the violated set pins the predicate
//! plane's judgement of it.

use mpca_core::ProtocolKind;
use mpca_engine::{ExecutionBackend, SessionPool, SessionReport};
use mpca_metrics::json::{escape, Json};
use mpca_net::NetError;
use mpca_predicate::{eval_set, full_set, SetViolation};
use mpca_trace::TaggedTrace;

use crate::codec::{encode_spec, parse_spec};
use crate::plan::{Expectation, Scenario};
use crate::registry;
use crate::spec::AdversarySpec;

/// The schema tag every counterexample file starts with.
pub const CEX_SCHEMA: &str = "mpc-aborts/counterexample/v1";

/// A minimal scenario pinned to the violation it reproduces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Canonical content-derived label (also the replayed session label).
    pub label: String,
    /// Protocol family.
    pub kind: ProtocolKind,
    /// Total parties.
    pub n: usize,
    /// Guaranteed honest parties.
    pub h: usize,
    /// Scenario seed (inputs, CRS labels, corruption sampling).
    pub seed: u64,
    /// The shrunk adversary.
    pub adversary: AdversarySpec,
    /// Whether adversary bytes were charged to `CommStats`.
    pub charge_adversary_bytes: bool,
    /// Names of the violated full-set predicates, in set order.
    pub violated: Vec<String>,
    /// Canonical trace digest of the violating execution.
    pub digest: String,
    /// Total trace events of the violating execution.
    pub events: u64,
    /// First-violation event span `[start..end]` of the first violated
    /// predicate.
    pub span: (u64, u64),
    /// The search rig active at discovery (`None`: an unrigged find).
    pub rig: Option<String>,
}

/// One divergence between a counterexample and its replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexMismatch {
    /// Which pinned quantity diverged (`digest`, `violated`, `span`,
    /// `events`).
    pub what: &'static str,
    /// The counterexample's pinned value.
    pub expected: String,
    /// What the replay produced.
    pub got: String,
}

impl std::fmt::Display for CexMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: pinned {} vs replayed {}",
            self.what, self.expected, self.got
        )
    }
}

/// Runs one scenario as a single traced, stream-retaining pool session and
/// returns its report.
pub(crate) fn run_scenario_traced<B: ExecutionBackend>(
    scenario: &Scenario,
    backend: B,
) -> Result<SessionReport, NetError> {
    let mut pool = SessionPool::new(backend)
        .with_workers(1)
        .with_tracing(true)
        .with_trace_logs(true);
    registry::submit_scenario(&mut pool, scenario);
    let mut batch = pool.run()?;
    Ok(batch.sessions.remove(0))
}

/// Evaluates the family's full predicate set over a retained session
/// stream.
pub(crate) fn violations_of(scenario: &Scenario, report: &SessionReport) -> Vec<SetViolation> {
    let log = report
        .trace_log
        .as_ref()
        .expect("run_scenario_traced retains the stream");
    let trace = TaggedTrace::new(log, scenario.kind);
    eval_set(&full_set(scenario.kind, None), &trace)
}

impl Counterexample {
    /// The concrete scenario this counterexample replays.
    pub fn to_scenario(&self) -> Scenario {
        Scenario {
            label: self.label.clone(),
            kind: self.kind,
            n: self.n,
            h: self.h,
            path: mpca_core::ExecutionPath::Concrete,
            adversary: self.adversary.clone(),
            seed: self.seed,
            charge_adversary_bytes: self.charge_adversary_bytes,
            expectation: Expectation::Holds,
        }
    }

    /// Re-executes the scenario on `backend` and compares the trace digest,
    /// event count, violated predicate set and first-violation span against
    /// the pinned values. An empty mismatch list is the pass condition.
    ///
    /// # Errors
    ///
    /// Propagates session-level [`NetError`]s (the counterexample no longer
    /// executes at all — itself a regression).
    pub fn replay<B: ExecutionBackend>(&self, backend: B) -> Result<Vec<CexMismatch>, NetError> {
        let scenario = self.to_scenario();
        let report = run_scenario_traced(&scenario, backend)?;
        let violations = violations_of(&scenario, &report);
        let summary = report.trace.as_ref().expect("traced session has a summary");

        let mut mismatches = Vec::new();
        if summary.digest != self.digest {
            mismatches.push(CexMismatch {
                what: "digest",
                expected: self.digest.clone(),
                got: summary.digest.clone(),
            });
        }
        if summary.events != self.events {
            mismatches.push(CexMismatch {
                what: "events",
                expected: self.events.to_string(),
                got: summary.events.to_string(),
            });
        }
        let got_names: Vec<&str> = violations.iter().map(|v| v.name).collect();
        let pinned: Vec<&str> = self.violated.iter().map(String::as_str).collect();
        if got_names != pinned {
            mismatches.push(CexMismatch {
                what: "violated",
                expected: pinned.join(","),
                got: got_names.join(","),
            });
        } else if let Some(first) = violations.first() {
            let got_span = (
                first.violation.span.start as u64,
                first.violation.span.end as u64,
            );
            if got_span != self.span {
                mismatches.push(CexMismatch {
                    what: "span",
                    expected: format!("[{}..{}]", self.span.0, self.span.1),
                    got: format!("[{}..{}]", got_span.0, got_span.1),
                });
            }
        }
        Ok(mismatches)
    }

    /// Renders the three JSON lines.
    pub fn render(&self) -> String {
        format!(
            "{{\"schema\":\"{CEX_SCHEMA}\",\"label\":\"{}\"}}\n\
             {{\"kind\":\"{}\",\"n\":{},\"h\":{},\"seed\":{},\"adversary\":\"{}\",\"charge\":{}}}\n\
             {{\"digest\":\"{}\",\"events\":{},\"violated\":\"{}\",\"span_start\":{},\
             \"span_end\":{},\"rig\":\"{}\"}}\n",
            escape(&self.label),
            self.kind.name(),
            self.n,
            self.h,
            self.seed,
            escape(&encode_spec(&self.adversary)),
            self.charge_adversary_bytes,
            escape(&self.digest),
            self.events,
            escape(&self.violated.join(",")),
            self.span.0,
            self.span.1,
            escape(self.rig.as_deref().unwrap_or("")),
        )
    }

    /// Parses a rendered document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let mut next_line = |what: &str| {
            let line = lines.next().ok_or(format!("missing {what} line"))?;
            Json::parse(line).map_err(|e| format!("{what} line: {e}"))
        };
        let header = next_line("header")?;
        if header.get("schema").and_then(Json::as_str) != Some(CEX_SCHEMA) {
            return Err(format!(
                "missing or unsupported schema header (want {CEX_SCHEMA})"
            ));
        }
        let scenario = next_line("scenario")?;
        let result = next_line("result")?;
        let text_of = |line: &Json, key: &str| {
            line.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("missing string '{key}'"))
        };
        let u64_of = |line: &Json, key: &str| {
            line.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("missing integer '{key}'"))
        };
        let kind_name = text_of(&scenario, "kind")?;
        let kind = ProtocolKind::from_name(&kind_name)
            .ok_or_else(|| format!("unknown protocol kind '{kind_name}'"))?;
        let violated = text_of(&result, "violated")?
            .split(',')
            .filter(|name| !name.is_empty())
            .map(String::from)
            .collect();
        Ok(Self {
            label: text_of(&header, "label")?,
            kind,
            n: u64_of(&scenario, "n")? as usize,
            h: u64_of(&scenario, "h")? as usize,
            seed: u64_of(&scenario, "seed")?,
            adversary: parse_spec(&text_of(&scenario, "adversary")?)?,
            charge_adversary_bytes: scenario
                .get("charge")
                .and_then(Json::as_bool)
                .ok_or("missing boolean 'charge'")?,
            violated,
            digest: text_of(&result, "digest")?,
            events: u64_of(&result, "events")?,
            span: (u64_of(&result, "span_start")?, u64_of(&result, "span_end")?),
            rig: result
                .get("rig")
                .and_then(Json::as_str)
                .filter(|r| !r.is_empty())
                .map(String::from),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorruptionSpec;

    fn sample() -> Counterexample {
        Counterexample {
            label: "srch-unchecked-sum-equivocate-n8-h7-00c0ffee".into(),
            kind: ProtocolKind::UncheckedSum,
            n: 8,
            h: 7,
            seed: 11,
            adversary: AdversarySpec::Equivocate {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![1],
            },
            charge_adversary_bytes: false,
            violated: vec!["broadcast-consistency".into()],
            digest: "deadbeef".into(),
            events: 42,
            span: (3, 9),
            rig: Some("loosen-flooding".into()),
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let cex = sample();
        let parsed = Counterexample::parse(&cex.render()).expect("parses");
        assert_eq!(parsed, cex);

        let mut unrigged = cex;
        unrigged.rig = None;
        unrigged.charge_adversary_bytes = true;
        let parsed = Counterexample::parse(&unrigged.render()).expect("parses");
        assert_eq!(parsed, unrigged);

        for seed in [12_835_850_853_227_824_550, u64::MAX] {
            let odd = Counterexample {
                label: "tab\there µs \"q\"".into(),
                seed,
                violated: Vec::new(),
                ..sample()
            };
            assert_eq!(Counterexample::parse(&odd.render()), Ok(odd));
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(Counterexample::parse("").is_err());
        assert!(Counterexample::parse("{\"schema\":\"wrong\"}").is_err());
        let cex = sample();
        let missing_result: String = cex.render().lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(Counterexample::parse(&missing_result).is_err());
    }

    #[test]
    fn replay_of_a_real_violation_is_clean_on_both_backends() {
        // A live end-to-end pin: run the equivocated unchecked sum once,
        // record what the predicate plane says, and replay the resulting
        // counterexample on both backends.
        let scenario = sample().to_scenario();
        let report = run_scenario_traced(&scenario, mpca_engine::Sequential).expect("runs");
        let violations = violations_of(&scenario, &report);
        assert!(
            violations.iter().any(|v| v.name == "broadcast-consistency"),
            "the equivocated sum must split the replicated value: {violations:?}"
        );
        let summary = report.trace.as_ref().unwrap();
        let first = &violations[0];
        let cex = Counterexample {
            violated: violations.iter().map(|v| v.name.to_string()).collect(),
            digest: summary.digest.clone(),
            events: summary.events,
            span: (
                first.violation.span.start as u64,
                first.violation.span.end as u64,
            ),
            ..sample()
        };
        assert_eq!(
            cex.replay(mpca_engine::Sequential).expect("replays"),
            vec![]
        );
        assert_eq!(
            cex.replay(mpca_engine::Parallel::default())
                .expect("replays"),
            vec![]
        );
    }
}
