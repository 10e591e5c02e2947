//! Causal span export: session timings + trace milestones as Chrome
//! trace-event JSON.
//!
//! The output is the classic `{"traceEvents": [...]}` document that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Each session becomes one track (`tid`): an umbrella span for
//! the whole admitted lifetime, a `queue` span for the admission wait, an
//! `exec` span for build + execution, and — when the session retained its
//! trace log — per-phase sub-spans plus milestone instants nested inside
//! `exec`. Rounds carry no wall-clock of their own (the simulator is
//! lockstep), so phase boundaries are mapped **proportionally by round**
//! onto the measured execution interval: round `r` of `R` lands at
//! `exec_start + exec_dur · r / R`. That keeps phase spans honest about
//! *order* and *relative extent* without pretending to per-round timers.

use mpca_engine::SessionReport;
use mpca_metrics::json::escape;
use mpca_metrics::Phase;
use mpca_net::MilestoneKind;

/// A Chrome trace-event JSON document under construction.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

/// The process id every span is filed under (one logical process: the
/// soak harness / pool).
const PID: u64 = 1;

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events queued so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a complete (`"ph": "X"`) span.
    pub fn complete(&mut self, name: &str, cat: &str, ts_us: u64, dur_us: u64, tid: u64) {
        self.events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
            escape(name),
            escape(cat),
            ts_us,
            dur_us,
            PID,
            tid
        ));
    }

    /// Appends a thread-scoped instant (`"ph": "i"`) event.
    pub fn instant(&mut self, name: &str, cat: &str, ts_us: u64, tid: u64) {
        self.events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": {}, \"tid\": {}}}",
            escape(name),
            escape(cat),
            ts_us,
            PID,
            tid
        ));
    }

    /// Adds one session's span tree on track `tid`, with the session
    /// admitted at `admit_ts_us` (microseconds on the trace's clock):
    ///
    /// ```text
    /// [ label ............................................ ]   cat=session
    ///   [ queue ][ exec ................................. ]   cat=pool
    ///              [ phase:setup ][ phase:crs ] ...           cat=phase
    ///              ↑ crs-ready    ↑ committee-announced        cat=milestone
    /// ```
    pub fn add_session(&mut self, report: &SessionReport, admit_ts_us: u64, tid: u64) {
        let queue_us = report.queue_wait.as_micros() as u64;
        let exec_us = report.wall.as_micros() as u64;
        let exec_start = admit_ts_us + queue_us;
        self.complete(
            &report.label,
            "session",
            admit_ts_us,
            queue_us + exec_us,
            tid,
        );
        self.complete("queue", "pool", admit_ts_us, queue_us, tid);
        self.complete("exec", "pool", exec_start, exec_us, tid);

        let Some(log) = report.trace_log.as_deref() else {
            return;
        };
        let rounds = report.rounds.max(1) as u64;
        let at = |round: usize| exec_start + exec_us * (round as u64).min(rounds) / rounds;

        // Phase boundaries: each phase opens at the first milestone that
        // enters it (setup implicitly opens at round 0) and closes where
        // the next observed phase opens.
        let mut boundaries: Vec<(Phase, usize)> = vec![(Phase::Setup, 0)];
        for kind in MilestoneKind::ALL {
            if let Some(round) = log.first_milestone_round(kind) {
                let phase = kind.phase();
                if boundaries.iter().all(|(p, _)| *p != phase) {
                    boundaries.push((phase, round));
                }
            }
        }
        boundaries.sort_by_key(|&(_, round)| round);
        for (i, &(phase, round)) in boundaries.iter().enumerate() {
            let start = at(round);
            let end = boundaries
                .get(i + 1)
                .map(|&(_, next)| at(next))
                .unwrap_or(exec_start + exec_us);
            self.complete(&format!("phase:{phase}"), "phase", start, end - start, tid);
        }
        for kind in MilestoneKind::ALL {
            if let Some(round) = log.first_milestone_round(kind) {
                self.instant(kind.name(), "milestone", at(round), tid);
            }
        }
    }

    /// Renders the trace-event JSON document.
    pub fn render(&self) -> String {
        let mut out =
            String::with_capacity(64 + self.events.iter().map(String::len).sum::<usize>());
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(event);
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_engine::{Sequential, SessionTask};
    use mpca_metrics::json::Json;
    use mpca_net::{Envelope, Milestone, PartyCtx, PartyId, PartyLogic, Simulator, Step};
    use std::time::Duration;

    /// A 3-round toy that walks the phase clock: announces CRS readiness,
    /// then verification, then outputs.
    struct Phased(PartyId, usize);
    impl PartyLogic for Phased {
        type Output = u8;
        fn id(&self) -> PartyId {
            self.0
        }
        fn on_round(
            &mut self,
            round: usize,
            _incoming: &[Envelope],
            ctx: &mut PartyCtx,
        ) -> Step<u8> {
            match round {
                0 => {
                    ctx.milestone(Milestone::CrsReady);
                    for to in PartyId::all(self.1) {
                        if to != self.0 {
                            ctx.send_msg(to, &1u8);
                        }
                    }
                    Step::Continue
                }
                1 => {
                    ctx.milestone(Milestone::VerificationStart);
                    Step::Continue
                }
                _ => Step::Output(7),
            }
        }
    }

    fn traced_report() -> SessionReport {
        let n = 4;
        let task = SessionTask::new("phased", move || {
            let parties = PartyId::all(n).map(|id| Phased(id, n)).collect();
            Simulator::all_honest(n, parties)
        })
        .with_tracing(true)
        .with_trace_logs(true);
        task.run(&Sequential).unwrap()
    }

    #[test]
    fn session_spans_nest_queue_exec_and_phases() {
        let mut report = traced_report();
        report.queue_wait = Duration::from_micros(500);
        let mut trace = ChromeTrace::new();
        trace.add_session(&report, 1_000, 3);
        let json = trace.render();
        let doc = Json::parse(&json).expect("trace-event JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(events.len() >= 5, "umbrella + queue + exec + phases");

        let span = |name: &str| -> (u64, u64) {
            let e = events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("span {name} missing"));
            let ts = e.get("ts").and_then(Json::as_f64).unwrap() as u64;
            let dur = e.get("dur").and_then(Json::as_f64).unwrap() as u64;
            (ts, dur)
        };
        let (s_ts, s_dur) = span("phased");
        let (q_ts, q_dur) = span("queue");
        let (e_ts, e_dur) = span("exec");
        assert_eq!(s_ts, 1_000);
        assert_eq!(q_ts, 1_000);
        assert_eq!(q_dur, 500);
        assert_eq!(e_ts, q_ts + q_dur, "exec starts when queueing ends");
        assert_eq!(s_dur, q_dur + e_dur, "umbrella covers queue + exec");
        // Phase sub-spans sit inside exec and partition it: setup → crs →
        // verification → output (the simulator synthesises OutputDecided).
        let (setup_ts, setup_dur) = span("phase:setup");
        let (crs_ts, crs_dur) = span("phase:crs");
        let (verif_ts, verif_dur) = span("phase:verification");
        let (out_ts, out_dur) = span("phase:output");
        assert_eq!(setup_ts, e_ts);
        assert_eq!(setup_ts + setup_dur, crs_ts, "phases abut");
        assert_eq!(crs_ts + crs_dur, verif_ts);
        assert_eq!(verif_ts + verif_dur, out_ts);
        assert_eq!(out_ts + out_dur, e_ts + e_dur, "last phase closes exec");
        // Milestone instants ride along.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("crs-ready")
                && e.get("ph").and_then(Json::as_str) == Some("i")
        }));
    }

    #[test]
    fn untraced_sessions_export_pool_spans_only() {
        let task = SessionTask::new("plain", || {
            let n = 3;
            let parties = PartyId::all(n).map(|id| Phased(id, n)).collect();
            Simulator::all_honest(n, parties)
        });
        let report = task.run(&Sequential).unwrap();
        let mut trace = ChromeTrace::new();
        trace.add_session(&report, 0, 1);
        assert_eq!(trace.len(), 3, "umbrella + queue + exec, no phases");
        assert!(Json::parse(&trace.render()).is_ok());
    }

    #[test]
    fn labels_escape_into_valid_json() {
        let mut trace = ChromeTrace::new();
        trace.complete("weird \"label\"\\with\nescapes", "session", 0, 10, 1);
        let doc = Json::parse(&trace.render()).expect("escaped labels still parse");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("weird \"label\"\\with\nescapes")
        );
    }
}
