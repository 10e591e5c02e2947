//! The `campaign --record` / `--replay` artefact: per-scenario trace
//! digests plus the campaign identity needed to re-execute the schedule.
//!
//! The format is JSON lines (one header object, then one object per
//! session) — diffable, greppable, stable. Each line is parsed with
//! [`mpca_metrics::json`], and every string field is written through its
//! [`escape`].

use mpca_metrics::json::{escape, Json};

use crate::TraceSummary;

/// One recorded session: its label and trace digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The scenario/session label (unique within a campaign).
    pub label: String,
    /// Canonical trace digest (see [`digest_hex`](crate::digest_hex)).
    pub digest: String,
    /// Total recorded events.
    pub events: u64,
    /// Milestone events among them.
    pub milestones: u64,
}

/// A recorded campaign trace: the identity to re-execute it (campaign name
/// and seed) plus one [`TraceRecord`] per scenario in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// The campaign name (`standard`, `tiny`, `sweep`, `sweep-tiny`) —
    /// replay rebuilds the schedule from it.
    pub campaign: String,
    /// The campaign seed.
    pub seed: u64,
    /// The backend that recorded the trace (informational: digests are
    /// backend-independent, and replay may use any backend).
    pub backend: String,
    /// Per-session records, in submission order.
    pub sessions: Vec<TraceRecord>,
}

/// One digest disagreement between a recorded trace and its replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// The session label.
    pub label: String,
    /// What the file recorded (`None`: the session is new in the replay).
    pub recorded: Option<String>,
    /// What the replay produced (`None`: the session vanished).
    pub replayed: Option<String>,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: recorded {} vs replayed {}",
            self.label,
            self.recorded.as_deref().unwrap_or("<absent>"),
            self.replayed.as_deref().unwrap_or("<absent>"),
        )
    }
}

impl TraceFile {
    /// Assembles a file from per-session summaries, in submission order.
    pub fn new(
        campaign: impl Into<String>,
        seed: u64,
        backend: impl Into<String>,
        sessions: impl IntoIterator<Item = (String, TraceSummary)>,
    ) -> Self {
        Self {
            campaign: campaign.into(),
            seed,
            backend: backend.into(),
            sessions: sessions
                .into_iter()
                .map(|(label, summary)| TraceRecord {
                    label,
                    digest: summary.digest,
                    events: summary.events,
                    milestones: summary.milestones,
                })
                .collect(),
        }
    }

    /// Renders the JSON lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"mpc-aborts/campaign-trace/v1\",\"campaign\":\"{}\",\
             \"seed\":{},\"backend\":\"{}\",\"sessions\":{}}}\n",
            escape(&self.campaign),
            self.seed,
            escape(&self.backend),
            self.sessions.len(),
        );
        for record in &self.sessions {
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"digest\":\"{}\",\"events\":{},\"milestones\":{}}}\n",
                escape(&record.label),
                escape(&record.digest),
                record.events,
                record.milestones,
            ));
        }
        out
    }

    /// Parses a rendered document. The header must carry every field
    /// [`render`](Self::render) writes, every session line all four of its
    /// fields, and their number must match the header's `sessions` count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, or of a session
    /// count that disagrees with the header.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = Json::parse(lines.next().ok_or("empty trace file")?)
            .map_err(|e| format!("header: {e}"))?;
        if header.get("schema").and_then(Json::as_str) != Some("mpc-aborts/campaign-trace/v1") {
            return Err("missing or unsupported schema header".into());
        }
        let text_of =
            |line: &Json, key: &str| line.get(key).and_then(Json::as_str).map(String::from);
        let count_of = |line: &Json, key: &str| line.get(key).and_then(Json::as_u64);
        let campaign = text_of(&header, "campaign").ok_or("header lacks a campaign name")?;
        let seed = count_of(&header, "seed").ok_or("header lacks a seed")?;
        let count = count_of(&header, "sessions").ok_or("header lacks a session count")?;
        let backend = text_of(&header, "backend").ok_or("header lacks a backend")?;
        let mut sessions = Vec::new();
        for line in lines {
            let record = Json::parse(line).map_err(|e| format!("session line {line}: {e}"))?;
            let label = text_of(&record, "label")
                .ok_or_else(|| format!("session line lacks a label: {line}"))?;
            let digest = text_of(&record, "digest")
                .ok_or_else(|| format!("session line lacks a digest: {line}"))?;
            let events = count_of(&record, "events")
                .ok_or_else(|| format!("session line lacks an event count: {line}"))?;
            let milestones = count_of(&record, "milestones")
                .ok_or_else(|| format!("session line lacks a milestone count: {line}"))?;
            sessions.push(TraceRecord {
                label,
                digest,
                events,
                milestones,
            });
        }
        if sessions.len() as u64 != count {
            return Err(format!(
                "header promises {count} sessions, found {}",
                sessions.len()
            ));
        }
        Ok(Self {
            campaign,
            seed,
            backend,
            sessions,
        })
    }

    /// Compares this recording against a replay's per-session summaries;
    /// an empty result is the replay pass condition. Labels present on only
    /// one side are mismatches too — a replay must reproduce the *schedule*,
    /// not just the digests it happens to share.
    pub fn compare(
        &self,
        replayed: impl IntoIterator<Item = (String, TraceSummary)>,
    ) -> Vec<ReplayMismatch> {
        let mut mismatches = Vec::new();
        let replayed: Vec<(String, TraceSummary)> = replayed.into_iter().collect();
        for record in &self.sessions {
            match replayed.iter().find(|(label, _)| *label == record.label) {
                Some((_, summary)) if summary.digest == record.digest => {}
                Some((_, summary)) => mismatches.push(ReplayMismatch {
                    label: record.label.clone(),
                    recorded: Some(record.digest.clone()),
                    replayed: Some(summary.digest.clone()),
                }),
                None => mismatches.push(ReplayMismatch {
                    label: record.label.clone(),
                    recorded: Some(record.digest.clone()),
                    replayed: None,
                }),
            }
        }
        for (label, summary) in &replayed {
            if !self.sessions.iter().any(|r| r.label == *label) {
                mismatches.push(ReplayMismatch {
                    label: label.clone(),
                    recorded: None,
                    replayed: Some(summary.digest.clone()),
                });
            }
        }
        mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn summary(digest: &str, events: u64) -> TraceSummary {
        TraceSummary {
            digest: digest.into(),
            events,
            milestones: events / 2,
            injected_sends: 0,
            aborts: BTreeMap::new(),
            phase_bytes: mpca_metrics::PhaseBytes::new(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let file = TraceFile::new(
            "sweep-tiny",
            7,
            "sequential",
            vec![
                ("a-n8".to_string(), summary("aa11", 10)),
                ("b-n12".to_string(), summary("bb22", 4)),
            ],
        );
        let text = file.render();
        let back = TraceFile::parse(&text).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.sessions[0].milestones, 5);
    }

    #[test]
    fn escaped_labels_and_large_seeds_round_trip() {
        for seed in [1, 12_835_850_853_227_824_550, u64::MAX] {
            let file = TraceFile::new(
                "tiny \"quoted\"",
                seed,
                "seq\\uential",
                vec![
                    ("label \"x\"\\y".to_string(), summary("dd", 2)),
                    ("tab\there µs\n".to_string(), summary("ee", 3)),
                ],
            );
            let back = TraceFile::parse(&file.render()).unwrap();
            assert_eq!(back, file);
            assert_eq!(back.seed, seed);
            assert_eq!(back.sessions[1].label, "tab\there µs\n");
        }
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(TraceFile::parse("").is_err());
        assert!(TraceFile::parse("{\"schema\":\"wrong\"}\n").is_err());
        assert!(TraceFile::parse(
            "{\"schema\":\"mpc-aborts/campaign-trace/v1\",\"campaign\":\"x\",\"seed\":0}\n\
             {\"label\":\"a\"}\n"
        )
        .is_err());
        // A well-formed file, then one edit at a time.
        let good = TraceFile::new(
            "x",
            0,
            "sequential",
            vec![("a".to_string(), summary("aa", 1))],
        )
        .render();
        assert!(TraceFile::parse(&good).is_ok());
        for (edit, broken) in [
            ("no event count", good.replace(",\"events\":1", "")),
            ("no milestone count", good.replace(",\"milestones\":0", "")),
            (
                "no backend",
                good.replace(",\"backend\":\"sequential\"", ""),
            ),
            (
                "wrong session count",
                good.replace("\"sessions\":1", "\"sessions\":2"),
            ),
        ] {
            assert_ne!(broken, good, "{edit}: the edit must apply");
            assert!(
                TraceFile::parse(&broken).is_err(),
                "{edit} must be rejected"
            );
        }
    }

    #[test]
    fn compare_flags_digest_and_schedule_divergence() {
        let file = TraceFile::new(
            "tiny",
            0,
            "sequential",
            vec![
                ("a".to_string(), summary("aa", 1)),
                ("gone".to_string(), summary("cc", 1)),
            ],
        );
        // Identical replay: clean.
        assert!(file
            .compare(vec![
                ("a".to_string(), summary("aa", 1)),
                ("gone".to_string(), summary("cc", 1)),
            ])
            .is_empty());
        // Digest drift + vanished session + new session: three mismatches.
        let mismatches = file.compare(vec![
            ("a".to_string(), summary("XX", 1)),
            ("new".to_string(), summary("dd", 1)),
        ]);
        assert_eq!(mismatches.len(), 3);
        assert!(mismatches[0].to_string().contains("recorded aa"));
    }
}
