//! Snapshot capture and its JSON exposition (schema
//! `mpc-aborts/metrics/v1`).
//!
//! A [`Snapshot`] is a point-in-time copy of every registered metric —
//! plain data, decoupled from the live atomics, safe to serialise or
//! diff. The JSON format round-trips ([`Snapshot::from_json`]) so the
//! emitted artefact can be validated against the checked-in schema
//! fixture (`tests/golden/metrics_schema.json`) without external parsers.

use std::fmt::Write as _;

use crate::json::{escape, Json};
use crate::registry::{Histogram, Registry, HISTOGRAM_BUCKETS};

/// The snapshot JSON schema identifier.
pub const METRICS_SCHEMA: &str = "mpc-aborts/metrics/v1";

/// A point-in-time copy of one histogram: count, sum, and the non-empty
/// buckets as `(inclusive upper bound, count)` pairs in bound order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Non-empty buckets, `(upper_bound, count)`, ascending bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Copies the live histogram.
    pub fn of(histogram: &Histogram) -> Self {
        let counts = histogram.bucket_counts();
        let buckets = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| (upper_bound(i), *c))
            .collect();
        Self {
            count: histogram.count(),
            sum: histogram.sum(),
            buckets,
        }
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else if bucket == 0 {
        0
    } else {
        (1u64 << bucket) - 1
    }
}

/// A point-in-time copy of the whole registry, name-sorted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Captures the global registry.
    pub fn capture() -> Self {
        Self::of(Registry::global())
    }

    /// Captures a specific registry.
    pub fn of(registry: &Registry) -> Self {
        Self {
            counters: registry.counter_values(),
            histograms: registry
                .histogram_handles()
                .into_iter()
                .map(|(name, h)| (name, HistogramSnapshot::of(h)))
                .collect(),
        }
    }

    /// Serialises to the `mpc-aborts/metrics/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
        out.push_str("  \"counters\": [\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"value\": {value}}}{comma}",
                escape(name)
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"histograms\": [\n");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(bound, count)| format!("[{bound}, {count}]"))
                .collect();
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{comma}",
                escape(name),
                h.count,
                h.sum,
                buckets.join(", ")
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `mpc-aborts/metrics/v1` document back into a snapshot.
    /// Returns `None` on malformed input or a wrong schema identifier —
    /// the round-trip contract the schema-fixture test enforces.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        let doc = Json::parse(text).ok()?;
        if doc.get("schema")?.as_str()? != METRICS_SCHEMA {
            return None;
        }
        let entries = |key: &str| doc.get(key).and_then(Json::as_array);
        let name = |entry: &Json| Some(entry.get("name")?.as_str()?.to_string());
        let u64_of = |entry: &Json, key: &str| entry.get(key)?.as_u64();
        let counters = entries("counters")?
            .iter()
            .map(|c| Some((name(c)?, u64_of(c, "value")?)))
            .collect::<Option<_>>()?;
        let histograms = entries("histograms")?
            .iter()
            .map(|h| {
                let buckets = h
                    .get("buckets")?
                    .as_array()?
                    .iter()
                    .map(|pair| match pair.as_array()? {
                        [bound, count] => Some((bound.as_u64()?, count.as_u64()?)),
                        _ => None,
                    })
                    .collect::<Option<_>>()?;
                let snapshot = HistogramSnapshot {
                    count: u64_of(h, "count")?,
                    sum: u64_of(h, "sum")?,
                    buckets,
                };
                Some((name(h)?, snapshot))
            })
            .collect::<Option<_>>()?;
        Some(Snapshot {
            counters,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                ("net.phase.bytes.setup".into(), 4096),
                ("payload.materialised.buffers".into(), 12),
            ],
            histograms: vec![(
                "engine.session.wall_us".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 1100,
                    buckets: vec![(127, 1), (1023, 2)],
                },
            )],
        }
    }

    #[test]
    fn json_round_trips() {
        let snapshot = sample();
        let json = snapshot.to_json();
        assert!(json.contains(METRICS_SCHEMA));
        let parsed = Snapshot::from_json(&json).expect("parses back");
        assert_eq!(parsed, snapshot);
        // A second serialise → parse cycle is a fixed point.
        assert_eq!(Snapshot::from_json(&parsed.to_json()), Some(snapshot));
    }

    #[test]
    fn wrong_schema_and_garbage_are_rejected() {
        let json = sample().to_json().replace(METRICS_SCHEMA, "other/v9");
        assert_eq!(Snapshot::from_json(&json), None);
        assert_eq!(Snapshot::from_json("not json"), None);
        assert_eq!(Snapshot::from_json("{}"), None, "schema is mandatory");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = Snapshot::default();
        assert_eq!(Snapshot::from_json(&empty.to_json()), Some(empty));
    }

    #[test]
    fn json_escapes_hostile_metric_names() {
        // Names with JSON-significant characters must serialise to valid
        // JSON and survive the round-trip byte-for-byte.
        let snapshot = Snapshot {
            counters: vec![
                ("quote\"inside".into(), 1),
                ("back\\slash".into(), 2),
                ("both\"\\here".into(), 3),
            ],
            histograms: Vec::new(),
        };
        let json = snapshot.to_json();
        assert!(json.contains("quote\\\"inside"));
        assert!(json.contains("back\\\\slash"));
        assert_eq!(Snapshot::from_json(&json), Some(snapshot));
    }

    #[test]
    fn snapshot_of_live_registry() {
        let registry = Registry::default();
        registry.counter("snap.c").add(7);
        registry.histogram("snap.h").record(100);
        let snapshot = Snapshot::of(&registry);
        assert_eq!(snapshot.counters, vec![("snap.c".into(), 7)]);
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histograms[0].1.count, 1);
        assert_eq!(snapshot.histograms[0].1.sum, 100);
        assert_eq!(Snapshot::from_json(&snapshot.to_json()), Some(snapshot));
    }
}
