//! Snapshot capture and exposition: JSON (schema
//! `mpc-aborts/metrics/v1`) and Prometheus text format.
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

    /// Renders the Prometheus text exposition format (counters as
    /// `counter`, histograms as cumulative `_bucket`/`_sum`/`_count`
    /// series with `le` labels).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, h) in &self.histograms {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(out, "{metric}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{metric}_sum {}", h.sum);
            let _ = writeln!(out, "{metric}_count {}", h.count);
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
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
    fn prometheus_renders_cumulative_buckets() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE net_phase_bytes_setup counter"));
        assert!(text.contains("net_phase_bytes_setup 4096"));
        assert!(text.contains("engine_session_wall_us_bucket{le=\"127\"} 1"));
        // Cumulative: the 1023 bucket includes the 127 bucket's count.
        assert!(text.contains("engine_session_wall_us_bucket{le=\"1023\"} 3"));
        assert!(text.contains("engine_session_wall_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("engine_session_wall_us_sum 1100"));
        assert!(text.contains("engine_session_wall_us_count 3"));
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
    fn prometheus_sanitises_label_unsafe_names() {
        // Prometheus metric names admit only [a-zA-Z0-9_:]; every other
        // byte must be mapped away, including quotes and braces that would
        // otherwise corrupt the exposition syntax.
        let snapshot = Snapshot {
            counters: vec![("evil\"name{with}=weird.chars".into(), 9)],
            histograms: Vec::new(),
        };
        let text = snapshot.to_prometheus();
        assert!(text.contains("evil_name_with__weird_chars 9"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsanitised metric name in {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_exposition_parses_back_to_the_snapshot() {
        // Parse the exposition text back with a minimal Prometheus
        // text-format reader and check it reproduces the snapshot:
        // counters by value, histograms by de-cumulated buckets, sum and
        // count. This is the contract a real scrape depends on.
        let snapshot = sample();
        let text = snapshot.to_prometheus();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut buckets: Vec<(String, u64, u64)> = Vec::new(); // (metric, le, cumulative)
        let mut sums: Vec<(String, u64)> = Vec::new();
        let mut counts: Vec<(String, u64)> = Vec::new();
        let mut types: Vec<(String, String)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                types.push((name.into(), kind.into()));
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap();
            let value: u64 = value.parse().unwrap();
            if let Some((metric, label)) = series.split_once('{') {
                let le = label
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix("\"}"))
                    .unwrap();
                let metric = metric.strip_suffix("_bucket").unwrap();
                if le != "+Inf" {
                    buckets.push((metric.into(), le.parse().unwrap(), value));
                }
            } else if let Some(metric) = series.strip_suffix("_sum") {
                sums.push((metric.into(), value));
            } else if let Some(metric) = series.strip_suffix("_count") {
                counts.push((metric.into(), value));
            } else {
                counters.push((series.into(), value));
            }
        }
        for (name, value) in &snapshot.counters {
            assert!(counters.contains(&(prom_name(name), *value)));
            assert!(types.contains(&(prom_name(name), "counter".into())));
        }
        for (name, h) in &snapshot.histograms {
            let metric = prom_name(name);
            assert!(types.contains(&(metric.clone(), "histogram".into())));
            assert!(sums.contains(&(metric.clone(), h.sum)));
            assert!(counts.contains(&(metric.clone(), h.count)));
            // De-cumulate the scraped buckets and compare per-bucket counts.
            let mut scraped: Vec<(u64, u64)> = buckets
                .iter()
                .filter(|(m, _, _)| *m == metric)
                .map(|(_, le, cum)| (*le, *cum))
                .collect();
            scraped.sort_unstable();
            let mut prev = 0;
            let per_bucket: Vec<(u64, u64)> = scraped
                .iter()
                .map(|(le, cum)| {
                    assert!(*cum >= prev, "cumulative counts must be nondecreasing");
                    let n = cum - prev;
                    prev = *cum;
                    (*le, n)
                })
                .collect();
            assert_eq!(&per_bucket, &h.buckets);
        }
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
