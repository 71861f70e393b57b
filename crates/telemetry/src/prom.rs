//! Prometheus text exposition for [`Snapshot`]s.
//!
//! [`Snapshot::render_prometheus`] emits the Prometheus text format
//! (version 0.0.4): one `# HELP` and `# TYPE` comment pair per metric
//! family, counters and gauges as single samples, histograms as cumulative
//! `_bucket{le="..."}` series terminated by `le="+Inf"` plus `_sum` and
//! `_count`. Registry names are dotted paths (`engine.queries_served`);
//! Prometheus metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so every
//! other character is rewritten to `_` (and a leading digit gets a `_`
//! prefix). The original dotted name is preserved in the `# HELP` text so
//! the mapping stays discoverable from the scrape itself.

use crate::metrics::{bucket_upper_bound, Snapshot};
use std::fmt::Write as _;

/// Rewrite a registry name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Invalid characters become `_`; a name whose
/// first character is a digit is prefixed with `_`; an empty name becomes
/// `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let valid =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else if valid {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a value destined for a `# HELP` line: Prometheus requires `\\`
/// and newline escaping there.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label *value* for the text exposition format: `\\`, `\"` and
/// newlines must be escaped inside the quoted value.
pub fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One labeled sample of a gauge family: `(label name, label value)` pairs
/// plus the sample value. Label names are sanitized and label values
/// escaped at render time, so callers pass raw strings.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// `(name, value)` label pairs, emitted in the given order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Render one complete *labeled* gauge family: a `# HELP`/`# TYPE` pair
/// followed by one sample line per entry, e.g.
/// `aidx_alert_firing{rule="shed-spike"} 2`. The base exposition
/// ([`Snapshot::render_prometheus`]) has no label dimension — registry
/// instruments are flat names — so families whose identity lives in
/// labels (alert states per rule, health verdicts per column) are
/// rendered through this and appended to the scrape body. An empty
/// sample list renders nothing (a family with no series is noise).
pub fn render_labeled_gauge(name: &str, help: &str, samples: &[LabeledSample]) -> String {
    if samples.is_empty() {
        return String::new();
    }
    let name = sanitize_metric_name(name);
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} gauge");
    for sample in samples {
        let labels = sample
            .labels
            .iter()
            .map(|(k, v)| format!("{}=\"{}\"", sanitize_metric_name(k), escape_label_value(v)))
            .collect::<Vec<_>>()
            .join(",");
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {}", sample.value);
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {}", sample.value);
        }
    }
    out
}

impl Snapshot {
    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Families are emitted in name order (counters, then gauges, then
    /// histograms — each section sorted), so the output is deterministic.
    /// Histograms emit every log₂ bucket cumulatively: `le` carries the
    /// bucket's inclusive upper bound, the final bucket is `le="+Inf"` and
    /// equals `_count`. An empty snapshot renders to an empty string.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        for c in counters {
            let name = sanitize_metric_name(&c.name);
            let _ = writeln!(out, "# HELP {name} aidx counter {}", escape_help(&c.name));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        let mut gauges: Vec<_> = self.gauges.iter().collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for g in gauges {
            let name = sanitize_metric_name(&g.name);
            let _ = writeln!(out, "# HELP {name} aidx gauge {}", escape_help(&g.name));
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.value);
        }
        let mut histograms: Vec<_> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        for h in histograms {
            let name = sanitize_metric_name(&h.name);
            let _ = writeln!(out, "# HELP {name} aidx histogram {}", escape_help(&h.name));
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                // the last bucket spans up to u64::MAX — that IS +Inf here
                if i + 1 == h.buckets.len() {
                    break;
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Registry};

    #[test]
    fn sanitizes_names_to_the_prometheus_charset() {
        assert_eq!(sanitize_metric_name("aidx.wal/fsync"), "aidx_wal_fsync");
        assert_eq!(sanitize_metric_name("engine.query_ns"), "engine_query_ns");
        assert_eq!(sanitize_metric_name("already_fine:x"), "already_fine:x");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("sp ace-dash"), "sp_ace_dash");
        for name in ["aidx.wal/fsync", "9lives", "", "ünïcode"] {
            let s = sanitize_metric_name(name);
            let mut chars = s.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(Snapshot::default().render_prometheus(), "");
    }

    #[test]
    fn counters_and_gauges_have_help_type_and_sample_lines() {
        let registry = Registry::new();
        registry.counter("engine.queries_served").add(42);
        registry.gauge("server.in_flight").set(-3);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# HELP engine_queries_served aidx counter engine.queries_served\n"));
        assert!(text.contains("# TYPE engine_queries_served counter\n"));
        assert!(text.contains("engine_queries_served 42\n"));
        assert!(text.contains("# TYPE server_in_flight gauge\n"));
        assert!(text.contains("server_in_flight -3\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let registry = Registry::new();
        let h = registry.histogram("engine.query_ns");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        h.record(1_000_000);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE engine_query_ns histogram\n"));
        // cumulativity: each successive le must carry a >= count
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("engine_query_ns_bucket{le=\"") {
                let (_le, count) = rest.split_once("\"} ").expect("bucket line shape");
                let count: u64 = count.parse().unwrap();
                assert!(count >= last, "cumulative counts never decrease: {line}");
                last = count;
                bucket_lines += 1;
            }
        }
        assert_eq!(
            bucket_lines,
            crate::HISTOGRAM_BUCKETS,
            "one line per bucket"
        );
        assert!(text.contains("engine_query_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("engine_query_ns_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("engine_query_ns_bucket{le=\"3\"} 3\n"));
        // terminal bucket equals _count
        assert!(text.contains("engine_query_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("engine_query_ns_sum 1000004\n"));
        assert!(text.contains("engine_query_ns_count 4\n"));
        let inf_pos = text.find("le=\"+Inf\"").unwrap();
        let last_bucket_pos = text.rfind("_bucket{").unwrap();
        assert!(inf_pos > last_bucket_pos - 1, "+Inf is the terminal bucket");
    }

    #[test]
    fn merge_then_render_equals_render_then_concat_for_disjoint_names() {
        // two snapshots with disjoint, already-ordered name ranges: merging
        // then rendering must equal rendering each and concatenating — the
        // render is purely a function of the (sorted) contents
        let a = Registry::new();
        a.counter("a.hits").add(3);
        let b = Registry::new();
        b.counter("b.hits").add(5);
        let (snap_a, snap_b) = (a.snapshot(), b.snapshot());
        let mut merged = snap_a.clone();
        merged.merge(&snap_b);
        assert_eq!(
            merged.render_prometheus(),
            format!(
                "{}{}",
                snap_a.render_prometheus(),
                snap_b.render_prometheus()
            )
        );
        // and same-name merging adds before rendering (no duplicate family)
        let mut doubled = snap_a.clone();
        doubled.merge(&snap_a);
        assert_eq!(
            doubled.render_prometheus().matches("# TYPE a_hits").count(),
            1
        );
        assert!(doubled.render_prometheus().contains("a_hits 6\n"));
    }

    #[test]
    fn every_non_comment_line_parses_as_name_maybe_labels_value() {
        let registry = Registry::new();
        registry.counter("engine.queries_served").add(1);
        registry.gauge("g").set(2);
        registry.histogram("h_ns").record(77);
        let text = registry.snapshot().render_prometheus();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "value parses: {line}");
            let name = name_and_labels
                .split_once('{')
                .map(|(n, _)| n)
                .unwrap_or(name_and_labels);
            assert_eq!(name, sanitize_metric_name(name), "name is conformant");
        }
    }

    #[test]
    fn labeled_gauge_family_renders_escaped_samples() {
        let text = render_labeled_gauge(
            "aidx.alert_firing",
            "alert state per rule (0 idle, 1 pending, 2 firing)",
            &[
                LabeledSample {
                    labels: vec![("rule".into(), "shed-spike".into())],
                    value: 2.0,
                },
                LabeledSample {
                    labels: vec![("rule".into(), "quo\"te\\back\nline".into())],
                    value: 0.0,
                },
            ],
        );
        assert!(text.contains("# TYPE aidx_alert_firing gauge\n"), "{text}");
        assert!(
            text.contains("aidx_alert_firing{rule=\"shed-spike\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("{rule=\"quo\\\"te\\\\back\\nline\"} 0\n"),
            "label values escaped: {text}"
        );
        // one line per sample plus the two comment lines, no raw newline
        // smuggled through a label value
        assert_eq!(text.lines().count(), 4, "{text}");
        assert_eq!(render_labeled_gauge("empty", "nothing", &[]), "");
        // multi-label samples join with commas
        let text = render_labeled_gauge(
            "aidx.index_health",
            "verdict per column",
            &[LabeledSample {
                labels: vec![
                    ("table".into(), "data".into()),
                    ("column".into(), "k".into()),
                ],
                value: 2.0,
            }],
        );
        assert!(
            text.contains("aidx_index_health{table=\"data\",column=\"k\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn render_is_deterministic_for_unsorted_snapshots() {
        // hand-assemble a snapshot in reverse name order; render must not
        // depend on insertion order
        let unsorted = Snapshot {
            counters: vec![
                CounterSnapshot {
                    name: "z.counter".into(),
                    value: 2,
                },
                CounterSnapshot {
                    name: "a.counter".into(),
                    value: 1,
                },
            ],
            gauges: vec![
                GaugeSnapshot {
                    name: "z.gauge".into(),
                    value: -1,
                },
                GaugeSnapshot {
                    name: "a.gauge".into(),
                    value: 5,
                },
            ],
            histograms: vec![
                HistogramSnapshot::empty("z.hist"),
                HistogramSnapshot::empty("a.hist"),
            ],
        };
        let mut sorted = unsorted.clone();
        sorted.counters.sort_by(|a, b| a.name.cmp(&b.name));
        sorted.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        sorted.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        assert_ne!(unsorted.counters, sorted.counters, "fixture is unsorted");
        assert_eq!(unsorted.render_prometheus(), sorted.render_prometheus());
        let text = unsorted.render_prometheus();
        let a_pos = text.find("a_counter ").unwrap();
        let z_pos = text.find("z_counter ").unwrap();
        assert!(a_pos < z_pos, "sections render in name order");
    }

    #[test]
    fn hand_built_histogram_snapshot_renders_without_panic() {
        // short bucket vectors (e.g. from older wire peers) must not panic
        let snap = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![HistogramSnapshot {
                name: "short".into(),
                count: 2,
                sum: 3,
                buckets: vec![1, 1],
            }],
        };
        let text = snap.render_prometheus();
        assert!(text.contains("short_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("short_count 2\n"));
    }
}
