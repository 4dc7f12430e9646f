//! The metric registry: every name and unit the benchmark prints, and the
//! result line built from them. `BENCHMARK.json` must list exactly these
//! (a test below checks it).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("push_p50_us", "us"),
    ("push_tail_us", "us"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
    ("requests_per_s", "1/s"),
    ("gap_fraction", "ratio"),
    ("certified_utility", "utility"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ms", "ms"),
    ("ingest.new_ms", "ms"),
    ("ingest.apply_p50_ms", "ms"),
    ("ingest.apply_tail_ms", "ms"),
    ("ingest.daemon_apply_ms", "ms"),
    ("ingest.push_us", "us"),
    ("ingest.scratch_ratio", "ratio"),
    ("ingest.resolved_shard_fraction", "ratio"),
    ("ingest.full_resolve_fraction", "ratio"),
    ("ingest.inner_cache_hit_ratio", "ratio"),
    ("async.snapshot_ms", "ms"),
    ("async.commit_wait_ms", "ms"),
    ("async.queue_lag_max", "count"),
    ("shard.partition_ms", "ms"),
    ("shard.hierarchy_ms", "ms"),
    ("shard.num_supers", "count"),
    ("shard.num_shards", "count"),
    ("shard.skew_ratio", "ratio"),
    ("shard.bound_ms", "ms"),
    ("shard.water_fill_ms", "ms"),
    ("shard.build_ms", "ms"),
    ("shard.cut_mass_fraction", "ratio"),
    ("algo.solve_batch_ms", "ms"),
    ("algo.scratch_solve_ms", "ms"),
    ("algo.residual_fill_ms", "ms"),
    ("algo.repaired_streams", "count"),
    ("par.speedup", "ratio"),
    ("instance.materialize_ms", "ms"),
    ("instance.lane_bytes", "bytes"),
    ("online.admission_us", "us"),
    ("online.admit_ratio", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.print_us", "us"),
    ("service.handle_us.update", "us"),
    ("service.handle_us.apply", "us"),
    ("service.handle_us.query", "us"),
    ("service.handle_us.certificate", "us"),
    ("service.handle_us.metrics", "us"),
    ("wire.rtt_us", "us"),
    ("wire.overhead_us", "us"),
    ("server.overloaded", "count"),
    ("server.error_rate", "ratio"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead_commit_p50_ms", "ms"),
    ("trace.overhead_read_p50_us", "us"),
    ("self_ms.loadgen", "ms"),
    ("self_ms.wire", "ms"),
    ("self_ms.workload", "ms"),
    ("self_ms.ingest", "ms"),
    ("self_ms.async", "ms"),
    ("self_ms.shard", "ms"),
    ("self_ms.algo", "ms"),
    ("self_ms.par", "ms"),
    ("self_ms.instance", "ms"),
    ("self_ms.online", "ms"),
    ("self_ms.protocol", "ms"),
    ("self_ms.service", "ms"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `registry` taken from `values`. Counts print as JSON
/// integers, values with every digit Rust's shortest round-trip form has.
///
/// # Panics
///
/// Panics if `values` lacks a registered metric, holds an unregistered
/// one, or holds a non-finite value: the output must name exactly the
/// registry, as valid JSON.
#[must_use]
pub fn result_line(
    registry: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    for name in values.keys() {
        assert!(
            registry.iter().any(|(n, _)| n == name),
            "metric {name} is not registered"
        );
    }
    let metrics: Vec<String> = registry
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":true,"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks the {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    }

    fn registered(registry: &[(&str, &str)]) -> Vec<(String, String)> {
        registry
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), registered(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), registered(PER_LAYER));
    }

    #[test]
    fn benchmark_json_names_exactly_the_workloads() {
        let doc = benchmark_json();
        let Some(Value::Array(items)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::String(n)) => n.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_round_trips_and_is_exactly_the_registry() {
        let values: BTreeMap<&str, f64> = END_TO_END.iter().map(|&(n, _)| (n, 1.25)).collect();
        let line = result_line(END_TO_END, &values, 10, 0);
        assert!(line.contains(r#""attempted":10,"failed":0,"#), "{line}");
        let doc: Value = serde_json::from_str(&line).expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Number(1.25)));
        assert_eq!(setup.get("unit"), Some(&Value::String("s".to_string())));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        let _ = result_line(END_TO_END, &BTreeMap::new(), 1, 0);
    }
}
