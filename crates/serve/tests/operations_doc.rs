//! `docs/OPERATIONS.md` cannot drift from the implementation: the runbook
//! promises to document **every** field of the `metrics` frame, so this
//! suite serializes a real frame from a live `Service` and cross-checks
//! the field inventory both ways — every wire key must be documented
//! (backticked in a table row), and every field-looking table row must
//! name a real wire key. Each row's units column must equal the unit the
//! field's row in `MetricsSnapshot`'s table declares (`FIELDS`), again
//! both ways. A prose pass then pins the operator-facing claims that
//! regress silently (the 0-as-unknown RSS sentinel, the governance tuning
//! section).

use mmd_serve::protocol::{response_to_value, Response};
use mmd_serve::service::{ServeConfig, Service};
use mmd_serve::MetricsSnapshot;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn operations_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OPERATIONS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The canonical metrics-frame keys, taken from a frame a real service
/// serialized — not from a hand-maintained list that could itself drift.
fn wire_keys() -> Vec<String> {
    let instance = mmd_workload::ClusteredConfig::decomposable(2, 3, 2).generate(7);
    let service = Service::new(instance, ServeConfig::default()).expect("initial solve");
    let value = response_to_value(&Response::Metrics(Box::new(service.metrics_snapshot())));
    let Value::Object(entries) = value else {
        panic!("metrics frame is not an object");
    };
    entries
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k != "ok" && k != "kind")
        .collect()
}

/// Fields documented by the runbook with their units: the first
/// backticked token and the second column of every markdown table row
/// (`| `field` | units | ... |`).
fn documented_units(doc: &str) -> BTreeMap<String, String> {
    doc.lines()
        .filter_map(|line| {
            let row = line.trim().strip_prefix("| `")?;
            let (field, rest) = row.split_once('`')?;
            let units = rest.split('|').nth(1)?.trim();
            Some((field.to_string(), units.to_string()))
        })
        .collect()
}

#[test]
fn every_metrics_field_is_documented_and_nothing_else() {
    let doc = operations_doc();
    let documented: BTreeSet<String> = documented_units(&doc).into_keys().collect();
    let keys = wire_keys();
    assert!(
        keys.len() >= 30,
        "suspiciously few metrics keys ({}) — extraction broken?",
        keys.len()
    );
    for key in &keys {
        assert!(
            documented.contains(key),
            "metrics field `{key}` is missing from docs/OPERATIONS.md \
             (every frame field must have a table row)"
        );
    }
    let real: BTreeSet<&str> = keys.iter().map(String::as_str).collect();
    for field in &documented {
        assert!(
            real.contains(field.as_str()),
            "docs/OPERATIONS.md documents `{field}`, which is not a field \
             of the real metrics frame (stale doc or typo)"
        );
    }
}

#[test]
fn every_units_column_matches_the_field_table() {
    let documented = documented_units(&operations_doc());
    let declared: BTreeMap<String, String> = MetricsSnapshot::FIELDS
        .iter()
        .map(|&(key, unit)| (key.to_string(), unit.to_string()))
        .collect();
    for (key, unit) in &declared {
        assert_eq!(
            documented.get(key),
            Some(unit),
            "docs/OPERATIONS.md units of `{key}` differ from its `MetricsSnapshot` row"
        );
    }
    for (field, units) in &documented {
        assert_eq!(
            declared.get(field),
            Some(units),
            "docs/OPERATIONS.md documents `{field}` in `{units}`, which no \
             `MetricsSnapshot` row declares"
        );
    }
    // The table is the frame: same keys, same order.
    let table: Vec<&str> = MetricsSnapshot::FIELDS
        .iter()
        .map(|&(key, _)| key)
        .collect();
    assert_eq!(table, wire_keys());
}

#[test]
fn runbook_pins_the_operator_facing_claims() {
    let doc = operations_doc();
    // The governance counters exist to be *read* — the runbook must say
    // what trips them and what to turn when they climb.
    for needle in [
        "`budget_soft_trips`",
        "`budget_hard_trips`",
        "`degraded_applies`",
        "`stale_gap_fraction`",
        "`deferred_full_resolves`",
        "--budget-ms",
        "--budget-action",
        "Tuning",
        "Degradation playbook",
    ] {
        assert!(doc.contains(needle), "OPERATIONS.md must cover {needle}");
    }
    // The PR 8/9 instance-footprint fields and two-level counters.
    for needle in [
        "`lane_mode`",
        "`peak_rss_bytes`",
        "`super_shards`",
        "`dirty_super_fraction`",
        "`inner_cache_hits`",
        "`inner_cache_misses`",
    ] {
        assert!(doc.contains(needle), "OPERATIONS.md must cover {needle}");
    }
    // The 0-as-unknown RSS sentinel, stated as a warning.
    assert!(
        doc.contains(r#"`0` means "unknown"#),
        "OPERATIONS.md must state the peak_rss_bytes == 0 sentinel"
    );
}
