//! Every metric the benchmark prints, by name, with its unit, the direction
//! that counts as better and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen before a change is a regression.
//! `BENCHMARK.json` is this table rendered (`--print-manifest`), and a test
//! holds the two together.

use crate::json::Json;
use crate::workload::WORKLOADS;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// What a user of the system sees; measured with tracing off, every one
/// defined (and never 0) on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_rps", "req/s", true, 0.25),
    e2e("latency_p50_us", "us", false, 0.25),
    e2e("latency_p99_us", "us", false, 0.25),
    e2e("cpu_us_per_req", "us", false, 0.25),
    e2e("rss_peak_mib", "MiB", false, 0.15),
];

/// Single layers, from the traced run; 0 where a workload does not exercise
/// the layer.
pub const PER_LAYER: &[Metric] = &[
    // Client-observed, per verb (single client, tracing off).
    layer("client.create_p50_us", "us", false),
    layer("client.get_p50_us", "us", false),
    layer("client.list_p50_us", "us", false),
    layer("client.deny_p50_us", "us", false),
    layer("client.delivery_lag_p50_us", "us", false),
    layer("client.delivery_lag_p99_us", "us", false),
    layer("client.recovery_s", "s", false),
    layer("client.error_share", "ratio", false),
    // kf_yaml.
    layer("kf_yaml.tokenize_yaml_ns_per_byte", "ns/B", false),
    layer("kf_yaml.tokenize_json_ns_per_byte", "ns/B", false),
    layer("kf_yaml.events_per_body", "count", false),
    layer("kf_yaml.parse_tree_us_p50", "us", false),
    layer("kf_yaml.emit_yaml_ns_per_byte", "ns/B", false),
    layer("kf_yaml.emit_json_ns_per_byte", "ns/B", false),
    layer("kf_yaml.binary_encode_ns_per_byte", "ns/B", false),
    // kubefence::stream.
    layer("kubefence.stream.accept_us_p50", "us", false),
    layer("kubefence.stream.match_self_us_p50", "us", false),
    layer("kubefence.stream.deny_us_p50", "us", false),
    layer("kubefence.stream.unparsable_us_p50", "us", false),
    layer("kubefence.stream.violations_per_denial", "count", false),
    // kubefence::proxy.
    layer("kubefence.proxy.self_us_p50", "us", false),
    layer("kubefence.proxy.self_share", "ratio", false),
    layer("kubefence.proxy.validation_ns_per_req", "ns", false),
    layer("kubefence.proxy.forwarded", "count", true),
    layer("kubefence.proxy.denied", "count", true),
    layer("kubefence.proxy.passthrough", "count", true),
    layer("kubefence.proxy.dropped_denials", "count", false),
    // Set-up, by part.
    layer("kubefence.pipeline.generate_s", "s", false),
    layer("kubefence.aot.load_s", "s", false),
    layer("helm_lite.render_s", "s", false),
    layer("k8s_rbac.audit2rbac_s", "s", false),
    // k8s_rbac.
    layer("k8s_rbac.authorize_ns_p50", "ns", false),
    // k8s_apiserver::server (server span minus store spans).
    layer("k8s_apiserver.server.create_self_us_p50", "us", false),
    layer("k8s_apiserver.server.get_self_us_p50", "us", false),
    layer("k8s_apiserver.server.list_self_us_p50", "us", false),
    // k8s_apiserver::request.
    layer("k8s_apiserver.request.materialize_us_p50", "us", false),
    layer("k8s_apiserver.request.to_wire_get_us_p50", "us", false),
    layer("k8s_apiserver.request.to_wire_list_us_p50", "us", false),
    layer("k8s_apiserver.request.wire_bytes_per_list", "B", false),
    // k8s_apiserver::store.
    layer("k8s_apiserver.store.ingest_us_p50", "us", false),
    layer("k8s_apiserver.store.upsert_us_p50", "us", false),
    layer("k8s_apiserver.store.upsert_us_p99", "us", false),
    layer("k8s_apiserver.store.get_ns_p50", "ns", false),
    layer("k8s_apiserver.store.list_us_p50", "us", false),
    layer("k8s_apiserver.store.items_per_list", "count", false),
    // k8s_apiserver::watch.
    layer("k8s_apiserver.watch.delivered", "count", true),
    layer("k8s_apiserver.watch.coalesced", "count", true),
    layer("k8s_apiserver.watch.coalesce_ratio", "ratio", true),
    layer("k8s_apiserver.watch.evictions", "count", false),
    layer("k8s_apiserver.watch.relists", "count", false),
    layer("k8s_apiserver.watch.events_per_wakeup", "count", true),
    layer("k8s_apiserver.watch.drain_us_p50", "us", false),
    // k8s_apiserver::persist.
    layer("k8s_apiserver.persist.wal_bytes_per_write", "B", false),
    layer(
        "k8s_apiserver.persist.write_calls_per_write",
        "count",
        false,
    ),
    layer("k8s_apiserver.persist.fsyncs_per_write", "count", false),
    layer("k8s_apiserver.persist.avg_group_size", "count", true),
    layer("k8s_apiserver.persist.io_write_us_p50", "us", false),
    layer("k8s_apiserver.persist.fsync_us_p50", "us", false),
    layer("k8s_apiserver.persist.fsync_us_p99", "us", false),
    layer("k8s_apiserver.persist.device_fsync_us_p50", "us", false),
    layer("k8s_apiserver.persist.upsert_wait_us_p50", "us", false),
    layer("k8s_apiserver.persist.checkpoint_ms_p50", "ms", false),
    layer("k8s_apiserver.persist.checkpoint_bytes", "B", false),
    layer(
        "k8s_apiserver.persist.checkpoint_dirty_shards",
        "count",
        false,
    ),
    layer("k8s_apiserver.persist.checkpoints", "count", false),
    layer("k8s_apiserver.persist.replayed_records", "count", false),
    layer("k8s_apiserver.persist.recovered_objects", "count", true),
    layer(
        "k8s_apiserver.persist.disk_bytes_per_live_byte",
        "ratio",
        false,
    ),
    // k8s_apiserver::health.
    layer("k8s_apiserver.health.shed_429", "count", false),
    layer("k8s_apiserver.health.rejected_writes_503", "count", false),
    // The price of the numbers above.
    layer("trace.overhead_share", "ratio", false),
    layer("trace.spans_per_req", "count", false),
];

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

fn direction(metric: &Metric) -> &'static str {
    if metric.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let command: Vec<&str> = vec![
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::object()
        .with("command", command)
        .with("paths", vec!["benchmark"])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::object().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", direction(m))
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::object()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", direction(m))
                    })
                    .collect(),
            ),
        )
}

/// [`manifest`] pretty-printed the way the file is committed: one metric or
/// workload per line.
pub fn manifest_text() -> String {
    let Json::Obj(members) = manifest() else {
        unreachable!("the manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    out.push_str(&item.render());
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render()),
        }
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The limits the driver's contract puts on `BENCHMARK.json`.
    #[test]
    fn the_manifest_is_inside_the_contract() {
        let name_ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}", metric.unit);
            assert!(names.insert(metric.name), "{} declared twice", metric.name);
        }
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name));
            assert!(names.insert(workload.name));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
            assert!(workload.clients <= 2, "the box has two cores");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for metric in END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(manifest_text().len() <= 64 * 1024);
        assert!(kf_yaml::parse_json(&manifest_text()).is_ok());
    }
}
