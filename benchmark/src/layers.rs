//! Per-layer numbers read off the recorded spans.
//!
//! Self time = a span's duration minus what its child spans cover; for every
//! request the self times of its spans must sum to its root span (asserted
//! by [`analyse`]), so the per-layer budget is exhaustive by construction.

use std::collections::{BTreeMap, HashMap};

use crate::stats::Samples;
use crate::trace::{assert_request_budgets, self_times, Span};

/// What [`analyse`] found.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Metric name (as in `BENCHMARK.json`) → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests whose budget was checked.
    pub requests: usize,
    /// Percentiles refused for want of samples, described.
    pub refused: Vec<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Compute the span-derived per-layer metrics.
///
/// # Errors
///
/// A description of the first span-tree inconsistency, or of the first
/// request whose self times do not sum to its root span.
pub fn analyse(spans: &[Span]) -> Result<LayerReport, String> {
    let own = self_times(spans)?;
    let requests = assert_request_budgets(spans, &own)?;

    // The class of each request is its root span's name.
    let class: HashMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.request_id != 0 && s.parent == 0)
        .map(|s| (s.request_id, s.name))
        .collect();
    let class_of = |span: &Span| class.get(&span.request_id).copied().unwrap_or("");

    let mut durations: HashMap<(&'static str, &'static str), Vec<u64>> = HashMap::new();
    let mut selfs: HashMap<(&'static str, &'static str), Vec<u64>> = HashMap::new();
    let (mut root_total, mut proxy_self_total, mut request_spans) = (0u64, 0u64, 0u64);
    for (span, &own) in spans.iter().zip(&own) {
        let key = (span.name, class_of(span));
        durations.entry(key).or_default().push(span.duration_ns());
        selfs.entry(key).or_default().push(own);
        if span.request_id != 0 {
            request_spans += 1;
            if span.parent == 0 {
                root_total += span.duration_ns();
            }
            if span.name == "proxy.handle" {
                proxy_self_total += own;
            }
        }
    }
    let gather =
        |table: &HashMap<(&'static str, &'static str), Vec<u64>>, name: &str, classes: &[&str]| {
            let mut all = Vec::new();
            for ((span_name, class), values) in table {
                if *span_name == name && (classes.is_empty() || classes.contains(class)) {
                    all.extend_from_slice(values);
                }
            }
            Samples::new(all)
        };

    let mut report = LayerReport {
        requests,
        ..LayerReport::default()
    };
    let mut p99 = |samples: &Samples, what: &str| match samples.percentile(99) {
        Ok(value) => value,
        Err(_) if samples.is_empty() => 0,
        Err(refusal) => {
            report.refused.push(format!("{what}: {refusal}"));
            samples.max()
        }
    };

    // The proxy validates requests that carry a body: creates and denials.
    let proxy_self = gather(&selfs, "proxy.handle", &["client.create", "client.deny"]);
    let upsert = gather(&durations, "store.upsert", &[]);
    let fsync = gather(&durations, "io.fsync", &["client.create"]);
    let upsert_p99 = p99(&upsert, "k8s_apiserver.store.upsert_us_p99");
    let fsync_p99 = p99(&fsync, "k8s_apiserver.persist.fsync_us_p99");

    let m = &mut report.metrics;
    m.insert("kubefence.proxy.self_us_p50", us(proxy_self.median()));
    m.insert(
        "kubefence.proxy.self_share",
        proxy_self_total as f64 / root_total.max(1) as f64,
    );
    for (metric, class) in [
        ("k8s_apiserver.server.create_self_us_p50", "client.create"),
        ("k8s_apiserver.server.get_self_us_p50", "client.get"),
        ("k8s_apiserver.server.list_self_us_p50", "client.list"),
    ] {
        m.insert(
            metric,
            us(gather(&selfs, "server.handle", &[class]).median()),
        );
    }
    m.insert(
        "k8s_apiserver.request.to_wire_get_us_p50",
        us(gather(&durations, "client.to_wire", &["client.get"]).median()),
    );
    m.insert(
        "k8s_apiserver.request.to_wire_list_us_p50",
        us(gather(&durations, "client.to_wire", &["client.list"]).median()),
    );
    m.insert(
        "k8s_apiserver.store.ingest_us_p50",
        us(gather(&durations, "store.ingest", &[]).median()),
    );
    m.insert("k8s_apiserver.store.upsert_us_p50", us(upsert.median()));
    m.insert("k8s_apiserver.store.upsert_us_p99", us(upsert_p99));
    m.insert(
        "k8s_apiserver.store.get_ns_p50",
        gather(&durations, "store.get", &[]).median() as f64,
    );
    m.insert(
        "k8s_apiserver.store.list_us_p50",
        us(gather(&durations, "store.list", &[]).median()),
    );
    m.insert(
        "k8s_apiserver.watch.drain_us_p50",
        us(gather(&durations, "watch.drain", &[]).median()),
    );
    m.insert(
        "k8s_apiserver.persist.io_write_us_p50",
        us(gather(&durations, "io.write", &["client.create"]).median()),
    );
    m.insert("k8s_apiserver.persist.fsync_us_p50", us(fsync.median()));
    m.insert("k8s_apiserver.persist.fsync_us_p99", us(fsync_p99));
    // A durable upsert minus its I/O children on the same thread: encode,
    // locks and the commit-window wait. Without a WAL there are no I/O
    // children and no wait to speak of.
    let waited = if fsync.is_empty() {
        0
    } else {
        gather(&selfs, "store.upsert", &[]).median()
    };
    m.insert("k8s_apiserver.persist.upsert_wait_us_p50", us(waited));
    m.insert(
        "trace.spans_per_req",
        request_spans as f64 / requests.max(1) as f64,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        request_id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            request_id,
            name,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn layers_are_read_off_self_times() {
        // One create: 100 µs end to end; proxy 90 of which server 60, of
        // which upsert 40, of which fsync 30.
        let spans = vec![
            span(1, 0, 7, "client.create", 0, 100_000),
            span(2, 1, 7, "proxy.handle", 5_000, 95_000),
            span(3, 2, 7, "server.handle", 20_000, 80_000),
            span(4, 3, 7, "store.upsert", 30_000, 70_000),
            span(5, 4, 7, "io.fsync", 35_000, 65_000),
            // One get: 10 µs, the proxy passes it through.
            span(6, 0, 8, "client.get", 200_000, 210_000),
            span(7, 6, 8, "proxy.handle", 201_000, 207_000),
            span(8, 7, 8, "server.handle", 201_500, 206_500),
            span(9, 8, 8, "store.get", 202_000, 202_400),
            span(10, 6, 8, "client.to_wire", 207_500, 209_500),
        ];
        let report = analyse(&spans).expect("consistent trace");
        assert_eq!(report.requests, 2);
        let m = &report.metrics;
        // Validation cost is read on body-carrying requests only.
        assert_eq!(m["kubefence.proxy.self_us_p50"], 30.0);
        assert_eq!(m["k8s_apiserver.server.create_self_us_p50"], 20.0);
        assert_eq!(m["k8s_apiserver.server.get_self_us_p50"], 4.6);
        assert_eq!(m["k8s_apiserver.store.upsert_us_p50"], 40.0);
        assert_eq!(m["k8s_apiserver.persist.upsert_wait_us_p50"], 10.0);
        assert_eq!(m["k8s_apiserver.persist.fsync_us_p50"], 30.0);
        assert_eq!(m["k8s_apiserver.store.get_ns_p50"], 400.0);
        assert_eq!(m["k8s_apiserver.request.to_wire_get_us_p50"], 2.0);
        assert_eq!(m["trace.spans_per_req"], 5.0);
        // (30 + 1) µs of proxy self time over 110 µs of requests.
        assert!((m["kubefence.proxy.self_share"] - 31.0 / 110.0).abs() < 1e-12);
        // Too few samples for a p99: reported as refused, not invented.
        assert_eq!(report.refused.len(), 2);
    }

    #[test]
    fn an_unbalanced_trace_is_an_error() {
        let spans = vec![
            span(1, 0, 7, "client.create", 0, 100),
            span(2, 1, 7, "proxy.handle", 50, 150),
        ];
        assert!(analyse(&spans).is_err());
    }
}
