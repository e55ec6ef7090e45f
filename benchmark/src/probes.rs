//! Layer probes: stages that have no seam to put a span on (tokenize vs
//! match, RBAC, materialize, emit, binary encode) are timed by replaying the
//! workload's own pool through the layer's public function alone.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use k8s_apiserver::{RealIo, StorageIo};
use k8s_rbac::{AccessReview, RbacPolicySet};
use kf_yaml::events::Tokenizer;
use kf_yaml::json::JsonTokenizer;
use kf_yaml::BodyFormat;
use kubefence::{RawVerdict, ValidatorSet};

use crate::pool::{Class, Pool};
use crate::stats::Samples;

/// Drain a tokenizer over `text`, returning the number of events (0 when
/// the body does not tokenize — the defect itself is the stream's business).
fn drain_events(text: &str, format: BodyFormat) -> u64 {
    let mut events = 0;
    match format.resolve(text) {
        BodyFormat::Json => {
            let mut tokenizer = JsonTokenizer::new(text);
            while let Ok(Some(event)) = tokenizer.next_event() {
                std::hint::black_box(&event);
                events += 1;
            }
        }
        _ => {
            if let Ok(mut tokenizer) = Tokenizer::new(text) {
                while let Ok(Some(event)) = tokenizer.next_event() {
                    std::hint::black_box(&event);
                    events += 1;
                }
            }
        }
    }
    events
}

fn timed<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let started = Instant::now();
    let result = work();
    (started.elapsed().as_nanos() as u64, result)
}

/// What the device under `dir` answers to the WAL's own I/O pattern: append
/// one record-sized frame, `fdatasync`, through the program's `RealIo`,
/// `rounds` times; the median sync in µs. The end-to-end runs do not wait on
/// the device (see `crate::io::SYNC_SERVICE_TIME`); this says what it would
/// have cost.
pub fn device_fsync_us(dir: &Path, rounds: usize) -> f64 {
    let path = dir.join(format!("device-probe-{}.kfwal", std::process::id()));
    let frame = [0x5au8; 660];
    let mut syncs = Vec::with_capacity(rounds);
    if let Ok(mut file) = RealIo.open_append(&path) {
        for _ in 0..rounds {
            if file.write_all(&frame).is_err() {
                break;
            }
            let (ns, synced) = timed(|| file.sync_data());
            if synced.is_ok() {
                syncs.push(ns);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    p50_us(syncs)
}

fn p50_us(samples: Vec<u64>) -> f64 {
    Samples::new(samples).median() as f64 / 1e3
}

/// Replay the pool through each layer's public function `rounds` times and
/// report the per-layer numbers by their `BENCHMARK.json` names.
pub fn run(
    pool: &Pool,
    set: &ValidatorSet,
    policy: &RbacPolicySet,
    rounds: usize,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let bodies: Vec<_> = pool.bodies().collect();
    let legit: Vec<_> = bodies
        .iter()
        .filter(|(_, _, class)| *class == Class::Create)
        .collect();

    // kf_yaml tokenizers, legitimate bodies only: bytes and events per body
    // are then properties of the manifests, not of where damage landed.
    let (mut yaml_ns, mut yaml_bytes, mut json_ns, mut json_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut events, mut tokenized) = (0u64, 0u64);
    let mut tokenize_ns: Vec<u64> = vec![u64::MAX; legit.len()];
    for _ in 0..rounds {
        for (i, (text, format, _)) in legit.iter().enumerate() {
            let (ns, count) = timed(|| drain_events(text, *format));
            tokenize_ns[i] = tokenize_ns[i].min(ns);
            events += count;
            tokenized += 1;
            match format {
                BodyFormat::Json => {
                    json_ns += ns;
                    json_bytes += text.len() as u64;
                }
                _ => {
                    yaml_ns += ns;
                    yaml_bytes += text.len() as u64;
                }
            }
        }
    }
    out.insert(
        "kf_yaml.tokenize_yaml_ns_per_byte",
        yaml_ns as f64 / yaml_bytes.max(1) as f64,
    );
    out.insert(
        "kf_yaml.tokenize_json_ns_per_byte",
        json_ns as f64 / json_bytes.max(1) as f64,
    );
    out.insert(
        "kf_yaml.events_per_body",
        events as f64 / tokenized.max(1) as f64,
    );

    // kubefence::stream on each class of body; matching cost is validation
    // minus tokenization of the same body (best of `rounds` each, so the
    // subtraction is not between two noisy draws).
    let (mut accept, mut deny, mut unparsable) = (Vec::new(), Vec::new(), Vec::new());
    let mut accept_best: Vec<u64> = vec![u64::MAX; legit.len()];
    let (mut violations, mut denials) = (0u64, 0u64);
    for _ in 0..rounds {
        for (i, (text, format, _)) in legit.iter().enumerate() {
            let (ns, verdict) = timed(|| set.validate_raw_format(text, *format));
            std::hint::black_box(verdict);
            accept.push(ns);
            accept_best[i] = accept_best[i].min(ns);
        }
        for (text, format, class) in &bodies {
            if !class.hostile() {
                continue;
            }
            let (ns, verdict) = timed(|| set.validate_raw_format(text, *format));
            match verdict {
                RawVerdict::Denied {
                    violations: found, ..
                } => {
                    deny.push(ns);
                    violations += found.len() as u64;
                    denials += 1;
                }
                RawVerdict::Unparsable { .. } => unparsable.push(ns),
                RawVerdict::Admitted => {}
            }
        }
    }
    let match_self: Vec<u64> = accept_best
        .iter()
        .zip(&tokenize_ns)
        .map(|(validate, tokenize)| validate.saturating_sub(*tokenize))
        .collect();
    out.insert("kubefence.stream.accept_us_p50", p50_us(accept));
    out.insert("kubefence.stream.match_self_us_p50", p50_us(match_self));
    out.insert("kubefence.stream.deny_us_p50", p50_us(deny));
    out.insert("kubefence.stream.unparsable_us_p50", p50_us(unparsable));
    out.insert(
        "kubefence.stream.violations_per_denial",
        violations as f64 / denials.max(1) as f64,
    );

    // The server's second parse of an admitted body.
    let creates: Vec<_> = pool
        .of_class(Class::Create)
        .iter()
        .map(|&i| &pool.requests[i as usize])
        .collect();
    let (mut parse_tree, mut materialize) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for (text, format, _) in &legit {
            let (ns, tree) = timed(|| match format {
                BodyFormat::Json => kf_yaml::parse_json(text),
                _ => kf_yaml::parse(text),
            });
            std::hint::black_box(tree).expect("legitimate bodies parse");
            parse_tree.push(ns);
        }
        for entry in &creates {
            let (ns, tree) = timed(|| entry.request.materialize_body());
            std::hint::black_box(tree).expect("legitimate bodies materialize");
            materialize.push(ns);
        }
    }
    out.insert("kf_yaml.parse_tree_us_p50", p50_us(parse_tree));
    out.insert(
        "k8s_apiserver.request.materialize_us_p50",
        p50_us(materialize),
    );

    // Emitters and the WAL's binary codec, over the seeded trees.
    let (mut emit_yaml_ns, mut emit_yaml_bytes) = (0u64, 0u64);
    let (mut emit_json_ns, mut emit_json_bytes) = (0u64, 0u64);
    let (mut encode_ns, mut encode_bytes) = (0u64, 0u64);
    for _ in 0..rounds.div_ceil(4) {
        for tree in pool.trees() {
            let (ns, text) = timed(|| kf_yaml::to_yaml(tree));
            emit_yaml_ns += ns;
            emit_yaml_bytes += text.len() as u64;
            let (ns, text) = timed(|| kf_yaml::to_json(tree));
            emit_json_ns += ns;
            emit_json_bytes += text.len() as u64;
            let (ns, bytes) = timed(|| kf_yaml::binary::value_to_bytes(tree));
            encode_ns += ns;
            encode_bytes += bytes.len() as u64;
        }
    }
    out.insert(
        "kf_yaml.emit_yaml_ns_per_byte",
        emit_yaml_ns as f64 / emit_yaml_bytes.max(1) as f64,
    );
    out.insert(
        "kf_yaml.emit_json_ns_per_byte",
        emit_json_ns as f64 / emit_json_bytes.max(1) as f64,
    );
    out.insert(
        "kf_yaml.binary_encode_ns_per_byte",
        encode_ns as f64 / encode_bytes.max(1) as f64,
    );

    // RBAC on every request's access review.
    let reviews: Vec<AccessReview> = pool
        .requests
        .iter()
        .map(|entry| {
            let r = &entry.request;
            AccessReview::new(&r.user, r.verb, r.kind, &r.namespace, &r.name)
        })
        .collect();
    let mut authorize = Vec::new();
    for _ in 0..rounds {
        for review in &reviews {
            let (ns, decision) = timed(|| policy.authorize(review));
            std::hint::black_box(decision);
            authorize.push(ns);
        }
    }
    out.insert(
        "k8s_rbac.authorize_ns_p50",
        Samples::new(authorize).median() as f64,
    );
    out
}
