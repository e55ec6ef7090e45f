//! `--smoke` runs every workload in both modes through the same code paths
//! and checks as a full run, in seconds; this test runs it and holds the
//! names the binary prints against the names `BENCHMARK.json` declares, so
//! the file and the binary cannot drift apart.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use kf_yaml::Value;

const BINARY: &str = env!("CARGO_BIN_EXE_kf-benchmark");

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    kf_yaml::parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn names(manifest: &Value, section: &str) -> BTreeSet<String> {
    manifest
        .get(section)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every entry is named")
                .to_owned()
        })
        .collect()
}

fn stdout_of(args: &[&str]) -> (bool, String) {
    let output = Command::new(BINARY)
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn benchmark_json_is_the_rendered_catalog() {
    let (ok, printed) = stdout_of(&["--print-manifest"]);
    assert!(ok);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    assert_eq!(
        committed, printed,
        "BENCHMARK.json is stale: regenerate it with --print-manifest"
    );
}

#[test]
fn smoke_run_prints_exactly_the_declared_names() {
    let manifest = manifest();
    let started = std::time::Instant::now();
    let (ok, stdout) = stdout_of(&["--smoke"]);
    let elapsed = started.elapsed();
    assert!(ok, "smoke run failed:\n{stdout}");
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "smoke run took {elapsed:?}"
    );
    let result = kf_yaml::parse_json(stdout.lines().last().expect("output"))
        .expect("the last line is the result");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));

    let declared: BTreeSet<String> = names(&manifest, "end_to_end")
        .union(&names(&manifest, "per_layer"))
        .cloned()
        .collect();
    let workloads = result
        .get("workloads")
        .and_then(Value::as_map)
        .expect("per-workload results");
    assert_eq!(
        workloads.keys().map(str::to_owned).collect::<BTreeSet<_>>(),
        names(&manifest, "workloads"),
        "workload names drifted"
    );
    for (workload, metrics) in workloads.iter() {
        let printed: BTreeSet<String> = metrics
            .as_map()
            .expect("metrics by name")
            .keys()
            .map(str::to_owned)
            .collect();
        assert_eq!(printed, declared, "{workload}: metric names drifted");
    }
    // Every workload states its loop discipline and client count.
    for workload in names(&manifest, "workloads") {
        assert!(
            stdout.contains(&format!("{workload} (untraced, closed loop, ")),
            "{workload} does not state its load"
        );
    }
}

#[test]
fn a_single_run_ends_with_the_contract_result_line() {
    let manifest = manifest();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = stdout_of(&[
            "--workload",
            "deploy_churn",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(ok, "{stdout}");
        let result = kf_yaml::parse_json(stdout.lines().last().expect("output"))
            .expect("the last line is the result");
        let keys: Vec<&str> = result.as_map().expect("an object").keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(result.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
        assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0));
        let metrics = result.get("metrics").and_then(Value::as_map).unwrap();
        assert_eq!(
            metrics.keys().map(str::to_owned).collect::<BTreeSet<_>>(),
            names(&manifest, section)
        );
        for (name, metric) in metrics.iter() {
            assert!(
                metric.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            assert!(
                metric.get("unit").and_then(Value::as_str).is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"][..],
        &["--frobnicate"][..],
    ] {
        let (ok, stdout) = stdout_of(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(stdout.is_empty(), "{args:?} printed a result");
    }
}
