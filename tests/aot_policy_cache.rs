//! The ahead-of-time policy cache stores the policy itself: a set loaded
//! from it equals the set saved, takes security locks, and has the same
//! stream and reference verdicts as the generated set on the five charts'
//! default manifests and Table II's injections. The decoder's refusals are
//! pinned beside it, in `crates/core/src/aot.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use k8s_model::K8sObject;
use kf_attacks::AttackExecutor;
use kf_workloads::Operator;
use kf_yaml::BodyFormat;
use kubefence::{
    load_validator_set, save_validator_set, GeneratorConfig, PolicyGenerator, RawVerdict,
    SecurityLocks, Validator, ValidatorSet,
};

/// A fresh cache path under the temporary directory; each test removes
/// what it wrote once it passes.
fn temp_path(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "kf-aot-cache-{label}-{}-{}.kfaot",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The five operators' validators, generated with `locks`.
fn generate(locks: &SecurityLocks) -> ValidatorSet {
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        let config = GeneratorConfig {
            security_locks: locks.clone(),
            ..GeneratorConfig::for_release(operator.release_name())
        };
        set.push(
            PolicyGenerator::new(config)
                .generate(&operator.chart())
                .expect("built-in charts generate valid policies"),
        );
    }
    set
}

/// `set` after a save and a load.
fn round_trip(set: &ValidatorSet) -> ValidatorSet {
    let path = temp_path("round-trip");
    save_validator_set(&path, set).expect("cache writes");
    let loaded = load_validator_set(&path)
        .expect("cache loads")
        .expect("cache present");
    std::fs::remove_file(&path).ok();
    loaded
}

/// Every chart's default manifests and Table II's injections into them,
/// each with whether it is a default manifest.
fn bodies() -> Vec<(K8sObject, bool)> {
    let mut bodies = Vec::new();
    for operator in Operator::ALL {
        let defaults = operator.workload().default_objects();
        let executor =
            AttackExecutor::new(&operator.user(), operator.namespace(), defaults.clone());
        let attacks = executor.malicious_objects();
        assert_eq!(
            attacks.len(),
            15,
            "{operator}: one object per catalog entry"
        );
        bodies.extend(defaults.into_iter().map(|object| (object, true)));
        bodies.extend(attacks.into_iter().map(|(_, object)| (object, false)));
    }
    bodies
}

/// Whether two verdicts admit alike and report the same violations (the
/// stream also reports where it decided; the reference does not).
fn same_decision(a: &RawVerdict, b: &RawVerdict) -> bool {
    match (a, b) {
        (RawVerdict::Admitted, RawVerdict::Admitted) => true,
        (RawVerdict::Denied { violations: x, .. }, RawVerdict::Denied { violations: y, .. }) => {
            x == y
        }
        _ => false,
    }
}

#[test]
fn five_chart_sets_round_trip_with_and_without_locks() {
    let bodies = bodies();
    for locks in [SecurityLocks::none(), SecurityLocks::best_practices()] {
        let generated = generate(&locks);
        let loaded = round_trip(&generated);
        assert_eq!(loaded, generated, "{} locks", locks.len());
        // The codec is canonical: the loaded set saves to the same bytes.
        let (a, b) = (temp_path("canonical"), temp_path("canonical"));
        save_validator_set(&a, &generated).unwrap();
        save_validator_set(&b, &loaded).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        for (object, default) in &bodies {
            for (text, format) in [
                (kf_yaml::to_yaml(object.body()), BodyFormat::Yaml),
                (kf_yaml::to_json(object.body()), BodyFormat::Json),
            ] {
                let stream = generated.validate_raw_format(&text, format);
                let reference = generated.validate_raw_tree_format(&text, format);
                assert!(same_decision(&stream, &reference), "{text}");
                assert_eq!(loaded.validate_raw_format(&text, format), stream, "{text}");
                assert_eq!(
                    loaded.validate_raw_tree_format(&text, format),
                    reference,
                    "{text}"
                );
                assert!(stream.is_admitted() || !default, "{text}");
            }
        }
    }
}

#[test]
fn a_loaded_validator_takes_security_locks_and_admits_its_charts_manifests() {
    let unlocked = generate(&SecurityLocks::none());
    let loaded = round_trip(&unlocked);
    let pipeline = generate(&SecurityLocks::best_practices());
    for (index, operator) in Operator::ALL.into_iter().enumerate() {
        let defaults: Vec<String> = operator
            .workload()
            .default_objects()
            .iter()
            .map(|object| kf_yaml::to_yaml(object.body()))
            .collect();
        let admits_defaults = |validator: &Validator| {
            let set = ValidatorSet::single(validator.clone());
            defaults
                .iter()
                .all(|text| set.validate_raw(text) == RawVerdict::Admitted)
        };
        // The best-practice locks this chart's defaults do not conflict
        // with: those the generated validator still admits them under.
        let mut locks = SecurityLocks::none();
        for lock in SecurityLocks::best_practices().locks() {
            let mut probe = unlocked.validators()[index].clone();
            probe.apply_security_locks(&SecurityLocks::none().with_lock(lock.clone()));
            if admits_defaults(&probe) {
                locks = locks.with_lock(lock.clone());
            }
        }
        assert!(!locks.is_empty(), "{operator}: some lock fits");
        let mut locked = loaded.validators()[index].clone();
        locked.apply_security_locks(&locks);
        assert!(admits_defaults(&locked), "{operator}");
        assert_eq!(&locked, &pipeline.validators()[index], "{operator}");
    }
}

#[test]
fn loaded_validators_with_different_policies_compare_unequal() {
    let deployment = |replicas: &str| {
        kf_yaml::parse(&format!(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: {replicas}\n"
        ))
        .unwrap()
    };
    let cached = |replicas: &str| {
        round_trip(&ValidatorSet::single(
            Validator::from_manifests("demo", &[deployment(replicas)]).unwrap(),
        ))
    };
    assert_eq!(cached("int"), cached("int"));
    assert_ne!(cached("int"), cached("3"));
}

#[test]
fn a_loaded_set_has_the_generated_sets_reference_verdict() {
    let generated = generate(&SecurityLocks::best_practices());
    let loaded = round_trip(&generated);
    for operator in Operator::ALL {
        for object in operator.workload().default_objects() {
            let text = kf_yaml::to_json(object.body());
            let reference = loaded.validate_raw_tree_format(&text, BodyFormat::Json);
            assert_eq!(
                reference,
                generated.validate_raw_tree_format(&text, BodyFormat::Json)
            );
            assert_eq!(
                reference,
                RawVerdict::Admitted,
                "{operator} {}",
                object.name()
            );
        }
    }
}
