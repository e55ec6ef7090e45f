//! Differential test for `ValidatorSet` multi-workload routing: the
//! kind-indexed dispatch — the stream (`validate_raw_format`) and the routed
//! tree walk (`validate_raw_tree_format`) — must admit and deny exactly like
//! an unrouted linear scan over every member's tree walk ([`scan_admits`]).

use k8s_model::{K8sObject, ResourceKind};
use kf_workloads::{Operator, ThroughputDriver};
use kubefence::{BodyFormat, GeneratorConfig, PolicyGenerator, Validator, ValidatorSet};

fn validator_for(operator: Operator) -> Validator {
    PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .expect("built-in charts generate valid policies")
}

/// Two hand-built workloads whose validators overlap on `Deployment` but
/// allow different images: routing must try *both* before denying, exactly
/// like the linear scan.
fn overlapping_pair() -> ValidatorSet {
    let manifest = |image: &str| {
        kf_yaml_parse(&format!(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: app
          image: {image}
"#
        ))
    };
    let a =
        Validator::from_manifests("workload-a", &[manifest("registry.one/app:string")]).unwrap();
    let b =
        Validator::from_manifests("workload-b", &[manifest("registry.two/app:string")]).unwrap();
    let mut set = ValidatorSet::new();
    set.push(a);
    set.push(b);
    set
}

/// The unrouted reference: every member in insertion order, each with its
/// own tree walk, whatever kinds it covers; the set admits when one member
/// reports nothing.
fn scan_admits(set: &ValidatorSet, object: &K8sObject) -> bool {
    set.validators()
        .iter()
        .any(|validator| validator.validate_tree(object).is_empty())
}

/// The routed verdicts on the object's wire text — the stream's and the
/// routed tree walk's, in YAML and in JSON — which must all agree; returns
/// whether they admit.
fn routed_admits(set: &ValidatorSet, object: &K8sObject) -> bool {
    let mut verdicts = Vec::new();
    for (text, format) in [
        (kf_yaml::to_yaml(object.body()), BodyFormat::Yaml),
        (kf_yaml::to_json(object.body()), BodyFormat::Json),
    ] {
        verdicts.push(set.validate_raw_format(&text, format).is_admitted());
        verdicts.push(set.validate_raw_tree_format(&text, format).is_admitted());
    }
    assert!(
        verdicts.iter().all(|admits| *admits == verdicts[0]),
        "routed verdicts disagree on {} {}: {verdicts:?} (stream, tree; yaml, json)",
        object.kind(),
        object.name()
    );
    verdicts[0]
}

fn kf_yaml_parse(text: &str) -> kf_yaml::Value {
    kf_yaml::parse(text).unwrap()
}

fn deployment(image: &str) -> K8sObject {
    K8sObject::from_yaml(&format!(
        r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 2
  template:
    spec:
      containers:
        - name: app
          image: {image}
"#
    ))
    .unwrap()
}

#[test]
fn overlapping_kinds_admit_through_either_member() {
    let set = overlapping_pair();
    // Both validators cover Deployment; the routing table must list both.
    assert_eq!(set.validators_for(ResourceKind::Deployment).len(), 2);
    // Admitted by the first member, by the second member, and by neither.
    let via_a = deployment("registry.one/app:1.0");
    let via_b = deployment("registry.two/app:2.3");
    let via_none = deployment("evil.example/pwn:latest");
    assert!(routed_admits(&set, &via_a));
    assert!(routed_admits(&set, &via_b));
    assert!(!routed_admits(&set, &via_none));
    // And identically under the unrouted scan.
    assert!(scan_admits(&set, &via_a));
    assert!(scan_admits(&set, &via_b));
    assert!(!scan_admits(&set, &via_none));
    // A kind neither workload uses is denied by both dispatchers.
    let secret = K8sObject::minimal(ResourceKind::Secret, "s", "default");
    assert!(!routed_admits(&set, &secret));
    assert!(!scan_admits(&set, &secret));
}

#[test]
fn routed_and_scanned_dispatch_agree_across_all_operator_traffic() {
    // The five operators' validators overlap heavily (Deployment, Service,
    // ConfigMap, Secret, …) — exactly the regime where kind routing could
    // diverge from the linear scan if it mis-indexed.
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        set.push(validator_for(operator));
    }
    let mut checked = 0usize;
    let mut admitted = 0usize;
    for operator in Operator::ALL {
        // Mixed pool: the operator's legitimate requests plus the attack
        // catalog's malicious mutations of them.
        for request in ThroughputDriver::for_operator(operator).requests() {
            let Some(object) = request.object() else {
                continue;
            };
            let routed = routed_admits(&set, &object);
            let scanned = scan_admits(&set, &object);
            assert_eq!(
                routed,
                scanned,
                "dispatch divergence for {} object {} ({})",
                operator.name(),
                object.name(),
                object.kind()
            );
            checked += 1;
            if routed {
                admitted += 1;
            }
        }
    }
    // The corpus must exercise both verdicts for the parity claim to bite.
    assert!(checked > 100, "only {checked} objects checked");
    assert!(admitted > 0, "corpus never admitted");
    assert!(admitted < checked, "corpus never denied");
}

#[test]
fn routing_tables_rebuild_after_push() {
    let mut set = ValidatorSet::new();
    assert!(set.validators_for(ResourceKind::Deployment).is_empty());
    let deployment_object = deployment("registry.one/app:1.0");
    assert!(!routed_admits(&set, &deployment_object));
    // Adding a covering validator after the table was first built must
    // invalidate and rebuild it.
    set.push(
        Validator::from_manifests(
            "late",
            &[kf_yaml_parse(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: app
          image: registry.one/app:string
"#,
            )],
        )
        .unwrap(),
    );
    assert_eq!(set.validators_for(ResourceKind::Deployment).len(), 1);
    assert!(routed_admits(&set, &deployment_object));
}
