//! "Legitimate workload actions were unaffected" (Section VI-D): every object
//! of every operator's default deployment must pass its own validator, and a
//! full deployment through the KubeFence proxy must succeed end to end. The
//! verdicts are the served ones: the stream's, on wire bytes in both formats.

use k8s_apiserver::{ApiServer, StoreBackend};
use k8s_model::K8sObject;
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{
    BodyFormat, EnforcementProxy, GeneratorConfig, PolicyGenerator, RawVerdict, ValidatorSet,
};

/// Send the object to the set as YAML and as JSON wire bytes; panic with the
/// served verdict if either format is refused.
fn assert_served_admits(set: &ValidatorSet, object: &K8sObject, context: &str) {
    for (text, format) in [
        (kf_yaml::to_yaml(object.body()), BodyFormat::Yaml),
        (kf_yaml::to_json(object.body()), BodyFormat::Json),
    ] {
        let verdict = set.validate_raw_format(&text, format);
        assert_eq!(
            verdict,
            RawVerdict::Admitted,
            "{context}: legitimate object {}/{} refused as {}",
            object.kind(),
            object.name(),
            format.name()
        );
    }
}

#[test]
fn every_default_object_passes_its_own_validator() {
    for operator in Operator::ALL {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())
            .unwrap();
        let set = ValidatorSet::single(validator);
        for object in operator.workload().default_objects() {
            assert_served_admits(&set, &object, operator.name());
        }
    }
}

#[test]
fn full_deployments_succeed_through_the_proxy() {
    for operator in Operator::ALL {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())
            .unwrap();
        let server = ApiServer::new().with_admin(&operator.user());
        let proxy = EnforcementProxy::new(server, validator);
        let driver = DeploymentDriver::new(operator);
        let outcomes = driver.deploy(&proxy);
        let failures: Vec<_> = outcomes
            .iter()
            .filter(|o| !o.response.is_success())
            .map(|o| format!("{} {}: {}", o.kind, o.object_name, o.response.message))
            .collect();
        assert!(failures.is_empty(), "{operator}: {failures:?}");
        assert_eq!(proxy.stats().denied, 0, "{operator}");
        assert_eq!(
            proxy.upstream().store().len(),
            driver.objects().len(),
            "{operator}: not all objects were persisted"
        );
    }
}

#[test]
fn user_value_overrides_within_the_chart_space_are_still_accepted() {
    // A user changes replica counts and resource sizes (values the chart
    // exposes): the resulting manifests stay inside the validator.
    let operator = Operator::Nginx;
    let set = ValidatorSet::single(
        PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())
            .unwrap(),
    );
    let overrides = kf_yaml::parse(
        "replicaCount: 5\nresources:\n  limits:\n    cpu: 2000m\n    memory: 1Gi\n  requests:\n    cpu: 1000m\n    memory: 512Mi\nservice:\n  type: ClusterIP\n",
    )
    .unwrap();
    let manifests =
        helm_lite::render_chart(&operator.chart(), Some(&overrides), operator.release_name())
            .unwrap();
    for manifest in manifests {
        let object = K8sObject::from_value(manifest.document).unwrap();
        assert_served_admits(&set, &object, "override deployment");
    }
}
