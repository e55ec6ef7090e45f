//! The denial ring is a codec: a refusal is encoded into a flat slot and
//! `denials()` decodes it. For every manifest of the attack catalog, in both
//! wire formats, what comes back out is the record the validator's verdict
//! describes — through slots that earlier, differently shaped records filled.

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{
    DenialRecord, EnforcementProxy, GeneratorConfig, PolicyGenerator, RawVerdict, ValidatorSet,
};

#[test]
fn every_catalog_denial_round_trips_through_the_ring() {
    let mut validators = ValidatorSet::new();
    for operator in Operator::ALL {
        let config = GeneratorConfig::for_release(operator.release_name());
        validators.push(
            PolicyGenerator::new(config)
                .generate(&operator.chart())
                .unwrap(),
        );
    }
    // Sixteen slots for 150 denials: most land on an evicted record.
    let proxy = EnforcementProxy::with_denial_capacity(ApiServer::new(), validators, 16);
    let mut denied = 0;
    for operator in Operator::ALL {
        let executor = AttackExecutor::new(
            &operator.user(),
            operator.namespace(),
            DeploymentDriver::new(operator).objects().to_vec(),
        );
        for (spec, object) in executor.malicious_objects() {
            for request in [
                ApiRequest::create(&operator.user(), &object),
                ApiRequest::create_json(&operator.user(), &object),
            ] {
                let format = request.wire_format().expect("a body");
                let text = String::from_utf8(request.payload().to_vec()).unwrap();
                let RawVerdict::Denied {
                    violations,
                    location,
                } = proxy.validators().validate_raw_format(&text, format)
                else {
                    panic!("{operator} {}: the catalog is refused", spec.id);
                };
                assert!(proxy.handle(&request).is_denied());
                denied += 1;
                assert_eq!(
                    proxy.denials().last(),
                    Some(&DenialRecord {
                        user: request.user.clone(),
                        kind: request.kind,
                        object_name: request.name.clone(),
                        violations,
                        location,
                    }),
                    "{operator} {} as {}",
                    spec.id,
                    format.name()
                );
            }
        }
    }
    assert_eq!(denied, 150);
    assert_eq!(proxy.dropped_denials(), 150 - 16);
}
