//! The paper's effectiveness experiment (Table III): replay the catalog of 15
//! malicious specifications against each operator's cluster, once protected
//! only by a least-privilege RBAC policy and once protected by KubeFence.
//! Expected result: RBAC mitigates none of the attacks, KubeFence mitigates
//! all of them, and in the KubeFence runs no CVE is ever exercised — on the
//! wire bytes the proxy serves, as a YAML-speaking attacker (what `execute`
//! sends) and as a JSON-speaking one.

use k8s_apiserver::{
    ApiRequest, ApiServer, RequestBody, RequestHandler, ResponseStatus, StoreBackend,
};
use k8s_rbac::{audit2rbac, Audit2RbacOptions};
use kf_attacks::AttackExecutor;
use kf_workloads::{json_twin, DeploymentDriver, Operator};
use kf_yaml::BodyFormat;
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator, ValidatorSet};

/// Learn the per-operator RBAC policy the way the paper does: run the
/// attack-free deployment with audit logging enabled, then feed the audit log
/// to `audit2rbac`.
fn learned_rbac_policy(operator: Operator) -> k8s_rbac::RbacPolicySet {
    let learning_server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&learning_server);
    assert_eq!(
        learning_server.audit_dropped(),
        0,
        "{operator}: the replay outgrew the audit log"
    );
    let log = learning_server.audit_log();
    audit2rbac(
        log.events(),
        &operator.user(),
        &Audit2RbacOptions::default(),
    )
}

fn executor_for(operator: Operator) -> AttackExecutor {
    AttackExecutor::new(
        &operator.user(),
        operator.namespace(),
        operator.workload().default_objects(),
    )
}

/// The catalog from a JSON-speaking attacker: the requests `execute` issues,
/// re-encoded from the same malicious objects, by catalog id.
fn json_attacks(executor: &AttackExecutor) -> Vec<(String, ApiRequest)> {
    let attacks: Vec<_> = executor
        .requests()
        .into_iter()
        .zip(executor.malicious_objects())
        .map(|((spec, yaml), (_, object))| (spec.id, json_twin(&yaml, &object)))
        .collect();
    assert_eq!(attacks.len(), 15);
    attacks
}

#[test]
fn rbac_alone_mitigates_no_catalog_attack() {
    for operator in Operator::ALL {
        let policy = learned_rbac_policy(operator);
        let server = ApiServer::new();
        server.set_rbac_policy(Some(policy));
        let executor = executor_for(operator);
        let outcomes = executor.execute(&server);
        let summary = AttackExecutor::summarize(&outcomes);
        assert_eq!(summary.cve_attempted, 8, "{operator}");
        assert_eq!(summary.misconfig_attempted, 7, "{operator}");
        assert!(
            summary.none_mitigated(),
            "{operator}: RBAC unexpectedly blocked an attack: {:?}",
            outcomes.iter().filter(|o| o.mitigated).collect::<Vec<_>>()
        );
        // The accepted exploits really did reach vulnerable code.
        assert!(
            !server.exploits().is_empty(),
            "{operator}: accepted exploits should exercise vulnerable code"
        );
        for (id, attack) in json_attacks(&executor) {
            let response = server.handle(&attack);
            assert!(
                response.is_success(),
                "{operator}: RBAC blocked {id} sent as JSON: {}",
                response.message
            );
        }
    }
}

#[test]
fn kubefence_mitigates_every_catalog_attack() {
    for operator in Operator::ALL {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())
            .unwrap();
        let proxy = EnforcementProxy::new(ApiServer::new(), validator);
        let executor = executor_for(operator);
        let outcomes = executor.execute(&proxy);
        let summary = AttackExecutor::summarize(&outcomes);
        assert_eq!(summary.cve_attempted, 8, "{operator}");
        assert_eq!(summary.misconfig_attempted, 7, "{operator}");
        assert!(
            summary.all_mitigated(),
            "{operator}: unmitigated attacks: {:?}",
            outcomes.iter().filter(|o| !o.mitigated).collect::<Vec<_>>()
        );
        for (id, attack) in json_attacks(&executor) {
            assert!(
                proxy.handle(&attack).is_denied(),
                "{operator}: {id} sent as JSON was not mitigated"
            );
        }
        // Nothing malicious reached the API server, so no CVE was exercised
        // and nothing was persisted.
        assert!(proxy.upstream().exploits().is_empty(), "{operator}");
        assert_eq!(proxy.upstream().store().len(), 0, "{operator}");
        // Every denial names the offending field, and where in the body it
        // sits, for auditing/forensics.
        let denials = proxy.denials();
        assert_eq!(denials.len(), 30, "{operator}");
        for denial in denials {
            assert!(!denial.violations.is_empty(), "{operator}");
            assert!(denial.location.is_some(), "{operator}: {denial:?}");
        }
    }
}

#[test]
fn kubefence_denials_identify_the_targeted_fields() {
    let operator = Operator::Nginx;
    let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .unwrap();
    let proxy = EnforcementProxy::new(ApiServer::new(), validator);
    let outcomes = executor_for(operator).execute(&proxy);
    let host_network = outcomes.iter().find(|o| o.spec_id == "E1").unwrap();
    assert!(host_network.mitigated);
    assert!(
        host_network.message.contains("hostNetwork"),
        "denial message should name the offending field: {}",
        host_network.message
    );
    let run_as_root = outcomes.iter().find(|o| o.spec_id == "M4").unwrap();
    assert!(run_as_root.message.contains("runAsNonRoot"));
}

#[test]
fn kubefence_still_serves_the_legitimate_workload_while_under_attack() {
    // Interleave legitimate deployment requests and attacks through the same
    // proxy: the attacks are denied, the deployment completes untouched.
    let operator = Operator::Rabbitmq;
    let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .unwrap();
    let proxy = EnforcementProxy::new(ApiServer::new().with_admin(&operator.user()), validator);
    let driver = DeploymentDriver::new(operator);
    let legit_requests = driver.requests();
    let attacks = executor_for(operator).malicious_objects();

    let mut denied = 0;
    for (i, request) in legit_requests.iter().enumerate() {
        let response = proxy.handle(request);
        assert!(
            response.is_success(),
            "legitimate request denied: {}",
            response.message
        );
        if let Some((_, malicious)) = attacks.get(i) {
            let attack_request = ApiRequest::create(&operator.user(), malicious);
            if proxy.handle(&attack_request).is_denied() {
                denied += 1;
            }
        }
    }
    assert!(denied > 0);
    assert_eq!(proxy.upstream().store().len(), legit_requests.len());
}

/// go-yaml, the reader behind an API server, ends a line at a lone CR, at
/// U+0085, at U+2028 and at U+2029. Hidden behind any of them after the
/// nginx Deployment's image, `hostNetwork: true` would be a key of the pod
/// spec to the server and part of the image string to a reader that keeps
/// them inside the line, which is how the five-chart set once admitted these
/// bodies. Each is refused as unparsable instead, and the clean body is
/// still admitted.
#[test]
fn a_key_hidden_behind_a_line_break_go_yaml_sees_is_refused() {
    let mut validators = ValidatorSet::new();
    let mut server = ApiServer::new();
    for operator in Operator::ALL {
        let config = GeneratorConfig::for_release(operator.release_name());
        validators.push(
            PolicyGenerator::new(config)
                .generate(&operator.chart())
                .unwrap(),
        );
        server = server.with_admin(&operator.user());
    }
    let proxy = EnforcementProxy::with_validators(server, validators);
    const IMAGE: &str = "nginx:1.25.3-debian-11-r2";
    let (request, text) = DeploymentDriver::new(Operator::Nginx)
        .requests()
        .into_iter()
        .find_map(|request| {
            let text = String::from_utf8(request.payload().to_vec()).unwrap();
            text.contains(IMAGE).then_some((request, text))
        })
        .expect("the nginx chart deploys its image");
    assert!(proxy.handle(&request).is_success());
    let image_end = text.find(IMAGE).unwrap() + IMAGE.len();
    for line_break in ["\r", "\u{85}", "\u{2028}", "\u{2029}"] {
        let body = format!(
            "{}{line_break}      hostNetwork: true{}",
            &text[..image_end],
            &text[image_end..]
        );
        let hidden = ApiRequest {
            body: RequestBody::Raw(body.into(), BodyFormat::Yaml),
            ..request.clone()
        };
        let response = proxy.handle(&hidden);
        assert_eq!(response.status, ResponseStatus::Forbidden, "{line_break:?}");
        assert!(
            response
                .message
                .contains("not a recognizable Kubernetes object")
                && response.message.contains("line break"),
            "{line_break:?}: {}",
            response.message
        );
    }
}
