//! The paper's effectiveness experiment (Table III): replay the catalog of 15
//! malicious specifications against each operator's cluster, once protected
//! only by a least-privilege RBAC policy and once protected by KubeFence.
//! Expected result: RBAC mitigates none of the attacks, KubeFence mitigates
//! all of them, and in the KubeFence runs no CVE is ever exercised — on the
//! wire bytes the proxy serves, as a YAML-speaking attacker (what `execute`
//! sends) and as a JSON-speaking one.

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
use k8s_rbac::{audit2rbac, Audit2RbacOptions};
use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator};

/// Learn the per-operator RBAC policy the way the paper does: run the
/// attack-free deployment with audit logging enabled, then feed the audit log
/// to `audit2rbac`.
fn learned_rbac_policy(operator: Operator) -> k8s_rbac::RbacPolicySet {
    let learning_server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&learning_server);
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
        .map(|((spec, yaml), (_, object))| {
            let json = ApiRequest {
                namespace: yaml.namespace,
                ..ApiRequest::create_json(&yaml.user, &object)
            };
            (spec.id, json)
        })
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
