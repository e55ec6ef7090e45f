//! The RBAC baseline behaves like the paper describes: `audit2rbac` infers a
//! least-privilege policy that admits the recorded workload and nothing else —
//! but, by construction, it cannot constrain specification fields.

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
use k8s_model::{K8sObject, ResourceKind, Verb};
use k8s_rbac::{
    audit2rbac, AccessReview, Audit2RbacOptions, PolicyRule, RbacPolicySet, Role, RoleBinding,
    RoleScope, Subject, SubjectKind,
};
use kf_workloads::{DeploymentDriver, Operator};

fn learned_policy(operator: Operator) -> k8s_rbac::RbacPolicySet {
    let server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&server);
    assert_eq!(
        server.audit_dropped(),
        0,
        "{operator}: the replay outgrew the audit log"
    );
    audit2rbac(
        server.audit_log().events(),
        &operator.user(),
        &Audit2RbacOptions::default(),
    )
}

#[test]
fn learned_policies_admit_the_recorded_workload() {
    for operator in Operator::ALL {
        let policy = learned_policy(operator);
        let server = ApiServer::new();
        server.set_rbac_policy(Some(policy));
        let outcomes = DeploymentDriver::new(operator).deploy(&server);
        assert!(
            DeploymentDriver::all_succeeded(&outcomes),
            "{operator}: replay under the learned policy failed: {:?}",
            outcomes
                .iter()
                .filter(|o| !o.response.is_success())
                .map(|o| (&o.object_name, &o.response.message))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn learned_policies_deny_unused_kinds_and_foreign_users() {
    let operator = Operator::Nginx;
    let policy = learned_policy(operator);
    // Nginx never touches Secrets or Pods.
    for kind in [ResourceKind::Secret, ResourceKind::Pod] {
        let review = AccessReview::new(
            &operator.user(),
            Verb::Create,
            kind,
            operator.namespace(),
            "",
        );
        assert!(
            !policy.authorize(&review).is_allowed(),
            "{kind} should be denied"
        );
    }
    // Another identity gains nothing from this policy.
    let review = AccessReview::new(
        "operator:mlflow",
        Verb::Create,
        ResourceKind::Deployment,
        operator.namespace(),
        "",
    );
    assert!(!policy.authorize(&review).is_allowed());
}

#[test]
fn rbac_cannot_express_field_level_restrictions() {
    // The same endpoint + verb with a benign and a malicious body: RBAC
    // treats both identically (Figure 11's argument).
    let operator = Operator::Nginx;
    let policy = learned_policy(operator);
    let server = ApiServer::new();
    server.set_rbac_policy(Some(policy));

    let benign = operator
        .workload()
        .default_objects()
        .into_iter()
        .find(|o| o.kind() == ResourceKind::Deployment)
        .unwrap();
    let mut malicious_body = benign.body().clone();
    malicious_body
        .set_path(
            &kf_yaml::Path::parse("spec.template.spec.hostNetwork").unwrap(),
            kf_yaml::Value::Bool(true),
        )
        .unwrap();
    let malicious = K8sObject::from_value(malicious_body).unwrap();

    let mut benign_request = ApiRequest::create(&operator.user(), &benign);
    benign_request.namespace = operator.namespace().to_owned();
    let mut malicious_request = ApiRequest::create(&operator.user(), &malicious);
    malicious_request.namespace = operator.namespace().to_owned();

    assert!(server.handle(&benign_request).is_success());
    let response = server.handle(&malicious_request);
    assert!(
        response.is_success(),
        "RBAC has no mechanism to reject the malicious body"
    );
    // …and the exploit is recorded as having reached vulnerable code.
    assert!(server
        .exploits()
        .iter()
        .any(|e| e.cve_id == "CVE-2020-15257"));
}

#[test]
fn audit_logs_contain_request_bodies_that_rbac_cannot_use() {
    // The information needed for field-level decisions is present in the
    // audit log (the paper's Figure 11 shows it), it is just not expressible
    // in RBAC policies.
    let operator = Operator::Mlflow;
    let server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&server);
    let log = server.audit_log();
    assert!(log
        .events()
        .iter()
        .filter(|e| e.verb == Verb::Create)
        .all(|e| e.request_body.is_some()));
}

/// A policy built by hand to reach every branch of the evaluation: user,
/// group and service-account subjects, a ClusterRoleBinding, a RoleBinding
/// to a ClusterRole, a binding to a role that does not exist, and rules
/// restricted by `resourceNames`.
fn hand_built_policy() -> RbacPolicySet {
    let mut policy = RbacPolicySet::new();
    let mut named_config = PolicyRule::for_kind(ResourceKind::ConfigMap, [Verb::Get, Verb::Update]);
    named_config.resource_names = vec!["app-config".to_owned()];
    policy.add_role(
        Role::namespaced("app", "prod")
            .with_rule(PolicyRule::for_kind(
                ResourceKind::Deployment,
                [Verb::Create, Verb::Get, Verb::List],
            ))
            .with_rule(named_config),
    );
    policy.add_binding(
        RoleBinding::namespaced("app-binding", "prod", "app")
            .with_subject(Subject::user("alice"))
            .with_subject(Subject {
                kind: SubjectKind::Group,
                name: "devs".to_owned(),
                namespace: String::new(),
            })
            .with_subject(Subject::service_account("deployer", "prod")),
    );
    policy.add_role(Role::cluster("reader").with_rule(PolicyRule::new(
        [""],
        ["pods", "services"],
        ["get", "list", "watch"],
    )));
    // A RoleBinding to a ClusterRole grants its rules inside "prod" only.
    let mut reader_in_prod = RoleBinding::namespaced("reader-in-prod", "prod", "reader")
        .with_subject(Subject::service_account("a:b", "ops"));
    reader_in_prod.role_scope = RoleScope::Cluster;
    policy.add_binding(reader_in_prod);
    let mut named_secret = PolicyRule::new(["*"], ["secrets"], ["get"]);
    named_secret.resource_names = vec!["tls".to_owned()];
    policy.add_role(
        Role::cluster("webhooks")
            .with_rule(PolicyRule::for_kind(
                ResourceKind::ValidatingWebhookConfiguration,
                [Verb::Create, Verb::Delete],
            ))
            .with_rule(named_secret),
    );
    policy.add_binding(
        RoleBinding::cluster("webhooks-binding", "webhooks")
            .with_subject(Subject::user("bob"))
            .with_subject(Subject::service_account("ctrl", "kube-system")),
    );
    policy.add_binding(
        RoleBinding::namespaced("dangling", "prod", "missing").with_subject(Subject::user("alice")),
    );
    policy
}

#[test]
fn allows_answers_exactly_what_authorize_decides() {
    let mut users: Vec<String> = Operator::ALL.iter().map(Operator::user).collect();
    users.extend(
        [
            "alice",
            "devs",
            "bob",
            "mallory",
            "",
            "system:serviceaccount:prod:deployer",
            "system:serviceaccount:ops:a:b",
            "system:serviceaccount:kube-system:ctrl",
            // Service-account near-misses: a missing part, an extra `:`,
            // empty parts, and a name holding `:` cut short.
            "system:serviceaccount:prod",
            "system:serviceaccount:prod:deployer:",
            "system:serviceaccount:prod::deployer",
            "system:serviceaccount::deployer",
            "system:serviceaccount:prod:",
            "system:serviceaccount::",
            "system:serviceaccount:ops:a",
            "system:serviceaccount:ops:a:b:",
            "system:serviceaccounts:prod:deployer",
        ]
        .map(str::to_owned),
    );
    let mut policies: Vec<(String, RbacPolicySet, &str)> = Operator::ALL
        .into_iter()
        .map(|operator| {
            (
                operator.to_string(),
                learned_policy(operator),
                operator.namespace(),
            )
        })
        .collect();
    policies.push(("hand-built".to_owned(), hand_built_policy(), "prod"));
    for (label, policy, own_namespace) in &policies {
        let (mut checked, mut allowed) = (0, 0);
        for user in &users {
            for verb in Verb::ALL {
                for kind in ResourceKind::ALL {
                    for namespace in ["", own_namespace, "elsewhere"] {
                        for name in ["", "app-config", "tls", "other"] {
                            let review = AccessReview::new(user, verb, kind, namespace, name);
                            let decided = policy.authorize(&review).is_allowed();
                            assert_eq!(
                                policy.allows(user, verb, kind, namespace, name),
                                decided,
                                "{label}: {review:?}"
                            );
                            checked += 1;
                            allowed += usize::from(decided);
                        }
                    }
                }
            }
        }
        // The enumeration reaches both answers for every policy.
        assert!(
            allowed > 0 && allowed < checked,
            "{label}: {allowed} of {checked} allowed"
        );
    }
    // What the hand-built policy's branches decide.
    let policy = hand_built_policy();
    let sa = "system:serviceaccount:ops:a:b";
    for (user, verb, kind, namespace, name, expected) in [
        (
            "alice",
            Verb::List,
            ResourceKind::Deployment,
            "prod",
            "",
            true,
        ),
        (
            "alice",
            Verb::List,
            ResourceKind::Deployment,
            "dev",
            "",
            false,
        ),
        (
            "devs",
            Verb::Get,
            ResourceKind::ConfigMap,
            "prod",
            "app-config",
            true,
        ),
        (
            "devs",
            Verb::Get,
            ResourceKind::ConfigMap,
            "prod",
            "other",
            false,
        ),
        ("devs", Verb::Get, ResourceKind::ConfigMap, "prod", "", true),
        (sa, Verb::Watch, ResourceKind::Pod, "prod", "", true),
        (sa, Verb::Watch, ResourceKind::Pod, "ops", "", false),
        (
            "system:serviceaccount:ops:a",
            Verb::Get,
            ResourceKind::Pod,
            "prod",
            "",
            false,
        ),
        (
            "bob",
            Verb::Get,
            ResourceKind::Secret,
            "anywhere",
            "tls",
            true,
        ),
        (
            "bob",
            Verb::Get,
            ResourceKind::Secret,
            "anywhere",
            "other",
            false,
        ),
        (
            "system:serviceaccount:kube-system:ctrl",
            Verb::Delete,
            ResourceKind::ValidatingWebhookConfiguration,
            "",
            "hook",
            true,
        ),
    ] {
        assert_eq!(
            policy.allows(user, verb, kind, namespace, name),
            expected,
            "{user} {verb} {kind} in {namespace:?} named {name:?}"
        );
    }
}
