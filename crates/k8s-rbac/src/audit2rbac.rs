//! `audit2rbac`: infer the minimal RBAC policy covering a recorded workload.
//!
//! The paper configures the RBAC baseline by processing audit logs of an
//! attack-free run of each operator with Liggitt's `audit2rbac` tool, which
//! emits the least-privilege Role/ClusterRole and bindings for the observed
//! user. This module reimplements that inference: group the user's allowed
//! events by namespace and resource kind, collect the verbs actually used,
//! and emit one role + binding per namespace (plus a cluster role for
//! cluster-scoped resources).

use std::collections::BTreeMap;

use k8s_model::{ResourceKind, Verb};

use crate::audit::AuditEvent;
use crate::evaluator::RbacPolicySet;
use crate::role::{PolicyRule, Role, RoleBinding, Subject};

/// Options controlling the inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit2RbacOptions {
    /// Name prefix for the generated roles and bindings.
    pub name_prefix: String,
    /// Also cover events that were denied at recording time (off by default,
    /// matching the upstream tool).
    pub include_denied: bool,
}

impl Default for Audit2RbacOptions {
    fn default() -> Self {
        Audit2RbacOptions {
            name_prefix: "audit2rbac".to_owned(),
            include_denied: false,
        }
    }
}

/// Infer a least-privilege policy for `user` from audit events.
///
/// The result is the tightest policy RBAC can express for the observed
/// workload: exactly the (namespace, resource kind, verb) triples seen in the
/// log — and nothing about the request bodies.
pub fn audit2rbac(events: &[AuditEvent], user: &str, options: &Audit2RbacOptions) -> RbacPolicySet {
    // (namespace) -> (kind) -> set of verbs
    let mut namespaced: BTreeMap<String, BTreeMap<ResourceKind, Vec<Verb>>> = BTreeMap::new();
    let mut cluster_scoped: BTreeMap<ResourceKind, Vec<Verb>> = BTreeMap::new();

    for event in events {
        if event.user != user {
            continue;
        }
        if !event.allowed && !options.include_denied {
            continue;
        }
        if event.kind.is_namespaced() {
            let ns = if event.namespace.is_empty() {
                "default".to_owned()
            } else {
                event.namespace.clone()
            };
            let verbs = namespaced
                .entry(ns)
                .or_default()
                .entry(event.kind)
                .or_default();
            if !verbs.contains(&event.verb) {
                verbs.push(event.verb);
            }
        } else {
            let verbs = cluster_scoped.entry(event.kind).or_default();
            if !verbs.contains(&event.verb) {
                verbs.push(event.verb);
            }
        }
    }

    let mut policy = RbacPolicySet::new();
    let sanitized_user = user.replace([':', '/'], "-");

    for (namespace, kinds) in namespaced {
        let role_name = format!("{}-{}-{}", options.name_prefix, sanitized_user, namespace);
        let mut role = Role::namespaced(role_name.clone(), namespace.clone());
        for (kind, mut verbs) in kinds {
            verbs.sort();
            role = role.with_rule(PolicyRule::for_kind(kind, verbs));
        }
        policy.add_role(role);
        policy.add_binding(
            RoleBinding::namespaced(format!("{role_name}-binding"), namespace, role_name.clone())
                .with_subject(Subject::user(user)),
        );
    }

    if !cluster_scoped.is_empty() {
        let role_name = format!("{}-{}-cluster", options.name_prefix, sanitized_user);
        let mut role = Role::cluster(role_name.clone());
        for (kind, mut verbs) in cluster_scoped {
            verbs.sort();
            role = role.with_rule(PolicyRule::for_kind(kind, verbs));
        }
        policy.add_role(role);
        policy.add_binding(
            RoleBinding::cluster(format!("{role_name}-binding"), role_name)
                .with_subject(Subject::user(user)),
        );
    }

    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{events_of, AuditEvent};
    use crate::evaluator::AccessReview;

    fn workload() -> Vec<AuditEvent> {
        let operator = |verb, kind, ns, name| ("operator", verb, kind, ns, name, true);
        events_of(&[
            operator(Verb::Create, ResourceKind::Deployment, "prod", "web"),
            operator(Verb::Update, ResourceKind::Deployment, "prod", "web"),
            operator(Verb::Create, ResourceKind::Service, "prod", "web"),
            operator(Verb::Create, ResourceKind::ConfigMap, "prod", "web-config"),
            operator(
                Verb::Create,
                ResourceKind::ValidatingWebhookConfiguration,
                "",
                "hook",
            ),
            // Another user's traffic must not leak into the inferred policy.
            (
                "intruder",
                Verb::Create,
                ResourceKind::Pod,
                "prod",
                "x",
                true,
            ),
            // Denied events are ignored by default.
            (
                "operator",
                Verb::Delete,
                ResourceKind::Secret,
                "prod",
                "s",
                false,
            ),
        ])
    }

    #[test]
    fn inferred_policy_covers_exactly_the_observed_accesses() {
        let policy = audit2rbac(&workload(), "operator", &Audit2RbacOptions::default());

        for (verb, kind) in [
            (Verb::Create, ResourceKind::Deployment),
            (Verb::Update, ResourceKind::Deployment),
            (Verb::Create, ResourceKind::Service),
            (Verb::Create, ResourceKind::ConfigMap),
        ] {
            let review = AccessReview::new("operator", verb, kind, "prod", "");
            assert!(
                policy.authorize(&review).is_allowed(),
                "{verb} {kind} must be allowed"
            );
        }
        let webhook = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::ValidatingWebhookConfiguration,
            "",
            "",
        );
        assert!(policy.authorize(&webhook).is_allowed());
    }

    #[test]
    fn inferred_policy_excludes_unobserved_kinds_verbs_and_users() {
        let policy = audit2rbac(&workload(), "operator", &Audit2RbacOptions::default());

        // Pods were only touched by another user.
        let pods = AccessReview::new("operator", Verb::Create, ResourceKind::Pod, "prod", "");
        assert!(!policy.authorize(&pods).is_allowed());
        // Denied secret deletion is not included.
        let secrets = AccessReview::new("operator", Verb::Delete, ResourceKind::Secret, "prod", "");
        assert!(!policy.authorize(&secrets).is_allowed());
        // The other user gains nothing.
        let intruder = AccessReview::new("intruder", Verb::Create, ResourceKind::Pod, "prod", "");
        assert!(!policy.authorize(&intruder).is_allowed());
        // Unobserved verbs on observed kinds stay denied.
        let delete = AccessReview::new(
            "operator",
            Verb::Delete,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(!policy.authorize(&delete).is_allowed());
    }

    #[test]
    fn include_denied_widens_the_policy() {
        let options = Audit2RbacOptions {
            include_denied: true,
            ..Audit2RbacOptions::default()
        };
        let policy = audit2rbac(&workload(), "operator", &options);
        let secrets = AccessReview::new("operator", Verb::Delete, ResourceKind::Secret, "prod", "");
        assert!(policy.authorize(&secrets).is_allowed());
    }

    #[test]
    fn policy_objects_follow_naming_convention() {
        let policy = audit2rbac(&workload(), "operator", &Audit2RbacOptions::default());
        assert!(policy
            .roles()
            .iter()
            .any(|r| r.name == "audit2rbac-operator-prod"));
        assert!(policy
            .bindings()
            .iter()
            .any(|b| b.name == "audit2rbac-operator-prod-binding"));
        assert!(policy.roles().iter().any(|r| r.name.ends_with("-cluster")));
    }

    #[test]
    fn empty_logs_produce_empty_policies() {
        let policy = audit2rbac(&[], "operator", &Audit2RbacOptions::default());
        assert_eq!(policy.object_count(), 0);
    }
}
