//! The RBAC authorization evaluator consulted by the API server.

use k8s_model::{ResourceKind, Verb};

use crate::role::{Role, RoleBinding, RoleScope};

/// An authorization question: may `user` perform `verb` on `kind` in
/// `namespace` (optionally on a specific object `name`)?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessReview {
    /// Authenticated user name.
    pub user: String,
    /// Requested verb.
    pub verb: Verb,
    /// Target resource kind.
    pub kind: ResourceKind,
    /// Target namespace (empty for cluster-scoped kinds).
    pub namespace: String,
    /// Target object name (empty for collection operations).
    pub name: String,
}

impl AccessReview {
    /// Build an access review.
    pub fn new(user: &str, verb: Verb, kind: ResourceKind, namespace: &str, name: &str) -> Self {
        AccessReview {
            user: user.to_owned(),
            verb,
            kind,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
        }
    }
}

/// The outcome of an authorization check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessDecision {
    /// The request is allowed; the string names the role and binding that
    /// granted it.
    Allow {
        /// `binding/role` that granted the access.
        granted_by: String,
    },
    /// No rule allows the request.
    Deny {
        /// Human-readable reason.
        reason: String,
    },
}

impl AccessDecision {
    /// Whether the decision allows the request.
    pub fn is_allowed(&self) -> bool {
        matches!(self, AccessDecision::Allow { .. })
    }
}

/// A set of RBAC objects (roles, cluster roles and their bindings) forming the
/// effective policy of a cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RbacPolicySet {
    roles: Vec<Role>,
    bindings: Vec<RoleBinding>,
}

impl RbacPolicySet {
    /// An empty policy set (denies everything for non-admin users).
    pub fn new() -> Self {
        RbacPolicySet::default()
    }

    /// Add a role (namespaced or cluster-scoped).
    pub fn add_role(&mut self, role: Role) {
        self.roles.push(role);
    }

    /// Add a binding (namespaced or cluster-scoped).
    pub fn add_binding(&mut self, binding: RoleBinding) {
        self.bindings.push(binding);
    }

    /// All roles.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// All bindings.
    pub fn bindings(&self) -> &[RoleBinding] {
        &self.bindings
    }

    /// Total number of RBAC objects (roles + bindings).
    pub fn object_count(&self) -> usize {
        self.roles.len() + self.bindings.len()
    }

    fn find_role(&self, name: &str, scope: RoleScope, namespace: &str) -> Option<&Role> {
        self.roles.iter().find(|r| {
            r.name == name
                && r.scope == scope
                && (scope == RoleScope::Cluster || r.namespace == namespace)
        })
    }

    /// Evaluate an access review against the policy set.
    ///
    /// The evaluation follows the upstream semantics: a namespaced
    /// RoleBinding grants access only inside its namespace (whether it
    /// references a Role or a ClusterRole), while a ClusterRoleBinding grants
    /// access in every namespace and at cluster scope. The decision is the
    /// one [`RbacPolicySet::allows`] gives, worded: the granting binding and
    /// role, or the reason for a denial.
    pub fn authorize(&self, review: &AccessReview) -> AccessDecision {
        match self.grant(
            &review.user,
            review.verb,
            review.kind,
            &review.namespace,
            &review.name,
        ) {
            Some((binding, role)) => AccessDecision::Allow {
                granted_by: format!("{}/{}", binding.name, role.name),
            },
            None => AccessDecision::Deny {
                reason: format!(
                    "no RBAC rule allows user \"{}\" to {} {} in namespace \"{}\"",
                    review.user,
                    review.verb.as_str(),
                    review.kind.plural(),
                    review.namespace
                ),
            },
        }
    }

    /// Whether `user` may perform `verb` on `kind` in `namespace` (on the
    /// object `name`, or on the collection when it is empty): exactly
    /// `authorize(&AccessReview::new(..)).is_allowed()`, from the same
    /// evaluation, without building the review or wording the decision. It
    /// allocates nothing, so a server asks this on every request and calls
    /// [`RbacPolicySet::authorize`] only to word a denial.
    pub fn allows(
        &self,
        user: &str,
        verb: Verb,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> bool {
        self.grant(user, verb, kind, namespace, name).is_some()
    }

    /// The first binding of `user`, in policy order, whose role grants the
    /// access, with that role: the one evaluation behind
    /// [`RbacPolicySet::allows`] and [`RbacPolicySet::authorize`].
    fn grant(
        &self,
        user: &str,
        verb: Verb,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> Option<(&RoleBinding, &Role)> {
        let (api_group, resource, verb) = (kind.api_group(), kind.plural(), verb.as_str());
        self.bindings.iter().find_map(|binding| {
            // Namespaced bindings only apply within their own namespace.
            if !binding.binds_user(user)
                || (binding.scope == RoleScope::Namespaced && binding.namespace != namespace)
            {
                return None;
            }
            let role =
                self.find_role(&binding.role_name, binding.role_scope, &binding.namespace)?;
            role.allows(api_group, resource, verb, name)
                .then_some((binding, role))
        })
    }

    /// The set of (kind, verb) pairs a user may exercise in a namespace.
    /// Used by the attack-surface analysis to determine which endpoints RBAC
    /// leaves reachable.
    pub fn allowed_kinds(&self, user: &str, namespace: &str) -> Vec<(ResourceKind, Verb)> {
        let mut out = Vec::new();
        for kind in ResourceKind::ALL {
            for verb in Verb::ALL {
                if self.allows(user, verb, kind, namespace, "") {
                    out.push((kind, verb));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::role::{PolicyRule, Subject};

    fn policy() -> RbacPolicySet {
        let mut set = RbacPolicySet::new();
        set.add_role(
            Role::namespaced("deployer", "prod")
                .with_rule(PolicyRule::for_kind(
                    ResourceKind::Deployment,
                    [Verb::Create, Verb::Get],
                ))
                .with_rule(PolicyRule::for_kind(ResourceKind::Service, [Verb::Create])),
        );
        set.add_binding(
            RoleBinding::namespaced("deployer-binding", "prod", "deployer")
                .with_subject(Subject::user("operator")),
        );
        set.add_role(
            Role::cluster("webhook-admin").with_rule(PolicyRule::for_kind(
                ResourceKind::ValidatingWebhookConfiguration,
                [Verb::Create],
            )),
        );
        set.add_binding(
            RoleBinding::cluster("webhook-admin-binding", "webhook-admin")
                .with_subject(Subject::user("operator")),
        );
        set
    }

    #[test]
    fn allows_granted_namespaced_access() {
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
    }

    #[test]
    fn denies_other_namespaces_and_users() {
        let set = policy();
        let other_ns = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "dev",
            "",
        );
        assert!(!set.authorize(&other_ns).is_allowed());
        let other_user = AccessReview::new(
            "mallory",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(!set.authorize(&other_user).is_allowed());
    }

    #[test]
    fn denies_unlisted_verbs_and_kinds() {
        let set = policy();
        let delete = AccessReview::new(
            "operator",
            Verb::Delete,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(!set.authorize(&delete).is_allowed());
        let pods = AccessReview::new("operator", Verb::Create, ResourceKind::Pod, "prod", "");
        assert!(!set.authorize(&pods).is_allowed());
    }

    #[test]
    fn cluster_bindings_grant_cluster_scoped_access() {
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::ValidatingWebhookConfiguration,
            "",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
    }

    #[test]
    fn rbac_does_not_inspect_request_bodies() {
        // This is the core limitation the paper exploits: the access review
        // carries no specification fields at all, so two requests that differ
        // only in (for example) `hostNetwork: true` are indistinguishable.
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
        // There is no API to express "allow Deployments but forbid
        // hostNetwork" — the review type has no field for it.
    }

    #[test]
    fn allowed_kinds_enumerates_the_reachable_surface() {
        let set = policy();
        let allowed = set.allowed_kinds("operator", "prod");
        assert!(allowed.contains(&(ResourceKind::Deployment, Verb::Create)));
        assert!(allowed.contains(&(ResourceKind::Service, Verb::Create)));
        assert!(!allowed.iter().any(|(k, _)| *k == ResourceKind::Pod));
    }

    #[test]
    fn empty_policy_denies_everything() {
        let set = RbacPolicySet::new();
        let review = AccessReview::new("anyone", Verb::Get, ResourceKind::Pod, "default", "");
        assert!(!set.authorize(&review).is_allowed());
        assert_eq!(set.object_count(), 0);
    }
}
