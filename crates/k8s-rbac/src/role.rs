//! RBAC object model: rules, roles, bindings and subjects.

use k8s_model::{ResourceKind, Verb};
use kf_yaml::{Mapping, Value};

/// Whether a role/binding is namespaced (`Role`/`RoleBinding`) or
/// cluster-scoped (`ClusterRole`/`ClusterRoleBinding`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoleScope {
    /// Namespaced Role / RoleBinding.
    Namespaced,
    /// Cluster-scoped ClusterRole / ClusterRoleBinding.
    Cluster,
}

/// One RBAC rule: a set of API groups, resources and verbs (all supporting the
/// `*` wildcard), optionally restricted to specific resource names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyRule {
    /// API groups the rule applies to (`""` is the core group).
    pub api_groups: Vec<String>,
    /// Plural resource names (`pods`, `deployments`, …).
    pub resources: Vec<String>,
    /// Allowed verbs.
    pub verbs: Vec<String>,
    /// Optional restriction to specific object names.
    pub resource_names: Vec<String>,
}

impl PolicyRule {
    /// A rule allowing `verbs` on `resources` in `api_groups`.
    pub fn new<S: Into<String>>(
        api_groups: impl IntoIterator<Item = S>,
        resources: impl IntoIterator<Item = S>,
        verbs: impl IntoIterator<Item = S>,
    ) -> Self {
        PolicyRule {
            api_groups: api_groups.into_iter().map(Into::into).collect(),
            resources: resources.into_iter().map(Into::into).collect(),
            verbs: verbs.into_iter().map(Into::into).collect(),
            resource_names: Vec::new(),
        }
    }

    /// A rule allowing the given verbs on one resource kind.
    pub fn for_kind(kind: ResourceKind, verbs: impl IntoIterator<Item = Verb>) -> Self {
        PolicyRule {
            api_groups: vec![kind.api_group().to_owned()],
            resources: vec![kind.plural().to_owned()],
            verbs: verbs.into_iter().map(|v| v.as_str().to_owned()).collect(),
            resource_names: Vec::new(),
        }
    }

    fn matches_list(list: &[String], value: &str) -> bool {
        list.iter().any(|item| item == "*" || item == value)
    }

    /// Whether the rule allows `verb` on `resource` in `api_group` for the
    /// given object name (empty name = collection access).
    pub fn matches(&self, api_group: &str, resource: &str, verb: &str, name: &str) -> bool {
        Self::matches_list(&self.api_groups, api_group)
            && Self::matches_list(&self.resources, resource)
            && Self::matches_list(&self.verbs, verb)
            && (self.resource_names.is_empty()
                || name.is_empty()
                || Self::matches_list(&self.resource_names, name))
    }
}

/// A Role or ClusterRole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Role {
    /// Role name.
    pub name: String,
    /// Namespace (empty for cluster scope).
    pub namespace: String,
    /// Scope of the role.
    pub scope: RoleScope,
    /// The permission rules.
    pub rules: Vec<PolicyRule>,
}

impl Role {
    /// A namespaced Role.
    pub fn namespaced(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            namespace: namespace.into(),
            scope: RoleScope::Namespaced,
            rules: Vec::new(),
        }
    }

    /// A ClusterRole.
    pub fn cluster(name: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            namespace: String::new(),
            scope: RoleScope::Cluster,
            rules: Vec::new(),
        }
    }

    /// Append a rule, builder style.
    pub fn with_rule(mut self, rule: PolicyRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Whether any rule allows the access.
    pub fn allows(&self, api_group: &str, resource: &str, verb: &str, name: &str) -> bool {
        self.rules
            .iter()
            .any(|r| r.matches(api_group, resource, verb, name))
    }

    /// Render the role as a Kubernetes manifest (`Role` / `ClusterRole`).
    pub fn to_manifest(&self) -> Value {
        let kind = match self.scope {
            RoleScope::Namespaced => "Role",
            RoleScope::Cluster => "ClusterRole",
        };
        let mut metadata = Mapping::new();
        metadata.insert("name", Value::from(self.name.clone()));
        if self.scope == RoleScope::Namespaced {
            metadata.insert("namespace", Value::from(self.namespace.clone()));
        }
        let rules = self
            .rules
            .iter()
            .map(|rule| {
                let mut m = Mapping::new();
                m.insert(
                    "apiGroups",
                    Value::Seq(
                        rule.api_groups
                            .iter()
                            .map(|s| Value::from(s.clone()))
                            .collect(),
                    ),
                );
                m.insert(
                    "resources",
                    Value::Seq(
                        rule.resources
                            .iter()
                            .map(|s| Value::from(s.clone()))
                            .collect(),
                    ),
                );
                m.insert(
                    "verbs",
                    Value::Seq(rule.verbs.iter().map(|s| Value::from(s.clone())).collect()),
                );
                if !rule.resource_names.is_empty() {
                    m.insert(
                        "resourceNames",
                        Value::Seq(
                            rule.resource_names
                                .iter()
                                .map(|s| Value::from(s.clone()))
                                .collect(),
                        ),
                    );
                }
                Value::Map(m)
            })
            .collect();
        let mut root = Mapping::new();
        root.insert("apiVersion", Value::from("rbac.authorization.k8s.io/v1"));
        root.insert("kind", Value::from(kind));
        root.insert("metadata", Value::Map(metadata));
        root.insert("rules", Value::Seq(rules));
        Value::Map(root)
    }
}

/// The kind of a binding subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubjectKind {
    /// A human user (client certificate / OIDC identity).
    User,
    /// A user group.
    Group,
    /// A Kubernetes ServiceAccount.
    ServiceAccount,
}

/// A subject granted a role by a binding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subject {
    /// Subject kind.
    pub kind: SubjectKind,
    /// Subject name.
    pub name: String,
    /// Namespace (service accounts only).
    pub namespace: String,
}

impl Subject {
    /// A user subject.
    pub fn user(name: impl Into<String>) -> Self {
        Subject {
            kind: SubjectKind::User,
            name: name.into(),
            namespace: String::new(),
        }
    }

    /// A service-account subject.
    pub fn service_account(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        Subject {
            kind: SubjectKind::ServiceAccount,
            name: name.into(),
            namespace: namespace.into(),
        }
    }

    /// Whether this subject matches an authenticated user name. Service
    /// accounts use the `system:serviceaccount:<ns>:<name>` convention; the
    /// user is compared with it part by part, so nothing is formatted.
    pub fn matches_user(&self, user: &str) -> bool {
        match self.kind {
            SubjectKind::User | SubjectKind::Group => self.name == user,
            SubjectKind::ServiceAccount => user
                .strip_prefix("system:serviceaccount:")
                .and_then(|rest| rest.strip_prefix(self.namespace.as_str()))
                .and_then(|rest| rest.strip_prefix(':'))
                .is_some_and(|name| name == self.name),
        }
    }
}

/// A RoleBinding or ClusterRoleBinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleBinding {
    /// Binding name.
    pub name: String,
    /// Namespace (empty for ClusterRoleBindings).
    pub namespace: String,
    /// Scope of the binding.
    pub scope: RoleScope,
    /// Name of the bound role.
    pub role_name: String,
    /// Scope of the bound role (a RoleBinding may reference a ClusterRole).
    pub role_scope: RoleScope,
    /// The subjects granted the role.
    pub subjects: Vec<Subject>,
}

impl RoleBinding {
    /// A namespaced RoleBinding to a namespaced Role.
    pub fn namespaced(
        name: impl Into<String>,
        namespace: impl Into<String>,
        role_name: impl Into<String>,
    ) -> Self {
        RoleBinding {
            name: name.into(),
            namespace: namespace.into(),
            scope: RoleScope::Namespaced,
            role_name: role_name.into(),
            role_scope: RoleScope::Namespaced,
            subjects: Vec::new(),
        }
    }

    /// A ClusterRoleBinding to a ClusterRole.
    pub fn cluster(name: impl Into<String>, role_name: impl Into<String>) -> Self {
        RoleBinding {
            name: name.into(),
            namespace: String::new(),
            scope: RoleScope::Cluster,
            role_name: role_name.into(),
            role_scope: RoleScope::Cluster,
            subjects: Vec::new(),
        }
    }

    /// Add a subject, builder style.
    pub fn with_subject(mut self, subject: Subject) -> Self {
        self.subjects.push(subject);
        self
    }

    /// Whether the binding grants anything to the given authenticated user.
    pub fn binds_user(&self, user: &str) -> bool {
        self.subjects.iter().any(|s| s.matches_user(user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_match_with_wildcards() {
        let rule = PolicyRule::new(["apps"], ["deployments"], ["get", "create"]);
        assert!(rule.matches("apps", "deployments", "create", ""));
        assert!(!rule.matches("apps", "deployments", "delete", ""));
        assert!(!rule.matches("", "deployments", "create", ""));
        let wild = PolicyRule::new(["*"], ["*"], ["*"]);
        assert!(wild.matches("batch", "jobs", "patch", "any"));
    }

    #[test]
    fn resource_names_restrict_named_access_only() {
        let mut rule = PolicyRule::for_kind(ResourceKind::ConfigMap, [Verb::Get, Verb::Update]);
        rule.resource_names = vec!["app-config".to_owned()];
        assert!(rule.matches("", "configmaps", "get", "app-config"));
        assert!(!rule.matches("", "configmaps", "get", "other"));
        // collection access (empty name) is not filtered by resourceNames
        assert!(rule.matches("", "configmaps", "get", ""));
    }

    #[test]
    fn role_allows_when_any_rule_matches() {
        let role = Role::namespaced("app", "prod")
            .with_rule(PolicyRule::for_kind(
                ResourceKind::Deployment,
                [Verb::Create],
            ))
            .with_rule(PolicyRule::for_kind(
                ResourceKind::Service,
                [Verb::Create, Verb::Get],
            ));
        assert!(role.allows("apps", "deployments", "create", ""));
        assert!(role.allows("", "services", "get", ""));
        assert!(!role.allows("", "pods", "create", ""));
    }

    #[test]
    fn role_manifests_have_rbac_shape() {
        let role = Role::namespaced("app", "prod").with_rule(PolicyRule::for_kind(
            ResourceKind::Deployment,
            [Verb::Create],
        ));
        let manifest = role.to_manifest();
        assert_eq!(manifest.get("kind").unwrap().as_str(), Some("Role"));
        assert_eq!(
            manifest
                .get_path(&kf_yaml::Path::parse("rules[0].resources[0]").unwrap())
                .unwrap()
                .as_str(),
            Some("deployments")
        );
        let cluster = Role::cluster("admin").to_manifest();
        assert_eq!(cluster.get("kind").unwrap().as_str(), Some("ClusterRole"));
    }

    #[test]
    fn subjects_match_users_and_service_accounts() {
        assert!(Subject::user("alice").matches_user("alice"));
        assert!(!Subject::user("alice").matches_user("bob"));
        let sa = Subject::service_account("operator", "prod");
        assert!(sa.matches_user("system:serviceaccount:prod:operator"));
        assert!(!sa.matches_user("operator"));
    }

    #[test]
    fn service_accounts_match_exactly_their_formatted_user_name() {
        // The part-by-part comparison against the formatted name, over
        // near-misses and parts that hold the separator themselves.
        let subjects = [
            Subject::service_account("operator", "prod"),
            Subject::service_account("a:b", "prod"),
            Subject::service_account("b", "prod:a"),
            Subject::service_account("", "prod"),
            Subject::service_account("operator", ""),
            Subject::service_account("", ""),
        ];
        let users = [
            "system:serviceaccount:prod:operator",
            "system:serviceaccount:prod:a:b",
            "system:serviceaccount:prod:a:b:",
            "system:serviceaccount:prod:",
            "system:serviceaccount::operator",
            "system:serviceaccount::",
            "system:serviceaccount:prod",
            "system:serviceaccount:prod::operator",
            "system:serviceaccount:prodoperator",
            "system:serviceaccount:",
            "system:serviceaccounts:prod:operator",
            "operator",
            "",
        ];
        for subject in &subjects {
            for user in users {
                let formatted = format!(
                    "system:serviceaccount:{}:{}",
                    subject.namespace, subject.name
                );
                assert_eq!(
                    subject.matches_user(user),
                    user == formatted,
                    "{subject:?} against {user:?}"
                );
            }
        }
    }

    #[test]
    fn bindings_report_bound_users() {
        let binding = RoleBinding::namespaced("bind", "prod", "app")
            .with_subject(Subject::user("alice"))
            .with_subject(Subject::service_account("operator", "prod"));
        assert!(binding.binds_user("alice"));
        assert!(binding.binds_user("system:serviceaccount:prod:operator"));
        assert!(!binding.binds_user("mallory"));
    }
}
