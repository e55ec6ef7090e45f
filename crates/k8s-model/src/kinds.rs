//! The resource kinds (API endpoints) considered by the evaluation.

use std::fmt;

use crate::gvk::GroupVersionKind;

/// The twenty Kubernetes resource kinds that appear in the paper's
/// attack-surface analysis (Figure 9) and are exercised by the five operator
/// workloads.
///
/// Every kind corresponds to one API endpoint of the (simulated) API server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ResourceKind {
    Deployment,
    StatefulSet,
    Pod,
    Job,
    CronJob,
    Service,
    ConfigMap,
    NetworkPolicy,
    Ingress,
    IngressClass,
    ServiceAccount,
    HorizontalPodAutoscaler,
    PodDisruptionBudget,
    PersistentVolumeClaim,
    ValidatingWebhookConfiguration,
    Secret,
    Role,
    RoleBinding,
    ClusterRole,
    ClusterRoleBinding,
}

impl ResourceKind {
    /// All kinds, in the column order of Figure 9.
    pub const ALL: [ResourceKind; 20] = [
        ResourceKind::Deployment,
        ResourceKind::StatefulSet,
        ResourceKind::Pod,
        ResourceKind::Job,
        ResourceKind::CronJob,
        ResourceKind::Service,
        ResourceKind::ConfigMap,
        ResourceKind::NetworkPolicy,
        ResourceKind::Ingress,
        ResourceKind::IngressClass,
        ResourceKind::ServiceAccount,
        ResourceKind::HorizontalPodAutoscaler,
        ResourceKind::PodDisruptionBudget,
        ResourceKind::PersistentVolumeClaim,
        ResourceKind::ValidatingWebhookConfiguration,
        ResourceKind::Secret,
        ResourceKind::Role,
        ResourceKind::RoleBinding,
        ResourceKind::ClusterRole,
        ResourceKind::ClusterRoleBinding,
    ];

    /// Number of resource kinds (the length of [`ResourceKind::ALL`]).
    pub const COUNT: usize = ResourceKind::ALL.len();

    /// A dense index in `0..ResourceKind::COUNT`, usable for O(1) dispatch
    /// tables (the compiled admission plane indexes per-kind policy roots by
    /// this value).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// The manifest `kind` string.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResourceKind::Deployment => "Deployment",
            ResourceKind::StatefulSet => "StatefulSet",
            ResourceKind::Pod => "Pod",
            ResourceKind::Job => "Job",
            ResourceKind::CronJob => "CronJob",
            ResourceKind::Service => "Service",
            ResourceKind::ConfigMap => "ConfigMap",
            ResourceKind::NetworkPolicy => "NetworkPolicy",
            ResourceKind::Ingress => "Ingress",
            ResourceKind::IngressClass => "IngressClass",
            ResourceKind::ServiceAccount => "ServiceAccount",
            ResourceKind::HorizontalPodAutoscaler => "HorizontalPodAutoscaler",
            ResourceKind::PodDisruptionBudget => "PodDisruptionBudget",
            ResourceKind::PersistentVolumeClaim => "PersistentVolumeClaim",
            ResourceKind::ValidatingWebhookConfiguration => "ValidatingWebhookConfiguration",
            ResourceKind::Secret => "Secret",
            ResourceKind::Role => "Role",
            ResourceKind::RoleBinding => "RoleBinding",
            ResourceKind::ClusterRole => "ClusterRole",
            ResourceKind::ClusterRoleBinding => "ClusterRoleBinding",
        }
    }

    /// Parse a manifest `kind` string.
    pub fn parse(text: &str) -> Option<ResourceKind> {
        ResourceKind::ALL.into_iter().find(|k| k.as_str() == text)
    }

    /// The lowercase plural resource name used in API paths and RBAC rules
    /// (e.g. `deployments`).
    pub fn plural(&self) -> &'static str {
        match self {
            ResourceKind::Deployment => "deployments",
            ResourceKind::StatefulSet => "statefulsets",
            ResourceKind::Pod => "pods",
            ResourceKind::Job => "jobs",
            ResourceKind::CronJob => "cronjobs",
            ResourceKind::Service => "services",
            ResourceKind::ConfigMap => "configmaps",
            ResourceKind::NetworkPolicy => "networkpolicies",
            ResourceKind::Ingress => "ingresses",
            ResourceKind::IngressClass => "ingressclasses",
            ResourceKind::ServiceAccount => "serviceaccounts",
            ResourceKind::HorizontalPodAutoscaler => "horizontalpodautoscalers",
            ResourceKind::PodDisruptionBudget => "poddisruptionbudgets",
            ResourceKind::PersistentVolumeClaim => "persistentvolumeclaims",
            ResourceKind::ValidatingWebhookConfiguration => "validatingwebhookconfigurations",
            ResourceKind::Secret => "secrets",
            ResourceKind::Role => "roles",
            ResourceKind::RoleBinding => "rolebindings",
            ResourceKind::ClusterRole => "clusterroles",
            ResourceKind::ClusterRoleBinding => "clusterrolebindings",
        }
    }

    /// The API group and version served by the (simulated) API server for
    /// this resource kind: the one table [`ResourceKind::gvk`] and
    /// [`ResourceKind::api_group`] read.
    fn group_version(&self) -> (&'static str, &'static str) {
        match self {
            ResourceKind::Deployment | ResourceKind::StatefulSet => ("apps", "v1"),
            ResourceKind::Pod
            | ResourceKind::Service
            | ResourceKind::ConfigMap
            | ResourceKind::ServiceAccount
            | ResourceKind::PersistentVolumeClaim
            | ResourceKind::Secret => ("", "v1"),
            ResourceKind::Job | ResourceKind::CronJob => ("batch", "v1"),
            ResourceKind::NetworkPolicy | ResourceKind::Ingress | ResourceKind::IngressClass => {
                ("networking.k8s.io", "v1")
            }
            ResourceKind::HorizontalPodAutoscaler => ("autoscaling", "v2"),
            ResourceKind::PodDisruptionBudget => ("policy", "v1"),
            ResourceKind::ValidatingWebhookConfiguration => ("admissionregistration.k8s.io", "v1"),
            ResourceKind::Role
            | ResourceKind::RoleBinding
            | ResourceKind::ClusterRole
            | ResourceKind::ClusterRoleBinding => ("rbac.authorization.k8s.io", "v1"),
        }
    }

    /// The group/version/kind served by the (simulated) API server for this
    /// resource kind.
    pub fn gvk(&self) -> GroupVersionKind {
        let (group, version) = self.group_version();
        GroupVersionKind::new(group, version, self.as_str())
    }

    /// The API group (empty string for the core group), as used by RBAC
    /// rules. A static string: an authorization check reads it without
    /// building a [`GroupVersionKind`].
    pub fn api_group(&self) -> &'static str {
        self.group_version().0
    }

    /// Whether objects of this kind live in a namespace.
    pub fn is_namespaced(&self) -> bool {
        !matches!(
            self,
            ResourceKind::IngressClass
                | ResourceKind::ValidatingWebhookConfiguration
                | ResourceKind::ClusterRole
                | ResourceKind::ClusterRoleBinding
        )
    }

    /// Whether this kind embeds a Pod template (and therefore the full pod
    /// specification attack surface).
    pub fn has_pod_template(&self) -> bool {
        matches!(
            self,
            ResourceKind::Deployment
                | ResourceKind::StatefulSet
                | ResourceKind::Job
                | ResourceKind::CronJob
        )
    }

    /// Whether this kind carries a pod specification either directly (`Pod`)
    /// or through a template.
    pub fn carries_pod_spec(&self) -> bool {
        *self == ResourceKind::Pod || self.has_pod_template()
    }

    /// The URL path prefix of the collection endpoint for this kind in a given
    /// namespace (or at cluster scope for non-namespaced kinds).
    pub fn collection_path(&self, namespace: &str) -> String {
        let gvk = self.gvk();
        let api_root = if gvk.group.is_empty() {
            format!("/api/{}", gvk.version)
        } else {
            format!("/apis/{}/{}", gvk.group, gvk.version)
        };
        if self.is_namespaced() {
            format!("{api_root}/namespaces/{namespace}/{}", self.plural())
        } else {
            format!("{api_root}/{}", self.plural())
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_twenty_endpoints() {
        assert_eq!(ResourceKind::ALL.len(), 20);
        assert_eq!(ResourceKind::COUNT, 20);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; ResourceKind::COUNT];
        for kind in ResourceKind::ALL {
            let index = kind.index();
            assert!(index < ResourceKind::COUNT);
            assert!(!seen[index], "duplicate index {index}");
            seen[index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kind_strings_roundtrip() {
        for k in ResourceKind::ALL {
            assert_eq!(ResourceKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ResourceKind::parse("FooBar"), None);
    }

    #[test]
    fn plural_names_are_lowercase_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in ResourceKind::ALL {
            assert_eq!(k.plural(), k.plural().to_lowercase());
            assert!(seen.insert(k.plural()), "duplicate plural {}", k.plural());
        }
    }

    #[test]
    fn pod_template_kinds_carry_pod_spec() {
        assert!(ResourceKind::Deployment.has_pod_template());
        assert!(ResourceKind::Pod.carries_pod_spec());
        assert!(!ResourceKind::Pod.has_pod_template());
        assert!(!ResourceKind::Service.carries_pod_spec());
    }

    #[test]
    fn collection_paths_follow_api_conventions() {
        assert_eq!(
            ResourceKind::Pod.collection_path("default"),
            "/api/v1/namespaces/default/pods"
        );
        assert_eq!(
            ResourceKind::Deployment.collection_path("prod"),
            "/apis/apps/v1/namespaces/prod/deployments"
        );
        assert_eq!(
            ResourceKind::ClusterRole.collection_path("ignored"),
            "/apis/rbac.authorization.k8s.io/v1/clusterroles"
        );
    }

    #[test]
    fn namespaced_flag_matches_kind_semantics() {
        assert!(ResourceKind::Pod.is_namespaced());
        assert!(!ResourceKind::ClusterRoleBinding.is_namespaced());
        assert!(!ResourceKind::ValidatingWebhookConfiguration.is_namespaced());
    }
}
