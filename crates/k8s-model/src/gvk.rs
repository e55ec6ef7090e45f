//! Group/version/kind identifiers and API verbs.

use std::fmt;

/// The HTTP-level verbs accepted by the Kubernetes API server, as used by
//  RBAC rules and audit events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Verb {
    Get,
    List,
    Watch,
    Create,
    Update,
    Patch,
    Delete,
    DeleteCollection,
}

impl Verb {
    /// All verbs, in the conventional ordering.
    pub const ALL: [Verb; 8] = [
        Verb::Get,
        Verb::List,
        Verb::Watch,
        Verb::Create,
        Verb::Update,
        Verb::Patch,
        Verb::Delete,
        Verb::DeleteCollection,
    ];

    /// The lowercase name used in RBAC rules and audit logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verb::Get => "get",
            Verb::List => "list",
            Verb::Watch => "watch",
            Verb::Create => "create",
            Verb::Update => "update",
            Verb::Patch => "patch",
            Verb::Delete => "delete",
            Verb::DeleteCollection => "deletecollection",
        }
    }

    /// Parse the lowercase RBAC verb name.
    pub fn parse(text: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.as_str() == text)
    }

    /// Whether the verb mutates cluster state (create/update/patch/delete).
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Verb::Create | Verb::Update | Verb::Patch | Verb::Delete | Verb::DeleteCollection
        )
    }

    /// The HTTP method corresponding to this verb on a resource endpoint.
    pub fn http_method(&self) -> &'static str {
        match self {
            Verb::Get | Verb::List | Verb::Watch => "GET",
            Verb::Create => "POST",
            Verb::Update => "PUT",
            Verb::Patch => "PATCH",
            Verb::Delete | Verb::DeleteCollection => "DELETE",
        }
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A Kubernetes group/version/kind triple, e.g. `apps/v1 Deployment`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupVersionKind {
    /// API group (empty string for the core group).
    pub group: String,
    /// API version, e.g. `v1`.
    pub version: String,
    /// Object kind, e.g. `Deployment`.
    pub kind: String,
}

impl GroupVersionKind {
    /// Build a GVK from its parts.
    pub fn new(group: &str, version: &str, kind: &str) -> Self {
        GroupVersionKind {
            group: group.to_owned(),
            version: version.to_owned(),
            kind: kind.to_owned(),
        }
    }

    /// The `apiVersion` manifest value (`group/version`, or just `version`
    /// for the core group).
    pub fn api_version(&self) -> String {
        if self.group.is_empty() {
            self.version.clone()
        } else {
            format!("{}/{}", self.group, self.version)
        }
    }

    /// Parse an `apiVersion` + `kind` pair as found in manifests.
    pub fn from_api_version(api_version: &str, kind: &str) -> Self {
        match api_version.split_once('/') {
            Some((group, version)) => GroupVersionKind::new(group, version, kind),
            None => GroupVersionKind::new("", api_version, kind),
        }
    }
}

impl fmt::Display for GroupVersionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.api_version(), self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_roundtrip_through_names() {
        for v in Verb::ALL {
            assert_eq!(Verb::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verb::parse("explode"), None);
    }

    #[test]
    fn mutating_verbs_map_to_writing_http_methods() {
        assert!(Verb::Create.is_mutating());
        assert!(!Verb::Get.is_mutating());
        assert_eq!(Verb::Create.http_method(), "POST");
        assert_eq!(Verb::List.http_method(), "GET");
        assert_eq!(Verb::Delete.http_method(), "DELETE");
    }

    #[test]
    fn gvk_api_version_formats_core_and_named_groups() {
        let core = GroupVersionKind::new("", "v1", "Pod");
        assert_eq!(core.api_version(), "v1");
        let apps = GroupVersionKind::new("apps", "v1", "Deployment");
        assert_eq!(apps.api_version(), "apps/v1");
        assert_eq!(apps.to_string(), "apps/v1 Deployment");
    }

    #[test]
    fn gvk_parses_from_api_version() {
        let gvk = GroupVersionKind::from_api_version("networking.k8s.io/v1", "Ingress");
        assert_eq!(gvk.group, "networking.k8s.io");
        assert_eq!(gvk.version, "v1");
        let core = GroupVersionKind::from_api_version("v1", "Service");
        assert_eq!(core.group, "");
    }
}
