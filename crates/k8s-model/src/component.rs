//! Component taxonomy used to classify Kubernetes CVEs (Section III-C of the
//! paper).

use std::fmt;

/// The Kubernetes component affected by a vulnerability, derived in the paper
/// from the source files touched by each CVE's patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Component {
    AdmissionControllers,
    Kubelet,
    ApiServer,
    Etcd,
    Kubectl,
    Scheduler,
    Networking,
    Storage,
    CloudProvider,
    SecurityFeatures,
}

impl Component {
    /// All components, in the row order used by the CVE mapping.
    pub const ALL: [Component; 10] = [
        Component::AdmissionControllers,
        Component::Kubelet,
        Component::ApiServer,
        Component::Etcd,
        Component::Kubectl,
        Component::Scheduler,
        Component::Networking,
        Component::Storage,
        Component::CloudProvider,
        Component::SecurityFeatures,
    ];

    /// Human readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Component::AdmissionControllers => "admission controllers",
            Component::Kubelet => "kubelet",
            Component::ApiServer => "API server",
            Component::Etcd => "etcd",
            Component::Kubectl => "kubectl",
            Component::Scheduler => "scheduler",
            Component::Networking => "networking",
            Component::Storage => "storage",
            Component::CloudProvider => "cloud provider",
            Component::SecurityFeatures => "security features",
        }
    }

    /// A representative source file associated with the component; the paper
    /// maps CVEs to vulnerable files via their patches, and the e2e coverage
    /// analysis (Figure 5) checks whether a test reaches those files.
    pub fn representative_file(&self) -> &'static str {
        match self {
            Component::AdmissionControllers => "plugin/pkg/admission/admission.go",
            Component::Kubelet => "pkg/kubelet/kubelet.go",
            Component::ApiServer => "staging/src/k8s.io/apiserver/pkg/server/handler.go",
            Component::Etcd => "staging/src/k8s.io/apiserver/pkg/storage/etcd3/store.go",
            Component::Kubectl => "staging/src/k8s.io/kubectl/pkg/cmd/cmd.go",
            Component::Scheduler => "pkg/scheduler/schedule_one.go",
            Component::Networking => "pkg/proxy/iptables/proxier.go",
            Component::Storage => "pkg/volume/util/subpath/subpath_linux.go",
            Component::CloudProvider => "staging/src/k8s.io/legacy-cloud-providers/gce/gce.go",
            Component::SecurityFeatures => "pkg/securitycontext/util.go",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_components_cover_the_taxonomy() {
        assert_eq!(Component::ALL.len(), 10);
    }

    #[test]
    fn representative_files_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Component::ALL {
            assert!(seen.insert(c.representative_file()));
        }
    }
}
