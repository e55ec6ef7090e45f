//! Replaying the catalog against an enforcement mechanism (Table III).

use k8s_apiserver::{ApiRequest, RequestHandler};
use k8s_model::{K8sObject, ResourceKind};

use crate::catalog::{catalog, MaliciousSpec};

/// The outcome of one attack attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Catalog entry id (`E1`…`M7`).
    pub spec_id: String,
    /// Whether the entry models a CVE exploit.
    pub is_cve: bool,
    /// Kind of the resource the attack was injected into.
    pub kind: ResourceKind,
    /// Whether the enforcement mechanism blocked the request.
    pub mitigated: bool,
    /// The response message (the denial reason when mitigated).
    pub message: String,
}

/// Aggregated Table III row: mitigated CVEs and misconfigurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackSummary {
    /// Number of CVE exploits attempted.
    pub cve_attempted: usize,
    /// Number of CVE exploits blocked.
    pub cve_mitigated: usize,
    /// Number of misconfigurations attempted.
    pub misconfig_attempted: usize,
    /// Number of misconfigurations blocked.
    pub misconfig_mitigated: usize,
}

impl AttackSummary {
    /// Whether every attempted attack was blocked.
    pub fn all_mitigated(&self) -> bool {
        self.cve_mitigated == self.cve_attempted
            && self.misconfig_mitigated == self.misconfig_attempted
    }

    /// Whether no attack was blocked at all.
    pub fn none_mitigated(&self) -> bool {
        self.cve_mitigated == 0 && self.misconfig_mitigated == 0
    }
}

/// Replays the malicious-specification catalog against an enforcement
/// mechanism on behalf of a (compromised or malicious) authenticated user.
#[derive(Debug, Clone)]
pub struct AttackExecutor {
    user: String,
    namespace: String,
    legitimate_objects: Vec<K8sObject>,
}

impl AttackExecutor {
    /// An executor that injects the catalog into the given legitimate
    /// manifests and submits the results as `user` in `namespace` — the
    /// paper's insider-threat scenario, where the attacker holds the
    /// operator's credentials.
    pub fn new(user: &str, namespace: &str, legitimate_objects: Vec<K8sObject>) -> Self {
        AttackExecutor {
            user: user.to_owned(),
            namespace: namespace.to_owned(),
            legitimate_objects,
        }
    }

    /// Pick the legitimate object each catalog entry is injected into: the
    /// first pod-spec-carrying object for pod-scoped entries, the first
    /// Service for E2.
    fn base_for(&self, spec: &MaliciousSpec) -> Option<&K8sObject> {
        self.legitimate_objects
            .iter()
            .find(|o| spec.applies_to(o.kind()))
    }

    /// The malicious manifests for the full catalog (one per applicable
    /// entry), as `(spec, malicious object)` pairs.
    pub fn malicious_objects(&self) -> Vec<(MaliciousSpec, K8sObject)> {
        catalog()
            .into_iter()
            .filter_map(|spec| {
                let base = self.base_for(&spec)?;
                let malicious = spec.inject(base)?;
                Some((spec, malicious))
            })
            .collect()
    }

    /// The attack traffic: one create per malicious manifest, as YAML wire
    /// bytes, issued by the executor's user against its namespace.
    pub fn requests(&self) -> Vec<(MaliciousSpec, ApiRequest)> {
        self.malicious_objects()
            .into_iter()
            .map(|(spec, object)| {
                let mut request = ApiRequest::create(&self.user, &object);
                if object.kind().is_namespaced() {
                    request.namespace = self.namespace.clone();
                }
                (spec, request)
            })
            .collect()
    }

    /// Submit every malicious manifest through the handler and record whether
    /// it was mitigated (denied) or not.
    pub fn execute<H: RequestHandler>(&self, handler: &H) -> Vec<AttackOutcome> {
        self.requests()
            .into_iter()
            .map(|(spec, request)| {
                let response = handler.handle(&request);
                AttackOutcome {
                    spec_id: spec.id.clone(),
                    is_cve: spec.is_cve(),
                    kind: request.kind,
                    mitigated: response.is_denied(),
                    message: response.message,
                }
            })
            .collect()
    }

    /// Summarize outcomes into a Table III row.
    pub fn summarize(outcomes: &[AttackOutcome]) -> AttackSummary {
        let mut summary = AttackSummary::default();
        for outcome in outcomes {
            if outcome.is_cve {
                summary.cve_attempted += 1;
                if outcome.mitigated {
                    summary.cve_mitigated += 1;
                }
            } else {
                summary.misconfig_attempted += 1;
                if outcome.mitigated {
                    summary.misconfig_mitigated += 1;
                }
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::ApiServer;

    fn legitimate_objects() -> Vec<K8sObject> {
        vec![
            K8sObject::from_yaml(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 1
  template:
    spec:
      containers:
        - name: app
          image: docker.io/bitnami/nginx:1.25
          resources:
            limits:
              cpu: 100m
"#,
            )
            .unwrap(),
            K8sObject::from_yaml(
                "apiVersion: v1\nkind: Service\nmetadata:\n  name: web\nspec:\n  type: ClusterIP\n  ports:\n    - port: 80\n",
            )
            .unwrap(),
        ]
    }

    #[test]
    fn all_fifteen_entries_produce_malicious_manifests() {
        let executor = AttackExecutor::new("mallory", "prod", legitimate_objects());
        assert_eq!(executor.malicious_objects().len(), 15);
    }

    #[test]
    fn unprotected_server_mitigates_nothing_and_records_exploits() {
        let executor = AttackExecutor::new("mallory", "prod", legitimate_objects());
        let server = ApiServer::new().with_admin("mallory");
        let outcomes = executor.execute(&server);
        let summary = AttackExecutor::summarize(&outcomes);
        assert_eq!(summary.cve_attempted, 8);
        assert_eq!(summary.misconfig_attempted, 7);
        assert!(summary.none_mitigated());
        // The accepted exploits exercised vulnerable code.
        assert!(!server.exploits().is_empty());
    }

    #[test]
    fn summaries_count_cves_and_misconfigurations_separately() {
        let outcomes = vec![
            AttackOutcome {
                spec_id: "E1".into(),
                is_cve: true,
                kind: ResourceKind::Deployment,
                mitigated: true,
                message: String::new(),
            },
            AttackOutcome {
                spec_id: "M1".into(),
                is_cve: false,
                kind: ResourceKind::Deployment,
                mitigated: false,
                message: String::new(),
            },
        ];
        let summary = AttackExecutor::summarize(&outcomes);
        assert_eq!(summary.cve_mitigated, 1);
        assert_eq!(summary.misconfig_mitigated, 0);
        assert!(!summary.all_mitigated());
        assert!(!summary.none_mitigated());
    }
}
