//! The Kubernetes CVE database used by the motivation analysis (Section III)
//! and by the catalog of malicious specifications (Table II).
//!
//! The paper analyzed the official Kubernetes CVE feed from July 2016 to
//! December 2023 and mapped 49 CVEs to the components touched by their
//! patches. Eight of those CVEs can be exploited purely through specification
//! fields of API requests and therefore appear in the attack catalog; for
//! those we record the exact trigger conditions. The remaining records carry
//! the component mapping used by the e2e coverage analysis (Figure 5).

use kf_yaml::Value;

use crate::condition::{FieldCheck, FieldCondition, FieldRef};
use crate::{Component, ResourceKind};

/// Severity band derived from the CVSS score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// CVSS < 4.0
    Low,
    /// 4.0 ≤ CVSS < 7.0
    Medium,
    /// 7.0 ≤ CVSS < 9.0
    High,
    /// CVSS ≥ 9.0
    Critical,
}

impl Severity {
    /// Band for a CVSS score.
    pub fn from_cvss(score: f64) -> Self {
        if score >= 9.0 {
            Severity::Critical
        } else if score >= 7.0 {
            Severity::High
        } else if score >= 4.0 {
            Severity::Medium
        } else {
            Severity::Low
        }
    }
}

/// A single CVE record.
#[derive(Debug, Clone, PartialEq)]
pub struct CveRecord {
    /// CVE identifier, e.g. `CVE-2017-1002101`.
    pub id: String,
    /// Year of disclosure.
    pub year: u16,
    /// CVSS v3 base score.
    pub cvss: f64,
    /// Component whose source files were touched by the patch.
    pub component: Component,
    /// One-line summary.
    pub summary: String,
    /// Specification fields that must appear in an API request for the
    /// vulnerable code to be exercised. Empty when the CVE is not reachable
    /// through object specifications (e.g. kubectl client-side issues).
    pub triggers: Vec<FieldCondition>,
    /// Resource kinds through which the trigger can be delivered.
    pub applicable_kinds: Vec<ResourceKind>,
}

impl CveRecord {
    /// Severity band of this record.
    pub fn severity(&self) -> Severity {
        Severity::from_cvss(self.cvss)
    }

    /// Whether the CVE can be triggered purely through the content of an API
    /// request specification.
    pub fn is_api_triggerable(&self) -> bool {
        !self.triggers.is_empty()
    }

    /// Whether a manifest of this object would exercise the vulnerable code.
    pub fn is_triggered_by(&self, object: &crate::K8sObject) -> bool {
        self.is_api_triggerable()
            && (self.applicable_kinds.is_empty() || self.applicable_kinds.contains(&object.kind()))
            && self.triggers.iter().any(|c| c.evaluate(object))
    }
}

/// The full CVE database.
#[derive(Debug, Clone)]
pub struct CveDatabase {
    records: Vec<CveRecord>,
}

impl Default for CveDatabase {
    fn default() -> Self {
        CveDatabase::new()
    }
}

impl CveDatabase {
    /// Build the built-in database (49 records).
    pub fn new() -> Self {
        CveDatabase {
            records: build_records(),
        }
    }

    /// All records.
    pub fn records(&self) -> &[CveRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty (never true for the built-in database).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Look up a CVE by identifier.
    pub fn by_id(&self, id: &str) -> Option<&CveRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// The CVEs that can be exploited purely through API specifications — the
    /// ones eligible for the attack catalog.
    pub fn api_triggerable(&self) -> Vec<&CveRecord> {
        self.records
            .iter()
            .filter(|r| r.is_api_triggerable())
            .collect()
    }

    /// Records affecting a given component.
    pub fn by_component(&self, component: Component) -> Vec<&CveRecord> {
        self.records
            .iter()
            .filter(|r| r.component == component)
            .collect()
    }

    /// Records grouped per component, in taxonomy order.
    pub fn component_histogram(&self) -> Vec<(Component, usize)> {
        Component::ALL
            .iter()
            .map(|c| (*c, self.by_component(*c).len()))
            .collect()
    }
}

fn pod_kinds() -> Vec<ResourceKind> {
    vec![
        ResourceKind::Pod,
        ResourceKind::Deployment,
        ResourceKind::StatefulSet,
        ResourceKind::Job,
        ResourceKind::CronJob,
    ]
}

fn record(id: &str, year: u16, cvss: f64, component: Component, summary: &str) -> CveRecord {
    CveRecord {
        id: id.to_owned(),
        year,
        cvss,
        component,
        summary: summary.to_owned(),
        triggers: Vec::new(),
        applicable_kinds: Vec::new(),
    }
}

fn with_pod_trigger(mut rec: CveRecord, triggers: Vec<FieldCondition>) -> CveRecord {
    rec.triggers = triggers;
    rec.applicable_kinds = pod_kinds();
    rec
}

fn build_records() -> Vec<CveRecord> {
    let mut records = Vec::with_capacity(49);

    // --- The eight CVEs of the attack catalog (Table II), with precise
    // trigger conditions. -----------------------------------------------
    records.push(with_pod_trigger(
        record(
            "CVE-2020-15257",
            2020,
            5.2,
            Component::Networking,
            "containerd-shim API exposed to host-network containers; activating hostNetwork grants access",
        ),
        vec![FieldCondition::pod_field_equals("hostNetwork", true)],
    ));
    {
        let mut rec = record(
            "CVE-2020-8554",
            2020,
            6.3,
            Component::Networking,
            "man-in-the-middle via LoadBalancer or ExternalIPs on Services",
        );
        rec.triggers = vec![FieldCondition {
            field: FieldRef::resource("spec.externalIPs"),
            check: FieldCheck::Present,
        }];
        rec.applicable_kinds = vec![ResourceKind::Service];
        records.push(rec);
    }
    records.push(with_pod_trigger(
        record(
            "CVE-2023-3676",
            2023,
            8.8,
            Component::Kubelet,
            "command injection on Windows nodes via volume subPath in volumeMounts",
        ),
        vec![
            FieldCondition::pod_field_present("containers[].volumeMounts[].subPath"),
            FieldCondition::pod_field_present("volumes[].subPath"),
        ],
    ));
    records.push(with_pod_trigger(
        record(
            "CVE-2017-1002101",
            2017,
            8.8,
            Component::Storage,
            "subPath volume mounts allow access to files outside the volume (symlink walk to host filesystem)",
        ),
        vec![
            FieldCondition::pod_field_present("containers[].volumeMounts[].subPath"),
            FieldCondition::pod_field_present("initContainers[].volumeMounts[].subPath"),
        ],
    ));
    records.push(with_pod_trigger(
        record(
            "CVE-2019-11253",
            2019,
            7.5,
            Component::ApiServer,
            "YAML/JSON parsing DoS (billion laughs) via deeply nested payloads in resource limits",
        ),
        vec![FieldCondition {
            field: FieldRef::pod_spec("containers[].resources.limits"),
            check: FieldCheck::DeeperThan(8),
        }],
    ));
    records.push(with_pod_trigger(
        record(
            "CVE-2021-25741",
            2021,
            8.1,
            Component::Storage,
            "symlink exchange on subPath allows host filesystem access via crafted container commands",
        ),
        vec![FieldCondition::pod_field_present("containers[].command")],
    ));
    records.push(with_pod_trigger(
        record(
            "CVE-2023-2431",
            2023,
            5.0,
            Component::SecurityFeatures,
            "seccomp profile enforcement bypass through localhostProfile with an empty profile name",
        ),
        vec![FieldCondition::pod_field_present(
            "containers[].securityContext.seccompProfile.localhostProfile",
        )],
    ));
    records.push(with_pod_trigger(
        record(
            "CVE-2021-21334",
            2021,
            6.3,
            Component::Kubelet,
            "containerd leaks environment variables across containers; privileged containers widen impact",
        ),
        vec![FieldCondition::pod_field_equals(
            "containers[].securityContext.privileged",
            true,
        )],
    ));

    // --- Remaining CVEs from the official feed (component mapping only);
    // these are not reachable purely through specification fields in our
    // threat model, or require environments outside the testbed. ----------
    let rest: [(&str, u16, f64, Component, &str); 41] = [
        (
            "CVE-2016-7075",
            2016,
            8.5,
            Component::ApiServer,
            "API server does not validate client certificates in proxy TLS connections",
        ),
        (
            "CVE-2017-1000056",
            2017,
            6.5,
            Component::AdmissionControllers,
            "PodSecurityPolicy admission admits pods that should be rejected",
        ),
        (
            "CVE-2017-1002100",
            2017,
            4.0,
            Component::CloudProvider,
            "Azure PV permissions allow read by other tenants",
        ),
        (
            "CVE-2017-1002102",
            2017,
            5.5,
            Component::Storage,
            "containers using secret/configMap/projected volumes can delete host files",
        ),
        (
            "CVE-2018-1002100",
            2018,
            5.5,
            Component::Kubectl,
            "kubectl cp path traversal writes outside destination",
        ),
        (
            "CVE-2018-1002101",
            2018,
            7.5,
            Component::Storage,
            "mount command injection on Windows vSphere volumes",
        ),
        (
            "CVE-2018-1002105",
            2018,
            9.8,
            Component::ApiServer,
            "proxy request handling allows privilege escalation through upgraded connections",
        ),
        (
            "CVE-2019-1002100",
            2019,
            6.5,
            Component::ApiServer,
            "json-patch requests cause excessive API server resource usage",
        ),
        (
            "CVE-2019-1002101",
            2019,
            5.5,
            Component::Kubectl,
            "kubectl cp symlink handling writes arbitrary local files",
        ),
        (
            "CVE-2019-9946",
            2019,
            7.5,
            Component::Networking,
            "CNI portmap plugin inserts rules before KUBE-SERVICES bypassing policy",
        ),
        (
            "CVE-2019-11243",
            2019,
            5.3,
            Component::Kubectl,
            "rest.AnonymousClientConfig does not remove credentials",
        ),
        (
            "CVE-2019-11244",
            2019,
            3.3,
            Component::Kubectl,
            "kubectl creates world-writable cached schema files",
        ),
        (
            "CVE-2019-11245",
            2019,
            4.9,
            Component::Kubelet,
            "containers run as root despite runAsUser in non-root images on restart",
        ),
        (
            "CVE-2019-11246",
            2019,
            6.5,
            Component::Kubectl,
            "kubectl cp symlink directory traversal",
        ),
        (
            "CVE-2019-11247",
            2019,
            8.1,
            Component::ApiServer,
            "cluster-scoped CRD access through namespaced API routes",
        ),
        (
            "CVE-2019-11248",
            2019,
            8.2,
            Component::Kubelet,
            "debug/pprof exposed on healthz port",
        ),
        (
            "CVE-2019-11249",
            2019,
            6.5,
            Component::Kubectl,
            "kubectl cp incomplete fix allows file writes outside destination",
        ),
        (
            "CVE-2019-11250",
            2019,
            6.5,
            Component::ApiServer,
            "bearer tokens written to verbose logs",
        ),
        (
            "CVE-2019-11251",
            2019,
            5.7,
            Component::Kubectl,
            "kubectl cp symlink allows writing outside target directory",
        ),
        (
            "CVE-2019-11254",
            2019,
            6.5,
            Component::ApiServer,
            "YAML parsing CPU DoS in API server",
        ),
        (
            "CVE-2020-8551",
            2020,
            6.5,
            Component::Kubelet,
            "kubelet DoS via crafted node resource requests",
        ),
        (
            "CVE-2020-8552",
            2020,
            5.3,
            Component::ApiServer,
            "API server memory exhaustion via unauthenticated requests",
        ),
        (
            "CVE-2020-8555",
            2020,
            6.3,
            Component::CloudProvider,
            "SSRF via storage classes and cloud provider volume code",
        ),
        (
            "CVE-2020-8557",
            2020,
            5.5,
            Component::Kubelet,
            "pod /etc/hosts file not tracked against ephemeral storage quota",
        ),
        (
            "CVE-2020-8558",
            2020,
            8.8,
            Component::Networking,
            "kube-proxy exposes localhost-bound services to adjacent hosts",
        ),
        (
            "CVE-2020-8559",
            2020,
            6.4,
            Component::ApiServer,
            "privilege escalation from compromised node via upgraded redirects",
        ),
        (
            "CVE-2020-8561",
            2020,
            4.1,
            Component::AdmissionControllers,
            "webhook redirects leak API server logs content",
        ),
        (
            "CVE-2020-8562",
            2020,
            3.1,
            Component::ApiServer,
            "TOCTOU bypass of proxy IP restrictions",
        ),
        (
            "CVE-2020-8563",
            2020,
            5.5,
            Component::CloudProvider,
            "vSphere cloud provider logs secrets at high verbosity",
        ),
        (
            "CVE-2020-8564",
            2020,
            5.5,
            Component::Kubelet,
            "docker config secrets leaked in logs",
        ),
        (
            "CVE-2020-8565",
            2020,
            5.5,
            Component::ApiServer,
            "authorization tokens logged at verbosity >= 9",
        ),
        (
            "CVE-2020-8566",
            2020,
            5.5,
            Component::CloudProvider,
            "Ceph RBD admin secrets logged",
        ),
        (
            "CVE-2021-25735",
            2021,
            6.5,
            Component::AdmissionControllers,
            "node update validation bypass in admission",
        ),
        (
            "CVE-2021-25737",
            2021,
            2.7,
            Component::Networking,
            "EndpointSlice validation allows forwarding to localhost/link-local",
        ),
        (
            "CVE-2021-25740",
            2021,
            3.1,
            Component::Networking,
            "Endpoint restriction bypass forwards traffic across namespaces",
        ),
        (
            "CVE-2021-25742",
            2021,
            7.1,
            Component::Networking,
            "ingress-nginx custom snippets allow secret exfiltration",
        ),
        (
            "CVE-2022-3162",
            2022,
            6.5,
            Component::ApiServer,
            "path traversal for cluster-scoped custom resources",
        ),
        (
            "CVE-2022-3294",
            2022,
            8.8,
            Component::ApiServer,
            "node address validation bypass enables API server MITM",
        ),
        (
            "CVE-2023-2727",
            2023,
            6.5,
            Component::AdmissionControllers,
            "ImagePolicyWebhook bypass via ephemeral containers",
        ),
        (
            "CVE-2023-2728",
            2023,
            6.5,
            Component::AdmissionControllers,
            "ServiceAccount admission plugin bypass via ephemeral containers",
        ),
        (
            "CVE-2023-5528",
            2023,
            8.8,
            Component::Storage,
            "command injection through in-tree Windows storage plugin",
        ),
    ];
    for (id, year, cvss, component, summary) in rest {
        records.push(record(id, year, cvss, component, summary));
    }

    records
}

/// The identifiers of the eight catalog CVEs (E1–E8 of Table II), in catalog
/// order.
pub const CATALOG_CVE_IDS: [&str; 8] = [
    "CVE-2020-15257",
    "CVE-2020-8554",
    "CVE-2023-3676",
    "CVE-2017-1002101",
    "CVE-2019-11253",
    "CVE-2021-25741",
    "CVE-2023-2431",
    "CVE-2021-21334",
];

/// Convenience helper: the [`Value`] used to represent "any value" in
/// documentation examples.
pub fn any_marker() -> Value {
    Value::Str("<any>".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::K8sObject;

    #[test]
    fn database_has_forty_nine_records() {
        let db = CveDatabase::new();
        assert_eq!(db.len(), 49);
    }

    #[test]
    fn catalog_cves_are_api_triggerable() {
        let db = CveDatabase::new();
        for id in CATALOG_CVE_IDS {
            let rec = db.by_id(id).unwrap_or_else(|| panic!("missing {id}"));
            assert!(
                rec.is_api_triggerable(),
                "{id} must have trigger conditions"
            );
        }
        assert_eq!(db.api_triggerable().len(), 8);
    }

    #[test]
    fn ids_are_unique() {
        let db = CveDatabase::new();
        let mut ids: Vec<_> = db.records().iter().map(|r| r.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), db.len());
    }

    #[test]
    fn severity_bands_follow_cvss() {
        assert_eq!(Severity::from_cvss(9.8), Severity::Critical);
        assert_eq!(Severity::from_cvss(8.8), Severity::High);
        assert_eq!(Severity::from_cvss(5.0), Severity::Medium);
        assert_eq!(Severity::from_cvss(2.6), Severity::Low);
        let db = CveDatabase::new();
        assert_eq!(
            db.by_id("CVE-2018-1002105").unwrap().severity(),
            Severity::Critical
        );
    }

    #[test]
    fn subpath_exploit_triggers_cve_2017_1002101() {
        let manifest = r#"apiVersion: v1
kind: Pod
metadata:
  name: attack
spec:
  containers:
    - name: c
      image: nginx
      volumeMounts:
        - mountPath: /test
          name: v
          subPath: symlink-door
  volumes:
    - name: v
      emptyDir: {}
"#;
        let obj = K8sObject::from_yaml(manifest).unwrap();
        let db = CveDatabase::new();
        assert!(db.by_id("CVE-2017-1002101").unwrap().is_triggered_by(&obj));
        // A pod without subPath does not trigger it.
        let benign = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: ok\nspec:\n  containers:\n    - name: c\n      image: nginx\n",
        )
        .unwrap();
        assert!(!db
            .by_id("CVE-2017-1002101")
            .unwrap()
            .is_triggered_by(&benign));
    }

    #[test]
    fn external_ips_exploit_only_applies_to_services() {
        let db = CveDatabase::new();
        let svc = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: s\nspec:\n  externalIPs:\n    - 203.0.113.9\n",
        )
        .unwrap();
        assert!(db.by_id("CVE-2020-8554").unwrap().is_triggered_by(&svc));
        let pod = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n    - name: c\n      image: nginx\n",
        )
        .unwrap();
        assert!(!db.by_id("CVE-2020-8554").unwrap().is_triggered_by(&pod));
    }

    #[test]
    fn component_histogram_accounts_for_all_records() {
        let db = CveDatabase::new();
        let total: usize = db.component_histogram().iter().map(|(_, n)| n).sum();
        assert_eq!(total, db.len());
        // Storage and API server are among the most affected components.
        assert!(db.by_component(Component::ApiServer).len() >= 5);
        assert!(db.by_component(Component::Storage).len() >= 4);
    }

    #[test]
    fn deeply_nested_limits_trigger_cve_2019_11253() {
        let db = CveDatabase::new();
        let mut nested = String::from("apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n    - name: c\n      image: nginx\n      resources:\n        limits:\n");
        let mut indent = "          ".to_owned();
        for _ in 0..12 {
            nested.push_str(&format!("{indent}a:\n"));
            indent.push_str("  ");
        }
        nested.push_str(&format!("{indent}b: overflow\n"));
        let bomb = K8sObject::from_yaml(&nested).unwrap();
        assert!(db.by_id("CVE-2019-11253").unwrap().is_triggered_by(&bomb));
        let with_limits = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n    - name: c\n      image: nginx\n      resources:\n        limits:\n          cpu: 100m\n",
        )
        .unwrap();
        assert!(!db
            .by_id("CVE-2019-11253")
            .unwrap()
            .is_triggered_by(&with_limits));
    }
}
