//! The catalog of malicious Kubernetes specifications (Table II).
//!
//! The catalog comprises 15 malicious specifications: 8 used by CVE exploits
//! (E1–E8) and 7 security misconfigurations (M1–M7). Each entry names the
//! targeted API field(s) and carries the concrete *injection* — the field
//! mutations applied to a legitimate manifest to obtain the malicious one, as
//! in Figure 10 of the paper.

use k8s_model::{FieldRef, K8sObject, ResourceKind};
use kf_yaml::{Path, Value};

/// Whether an entry models a CVE exploit or a misconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecClass {
    /// A CVE exploit (rows E1–E8 of Table II).
    CveExploit {
        /// The exploited CVE identifier.
        cve_id: String,
    },
    /// A security misconfiguration (rows M1–M7).
    Misconfiguration,
}

/// Which resource the injection targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionTarget {
    /// Any resource carrying a pod specification (Pod, Deployment,
    /// StatefulSet, Job, CronJob).
    PodSpec,
    /// A Service resource.
    Service,
}

/// One field mutation applied to a legitimate manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionAction {
    /// Set a pod-spec-relative field (concrete path, e.g.
    /// `containers[0].securityContext.privileged`) to a value.
    SetPodField {
        /// Concrete path relative to the pod specification.
        path: String,
        /// The injected value.
        value: Value,
    },
    /// Set a resource-root-relative field to a value.
    SetResourceField {
        /// Concrete path relative to the manifest root.
        path: String,
        /// The injected value.
        value: Value,
    },
    /// Remove a pod-spec-relative field if present.
    RemovePodField {
        /// Concrete path relative to the pod specification.
        path: String,
    },
}

/// One entry of the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct MaliciousSpec {
    /// Catalog identifier (`E1`…`E8`, `M1`…`M7`).
    pub id: String,
    /// Human-readable name (the "Exploit/Misconfiguration" column).
    pub name: String,
    /// Exploit or misconfiguration.
    pub class: SpecClass,
    /// The targeted API fields, in the paper's pod-spec-relative notation.
    pub targeted_fields: Vec<String>,
    /// Which resources the injection applies to.
    pub target: InjectionTarget,
    /// The field mutations that produce the malicious manifest.
    pub actions: Vec<InjectionAction>,
}

impl MaliciousSpec {
    /// Whether this entry models a CVE exploit.
    pub fn is_cve(&self) -> bool {
        matches!(self.class, SpecClass::CveExploit { .. })
    }

    /// Whether the entry can be injected into an object of the given kind.
    pub fn applies_to(&self, kind: ResourceKind) -> bool {
        match self.target {
            InjectionTarget::PodSpec => FieldRef::pod_spec_prefix(kind).is_some(),
            InjectionTarget::Service => kind == ResourceKind::Service,
        }
    }

    /// Inject the malicious specification into a legitimate object, returning
    /// the malicious manifest (or `None` when the object kind is not a valid
    /// target).
    pub fn inject(&self, base: &K8sObject) -> Option<K8sObject> {
        if !self.applies_to(base.kind()) {
            return None;
        }
        let pod_prefix = FieldRef::pod_spec_prefix(base.kind());
        let mut object = base.clone();
        for action in &self.actions {
            match action {
                InjectionAction::SetPodField { path, value } => {
                    let prefix = pod_prefix?;
                    let full = Path::parse(&format!("{prefix}.{path}")).ok()?;
                    object.set_field(&full, value.clone()).ok()?;
                }
                InjectionAction::SetResourceField { path, value } => {
                    let full = Path::parse(path).ok()?;
                    object.set_field(&full, value.clone()).ok()?;
                }
                InjectionAction::RemovePodField { path } => {
                    if let Some(prefix) = pod_prefix {
                        if let Ok(full) = Path::parse(&format!("{prefix}.{path}")) {
                            object.body_mut().remove_path(&full);
                        }
                    }
                }
            }
        }
        object.sync_metadata();
        Some(object)
    }
}

fn pod_set(path: &str, value: impl Into<Value>) -> InjectionAction {
    InjectionAction::SetPodField {
        path: path.to_owned(),
        value: value.into(),
    }
}

fn exploit(
    id: &str,
    name: &str,
    cve: &str,
    fields: &[&str],
    actions: Vec<InjectionAction>,
) -> MaliciousSpec {
    MaliciousSpec {
        id: id.to_owned(),
        name: name.to_owned(),
        class: SpecClass::CveExploit {
            cve_id: cve.to_owned(),
        },
        targeted_fields: fields.iter().map(|s| (*s).to_owned()).collect(),
        target: InjectionTarget::PodSpec,
        actions,
    }
}

fn misconfig(
    id: &str,
    name: &str,
    fields: &[&str],
    actions: Vec<InjectionAction>,
) -> MaliciousSpec {
    MaliciousSpec {
        id: id.to_owned(),
        name: name.to_owned(),
        class: SpecClass::Misconfiguration,
        targeted_fields: fields.iter().map(|s| (*s).to_owned()).collect(),
        target: InjectionTarget::PodSpec,
        actions,
    }
}

/// Build the full catalog of 15 malicious specifications (Table II).
pub fn catalog() -> Vec<MaliciousSpec> {
    // The deeply nested payload of the CVE-2019-11253 ("billion laughs")
    // exploit: a resource-limits block stuffed with nested unknown keys.
    let mut nested = Value::from("overflow");
    for _ in 0..16 {
        let mut map = kf_yaml::Mapping::new();
        map.insert("a", nested);
        nested = Value::Map(map);
    }

    vec![
        exploit(
            "E1",
            "Activation of hostNetwork",
            "CVE-2020-15257",
            &["hostNetwork"],
            vec![pod_set("hostNetwork", true)],
        ),
        MaliciousSpec {
            id: "E2".to_owned(),
            name: "Abusing LoadBalancer or ExternalIPs".to_owned(),
            class: SpecClass::CveExploit {
                cve_id: "CVE-2020-8554".to_owned(),
            },
            targeted_fields: vec!["externalIPs".to_owned()],
            target: InjectionTarget::Service,
            actions: vec![InjectionAction::SetResourceField {
                path: "spec.externalIPs".to_owned(),
                value: Value::Seq(vec![Value::from("203.0.113.66")]),
            }],
        },
        exploit(
            "E3",
            "Command injection via volume and volumeMounts",
            "CVE-2023-3676",
            &[
                "containers.volumeMounts.subPath",
                "containers.volumes.subPath",
            ],
            vec![
                pod_set(
                    "containers[0].volumeMounts[0].subPath",
                    "..\\..\\..\\Program Files\\&calc.exe",
                ),
                pod_set("containers[0].volumeMounts[0].name", "injected"),
                pod_set("containers[0].volumeMounts[0].mountPath", "/inject"),
                pod_set("volumes[0].name", "injected"),
                pod_set("volumes[0].hostPath.path", "/var/lib"),
            ],
        ),
        exploit(
            "E4",
            "Mount subPath on a file or emptyDir",
            "CVE-2017-1002101",
            &["containers.volumeMounts.subPath"],
            vec![
                pod_set("initContainers[0].name", "symlink-builder"),
                pod_set("initContainers[0].image", "busybox"),
                pod_set(
                    "initContainers[0].command",
                    Value::Seq(vec![
                        Value::from("ln"),
                        Value::from("-s"),
                        Value::from("/"),
                        Value::from("/mnt/data/symlink-door"),
                    ]),
                ),
                pod_set("containers[0].volumeMounts[0].name", "attack-vol"),
                pod_set("containers[0].volumeMounts[0].mountPath", "/test"),
                pod_set("containers[0].volumeMounts[0].subPath", "symlink-door"),
                pod_set("volumes[0].name", "attack-vol"),
                pod_set("volumes[0].emptyDir", Value::empty_map()),
            ],
        ),
        exploit(
            "E5",
            "Absent resource limit",
            "CVE-2019-11253",
            &["containers.resources.limits"],
            vec![
                InjectionAction::RemovePodField {
                    path: "containers[0].resources.limits".to_owned(),
                },
                pod_set("containers[0].resources.limits", nested),
            ],
        ),
        exploit(
            "E6",
            "Symlink exchange allows host filesystem access",
            "CVE-2021-25741",
            &["container.command"],
            vec![pod_set(
                "containers[0].command",
                Value::Seq(vec![
                    Value::from("sh"),
                    Value::from("-c"),
                    Value::from("ln -sf / /mnt/exchange && sleep 3600"),
                ]),
            )],
        ),
        exploit(
            "E7",
            "Bypass of seccomp profile",
            "CVE-2023-2431",
            &["containers.securityContext.seccompProfile.localhostProfile"],
            vec![
                pod_set(
                    "containers[0].securityContext.seccompProfile.type",
                    "Localhost",
                ),
                pod_set(
                    "containers[0].securityContext.seccompProfile.localhostProfile",
                    "",
                ),
            ],
        ),
        exploit(
            "E8",
            "Privileged containers",
            "CVE-2021-21334",
            &["containers.securityContext.privileged"],
            vec![pod_set("containers[0].securityContext.privileged", true)],
        ),
        misconfig(
            "M1",
            "Activation of hostIPC",
            &["hostIPC"],
            vec![pod_set("hostIPC", true)],
        ),
        misconfig(
            "M2",
            "Activation of hostPID",
            &["hostPID"],
            vec![pod_set("hostPID", true)],
        ),
        misconfig(
            "M3",
            "Disable read-only root filesystem",
            &["containers.securityContext.readOnlyRootFilesystem"],
            vec![pod_set(
                "containers[0].securityContext.readOnlyRootFilesystem",
                false,
            )],
        ),
        misconfig(
            "M4",
            "Running containers as root",
            &[
                "containers.securityContext.runAsNonRoot",
                "containers.securityContext.runAsRootAllowed",
            ],
            vec![
                pod_set("containers[0].securityContext.runAsNonRoot", false),
                pod_set("containers[0].securityContext.runAsUser", 0),
            ],
        ),
        misconfig(
            "M5",
            "Dangerous capabilities for containers",
            &["containers.securityContext.capabilities.add"],
            vec![pod_set(
                "containers[0].securityContext.capabilities.add",
                Value::Seq(vec![Value::from("SYS_ADMIN"), Value::from("NET_RAW")]),
            )],
        ),
        misconfig(
            "M6",
            "Escalated privileges for child container processes",
            &["containers.securityContext.allowPrivilegeEscalation"],
            vec![pod_set(
                "containers[0].securityContext.allowPrivilegeEscalation",
                true,
            )],
        ),
        misconfig(
            "M7",
            "Custom SELinux user or role",
            &[
                "containers.securityContext.seLinuxOptions.user",
                "containers.securityContext.seLinuxOptions.role",
            ],
            vec![
                pod_set(
                    "containers[0].securityContext.seLinuxOptions.user",
                    "system_u",
                ),
                pod_set(
                    "containers[0].securityContext.seLinuxOptions.role",
                    "sysadm_r",
                ),
            ],
        ),
    ]
}

/// Render Table II as fixed-width text.
pub fn to_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:<55} {:<18}\n",
        "ID", "Exploit/Misconfiguration", "Reference"
    ));
    for spec in catalog() {
        let reference = match &spec.class {
            SpecClass::CveExploit { cve_id } => cve_id.clone(),
            SpecClass::Misconfiguration => "NSA/CISA hardening guide".to_owned(),
        };
        out.push_str(&format!(
            "{:<4} {:<55} {:<18}\n",
            spec.id, spec.name, reference
        ));
        for field in &spec.targeted_fields {
            out.push_str(&format!("     targeted field: {field}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPLOYMENT: &str = r#"apiVersion: apps/v1
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
"#;

    const SERVICE: &str = r#"apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  type: ClusterIP
  ports:
    - port: 80
"#;

    fn by_id(id: &str) -> MaliciousSpec {
        catalog().into_iter().find(|s| s.id == id).unwrap()
    }

    #[test]
    fn catalog_has_eight_exploits_and_seven_misconfigurations() {
        let catalog = catalog();
        assert_eq!(catalog.len(), 15);
        assert_eq!(catalog.iter().filter(|s| s.is_cve()).count(), 8);
        assert_eq!(catalog.iter().filter(|s| !s.is_cve()).count(), 7);
        // IDs are unique.
        let mut ids: Vec<_> = catalog.iter().map(|s| s.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn pod_spec_injections_apply_to_workload_controllers_only() {
        let e1 = by_id("E1");
        assert!(e1.applies_to(ResourceKind::Deployment));
        assert!(e1.applies_to(ResourceKind::CronJob));
        assert!(!e1.applies_to(ResourceKind::Service));
        let e2 = by_id("E2");
        assert!(e2.applies_to(ResourceKind::Service));
        assert!(!e2.applies_to(ResourceKind::Deployment));
    }

    #[test]
    fn host_network_injection_matches_the_cve_trigger() {
        let base = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        let malicious = by_id("E1").inject(&base).unwrap();
        let db = k8s_model::cve::CveDatabase::new();
        assert!(db
            .by_id("CVE-2020-15257")
            .unwrap()
            .is_triggered_by(&malicious));
        assert!(!db.by_id("CVE-2020-15257").unwrap().is_triggered_by(&base));
    }

    #[test]
    fn every_exploit_injection_triggers_its_cve() {
        let db = k8s_model::cve::CveDatabase::new();
        let deployment = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        let service = K8sObject::from_yaml(SERVICE).unwrap();
        for spec in catalog().into_iter().filter(|s| s.is_cve()) {
            let SpecClass::CveExploit { cve_id } = &spec.class else {
                unreachable!()
            };
            let base = if spec.applies_to(ResourceKind::Deployment) {
                &deployment
            } else {
                &service
            };
            let malicious = spec.inject(base).unwrap();
            assert!(
                db.by_id(cve_id).unwrap().is_triggered_by(&malicious),
                "{} does not trigger {cve_id}",
                spec.id
            );
        }
    }

    #[test]
    fn misconfiguration_injections_change_the_targeted_fields() {
        let base = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        let m4 = by_id("M4").inject(&base).unwrap();
        assert_eq!(
            m4.field(
                &Path::parse("spec.template.spec.containers[0].securityContext.runAsNonRoot")
                    .unwrap()
            )
            .and_then(Value::as_bool),
            Some(false)
        );
        let m5 = by_id("M5").inject(&base).unwrap();
        let caps = m5
            .field(
                &Path::parse("spec.template.spec.containers[0].securityContext.capabilities.add")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(caps.as_seq().unwrap().len(), 2);
    }

    #[test]
    fn injection_into_an_incompatible_kind_returns_none() {
        let service = K8sObject::from_yaml(SERVICE).unwrap();
        assert!(by_id("E1").inject(&service).is_none());
        let deployment = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        assert!(by_id("E2").inject(&deployment).is_none());
    }

    #[test]
    fn table_text_lists_every_entry() {
        let table = to_table();
        for id in ["E1", "E8", "M1", "M7"] {
            assert!(table.contains(id));
        }
        assert!(table.contains("CVE-2017-1002101"));
    }
}
