//! Attack-surface quantification (Figure 9 and Table I of the paper).
//!
//! The analysis counts the configurable fields exposed by every API endpoint
//! (the [`k8s_model::schema`] catalog: 5,869 fields, the counterpart of the
//! paper's 4,882-field denominator),
//! determines which of them each workload can actually use (from the
//! KubeFence validator generated for that workload), and compares how much of
//! the remaining surface RBAC and KubeFence can each restrict:
//!
//! * RBAC can only remove *entire endpoints* the workload never touches;
//! * KubeFence additionally removes every unused field *within* the endpoints
//!   the workload does touch, making it a strict superset of RBAC.

use k8s_model::schema::{catalog, SchemaCatalog};
use k8s_model::ResourceKind;

use crate::validator::Validator;

/// Per-endpoint usage of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointUsage {
    /// The endpoint (resource kind).
    pub kind: ResourceKind,
    /// Total configurable fields of the endpoint.
    pub total_fields: usize,
    /// Fields the workload's configuration space can reach.
    pub used_fields: usize,
}

impl EndpointUsage {
    /// Percentage of the endpoint's fields used by the workload (the cell
    /// values of Figure 9).
    pub fn usage_percent(&self) -> f64 {
        if self.total_fields == 0 {
            0.0
        } else {
            100.0 * self.used_fields as f64 / self.total_fields as f64
        }
    }
}

/// The attack-surface figures of one workload (one row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSurface {
    /// Workload (operator) name.
    pub workload: String,
    /// Per-endpoint usage, in Figure 9 column order.
    pub endpoints: Vec<EndpointUsage>,
    /// Total configurable fields across all endpoints.
    pub total_fields: usize,
    /// Fields restrictable by RBAC (all fields of fully-unused endpoints).
    pub rbac_restrictable: usize,
    /// Fields restrictable by KubeFence (every field outside the workload's
    /// configuration space).
    pub kubefence_restrictable: usize,
}

impl WorkloadSurface {
    /// RBAC attack-surface reduction, in percent.
    pub fn rbac_reduction_percent(&self) -> f64 {
        100.0 * self.rbac_restrictable as f64 / self.total_fields as f64
    }

    /// KubeFence attack-surface reduction, in percent.
    pub fn kubefence_reduction_percent(&self) -> f64 {
        100.0 * self.kubefence_restrictable as f64 / self.total_fields as f64
    }

    /// The improvement of KubeFence over RBAC, in percentage points.
    pub fn improvement_percent(&self) -> f64 {
        self.kubefence_reduction_percent() - self.rbac_reduction_percent()
    }

    /// Usage for one endpoint.
    pub fn usage_for(&self, kind: ResourceKind) -> Option<&EndpointUsage> {
        self.endpoints.iter().find(|e| e.kind == kind)
    }
}

/// The full report over all analyzed workloads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SurfaceReport {
    /// One entry per workload.
    pub workloads: Vec<WorkloadSurface>,
}

impl SurfaceReport {
    /// Average improvement of KubeFence over RBAC across workloads (the paper
    /// reports ≈35%).
    pub fn average_improvement_percent(&self) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        self.workloads
            .iter()
            .map(WorkloadSurface::improvement_percent)
            .sum::<f64>()
            / self.workloads.len() as f64
    }

    /// Render Table I as fixed-width text.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>22} {:>22} {:>12} {:>12}\n",
            "Workload", "Restrictable (RBAC)", "Restrictable (KubeFence)", "RBAC %", "KubeFence %"
        ));
        for w in &self.workloads {
            out.push_str(&format!(
                "{:<12} {:>15} / {:>4} {:>15} / {:>4} {:>11.2}% {:>11.2}%\n",
                w.workload,
                w.rbac_restrictable,
                w.total_fields,
                w.kubefence_restrictable,
                w.total_fields,
                w.rbac_reduction_percent(),
                w.kubefence_reduction_percent(),
            ));
        }
        out.push_str(&format!(
            "average improvement of KubeFence over RBAC: {:.2} percentage points\n",
            self.average_improvement_percent()
        ));
        out
    }

    /// Render Figure 9 (percentage of API usage per workload and endpoint) as
    /// fixed-width text.
    pub fn to_heatmap(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12}", "Workload"));
        for kind in ResourceKind::ALL {
            out.push_str(&format!(" {:>7.7}", kind.as_str()));
        }
        out.push('\n');
        for w in &self.workloads {
            out.push_str(&format!("{:<12}", w.workload));
            for kind in ResourceKind::ALL {
                let pct = w
                    .usage_for(kind)
                    .map(EndpointUsage::usage_percent)
                    .unwrap_or(0.0);
                out.push_str(&format!(" {pct:>6.2}%"));
            }
            out.push('\n');
        }
        out
    }
}

/// The attack-surface analyzer.
#[derive(Debug, Clone)]
pub struct AttackSurfaceAnalyzer {
    catalog: &'static SchemaCatalog,
}

impl Default for AttackSurfaceAnalyzer {
    fn default() -> Self {
        AttackSurfaceAnalyzer::new()
    }
}

impl AttackSurfaceAnalyzer {
    /// An analyzer over the built-in field-schema catalog.
    pub fn new() -> Self {
        AttackSurfaceAnalyzer { catalog: catalog() }
    }

    /// Total configurable fields across all endpoints (Table I denominator).
    pub fn total_fields(&self) -> usize {
        self.catalog.total_field_count()
    }

    /// Analyze one workload from its generated validator.
    pub fn analyze(&self, validator: &Validator) -> WorkloadSurface {
        let mut endpoints = Vec::with_capacity(ResourceKind::ALL.len());
        let mut used_total = 0usize;
        let mut unused_endpoint_fields = 0usize;
        for kind in ResourceKind::ALL {
            let schema = self
                .catalog
                .fields_for(kind)
                .expect("catalog covers all kinds");
            let total_fields = schema.field_count();
            let used_fields = if validator.policy_for(kind).is_some() {
                let allowed = validator.field_paths(kind);
                let catalog_paths = schema.field_paths();
                allowed
                    .iter()
                    .filter(|path| catalog_paths.contains(path))
                    .count()
            } else {
                0
            };
            if validator.policy_for(kind).is_none() {
                unused_endpoint_fields += total_fields;
            }
            used_total += used_fields;
            endpoints.push(EndpointUsage {
                kind,
                total_fields,
                used_fields,
            });
        }
        let total_fields = self.total_fields();
        WorkloadSurface {
            workload: validator.workload().to_owned(),
            endpoints,
            total_fields,
            rbac_restrictable: unused_endpoint_fields,
            kubefence_restrictable: total_fields - used_total,
        }
    }

    /// Analyze several workloads into one report.
    pub fn analyze_all(&self, validators: &[Validator]) -> SurfaceReport {
        SurfaceReport {
            workloads: validators.iter().map(|v| self.analyze(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::Validator;

    fn validator_with(manifests: &[&str]) -> Validator {
        let parsed: Vec<_> = manifests
            .iter()
            .map(|m| kf_yaml::parse(m).unwrap())
            .collect();
        Validator::from_manifests("demo", &parsed).unwrap()
    }

    const DEPLOYMENT: &str = r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/nginx:1.25
"#;

    const SERVICE: &str = r#"apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  type: ClusterIP
  ports:
    - port: int
"#;

    #[test]
    fn kubefence_is_a_strict_superset_of_rbac() {
        let surface = AttackSurfaceAnalyzer::new().analyze(&validator_with(&[DEPLOYMENT, SERVICE]));
        assert!(surface.kubefence_restrictable > surface.rbac_restrictable);
        assert!(surface.kubefence_reduction_percent() > surface.rbac_reduction_percent());
        assert!(surface.kubefence_reduction_percent() <= 100.0);
    }

    #[test]
    fn unused_endpoints_are_fully_restrictable_by_both() {
        let surface = AttackSurfaceAnalyzer::new().analyze(&validator_with(&[DEPLOYMENT]));
        // Pod endpoint is never used: counted in RBAC's restrictable fields.
        let pod = surface.usage_for(ResourceKind::Pod).unwrap();
        assert_eq!(pod.used_fields, 0);
        assert_eq!(pod.usage_percent(), 0.0);
        assert!(surface.rbac_restrictable >= pod.total_fields);
    }

    #[test]
    fn used_endpoints_report_partial_usage() {
        let surface = AttackSurfaceAnalyzer::new().analyze(&validator_with(&[DEPLOYMENT, SERVICE]));
        let deployment = surface.usage_for(ResourceKind::Deployment).unwrap();
        assert!(deployment.used_fields > 0);
        assert!(deployment.used_fields < deployment.total_fields);
        let pct = deployment.usage_percent();
        assert!(pct > 0.0 && pct < 50.0, "deployment usage = {pct}%");
    }

    #[test]
    fn workloads_using_more_endpoints_have_lower_rbac_reduction() {
        let analyzer = AttackSurfaceAnalyzer::new();
        let narrow = analyzer.analyze(&validator_with(&[DEPLOYMENT]));
        let wide = analyzer.analyze(&validator_with(&[DEPLOYMENT, SERVICE]));
        assert!(wide.rbac_reduction_percent() < narrow.rbac_reduction_percent());
        // KubeFence stays high for both.
        assert!(wide.kubefence_reduction_percent() > 90.0);
        assert!(narrow.kubefence_reduction_percent() > 90.0);
    }

    #[test]
    fn report_renders_table_and_heatmap() {
        let analyzer = AttackSurfaceAnalyzer::new();
        let report = analyzer.analyze_all(&[validator_with(&[DEPLOYMENT, SERVICE])]);
        let table = report.to_table();
        assert!(table.contains("demo"));
        assert!(table.contains("KubeFence"));
        let heatmap = report.to_heatmap();
        assert!(heatmap.contains("Workload"));
        assert!(report.average_improvement_percent() > 0.0);
    }
}
