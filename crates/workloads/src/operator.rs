//! The five evaluated operators.

use std::fmt;

use helm_lite::{render_chart, Chart, RenderedManifest};
use k8s_model::K8sObject;

use crate::charts;

/// The five operators of the paper's evaluation (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operator {
    /// `bitnami/nginx` — networking services.
    Nginx,
    /// `community-charts/mlflow` — AI/ML applications.
    Mlflow,
    /// `bitnami/postgresql` — databases.
    Postgresql,
    /// `bitnami/rabbitmq` — data streaming.
    Rabbitmq,
    /// `openshift-bootstraps/sonarqube` — security / code quality.
    Sonarqube,
}

impl Operator {
    /// All five operators, in the order of the paper's tables.
    pub const ALL: [Operator; 5] = [
        Operator::Nginx,
        Operator::Mlflow,
        Operator::Postgresql,
        Operator::Rabbitmq,
        Operator::Sonarqube,
    ];

    /// Display name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Nginx => "Nginx",
            Operator::Mlflow => "Mlflow",
            Operator::Postgresql => "PostgreSQL",
            Operator::Rabbitmq => "RabbitMQ",
            Operator::Sonarqube => "SonarQube",
        }
    }

    /// The release name each operator is deployed under.
    pub fn release_name(&self) -> &'static str {
        match self {
            Operator::Nginx => "web",
            Operator::Mlflow => "mlflow",
            Operator::Postgresql => "pg",
            Operator::Rabbitmq => "mq",
            Operator::Sonarqube => "sonar",
        }
    }

    /// The namespace each operator deploys into.
    pub fn namespace(&self) -> &'static str {
        match self {
            Operator::Nginx => "web",
            Operator::Mlflow => "mlops",
            Operator::Postgresql => "data",
            Operator::Rabbitmq => "messaging",
            Operator::Sonarqube => "quality",
        }
    }

    /// The user (service identity) the operator authenticates as.
    pub fn user(&self) -> String {
        format!("operator:{}", self.name().to_lowercase())
    }

    /// The operator's Helm chart.
    pub fn chart(&self) -> Chart {
        match self {
            Operator::Nginx => charts::nginx::chart(),
            Operator::Mlflow => charts::mlflow::chart(),
            Operator::Postgresql => charts::postgresql::chart(),
            Operator::Rabbitmq => charts::rabbitmq::chart(),
            Operator::Sonarqube => charts::sonarqube::chart(),
        }
    }

    /// The full workload (chart + rendered default deployment).
    pub fn workload(&self) -> OperatorWorkload {
        OperatorWorkload::new(*self)
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An operator together with its chart and the manifests of its default
/// (attack-free) deployment.
#[derive(Debug, Clone)]
pub struct OperatorWorkload {
    operator: Operator,
    chart: Chart,
}

impl OperatorWorkload {
    /// Build the workload for an operator.
    pub fn new(operator: Operator) -> Self {
        OperatorWorkload {
            operator,
            chart: operator.chart(),
        }
    }

    /// The operator.
    pub fn operator(&self) -> Operator {
        self.operator
    }

    /// The operator's chart.
    pub fn chart(&self) -> &Chart {
        &self.chart
    }

    /// The manifests of the default deployment (rendered with the chart's
    /// default values), i.e. what the operator submits during an attack-free
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if the built-in chart fails to render — that would be a bug in
    /// the chart definitions, caught by the crate's tests.
    pub fn default_manifests(&self) -> Vec<RenderedManifest> {
        render_chart(&self.chart, None, self.operator.release_name())
            .expect("built-in charts must render")
    }

    /// The default deployment as Kubernetes objects.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`OperatorWorkload::default_manifests`].
    pub fn default_objects(&self) -> Vec<K8sObject> {
        self.default_manifests()
            .into_iter()
            .map(|m| {
                K8sObject::from_value(m.document).expect("built-in charts produce valid objects")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::ResourceKind;
    use std::collections::BTreeSet;

    #[test]
    fn all_operators_render_their_default_deployment() {
        for operator in Operator::ALL {
            let objects = operator.workload().default_objects();
            assert!(
                objects.len() >= 4,
                "{operator} deploys only {} objects",
                objects.len()
            );
        }
    }

    #[test]
    fn operator_kind_footprints_match_figure9_structure() {
        let kinds_of = |operator: Operator| -> BTreeSet<ResourceKind> {
            operator
                .workload()
                .default_objects()
                .iter()
                .map(|o| o.kind())
                .collect()
        };
        // Nginx and MLflow never create Pods or Jobs directly.
        for operator in [Operator::Nginx, Operator::Mlflow] {
            let kinds = kinds_of(operator);
            assert!(!kinds.contains(&ResourceKind::Pod));
            assert!(!kinds.contains(&ResourceKind::Job));
            assert!(kinds.contains(&ResourceKind::Deployment));
            assert!(kinds.contains(&ResourceKind::Service));
        }
        // The database and messaging operators are StatefulSet-based.
        for operator in [Operator::Postgresql, Operator::Rabbitmq] {
            let kinds = kinds_of(operator);
            assert!(kinds.contains(&ResourceKind::StatefulSet));
            assert!(!kinds.contains(&ResourceKind::Deployment));
            assert!(kinds.contains(&ResourceKind::Secret));
        }
        // SonarQube touches by far the most endpoints (the paper's widest
        // workload, hence the lowest RBAC reduction in Table I).
        let sonar = kinds_of(Operator::Sonarqube);
        assert!(sonar.len() >= 12, "SonarQube uses {} kinds", sonar.len());
        assert!(sonar.contains(&ResourceKind::ValidatingWebhookConfiguration));
        assert!(sonar.contains(&ResourceKind::ClusterRole));
        for operator in [
            Operator::Nginx,
            Operator::Mlflow,
            Operator::Postgresql,
            Operator::Rabbitmq,
        ] {
            assert!(kinds_of(operator).len() < sonar.len());
        }
    }

    #[test]
    fn all_workloads_use_service_and_service_account() {
        // Figure 9: Service and ServiceAccount are used by every workload.
        for operator in Operator::ALL {
            let kinds: BTreeSet<_> = operator
                .workload()
                .default_objects()
                .iter()
                .map(|o| o.kind())
                .collect();
            assert!(kinds.contains(&ResourceKind::Service), "{operator}");
            assert!(kinds.contains(&ResourceKind::ServiceAccount), "{operator}");
        }
    }

    #[test]
    fn rendered_objects_are_namespaced_consistently() {
        for operator in Operator::ALL {
            for object in operator.workload().default_objects() {
                if object.kind().is_namespaced() {
                    // Charts leave the namespace to the request path; objects
                    // either carry the operator namespace or none at all.
                    assert!(
                        object.namespace().is_empty() || object.namespace() == operator.namespace(),
                        "{operator}: {} has namespace {}",
                        object.name(),
                        object.namespace()
                    );
                }
            }
        }
    }

    #[test]
    fn identities_are_distinct_per_operator() {
        let mut users = BTreeSet::new();
        let mut releases = BTreeSet::new();
        for operator in Operator::ALL {
            users.insert(operator.user());
            releases.insert(operator.release_name());
        }
        assert_eq!(users.len(), 5);
        assert_eq!(releases.len(), 5);
    }
}
