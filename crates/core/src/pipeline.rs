//! The end-to-end policy generation pipeline (offline phase of Figure 6).

use helm_lite::{render_chart_in_namespace, Chart};
use kf_yaml::Value;

use crate::explore::ConfigurationExplorer;
use crate::schema_gen::{SchemaGeneratorConfig, ValuesSchemaGenerator};
use crate::security::SecurityLocks;
use crate::validator::Validator;
use crate::Result;

/// Configuration of the policy generation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Release name used when rendering the chart (the operator deploys with
    /// the same release name, so generated constants line up).
    pub release_name: String,
    /// Target namespace used when rendering.
    pub namespace: String,
    /// Values-schema generation options.
    pub schema: SchemaGeneratorConfig,
    /// Security best-practice locks applied to the generated validator.
    pub security_locks: SecurityLocks,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            release_name: "release".to_owned(),
            namespace: "default".to_owned(),
            schema: SchemaGeneratorConfig::default(),
            security_locks: SecurityLocks::best_practices(),
        }
    }
}

impl GeneratorConfig {
    /// A configuration using the given release name (everything else default).
    pub fn for_release(release_name: &str) -> Self {
        GeneratorConfig {
            release_name: release_name.to_owned(),
            ..GeneratorConfig::default()
        }
    }
}

/// The KubeFence policy generator: chart in, validator out.
#[derive(Debug, Clone, Default)]
pub struct PolicyGenerator {
    config: GeneratorConfig,
}

impl PolicyGenerator {
    /// A generator with the given configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        PolicyGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Run the full pipeline: values schema → variants → rendered manifests →
    /// consolidated validator with security locks applied.
    ///
    /// Locks that conflict with the chart's *default* configuration (the
    /// workload legitimately requires the unsafe value) are skipped for this
    /// workload rather than breaking it; that interface remains a residual
    /// risk, as discussed in Section VIII of the paper.
    ///
    /// # Errors
    ///
    /// Propagates chart rendering failures and manifest interpretation
    /// failures.
    pub fn generate(&self, chart: &Chart) -> Result<Validator> {
        let manifests = self.rendered_manifests(chart)?;
        let mut validator = Validator::from_manifests(&chart.metadata().name, &manifests)?;
        let default_manifests = render_chart_in_namespace(
            chart,
            None,
            &self.config.release_name,
            &self.config.namespace,
        )?;
        let defaults: Vec<Value> = default_manifests.into_iter().map(|m| m.document).collect();
        let locks = self.effective_locks(&defaults);
        validator.apply_security_locks(&locks);
        Ok(validator)
    }

    /// The security locks that do not conflict with the chart's default
    /// configuration. A lock conflicts when some default manifest sets the
    /// locked field to a different value — the workload needs that feature,
    /// so KubeFence leaves it enabled (residual risk).
    fn effective_locks(&self, default_manifests: &[Value]) -> SecurityLocks {
        let mut effective = SecurityLocks::none();
        'locks: for lock in self.config.security_locks.locks() {
            for manifest in default_manifests {
                let Ok(object) = k8s_model::K8sObject::from_value(manifest.clone()) else {
                    continue;
                };
                let Some(prefix) = k8s_model::FieldRef::pod_spec_prefix(object.kind()) else {
                    continue;
                };
                let path = format!("{prefix}.{}", lock.field);
                let conflicting = k8s_model::condition::lookup_collapsed(object.body(), &path)
                    .iter()
                    .any(|value| !value.loosely_equals(&lock.locked_value));
                if conflicting {
                    continue 'locks;
                }
            }
            effective = effective.with_lock(lock.clone());
        }
        effective
    }

    /// The rendered manifests for every values variant (exposed separately
    /// for the ablation example and for Figure 9's usage analysis).
    ///
    /// # Errors
    ///
    /// Propagates chart rendering failures.
    pub fn rendered_manifests(&self, chart: &Chart) -> Result<Vec<Value>> {
        let schema =
            ValuesSchemaGenerator::new(self.config.schema.clone()).generate(chart.values());
        let variants = ConfigurationExplorer::new().variants(&schema);
        let mut manifests = Vec::new();
        for variant in &variants {
            let rendered = render_chart_in_namespace(
                chart,
                Some(variant),
                &self.config.release_name,
                &self.config.namespace,
            )?;
            manifests.extend(rendered.into_iter().map(|m| m.document));
        }
        Ok(manifests)
    }

    /// Number of values variants the chart's configuration space requires.
    pub fn variant_count(&self, chart: &Chart) -> usize {
        ValuesSchemaGenerator::new(self.config.schema.clone())
            .generate(chart.values())
            .variant_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helm_lite::{ChartMetadata, TemplateFile, ValuesFile};
    use k8s_model::{K8sObject, ResourceKind};

    fn chart() -> Chart {
        let values = ValuesFile::parse(
            r#"replicaCount: 1
image:
  registry: docker.io
  repository: bitnami/nginx
  tag: 1.25.3
service:
  # @options: ClusterIP, LoadBalancer
  type: ClusterIP
  port: 8080
metrics:
  enabled: false
containerSecurityContext:
  runAsNonRoot: true
"#,
        )
        .unwrap();
        let deployment = TemplateFile::new(
            "deployment.yaml",
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-nginx
spec:
  replicas: {{ .Values.replicaCount }}
  template:
    spec:
      containers:
        - name: nginx
          image: "{{ .Values.image.registry }}/{{ .Values.image.repository }}:{{ .Values.image.tag }}"
          ports:
            - containerPort: {{ .Values.service.port }}
          securityContext:
            runAsNonRoot: {{ .Values.containerSecurityContext.runAsNonRoot }}
"#,
        );
        let service = TemplateFile::new(
            "service.yaml",
            r#"apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-nginx
spec:
  type: {{ .Values.service.type }}
  ports:
    - port: {{ .Values.service.port }}
"#,
        );
        let metrics = TemplateFile::new(
            "metrics-service.yaml",
            r#"{{- if .Values.metrics.enabled }}
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-nginx-metrics
spec:
  ports:
    - port: 9113
{{- end }}
"#,
        );
        Chart::new(
            ChartMetadata::new("nginx", "15.0.0"),
            values,
            vec![deployment, service, metrics],
        )
    }

    #[test]
    fn pipeline_produces_a_validator_for_the_used_kinds() {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release("web"))
            .generate(&chart())
            .unwrap();
        let mut kinds = validator.kinds();
        kinds.sort();
        assert_eq!(kinds, vec![ResourceKind::Deployment, ResourceKind::Service]);
    }

    #[test]
    fn enumerations_and_conditionals_are_covered() {
        let generator = PolicyGenerator::new(GeneratorConfig::for_release("web"));
        // service.type has two options, metrics.enabled is a boolean: two
        // variants cover the whole space.
        assert_eq!(generator.variant_count(&chart()), 2);
        let validator = generator.generate(&chart()).unwrap();
        // Both service types are allowed…
        for service_type in ["ClusterIP", "LoadBalancer"] {
            let manifest = format!(
                "apiVersion: v1\nkind: Service\nmetadata:\n  name: web-nginx\nspec:\n  type: {service_type}\n  ports:\n    - port: 8080\n"
            );
            let object = K8sObject::from_yaml(&manifest).unwrap();
            assert!(
                validator.validate_tree(&object).is_empty(),
                "{service_type} must be allowed"
            );
        }
        // …but a type outside the enumeration is not.
        let node_port = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: web-nginx\nspec:\n  type: NodePort\n  ports:\n    - port: 8080\n",
        )
        .unwrap();
        assert!(!validator.validate_tree(&node_port).is_empty());
        // The metrics service (rendered only in the enabled variant) is part
        // of the allowed configuration space.
        let metrics = K8sObject::from_yaml(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: web-nginx-metrics\nspec:\n  ports:\n    - port: 9113\n",
        )
        .unwrap();
        assert!(validator.validate_tree(&metrics).is_empty());
    }

    #[test]
    fn generated_validator_blocks_fields_outside_the_chart() {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release("web"))
            .generate(&chart())
            .unwrap();
        let exploit = K8sObject::from_yaml(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web-nginx
spec:
  replicas: 2
  template:
    spec:
      hostNetwork: true
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:1.25.3
          ports:
            - containerPort: 8080
          securityContext:
            runAsNonRoot: true
"#,
        )
        .unwrap();
        let violations = validator.validate_tree(&exploit);
        assert!(violations
            .iter()
            .any(|v| v.path == "spec.template.spec.hostNetwork"));
    }

    #[test]
    fn legitimate_deployments_pass_validation() {
        let validator = PolicyGenerator::new(GeneratorConfig::for_release("web"))
            .generate(&chart())
            .unwrap();
        let legitimate = K8sObject::from_yaml(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web-nginx
spec:
  replicas: 3
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:1.25.3
          ports:
            - containerPort: 8080
          securityContext:
            runAsNonRoot: true
"#,
        )
        .unwrap();
        assert!(validator.validate_tree(&legitimate).is_empty());
    }
}
