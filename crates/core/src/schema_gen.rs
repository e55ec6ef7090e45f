//! Phase 1 — generation of the values schema (Figure 7 of the paper).
//!
//! The chart's default values are transformed into a *values schema*:
//!
//! * static values are replaced by type placeholders (`string`, `int`,
//!   `float`, `IP`);
//! * boolean fields and fields with `# @options:` annotations become
//!   enumerations (each valid option will be covered by at least one variant
//!   during exploration);
//! * security-critical value paths (trusted registries, image repositories,
//!   …) are locked to their default constants instead of being generalized,
//!   mitigating typosquatting-style abuses.

use std::collections::BTreeMap;

use helm_lite::ValuesFile;
use kf_yaml::{Mapping, Value};

/// Placeholder tokens used inside values schemas and rendered manifests.
pub mod placeholder {
    /// Free-form string.
    pub const STRING: &str = "string";
    /// Integer.
    pub const INT: &str = "int";
    /// Floating point number.
    pub const FLOAT: &str = "float";
    /// IP address.
    pub const IP: &str = "IP";

    /// All placeholder tokens.
    pub const ALL: [&str; 4] = [STRING, INT, FLOAT, IP];

    /// Whether a string is one of the placeholder tokens.
    pub fn is_placeholder(text: &str) -> bool {
        ALL.contains(&text)
    }
}

/// The generalized values document plus the enumerations to explore.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuesSchema {
    tree: Value,
    enums: BTreeMap<String, Vec<Value>>,
}

impl ValuesSchema {
    /// The generalized values tree (placeholders + locked constants; enum
    /// fields hold their first option).
    pub fn tree(&self) -> &Value {
        &self.tree
    }

    /// The enumerative fields, keyed by dotted path, with their options.
    pub fn enums(&self) -> &BTreeMap<String, Vec<Value>> {
        &self.enums
    }

    /// The number of variants required so that every enumeration option is
    /// covered at least once (the length of the longest option list, at least
    /// one).
    pub fn variant_count(&self) -> usize {
        self.enums.values().map(Vec::len).max().unwrap_or(1).max(1)
    }

    /// Serialize the schema tree as YAML (for documentation and debugging).
    pub fn to_yaml(&self) -> String {
        kf_yaml::to_yaml(&self.tree)
    }
}

/// Configuration of the schema generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaGeneratorConfig {
    /// Exact dotted values paths locked to their default constants.
    pub locked_value_paths: Vec<String>,
    /// Path suffixes (final key names) locked to their default constants —
    /// by default `registry` and `repository`, restricting images to trusted
    /// sources.
    pub locked_value_suffixes: Vec<String>,
    /// Treat boolean values as two-option enumerations so that both branches
    /// of chart conditionals are explored (on by default).
    pub explore_booleans: bool,
}

impl Default for SchemaGeneratorConfig {
    fn default() -> Self {
        SchemaGeneratorConfig {
            locked_value_paths: Vec::new(),
            locked_value_suffixes: vec!["registry".to_owned(), "repository".to_owned()],
            explore_booleans: true,
        }
    }
}

/// Phase-1 generator: values file → values schema.
#[derive(Debug, Clone, Default)]
pub struct ValuesSchemaGenerator {
    config: SchemaGeneratorConfig,
}

impl ValuesSchemaGenerator {
    /// Generator with the given configuration.
    pub fn new(config: SchemaGeneratorConfig) -> Self {
        ValuesSchemaGenerator { config }
    }

    /// Generate the values schema for a chart's values file.
    pub fn generate(&self, values: &ValuesFile) -> ValuesSchema {
        let mut enums = BTreeMap::new();
        let tree = self.generalize(values.defaults(), values, "", &mut enums);
        ValuesSchema { tree, enums }
    }

    fn is_locked(&self, path: &str) -> bool {
        if self.config.locked_value_paths.iter().any(|p| p == path) {
            return true;
        }
        let last = path.rsplit('.').next().unwrap_or(path);
        self.config
            .locked_value_suffixes
            .iter()
            .any(|suffix| suffix == last)
    }

    fn generalize(
        &self,
        value: &Value,
        values: &ValuesFile,
        path: &str,
        enums: &mut BTreeMap<String, Vec<Value>>,
    ) -> Value {
        match value {
            Value::Map(map) => {
                let mut out = Mapping::new();
                for (key, child) in map.iter() {
                    let child_path = if path.is_empty() {
                        key.to_owned()
                    } else {
                        format!("{path}.{key}")
                    };
                    out.insert(
                        key.to_owned(),
                        self.generalize(child, values, &child_path, enums),
                    );
                }
                Value::Map(out)
            }
            Value::Seq(items) => Value::Seq(
                items
                    .iter()
                    .map(|item| self.generalize(item, values, path, enums))
                    .collect(),
            ),
            scalar => self.generalize_scalar(scalar, values, path, enums),
        }
    }

    fn generalize_scalar(
        &self,
        scalar: &Value,
        values: &ValuesFile,
        path: &str,
        enums: &mut BTreeMap<String, Vec<Value>>,
    ) -> Value {
        // Security-locked paths keep their default constants.
        if self.is_locked(path) {
            return scalar.clone();
        }
        // Annotated enumerations: record the options, keep the first one in
        // the tree (each variant substitutes a different option).
        if let Some(options) = values.options_for(path) {
            if !options.is_empty() {
                enums.insert(path.to_owned(), options.to_vec());
                return options[0].clone();
            }
        }
        match scalar {
            Value::Bool(current) => {
                if self.config.explore_booleans {
                    enums.insert(
                        path.to_owned(),
                        vec![Value::Bool(*current), Value::Bool(!current)],
                    );
                }
                Value::Bool(*current)
            }
            Value::Int(_) => Value::from(placeholder::INT),
            Value::Float(_) => Value::from(placeholder::FLOAT),
            Value::Str(text) => {
                if looks_like_ip(text) {
                    Value::from(placeholder::IP)
                } else {
                    Value::from(placeholder::STRING)
                }
            }
            Value::Null => Value::Null,
            container => container.clone(),
        }
    }
}

/// Whether a string looks like an IPv4 address (the placeholder heuristic the
/// paper applies to fields such as `host: "0.0.0.0"`).
pub fn looks_like_ip(text: &str) -> bool {
    let octets: Vec<&str> = text.split('.').collect();
    octets.len() == 4
        && octets
            .iter()
            .all(|o| !o.is_empty() && o.len() <= 3 && o.chars().all(|c| c.is_ascii_digit()))
        && octets
            .iter()
            .all(|o| o.parse::<u16>().map(|v| v <= 255).unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_yaml::Path;

    const VALUES: &str = r#"image:
  registry: docker.io
  repository: bitnami/mlflow
  pullSecrets:
    - name: secret-1
    - name: secret-2
tracking:
  enabled: true
  replicaCount: 1
  host: "0.0.0.0"
  containerSecurityContext:
    runAsNonRoot: true
postgreSQL:
  # @options: standalone | repl
  arch: standalone
"#;

    fn schema() -> ValuesSchema {
        let values = ValuesFile::parse(VALUES).unwrap();
        ValuesSchemaGenerator::default().generate(&values)
    }

    fn at(schema: &ValuesSchema, path: &str) -> Value {
        schema
            .tree()
            .get_path(&Path::parse(path).unwrap())
            .cloned()
            .unwrap_or(Value::Null)
    }

    #[test]
    fn static_values_become_type_placeholders() {
        let schema = schema();
        assert_eq!(at(&schema, "tracking.replicaCount"), Value::from("int"));
        assert_eq!(at(&schema, "tracking.host"), Value::from("IP"));
        assert_eq!(
            at(&schema, "image.pullSecrets[0].name"),
            Value::from("string")
        );
    }

    #[test]
    fn trusted_registry_and_repository_stay_locked() {
        let schema = schema();
        assert_eq!(at(&schema, "image.registry"), Value::from("docker.io"));
        assert_eq!(
            at(&schema, "image.repository"),
            Value::from("bitnami/mlflow")
        );
    }

    #[test]
    fn annotations_become_enumerations() {
        let schema = schema();
        let options = schema.enums().get("postgreSQL.arch").unwrap();
        assert_eq!(
            options,
            &vec![Value::from("standalone"), Value::from("repl")]
        );
        // The tree keeps the first option for rendering.
        assert_eq!(at(&schema, "postgreSQL.arch"), Value::from("standalone"));
    }

    #[test]
    fn booleans_are_explored_as_two_option_enums() {
        let schema = schema();
        let options = schema.enums().get("tracking.enabled").unwrap();
        assert_eq!(options.len(), 2);
        assert!(options.contains(&Value::Bool(true)));
        assert!(options.contains(&Value::Bool(false)));
        assert_eq!(schema.variant_count(), 2);
    }

    #[test]
    fn boolean_exploration_can_be_disabled() {
        let values = ValuesFile::parse("enabled: true\n").unwrap();
        let generator = ValuesSchemaGenerator::new(SchemaGeneratorConfig {
            explore_booleans: false,
            ..SchemaGeneratorConfig::default()
        });
        let schema = generator.generate(&values);
        assert!(schema.enums().is_empty());
        assert_eq!(schema.variant_count(), 1);
    }

    #[test]
    fn custom_locked_paths_are_respected() {
        let values = ValuesFile::parse("priorityClass: high\nname: demo\n").unwrap();
        let generator = ValuesSchemaGenerator::new(SchemaGeneratorConfig {
            locked_value_paths: vec!["priorityClass".to_owned()],
            ..SchemaGeneratorConfig::default()
        });
        let schema = generator.generate(&values);
        assert_eq!(
            schema.tree().get("priorityClass").unwrap(),
            &Value::from("high")
        );
        assert_eq!(schema.tree().get("name").unwrap(), &Value::from("string"));
    }

    #[test]
    fn ip_detection_is_conservative() {
        assert!(looks_like_ip("0.0.0.0"));
        assert!(looks_like_ip("192.168.1.254"));
        assert!(!looks_like_ip("1.2.3"));
        assert!(!looks_like_ip("1.2.3.999"));
        assert!(!looks_like_ip("bitnami/nginx"));
        assert!(!looks_like_ip("v1.2.3.4suffix"));
    }
}
