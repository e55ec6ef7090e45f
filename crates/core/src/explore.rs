//! Phase 2 — exploration of the configuration space.
//!
//! The values schema cannot be rendered directly: enumerative fields must be
//! resolved to one concrete option per rendering. KubeFence avoids the
//! combinatorial explosion of the full cross product by generating just enough
//! *values variants* that every option of every enumerative field appears in
//! at least one variant: at iteration `i`, each enumerative field takes its
//! `i`-th option (its last option once the list is exhausted), and the process
//! runs up to the length of the longest option list.

use kf_yaml::{Path, Value};

use crate::schema_gen::ValuesSchema;

/// Generates values variants from a values schema.
#[derive(Debug, Clone, Default)]
pub struct ConfigurationExplorer;

impl ConfigurationExplorer {
    /// An explorer with the paper's coverage strategy.
    pub fn new() -> Self {
        ConfigurationExplorer
    }

    /// The values variants covering every enumeration option at least once.
    pub fn variants(&self, schema: &ValuesSchema) -> Vec<Value> {
        let count = schema.variant_count();
        (0..count).map(|i| self.variant(schema, i)).collect()
    }

    /// The `i`-th variant (used by tests and the ablation example).
    pub fn variant(&self, schema: &ValuesSchema, iteration: usize) -> Value {
        let mut tree = schema.tree().clone();
        for (path, options) in schema.enums() {
            let option = options
                .get(iteration.min(options.len().saturating_sub(1)))
                .cloned()
                .unwrap_or(Value::Null);
            if let Ok(parsed) = Path::parse(path) {
                // Enumerations always sit on mapping fields of the values
                // tree, so the set cannot fail structurally; ignore paths that
                // disappeared (defensive).
                let _ = tree.set_path(&parsed, option);
            }
        }
        tree
    }

    /// The full cartesian product of all enumerations — exponentially larger,
    /// implemented only as the comparison point for the
    /// `ablation_variant_strategy` benchmark.
    pub fn exhaustive_variants(&self, schema: &ValuesSchema) -> Vec<Value> {
        let enums: Vec<(&String, &Vec<Value>)> = schema.enums().iter().collect();
        if enums.is_empty() {
            return vec![schema.tree().clone()];
        }
        let total: usize = enums
            .iter()
            .map(|(_, options)| options.len().max(1))
            .product();
        let mut variants = Vec::with_capacity(total);
        for mut index in 0..total {
            let mut tree = schema.tree().clone();
            for (path, options) in &enums {
                let len = options.len().max(1);
                let choice = index % len;
                index /= len;
                if let Ok(parsed) = Path::parse(path) {
                    let _ = tree.set_path(&parsed, options[choice].clone());
                }
            }
            variants.push(tree);
        }
        variants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_gen::ValuesSchemaGenerator;
    use helm_lite::ValuesFile;

    fn schema_from(values: &str) -> ValuesSchema {
        ValuesSchemaGenerator::default().generate(&ValuesFile::parse(values).unwrap())
    }

    #[test]
    fn no_enums_yields_a_single_variant() {
        let schema = schema_from("name: demo\nreplicas: 2\n");
        let variants = ConfigurationExplorer::new().variants(&schema);
        assert_eq!(variants.len(), 1);
        assert_eq!(variants[0].get("replicas").unwrap(), &Value::from("int"));
    }

    #[test]
    fn variant_count_follows_the_longest_enumeration() {
        let schema = schema_from(
            "# @options: a | b | c\nmode: a\nservice:\n  # @options: ClusterIP, NodePort\n  type: ClusterIP\n",
        );
        let explorer = ConfigurationExplorer::new();
        let variants = explorer.variants(&schema);
        assert_eq!(variants.len(), 3);
        // Shorter lists reuse their last option once exhausted.
        assert_eq!(
            variants[2]
                .get_path(&Path::parse("service.type").unwrap())
                .unwrap(),
            &Value::from("NodePort")
        );
        assert_eq!(variants[2].get("mode").unwrap(), &Value::from("c"));
    }

    #[test]
    fn every_option_appears_in_at_least_one_variant() {
        let schema = schema_from("# @options: a | b | c\nmode: a\nfeature:\n  enabled: true\n");
        let variants = ConfigurationExplorer::new().variants(&schema);
        for option in ["a", "b", "c"] {
            assert!(
                variants
                    .iter()
                    .any(|v| v.get("mode").unwrap() == &Value::from(option)),
                "option {option} not covered"
            );
        }
        for flag in [true, false] {
            assert!(variants.iter().any(|v| {
                v.get_path(&Path::parse("feature.enabled").unwrap())
                    .unwrap()
                    == &Value::Bool(flag)
            }));
        }
    }

    #[test]
    fn exhaustive_exploration_is_the_cross_product() {
        let schema = schema_from("# @options: a | b | c\nmode: a\nfeature:\n  enabled: true\n");
        let explorer = ConfigurationExplorer::new();
        assert_eq!(explorer.variants(&schema).len(), 3);
        assert_eq!(explorer.exhaustive_variants(&schema).len(), 6);
    }
}
