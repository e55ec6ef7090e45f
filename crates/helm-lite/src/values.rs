//! The chart's default values file, including enumeration annotations.
//!
//! The paper's schema-generation phase (Figure 7) turns the default values of
//! a chart into a *values schema*: every static value becomes a type
//! placeholder, and enumerative fields become the list of their valid options,
//! "extracted from annotations in the values file". Real charts document those
//! options in comments next to the field (the MLflow example in the paper uses
//! `# 'standalone' or 'repl'`). This module parses the values document *and*
//! those option annotations.

use std::collections::BTreeMap;

use kf_yaml::Value;

use crate::{Error, Result};

/// An enumeration annotation attached to a values field: the list of valid
/// options the chart documents for that field.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumAnnotation {
    /// Dotted path of the annotated field inside the values document.
    pub path: String,
    /// The documented options.
    pub options: Vec<Value>,
}

/// A parsed `values.yaml`: the default values document plus the enumeration
/// annotations found in its comments.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuesFile {
    defaults: Value,
    annotations: BTreeMap<String, Vec<Value>>,
}

impl ValuesFile {
    /// Parse a values file from YAML text.
    ///
    /// Enumeration annotations are comment lines of the form
    /// `# @options: a | b | c` (or comma-separated) placed immediately above
    /// the annotated field, mirroring how upstream charts document valid
    /// options in comments.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Values`] when the YAML cannot be parsed.
    pub fn parse(text: &str) -> Result<Self> {
        let defaults = kf_yaml::parse(text).map_err(|e| Error::Values {
            message: e.to_string(),
        })?;
        let annotations = extract_annotations(text);
        Ok(ValuesFile {
            defaults,
            annotations,
        })
    }

    /// Build from an already-parsed document (no annotations).
    pub fn from_value(defaults: Value) -> Self {
        ValuesFile {
            defaults,
            annotations: BTreeMap::new(),
        }
    }

    /// The default values document.
    pub fn defaults(&self) -> &Value {
        &self.defaults
    }

    /// The enumeration annotations, keyed by dotted field path.
    pub fn annotations(&self) -> &BTreeMap<String, Vec<Value>> {
        &self.annotations
    }

    /// The annotation for a specific field path, if any.
    pub fn options_for(&self, path: &str) -> Option<&[Value]> {
        self.annotations.get(path).map(Vec::as_slice)
    }

    /// All annotations as [`EnumAnnotation`] records.
    pub fn enum_annotations(&self) -> Vec<EnumAnnotation> {
        self.annotations
            .iter()
            .map(|(path, options)| EnumAnnotation {
                path: path.clone(),
                options: options.clone(),
            })
            .collect()
    }

    /// The default values with a user override document merged on top
    /// (Helm `--values` semantics: maps merge recursively, everything else is
    /// replaced).
    pub fn merged_with(&self, overrides: Option<&Value>) -> Value {
        let mut merged = self.defaults.clone();
        if let Some(overrides) = overrides {
            merged.merge_from(overrides);
        }
        merged
    }
}

/// Scan the raw text for `# @options:` annotations and associate each with the
/// dotted path of the field that follows it.
fn extract_annotations(text: &str) -> BTreeMap<String, Vec<Value>> {
    let mut out = BTreeMap::new();
    let mut pending: Option<Vec<Value>> = None;
    // Stack of (indent, key) giving the dotted path of the current position.
    let mut stack: Vec<(usize, String)> = Vec::new();

    for raw in text.lines() {
        let trimmed = raw.trim_start();
        let indent = raw.len() - trimmed.len();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(list) = rest.strip_prefix("@options:") {
                pending = Some(parse_options(list));
            }
            continue;
        }
        // A list item cannot carry an annotation target in our charts.
        if trimmed.starts_with('-') {
            pending = None;
            continue;
        }
        let Some((key, _rest)) = split_key(trimmed) else {
            pending = None;
            continue;
        };
        while let Some((top_indent, _)) = stack.last() {
            if *top_indent >= indent {
                stack.pop();
            } else {
                break;
            }
        }
        stack.push((indent, key.to_owned()));
        if let Some(options) = pending.take() {
            let path = stack
                .iter()
                .map(|(_, k)| k.as_str())
                .collect::<Vec<_>>()
                .join(".");
            out.insert(path, options);
        }
    }
    out
}

fn parse_options(list: &str) -> Vec<Value> {
    let separator = if list.contains('|') { '|' } else { ',' };
    list.split(separator)
        .map(|raw| {
            let token = raw.trim().trim_matches('"').trim_matches('\'');
            match token {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                other => match other.parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::Str(other.to_owned()),
                },
            }
        })
        .filter(|v| !matches!(v, Value::Str(s) if s.is_empty()))
        .collect()
}

fn split_key(line: &str) -> Option<(&str, &str)> {
    let idx = line.find(':')?;
    let key = line[..idx].trim();
    if key.is_empty() || key.contains(' ') {
        return None;
    }
    Some((key, line[idx + 1..].trim()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_yaml::Path;

    const MLFLOW_VALUES: &str = r#"image:
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
service:
  # @options: ClusterIP, NodePort, LoadBalancer
  type: ClusterIP
"#;

    #[test]
    fn parses_defaults_and_annotations() {
        let values = ValuesFile::parse(MLFLOW_VALUES).unwrap();
        assert_eq!(
            values
                .defaults()
                .get_path(&Path::parse("tracking.replicaCount").unwrap())
                .unwrap()
                .as_i64(),
            Some(1)
        );
        let arch = values.options_for("postgreSQL.arch").unwrap();
        assert_eq!(arch, &[Value::from("standalone"), Value::from("repl")]);
        let svc = values.options_for("service.type").unwrap();
        assert_eq!(svc.len(), 3);
    }

    #[test]
    fn annotations_track_nested_paths() {
        let text =
            "a:\n  b:\n    # @options: x | y\n    mode: x\n  # @options: 1 | 2\n  level: 1\n";
        let values = ValuesFile::parse(text).unwrap();
        assert!(values.options_for("a.b.mode").is_some());
        assert_eq!(
            values.options_for("a.level").unwrap(),
            &[Value::Int(1), Value::Int(2)]
        );
        assert!(values.options_for("a.b.level").is_none());
    }

    #[test]
    fn merged_with_applies_user_overrides() {
        let values = ValuesFile::parse(MLFLOW_VALUES).unwrap();
        let overrides = kf_yaml::parse("tracking:\n  replicaCount: 5\n").unwrap();
        let merged = values.merged_with(Some(&overrides));
        assert_eq!(
            merged
                .get_path(&Path::parse("tracking.replicaCount").unwrap())
                .unwrap()
                .as_i64(),
            Some(5)
        );
        // untouched defaults survive the merge
        assert_eq!(
            merged
                .get_path(&Path::parse("image.registry").unwrap())
                .unwrap()
                .as_str(),
            Some("docker.io")
        );
    }

    #[test]
    fn invalid_yaml_is_reported() {
        let err = ValuesFile::parse("a: 1\n   b: 2\n").unwrap_err();
        assert!(matches!(err, Error::Values { .. }));
    }

    #[test]
    fn annotation_without_field_is_ignored() {
        let values = ValuesFile::parse("# @options: a | b\n# just a comment\nname: x\n").unwrap();
        // The annotation attaches to the next *field* line, skipping comments.
        assert_eq!(values.options_for("name").unwrap().len(), 2);
        let values = ValuesFile::parse("# @options: a | b\n- item\n").unwrap();
        assert!(values.annotations().is_empty());
    }
}
