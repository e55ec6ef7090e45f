//! Object metadata (`metadata:` block of a manifest).

use std::collections::BTreeMap;

use kf_yaml::{Mapping, Value};

/// The subset of `ObjectMeta` relevant to this reproduction: name, namespace,
/// labels and annotations. An owned view: [`crate::K8sObject::metadata`]
/// builds one from the body on demand — an object caches only its name and
/// namespace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectMeta {
    /// Object name (unique per kind and namespace).
    pub name: String,
    /// Namespace; empty for cluster-scoped objects.
    pub namespace: String,
    /// Free-form labels.
    pub labels: BTreeMap<String, String>,
    /// Free-form annotations.
    pub annotations: BTreeMap<String, String>,
}

impl ObjectMeta {
    /// Metadata with just a name (namespace defaults to `default` when the
    /// object is created through the API server).
    pub fn named(name: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            ..ObjectMeta::default()
        }
    }

    /// Metadata with a name and namespace.
    pub fn namespaced(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            namespace: namespace.into(),
            ..ObjectMeta::default()
        }
    }

    /// Add a label, builder style.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// Extract metadata from a manifest `metadata:` node. Missing maps are
    /// treated as empty; a missing name yields an empty string (callers that
    /// require a name validate separately).
    pub fn from_value(value: Option<&Value>) -> Self {
        let mut meta = ObjectMeta::default();
        let Some(map) = value.and_then(Value::as_map) else {
            return meta;
        };
        if let Some(name) = map.get("name").and_then(Value::as_str) {
            meta.name = name.to_owned();
        }
        if let Some(ns) = map.get("namespace").and_then(Value::as_str) {
            meta.namespace = ns.to_owned();
        }
        for (target, key) in [("labels", true), ("annotations", false)] {
            if let Some(entries) = map.get(target).and_then(Value::as_map) {
                for (k, v) in entries.iter() {
                    let text = v.scalar_to_string();
                    if key {
                        meta.labels.insert(k.to_owned(), text);
                    } else {
                        meta.annotations.insert(k.to_owned(), text);
                    }
                }
            }
        }
        meta
    }

    /// Convert back into a manifest `metadata:` node.
    pub fn to_value(&self) -> Value {
        let mut map = Mapping::new();
        map.insert("name", Value::from(self.name.clone()));
        if !self.namespace.is_empty() {
            map.insert("namespace", Value::from(self.namespace.clone()));
        }
        if !self.labels.is_empty() {
            let mut labels = Mapping::new();
            for (k, v) in &self.labels {
                labels.insert(k.clone(), Value::from(v.clone()));
            }
            map.insert("labels", Value::Map(labels));
        }
        if !self.annotations.is_empty() {
            let mut annotations = Mapping::new();
            for (k, v) in &self.annotations {
                annotations.insert(k.clone(), Value::from(v.clone()));
            }
            map.insert("annotations", Value::Map(annotations));
        }
        Value::Map(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_yaml::parse;

    #[test]
    fn parses_metadata_from_manifest() {
        let doc = parse(
            "kind: Pod\nmetadata:\n  name: web\n  namespace: prod\n  labels:\n    app: nginx\n    tier: front\n  annotations:\n    checksum: abc123\n",
        )
        .unwrap();
        let meta = ObjectMeta::from_value(doc.get("metadata"));
        // The object's on-demand accessor is this same view.
        assert_eq!(crate::K8sObject::from_value(doc).unwrap().metadata(), meta);
        assert_eq!(meta.name, "web");
        assert_eq!(meta.namespace, "prod");
        assert_eq!(meta.labels.get("app").map(String::as_str), Some("nginx"));
        assert_eq!(
            meta.annotations.get("checksum").map(String::as_str),
            Some("abc123")
        );
    }

    #[test]
    fn missing_metadata_yields_defaults() {
        let meta = ObjectMeta::from_value(None);
        assert_eq!(meta.name, "");
        assert!(meta.labels.is_empty());
    }

    #[test]
    fn to_value_roundtrips() {
        let meta = ObjectMeta::namespaced("db", "staging").with_label("app", "postgres");
        let value = meta.to_value();
        let back = ObjectMeta::from_value(Some(&value));
        assert_eq!(back, meta);
    }

    #[test]
    fn empty_namespace_is_omitted_from_value() {
        let meta = ObjectMeta::named("x");
        let value = meta.to_value();
        assert!(value.get("namespace").is_none());
    }
}
