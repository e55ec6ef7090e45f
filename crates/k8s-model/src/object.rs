//! Typed view over a Kubernetes manifest.

use std::sync::Arc;

use kf_yaml::{Path, Value};

use crate::{Error, GroupVersionKind, ObjectMeta, ResourceKind, Result};

/// A Kubernetes object: a manifest (`kind`, `apiVersion`, `metadata`, `spec`,
/// …) plus typed accessors for the pieces the rest of the system needs.
///
/// The raw document is kept intact — KubeFence validation operates on the full
/// request body, so nothing may be lost in translation. The body is held as a
/// **shared handle** ([`Arc<Value>`]): admission, the object store, audit
/// events and read responses all hold the same parsed tree, and cloning an
/// object never deep-copies the document. Mutation is copy-on-write —
/// [`K8sObject::body_mut`] splits off a private copy only when the tree is
/// actually shared.
///
/// Only what the store key needs is cached beside the body — kind, name and
/// namespace; labels and annotations are read from the body on demand
/// ([`K8sObject::metadata`]).
#[derive(Debug, Clone, PartialEq)]
pub struct K8sObject {
    kind: ResourceKind,
    name: String,
    namespace: String,
    body: Arc<Value>,
}

/// The string at `metadata.<key>` of a manifest (`""` when absent).
fn metadata_text<'a>(body: &'a Value, key: &str) -> &'a str {
    body.get("metadata")
        .and_then(|metadata| metadata.get(key))
        .and_then(Value::as_str)
        .unwrap_or("")
}

impl K8sObject {
    /// Interpret a parsed manifest as a Kubernetes object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingField`] if `kind` or `metadata.name` is absent
    /// and [`Error::UnknownKind`] if the kind is not one of the twenty
    /// endpoints modelled by this reproduction.
    pub fn from_value(body: Value) -> Result<Self> {
        Self::from_shared(Arc::new(body))
    }

    /// [`K8sObject::from_value`] over an already-shared tree: the zero-copy
    /// admission entry point. The object takes a handle to `body` — callers
    /// that keep their own handle (audit logs, request replay pools) observe
    /// the identical allocation, and nothing is deep-cloned.
    ///
    /// # Errors
    ///
    /// Exactly those of [`K8sObject::from_value`].
    pub fn from_shared(body: Arc<Value>) -> Result<Self> {
        let kind = Self::peek_kind(&body)?;
        Ok(K8sObject {
            kind,
            name: metadata_text(&body, "name").to_owned(),
            namespace: metadata_text(&body, "namespace").to_owned(),
            body,
        })
    }

    /// The checks of [`K8sObject::from_value`] without taking ownership of
    /// the body: returns the resource kind if the manifest is a recognizable
    /// Kubernetes object. This is the enforcement hot path's validity probe —
    /// it reads the envelope in place and builds nothing.
    ///
    /// # Errors
    ///
    /// Exactly those of [`K8sObject::from_value`].
    pub fn peek_kind(body: &Value) -> Result<ResourceKind> {
        let kind_text = body
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(Error::MissingField {
                field: "kind".into(),
            })?;
        let kind = ResourceKind::parse(kind_text).ok_or_else(|| Error::UnknownKind {
            kind: kind_text.to_owned(),
        })?;
        if metadata_text(body, "name").is_empty() {
            return Err(Error::MissingField {
                field: "metadata.name".into(),
            });
        }
        Ok(kind)
    }

    /// Parse YAML text directly into an object.
    ///
    /// # Errors
    ///
    /// Propagates YAML parse failures as [`Error::InvalidField`] on the
    /// document root, and the same validation errors as
    /// [`K8sObject::from_value`].
    pub fn from_yaml(text: &str) -> Result<Self> {
        let value = kf_yaml::parse(text).map_err(|e| Error::InvalidField {
            field: "<document>".into(),
            message: e.to_string(),
        })?;
        K8sObject::from_value(value)
    }

    /// Build a minimal object of the given kind and name with an empty spec.
    pub fn minimal(kind: ResourceKind, name: &str, namespace: &str) -> Self {
        let mut body = Value::empty_map();
        let gvk = kind.gvk();
        body.set_path(
            &Path::parse("apiVersion").unwrap(),
            Value::from(gvk.api_version()),
        )
        .expect("fresh map");
        body.set_path(&Path::parse("kind").unwrap(), Value::from(kind.as_str()))
            .expect("fresh map");
        let meta = if kind.is_namespaced() {
            ObjectMeta::namespaced(name, namespace)
        } else {
            ObjectMeta::named(name)
        };
        body.set_path(&Path::parse("metadata").unwrap(), meta.to_value())
            .expect("fresh map");
        K8sObject {
            kind,
            name: meta.name,
            namespace: meta.namespace,
            body: Arc::new(body),
        }
    }

    /// The resource kind.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The group/version/kind derived from the manifest's `apiVersion`.
    pub fn gvk(&self) -> GroupVersionKind {
        match self.body.get("apiVersion").and_then(Value::as_str) {
            Some(api_version) => {
                GroupVersionKind::from_api_version(api_version, self.kind.as_str())
            }
            None => self.kind.gvk(),
        }
    }

    /// The object metadata — name, namespace, labels and annotations — read
    /// from the body on demand.
    pub fn metadata(&self) -> ObjectMeta {
        ObjectMeta::from_value(self.body.get("metadata"))
    }

    /// Object name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Object namespace (empty for cluster-scoped objects; callers default it
    /// to `default` at admission time).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The full manifest body.
    pub fn body(&self) -> &Value {
        &self.body
    }

    /// The shared handle to the manifest body. Cloning the returned `Arc` is
    /// how the persistence plane threads one parsed tree from admission to
    /// the store, the audit log and read responses without copying it.
    pub fn shared_body(&self) -> &Arc<Value> {
        &self.body
    }

    /// Mutable access to the manifest body — **copy-on-write**: if the tree
    /// is shared (stored object, audit event, replay pool…), a private copy
    /// is split off first and other holders keep the original unchanged.
    /// The cached name and namespace are refreshed by
    /// [`K8sObject::sync_metadata`].
    pub fn body_mut(&mut self) -> &mut Value {
        Arc::make_mut(&mut self.body)
    }

    /// Re-read the cached name and namespace from the body after direct
    /// mutation.
    pub fn sync_metadata(&mut self) {
        self.name = metadata_text(&self.body, "name").to_owned();
        self.namespace = metadata_text(&self.body, "namespace").to_owned();
    }

    /// Admission-time namespace defaulting: write `metadata.namespace`
    /// (appended to `metadata`, which is created if absent) and the cached
    /// namespace with it. A uniquely owned body is mutated in place; a
    /// shared one is split off first, like [`K8sObject::body_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidField`] if the body or its `metadata` is not
    /// a mapping.
    pub fn set_namespace(&mut self, namespace: &str) -> Result<()> {
        let not_a_mapping = || Error::InvalidField {
            field: "metadata.namespace".into(),
            message: "`metadata` is not a mapping".into(),
        };
        let root = self.body_mut().as_map_mut().ok_or_else(not_a_mapping)?;
        if !root.contains_key("metadata") {
            root.insert("metadata", Value::empty_map());
        }
        root.get_mut("metadata")
            .and_then(Value::as_map_mut)
            .ok_or_else(not_a_mapping)?
            .insert("namespace", Value::from(namespace));
        self.namespace = namespace.to_owned();
        Ok(())
    }

    /// Consume the object and return the (shared) manifest body.
    pub fn into_body(self) -> Arc<Value> {
        self.body
    }

    /// The `spec` subtree, if present.
    pub fn spec(&self) -> Option<&Value> {
        self.body.get("spec")
    }

    /// Look up an arbitrary field by path on the manifest body.
    pub fn field(&self, path: &Path) -> Option<&Value> {
        self.body.get_path(path)
    }

    /// Set an arbitrary field by path on the manifest body.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidField`] if intermediate nodes have incompatible
    /// types.
    pub fn set_field(&mut self, path: &Path, value: Value) -> Result<()> {
        self.body_mut()
            .set_path(path, value)
            .map_err(|e| Error::InvalidField {
                field: path.to_string(),
                message: e.to_string(),
            })?;
        self.sync_metadata();
        Ok(())
    }

    /// The collapsed field paths (`spec.containers[].image` notation) present
    /// in the manifest — the unit of attack-surface accounting.
    pub fn field_paths(&self) -> Vec<String> {
        self.body.field_paths()
    }

    /// Serialize back to YAML.
    pub fn to_yaml(&self) -> String {
        kf_yaml::to_yaml(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPLOYMENT: &str = r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx
  namespace: web
spec:
  replicas: 2
  template:
    spec:
      containers:
        - name: nginx
          image: nginx:1.25
"#;

    #[test]
    fn parses_a_deployment_manifest() {
        let obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        assert_eq!(obj.kind(), ResourceKind::Deployment);
        assert_eq!(obj.name(), "nginx");
        assert_eq!(obj.namespace(), "web");
        assert_eq!(obj.gvk().api_version(), "apps/v1");
        assert_eq!(
            obj.field(&Path::parse("spec.replicas").unwrap())
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn missing_kind_is_an_error() {
        let err = K8sObject::from_yaml("metadata:\n  name: x\n").unwrap_err();
        assert!(matches!(err, Error::MissingField { .. }));
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = K8sObject::from_yaml("kind: Gateway\nmetadata:\n  name: x\n").unwrap_err();
        assert!(matches!(err, Error::UnknownKind { .. }));
    }

    #[test]
    fn missing_name_is_an_error() {
        let err = K8sObject::from_yaml("kind: Pod\nmetadata: {}\n").unwrap_err();
        assert!(matches!(err, Error::MissingField { .. }));
    }

    #[test]
    fn minimal_objects_have_api_version_and_metadata() {
        let obj = K8sObject::minimal(ResourceKind::Service, "svc", "default");
        assert_eq!(obj.kind(), ResourceKind::Service);
        assert_eq!(obj.body().get("apiVersion").unwrap().as_str(), Some("v1"));
        assert_eq!(obj.namespace(), "default");
        let cluster = K8sObject::minimal(ResourceKind::ClusterRole, "admin", "ignored");
        assert_eq!(cluster.namespace(), "");
    }

    #[test]
    fn set_field_updates_body_and_metadata() {
        let mut obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        obj.set_field(
            &Path::parse("metadata.labels.app").unwrap(),
            Value::from("nginx"),
        )
        .unwrap();
        // Labels are read from the body on demand, so the edit shows at once.
        assert_eq!(
            obj.metadata().labels.get("app").map(String::as_str),
            Some("nginx")
        );
        // The cached key parts follow edits to the fields they mirror.
        obj.set_field(&Path::parse("metadata.name").unwrap(), Value::from("web"))
            .unwrap();
        assert_eq!(obj.name(), "web");
        obj.set_field(
            &Path::parse("spec.template.spec.hostNetwork").unwrap(),
            Value::Bool(true),
        )
        .unwrap();
        assert!(obj
            .field_paths()
            .contains(&"spec.template.spec.hostNetwork".to_string()));
    }

    #[test]
    fn from_shared_takes_a_handle_without_copying() {
        let tree = Arc::new(kf_yaml::parse(DEPLOYMENT).unwrap());
        let obj = K8sObject::from_shared(Arc::clone(&tree)).unwrap();
        assert!(
            Arc::ptr_eq(obj.shared_body(), &tree),
            "from_shared must keep the caller's allocation"
        );
        // Cloning the object shares the same tree.
        let copy = obj.clone();
        assert!(Arc::ptr_eq(copy.shared_body(), &tree));
        // into_body returns the very same handle.
        assert!(Arc::ptr_eq(&copy.into_body(), &tree));
    }

    #[test]
    fn body_mut_is_copy_on_write() {
        let tree = Arc::new(kf_yaml::parse(DEPLOYMENT).unwrap());
        let mut obj = K8sObject::from_shared(Arc::clone(&tree)).unwrap();
        obj.set_field(&Path::parse("spec.replicas").unwrap(), Value::Int(9))
            .unwrap();
        // The mutation split off a private copy…
        assert!(!Arc::ptr_eq(obj.shared_body(), &tree));
        assert_eq!(
            obj.field(&Path::parse("spec.replicas").unwrap())
                .unwrap()
                .as_i64(),
            Some(9)
        );
        // …and the original holders are untouched.
        assert_eq!(
            tree.get_path(&Path::parse("spec.replicas").unwrap())
                .unwrap()
                .as_i64(),
            Some(2)
        );
        // An unshared object mutates in place (no second allocation).
        let before = Arc::as_ptr(obj.shared_body());
        obj.set_field(&Path::parse("spec.replicas").unwrap(), Value::Int(4))
            .unwrap();
        assert_eq!(Arc::as_ptr(obj.shared_body()), before);
    }

    #[test]
    fn set_namespace_appends_in_place_or_splits_a_shared_tree() {
        let text = DEPLOYMENT.replace("  namespace: web\n", "");
        let mut obj = K8sObject::from_yaml(&text).unwrap();
        assert_eq!(obj.namespace(), "");
        // Unshared: the write lands in the one allocation.
        let before = Arc::as_ptr(obj.shared_body());
        obj.set_namespace("web").unwrap();
        assert_eq!(Arc::as_ptr(obj.shared_body()), before);
        assert_eq!(obj.namespace(), "web");
        // `namespace` is appended to `metadata` — the shape `set_field` gives.
        let mut expected = K8sObject::from_yaml(&text).unwrap();
        expected
            .set_field(
                &Path::parse("metadata.namespace").unwrap(),
                Value::from("web"),
            )
            .unwrap();
        assert_eq!(obj, expected);
        assert_eq!(obj.to_yaml(), expected.to_yaml());
        // Shared: the other holder's tree is never written.
        let tree = Arc::new(kf_yaml::parse(&text).unwrap());
        let mut shared = K8sObject::from_shared(Arc::clone(&tree)).unwrap();
        shared.set_namespace("web").unwrap();
        assert!(!Arc::ptr_eq(shared.shared_body(), &tree));
        assert!(tree.get("metadata").unwrap().get("namespace").is_none());
        assert_eq!(shared, expected);
    }

    #[test]
    fn yaml_roundtrip_preserves_structure() {
        let obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        let reparsed = K8sObject::from_yaml(&obj.to_yaml()).unwrap();
        assert!(reparsed.body().loosely_equals(obj.body()));
    }
}
