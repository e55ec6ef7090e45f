//! Typed view over a Kubernetes manifest, with the wire text of its body
//! cached per format once a read has rendered it. The YAML text is cached
//! twice in one allocation: as a document and as an element of a list
//! response's `items:`, so a get and a list both serve a stored version by
//! copying text.

use std::fmt;
use std::sync::{Arc, OnceLock};

use kf_yaml::{BodyFormat, Path, Value};

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
///
/// The body's wire text is cached too, once per format and only once read
/// ([`K8sObject::write_wire`]): a stored version is rendered on its first get
/// and every later read copies the text. The YAML slot also holds the same
/// text as a list element ([`K8sObject::cached_yaml_item`]), built in the
/// same fill, so a YAML list copies each item as a JSON list does.
/// [`K8sObject::body_mut`] — the only mutable path to the tree — drops both
/// slots, so no text outlives the tree it was rendered from. Equality and
/// `Debug` ignore the cache; a clone shares whatever text was rendered
/// before it was made.
#[derive(Clone)]
pub struct K8sObject {
    kind: ResourceKind,
    name: String,
    namespace: String,
    body: Arc<Value>,
    wire: WireText,
}

/// The lazily rendered wire text of a body: one slot per format, filled by
/// the first [`K8sObject::write_wire`] in that format. A reader that finds its slot empty
/// renders its own copy and offers it with `set`, so it waits for no other
/// reader's rendering; `set` can only wait, briefly, while a racing winner
/// stores its pointer. Responses have no bytes to sniff, so `Auto` reads
/// the YAML slot, like every other response writer.
#[derive(Clone, Default)]
struct WireText {
    json: OnceLock<Arc<str>>,
    yaml: OnceLock<YamlText>,
}

/// The YAML slot: the body's document text followed, for a body that is a
/// non-empty mapping, by its text as a list element, in one allocation.
#[derive(Clone)]
struct YamlText {
    text: Arc<str>,
    /// Where the document ends and the element begins; `text.len()` when
    /// the body has no element form.
    split: usize,
}

/// The column of a list response's item dashes: `items:` is an entry of
/// the envelope's root mapping, so its elements sit two columns in.
const LIST_ITEM_INDENT: usize = 2;

impl PartialEq for K8sObject {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.name == other.name
            && self.namespace == other.namespace
            && self.body == other.body
    }
}

impl fmt::Debug for K8sObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("K8sObject")
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("namespace", &self.namespace)
            .field("body", &self.body)
            .finish()
    }
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
            wire: WireText::default(),
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
            wire: WireText::default(),
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
    /// [`K8sObject::sync_metadata`]; the cached wire text is dropped here.
    pub fn body_mut(&mut self) -> &mut Value {
        self.wire = WireText::default();
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

    /// The body's wire text in `format` — [`kf_yaml::to_json`] for JSON,
    /// [`kf_yaml::to_yaml`] otherwise — if [`K8sObject::write_wire`] has
    /// rendered it since the body was last mutated.
    pub fn cached_wire(&self, format: BodyFormat) -> Option<&str> {
        match format {
            BodyFormat::Json => self.wire.json.get().map(|text| &**text),
            _ => self.wire.yaml.get().map(|yaml| &yaml.text[..yaml.split]),
        }
    }

    /// The body's YAML text as an element of a list response's `items:` —
    /// the bytes [`kf_yaml::emit_seq_item`] writes for the body with its
    /// dash at column 2 — if [`K8sObject::write_wire`] has filled the YAML
    /// slot since the body was last mutated and the body is a non-empty
    /// mapping. Any other body has no first entry to put on the dash line,
    /// and a list writes it from its tree.
    pub fn cached_yaml_item(&self) -> Option<&str> {
        let yaml = self.wire.yaml.get()?;
        Some(&yaml.text[yaml.split..]).filter(|item| !item.is_empty())
    }

    /// Append the body to `out` as an element of a list response's
    /// `items:`: a copy of [`K8sObject::cached_yaml_item`] when it is
    /// cached, else written from the tree with [`kf_yaml::emit_seq_item`].
    /// Either way the bytes are the same.
    pub fn write_yaml_item(&self, out: &mut String) {
        match self.cached_yaml_item() {
            Some(text) => out.push_str(text),
            None => kf_yaml::emit_seq_item(&self.body, LIST_ITEM_INDENT, out),
        }
    }

    /// Append the body's wire text in `format` to `out`: a copy of the
    /// cached text, or on the first call a rendering straight into `out`,
    /// which then fills the cache. A get serves through this; a list only
    /// reads [`K8sObject::cached_wire`].
    pub fn write_wire(&self, format: BodyFormat, out: &mut String) {
        match self.cached_wire(format) {
            Some(text) => out.push_str(text),
            None => self.render_wire(format, out),
        }
    }

    /// Render the body into `out`, first reserving
    /// [`kf_yaml::wire_len_hint`] (close to either text's length, and cheap
    /// to count), and offer a copy to the cache. For YAML the list element
    /// is built behind the document in `out` itself, both are copied into
    /// the slot's one allocation, and `out` is cut back to the document. A
    /// reader that lost the race keeps its own rendering; both are the same
    /// bytes.
    fn render_wire(&self, format: BodyFormat, out: &mut String) {
        let start = out.len();
        out.reserve(kf_yaml::wire_len_hint(&self.body));
        if format == BodyFormat::Json {
            kf_yaml::write_json(&self.body, out);
            let _ = self.wire.json.set(Arc::from(&out[start..]));
            return;
        }
        kf_yaml::write_yaml(&self.body, out);
        let end = out.len();
        if self.body.as_map().is_some_and(|map| !map.is_empty()) {
            kf_yaml::emit_rendered_seq_item(start, LIST_ITEM_INDENT, out);
        }
        let text = Arc::from(&out[start..]);
        out.truncate(end);
        let _ = self.wire.yaml.set(YamlText {
            text,
            split: end - start,
        });
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

    /// Serve `obj` in `format` as a get does: into an empty buffer.
    fn wire(obj: &K8sObject, format: BodyFormat) -> String {
        let mut out = String::new();
        obj.write_wire(format, &mut out);
        out
    }

    #[test]
    fn wire_text_is_rendered_once_and_shared_by_clones() {
        let obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        assert_eq!(obj.cached_wire(BodyFormat::Yaml), None);
        assert_eq!(wire(&obj, BodyFormat::Yaml), kf_yaml::to_yaml(obj.body()));
        let yaml = obj
            .cached_wire(BodyFormat::Yaml)
            .expect("a read fills the slot");
        assert_eq!(yaml, kf_yaml::to_yaml(obj.body()));
        // `Auto` is the YAML slot, and a second read copies the same text.
        assert!(std::ptr::eq(
            obj.cached_wire(BodyFormat::Auto).unwrap(),
            yaml
        ));
        assert_eq!(wire(&obj, BodyFormat::Auto), yaml);
        assert!(std::ptr::eq(
            obj.cached_wire(BodyFormat::Yaml).unwrap(),
            yaml
        ));
        assert_eq!(obj.cached_wire(BodyFormat::Json), None);
        let mut out = String::from("[");
        obj.write_wire(BodyFormat::Json, &mut out);
        assert_eq!(out, format!("[{}", kf_yaml::to_json(obj.body())));
        assert_eq!(obj.cached_wire(BodyFormat::Json), Some(&out[1..]));
        // A clone shares the rendered text, and equality ignores the cache.
        let clone = obj.clone();
        assert!(std::ptr::eq(
            clone.cached_wire(BodyFormat::Yaml).unwrap(),
            yaml
        ));
        assert_eq!(clone, K8sObject::from_yaml(DEPLOYMENT).unwrap());
        assert_eq!(
            format!("{clone:?}"),
            format!("{:?}", K8sObject::from_yaml(DEPLOYMENT).unwrap())
        );
    }

    type Edit = fn(&mut K8sObject);

    /// The three mutable paths to a body, each changing the text it renders.
    fn edits() -> [(&'static str, Edit); 3] {
        [
            ("body_mut", |obj| {
                obj.body_mut()
                    .set_path(&Path::parse("spec.replicas").unwrap(), Value::Int(7))
                    .unwrap();
            }),
            ("set_field", |obj| {
                obj.set_field(&Path::parse("spec.replicas").unwrap(), Value::Int(7))
                    .unwrap();
            }),
            ("set_namespace", |obj| obj.set_namespace("edited").unwrap()),
        ]
    }

    #[test]
    fn cached_wire_text_never_outlives_its_tree() {
        let replicas = Path::parse("spec.replicas").unwrap();
        for (name, edit) in edits() {
            for format in [BodyFormat::Yaml, BodyFormat::Json] {
                let render = |obj: &K8sObject| match format {
                    BodyFormat::Json => kf_yaml::to_json(obj.body()),
                    _ => kf_yaml::to_yaml(obj.body()),
                };
                let mut obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
                let before = wire(&obj, format);
                let clone = obj.clone();
                edit(&mut obj);
                assert_eq!(obj.cached_wire(format), None, "{name} keeps stale text");
                assert_ne!(wire(&obj, format), before, "{name}: {format:?}");
                assert_eq!(wire(&obj, format), render(&obj), "{name}: {format:?}");
                // The clone rendered before the edit keeps the old tree and
                // its text.
                assert_eq!(clone.cached_wire(format), Some(before.as_str()));
                assert_eq!(wire(&clone, format), render(&clone));
                assert_eq!(
                    clone.field(&replicas).and_then(Value::as_i64),
                    Some(2),
                    "{name}"
                );
            }
        }
    }

    /// What a list writes for `obj` from its tree: the element form the
    /// YAML slot caches beside the document.
    fn item(obj: &K8sObject) -> String {
        let mut out = String::new();
        kf_yaml::emit_seq_item(obj.body(), LIST_ITEM_INDENT, &mut out);
        out
    }

    #[test]
    fn the_list_element_is_cached_with_its_document_and_dropped_with_it() {
        for format in [BodyFormat::Yaml, BodyFormat::Auto] {
            let obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
            assert_eq!(obj.cached_yaml_item(), None);
            assert_eq!(wire(&obj, format), kf_yaml::to_yaml(obj.body()));
            assert_eq!(obj.cached_yaml_item(), Some(item(&obj).as_str()));
            // One allocation: the element follows the document in it.
            let document = obj.cached_wire(BodyFormat::Yaml).unwrap();
            let element = obj.cached_yaml_item().unwrap();
            assert!(std::ptr::eq(
                document.as_ptr().wrapping_add(document.len()),
                element.as_ptr()
            ));
        }
        // A JSON fill caches no YAML element.
        let json = K8sObject::from_yaml(DEPLOYMENT).unwrap();
        wire(&json, BodyFormat::Json);
        assert_eq!(json.cached_yaml_item(), None);
        for (name, edit) in edits() {
            let mut obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
            let document = wire(&obj, BodyFormat::Yaml);
            let element = item(&obj);
            let clone = obj.clone();
            edit(&mut obj);
            assert_eq!(obj.cached_wire(BodyFormat::Yaml), None, "{name}");
            assert_eq!(obj.cached_yaml_item(), None, "{name} keeps a stale element");
            wire(&obj, BodyFormat::Yaml);
            assert_ne!(item(&obj), element, "{name}");
            assert_eq!(obj.cached_yaml_item(), Some(item(&obj).as_str()), "{name}");
            // The clone made before the edit keeps both of its texts.
            assert_eq!(clone.cached_wire(BodyFormat::Yaml), Some(document.as_str()));
            assert_eq!(clone.cached_yaml_item(), Some(element.as_str()), "{name}");
        }
    }

    #[test]
    fn a_body_with_no_first_entry_caches_its_document_alone() {
        for body in [
            Value::empty_map(),
            Value::from("scalar"),
            Value::Seq(vec![Value::from(1)]),
        ] {
            let mut obj = K8sObject::from_yaml(DEPLOYMENT).unwrap();
            *obj.body_mut() = body;
            assert_eq!(wire(&obj, BodyFormat::Yaml), kf_yaml::to_yaml(obj.body()));
            assert_eq!(
                obj.cached_wire(BodyFormat::Yaml),
                Some(kf_yaml::to_yaml(obj.body()).as_str())
            );
            assert_eq!(obj.cached_yaml_item(), None, "{:?}", obj.body());
        }
    }
}
