//! The API request/response model.
//!
//! A request carries wire bytes; a response carries shared handles to the
//! stored objects and is written to wire text by [`ResponseBody::to_wire`].
//! A cached read is a copy: a get copies the object's cached document text,
//! and a list copies each item's cached text, in YAML the element form
//! cached beside the document, into one buffer reserved to the byte.

use std::fmt::Write as _;
use std::sync::Arc;

use bytes::Bytes;

use k8s_model::{K8sObject, ResourceKind, Verb};
use kf_yaml::{BodyFormat, Value};

use crate::StoredObject;

/// The payload of an API request as it travels through the admission path:
/// the bytes the client put on the wire — YAML or JSON, tagged with their
/// [`BodyFormat`] — and nothing else. The enforcement proxy validates them
/// **while parsing**, so a malicious payload is never materialized before
/// the first policy check. The bytes are tokenized once: an admitted body
/// reaches the API server as the tree the proxy built from the events its
/// admission pass read ([`RequestHandler::handle_parsed`]), and only a
/// client talking to the server directly has them parsed there
/// ([`ApiRequest::materialize_body`]). The tree is never carried on the
/// request itself — any client could set such a field. Either way it is the
/// server's own from then on, shared by the store, the journal, the audit
/// log and reads.
///
/// [`RequestHandler::handle_parsed`]: crate::RequestHandler::handle_parsed
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RequestBody {
    /// No payload (read-only verbs).
    #[default]
    None,
    /// The raw wire bytes of the payload, with their serialization format
    /// ([`BodyFormat::Auto`] defers detection to the consumer).
    Raw(Bytes, BodyFormat),
}

impl RequestBody {
    /// Whether the request carries no payload.
    pub fn is_none(&self) -> bool {
        matches!(self, RequestBody::None)
    }

    /// Whether the request carries a payload.
    pub fn is_some(&self) -> bool {
        !self.is_none()
    }

    /// The raw wire bytes, if the request carries a payload.
    pub fn raw(&self) -> Option<&Bytes> {
        match self {
            RequestBody::Raw(bytes, _) => Some(bytes),
            RequestBody::None => None,
        }
    }

    /// The declared wire format, if the request carries a payload.
    pub fn format(&self) -> Option<BodyFormat> {
        match self {
            RequestBody::Raw(_, format) => Some(*format),
            RequestBody::None => None,
        }
    }

    /// Parse the payload into a document tree the caller owns alone: by
    /// the negotiated format (the request's `Content-Type`, when it named
    /// an encoding) or, with `None`, by the body's own tag. A body must be
    /// one well-formed YAML or JSON document.
    fn materialize_as(&self, negotiated: Option<BodyFormat>) -> Result<Option<Arc<Value>>, String> {
        match self {
            RequestBody::None => Ok(None),
            RequestBody::Raw(bytes, format) => {
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| "request body is not valid UTF-8".to_owned())?;
                match negotiated.unwrap_or(*format).resolve(text) {
                    BodyFormat::Json => kf_yaml::parse_json(text)
                        .map(|doc| Some(Arc::new(doc)))
                        .map_err(|e| e.to_string()),
                    _ => {
                        let mut docs = kf_yaml::parse_documents(text).map_err(|e| e.to_string())?;
                        if docs.len() != 1 {
                            return Err(format!(
                                "expected a single YAML document, found {}",
                                docs.len()
                            ));
                        }
                        Ok(Some(Arc::new(docs.remove(0))))
                    }
                }
            }
        }
    }
}

/// An authenticated request to the (simulated) API server.
///
/// This mirrors what the KubeFence proxy sees on the wire: the HTTP verb and
/// resource path (user, verb, kind, namespace, name), the declared
/// `Content-Type`, and the payload carrying the object specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiRequest {
    /// Authenticated user issuing the request.
    pub user: String,
    /// Request verb.
    pub verb: Verb,
    /// Target resource kind (endpoint).
    pub kind: ResourceKind,
    /// Target namespace (empty for cluster-scoped kinds).
    pub namespace: String,
    /// Target object name (empty for collection operations such as `list`).
    pub name: String,
    /// The `Content-Type` header the client sent, if any. When it names an
    /// encoding ([`BodyFormat::from_content_type`]), that encoding governs
    /// how a raw body is parsed and validated; otherwise the body's own
    /// format tag (ultimately [`BodyFormat::Auto`] detection) decides.
    pub content_type: Option<String>,
    /// For `watch` requests: the `resourceVersion` query parameter. `None`
    /// asks for an initial list plus a resume cursor; `Some(revision)`
    /// resumes the event stream after that revision (answered with `410
    /// Gone` when the journal has compacted past it).
    pub resource_version: Option<u64>,
    /// The object specification carried by mutating requests.
    pub body: RequestBody,
}

impl ApiRequest {
    /// A `create` request carrying the object as YAML wire bytes — what a
    /// YAML-speaking client puts on the network, declared
    /// `application/yaml`. The manifest is serialized once; replaying the
    /// request clones only the byte buffer handle.
    pub fn create(user: &str, object: &K8sObject) -> Self {
        Self::mutating(user, Verb::Create, object, BodyFormat::Yaml)
    }

    /// An `update` request carrying the object as YAML wire bytes.
    pub fn update(user: &str, object: &K8sObject) -> Self {
        Self::mutating(user, Verb::Update, object, BodyFormat::Yaml)
    }

    /// A `create` request carrying the object as JSON wire bytes — the
    /// dominant format real API clients submit — declared
    /// `application/json`.
    pub fn create_json(user: &str, object: &K8sObject) -> Self {
        Self::mutating(user, Verb::Create, object, BodyFormat::Json)
    }

    /// An `update` request carrying the object as JSON wire bytes.
    pub fn update_json(user: &str, object: &K8sObject) -> Self {
        Self::mutating(user, Verb::Update, object, BodyFormat::Json)
    }

    /// Declare a `Content-Type` header, builder style.
    pub fn with_content_type(mut self, content_type: &str) -> Self {
        self.content_type = Some(content_type.to_owned());
        self
    }

    /// The wire format negotiated for the body: the `Content-Type`'s
    /// encoding when the header names one, else the body's own format tag
    /// ([`BodyFormat::Auto`] defers to first-byte detection). `None` for
    /// body-less requests, which have nothing to negotiate.
    pub fn wire_format(&self) -> Option<BodyFormat> {
        let tagged = self.body.format()?;
        Some(
            self.content_type
                .as_deref()
                .and_then(BodyFormat::from_content_type)
                .unwrap_or(tagged),
        )
    }

    /// Materialize the request body under the negotiated wire format — the
    /// form the API server stores, so content negotiation
    /// governs parsing exactly like it governs streaming validation.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when the body is not valid
    /// UTF-8, does not parse, or contains more than one document.
    pub fn materialize_body(&self) -> Result<Option<Arc<Value>>, String> {
        self.body.materialize_as(self.wire_format())
    }

    fn mutating(user: &str, verb: Verb, object: &K8sObject, format: BodyFormat) -> Self {
        let namespace = if object.kind().is_namespaced() && object.namespace().is_empty() {
            "default".to_owned()
        } else {
            object.namespace().to_owned()
        };
        let (text, content_type) = match format {
            BodyFormat::Json => (kf_yaml::to_json(object.body()), "application/json"),
            _ => (kf_yaml::to_yaml(object.body()), "application/yaml"),
        };
        ApiRequest {
            user: user.to_owned(),
            verb,
            kind: object.kind(),
            namespace,
            name: object.name().to_owned(),
            content_type: Some(content_type.to_owned()),
            resource_version: None,
            body: RequestBody::Raw(Bytes::from(text), format),
        }
    }

    /// A `get` request for a named object.
    pub fn get(user: &str, kind: ResourceKind, namespace: &str, name: &str) -> Self {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::Get,
            kind,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
            content_type: None,
            resource_version: None,
            body: RequestBody::None,
        }
    }

    /// A `list` request for a collection.
    pub fn list(user: &str, kind: ResourceKind, namespace: &str) -> Self {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::List,
            kind,
            namespace: namespace.to_owned(),
            name: String::new(),
            content_type: None,
            resource_version: None,
            body: RequestBody::None,
        }
    }

    /// A `watch` request for a collection: `resource_version: None` asks
    /// for the initial list plus a resume cursor, `Some(revision)` streams
    /// the events published after that revision.
    pub fn watch(
        user: &str,
        kind: ResourceKind,
        namespace: &str,
        resource_version: Option<u64>,
    ) -> Self {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::Watch,
            kind,
            namespace: namespace.to_owned(),
            name: String::new(),
            content_type: None,
            resource_version,
            body: RequestBody::None,
        }
    }

    /// A `delete-collection` request: deletes every object of the kind in
    /// the namespace (all namespaces when empty).
    pub fn delete_collection(user: &str, kind: ResourceKind, namespace: &str) -> Self {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::DeleteCollection,
            kind,
            namespace: namespace.to_owned(),
            name: String::new(),
            content_type: None,
            resource_version: None,
            body: RequestBody::None,
        }
    }

    /// A `delete` request for a named object.
    pub fn delete(user: &str, kind: ResourceKind, namespace: &str, name: &str) -> Self {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::Delete,
            kind,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
            content_type: None,
            resource_version: None,
            body: RequestBody::None,
        }
    }

    /// The URL path targeted by the request.
    pub fn path(&self) -> String {
        let collection = self.kind.collection_path(&self.namespace);
        if self.name.is_empty() {
            collection
        } else {
            format!("{collection}/{}", self.name)
        }
    }

    /// The HTTP method corresponding to the verb.
    pub fn http_method(&self) -> &'static str {
        self.verb.http_method()
    }

    /// The encoded request payload (empty for body-less requests) — a cheap
    /// handle clone.
    pub fn payload(&self) -> Bytes {
        self.body.raw().cloned().unwrap_or_default()
    }

    /// Payload size in bytes.
    pub fn payload_size(&self) -> usize {
        self.payload().len()
    }

    /// Interpret the request body as a Kubernetes object, if present. Every
    /// call parses a fresh tree — why the enforcement hot path avoids it.
    pub fn object(&self) -> Option<K8sObject> {
        let body = self.materialize_body().ok()??;
        K8sObject::from_shared(body).ok()
    }
}

/// Response status classes used by the simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// 200 — request served.
    Ok,
    /// 201 — object created.
    Created,
    /// 400 — malformed request body.
    BadRequest,
    /// 403 — denied by authorization or by the KubeFence proxy.
    Forbidden,
    /// 404 — object not found.
    NotFound,
    /// 409 — conflict (e.g. create over an existing object).
    Conflict,
    /// 410 — a watch cursor older than the journal's compaction horizon;
    /// the client must re-list and resume from a fresh cursor.
    Gone,
    /// 429 — load shed: the admission gate could not seat the request
    /// within its deadline budget; the client should back off and retry.
    TooManyRequests,
    /// 503 — the server's durability is degraded and the fail-closed
    /// policy rejects mutating requests until the WAL is healthy again.
    ServiceUnavailable,
}

impl ResponseStatus {
    /// The numeric HTTP status code.
    pub fn code(&self) -> u16 {
        match self {
            ResponseStatus::Ok => 200,
            ResponseStatus::Created => 201,
            ResponseStatus::BadRequest => 400,
            ResponseStatus::Forbidden => 403,
            ResponseStatus::NotFound => 404,
            ResponseStatus::Conflict => 409,
            ResponseStatus::Gone => 410,
            ResponseStatus::TooManyRequests => 429,
            ResponseStatus::ServiceUnavailable => 503,
        }
    }
}

/// The payload of an [`ApiResponse`], held as shared handles: a `get`
/// returns the stored object's handle, a `list` returns one handle per
/// stored object — serving a read **never copies a document**, which is the
/// read half of the zero-copy persistence plane. A stored object caches its
/// wire text per format ([`K8sObject::write_wire`]), and its YAML text also
/// as a list element, so only the first read of a version in a format
/// renders it and later gets and lists copy the text.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A single object (get responses).
    Object(Arc<StoredObject>),
    /// A collection (list responses): the `<Kind>List` envelope kind and
    /// the item handles, in key order.
    List {
        /// The list kind (`PodList`, `DeploymentList`, …).
        kind: String,
        /// The stored objects' handles.
        items: Vec<Arc<StoredObject>>,
    },
    /// One batch of a watch stream: the events published since the client's
    /// cursor (ending with a bookmark), plus the cursor to resume from. The
    /// events' object payloads are the stored trees — shared handles, like
    /// every other read.
    WatchBatch {
        /// The batch kind (`PodWatchBatch`, `DeploymentWatchBatch`, …).
        kind: String,
        /// The delivered events, in revision order.
        events: Vec<crate::WatchEvent>,
        /// Resume cursor: pass as `resourceVersion` on the next watch.
        cursor: u64,
    },
}

impl ResponseBody {
    /// The stored object's tree, for single-object responses.
    pub fn object(&self) -> Option<&Arc<Value>> {
        match self {
            ResponseBody::Object(stored) => Some(stored.object.shared_body()),
            _ => None,
        }
    }

    /// The stored item handles, for collection responses.
    pub fn items(&self) -> Option<&[Arc<StoredObject>]> {
        match self {
            ResponseBody::List { items, .. } => Some(items),
            _ => None,
        }
    }

    /// The delivered events and resume cursor, for watch responses.
    pub fn watch_events(&self) -> Option<(&[crate::WatchEvent], u64)> {
        match self {
            ResponseBody::WatchBatch { events, cursor, .. } => Some((events, *cursor)),
            _ => None,
        }
    }

    /// Render the body as one owned document — the wire shape (`kind:
    /// <Kind>List` + `items:` for collections, `events:` + `resourceVersion`
    /// for watch batches). This **copies** the shared trees; it is the
    /// reference implementation the streaming serializer
    /// ([`ResponseBody::to_wire`]) is pinned byte-identical against, not the
    /// serving path.
    pub fn to_value(&self) -> Value {
        match self {
            ResponseBody::Object(stored) => stored.object.body().clone(),
            ResponseBody::List { kind, items } => {
                let mut body = kf_yaml::Mapping::new();
                body.insert("kind", Value::from(kind.as_str()));
                body.insert(
                    "items",
                    Value::Seq(
                        items
                            .iter()
                            .map(|item| item.object.body().clone())
                            .collect(),
                    ),
                );
                Value::Map(body)
            }
            ResponseBody::WatchBatch {
                kind,
                events,
                cursor,
            } => {
                let mut body = kf_yaml::Mapping::new();
                body.insert("kind", Value::from(kind.as_str()));
                body.insert("resourceVersion", Value::from(*cursor as i64));
                body.insert(
                    "events",
                    Value::Seq(events.iter().map(watch_event_value).collect()),
                );
                Value::Map(body)
            }
        }
    }

    /// Serialize the body to its wire text **from the shared handles** — no
    /// envelope tree, no deep copies. Byte-identical to rendering
    /// [`ResponseBody::to_value`] with [`kf_yaml::to_yaml`] /
    /// [`kf_yaml::to_json`] (pinned by test). A get is a copy of the stored
    /// object's cached text; the first get of a version in a format renders
    /// and caches it. A list copies its items' cached texts into one buffer
    /// sized up front: in JSON the document text, in YAML the element text
    /// the same fill cached beside it ([`K8sObject::cached_yaml_item`]), so
    /// neither format re-indents anything. A list caches an uncached item's
    /// text only if the version was served before, in the other format; an
    /// item no read has rendered is written from its tree straight into the
    /// buffer. Watch batches are rendered from the journal's trees.
    pub fn to_wire(&self, format: BodyFormat) -> String {
        match format {
            BodyFormat::Json => self.to_wire_json(),
            // Responses have no bytes to sniff: `Auto` falls back to the
            // canonical YAML rendering.
            _ => self.to_wire_yaml(),
        }
    }

    fn to_wire_yaml(&self) -> String {
        let mut out = String::new();
        match self {
            ResponseBody::Object(stored) => stored.object.write_wire(BodyFormat::Yaml, &mut out),
            ResponseBody::List { kind, items } => return list_yaml(kind, items),
            ResponseBody::WatchBatch {
                kind,
                events,
                cursor,
            } => {
                push_yaml_kind(kind, &mut out);
                let _ = writeln!(out, "resourceVersion: {}", *cursor as i64);
                if events.is_empty() {
                    out.push_str("events: []\n");
                } else {
                    out.push_str("events:\n");
                    for event in events {
                        // The event envelope in the emitter's compact
                        // sequence form: first entry on the dash line, the
                        // rest at the same column, the object's stored tree
                        // emitted in place. Event types are bare words.
                        let _ = writeln!(
                            out,
                            "  - type: {}\n    revision: {}",
                            event.kind.as_str(),
                            event.revision as i64
                        );
                        if let Some(object) = &event.object {
                            kf_yaml::emit_entry("object", object, 4, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    fn to_wire_json(&self) -> String {
        let mut out = String::new();
        match self {
            ResponseBody::Object(stored) => stored.object.write_wire(BodyFormat::Json, &mut out),
            ResponseBody::List { kind, items } => return list_json(kind, items),
            ResponseBody::WatchBatch {
                kind,
                events,
                cursor,
            } => {
                out.push_str("{\"kind\":");
                push_json_kind(kind, &mut out);
                let _ = write!(out, ",\"resourceVersion\":{cursor},\"events\":[");
                for (i, event) in events.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"type\":\"{}\",\"revision\":{}",
                        event.kind.as_str(),
                        event.revision
                    );
                    if let Some(object) = &event.object {
                        out.push_str(",\"object\":");
                        kf_yaml::write_json(object, &mut out);
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out
    }
}

/// Bytes reserved for a list envelope around its items: the `kind` entry,
/// with room to quote it, and the `items` key.
fn envelope_len(kind: &str) -> usize {
    2 * kind.len() + 24
}

/// Whether a read has rendered `object` in either format. A list fills an
/// item's cache slot only then: a version read once is likely read again,
/// while one no read has touched (most of a write-heavy store) would pay an
/// allocation per item for text that is replaced before it is read.
fn served_before(object: &K8sObject) -> bool {
    object.cached_wire(BodyFormat::Json).is_some() || object.cached_wire(BodyFormat::Yaml).is_some()
}

/// A YAML list: each item's cached element text copied under `items:`, in
/// a buffer reserved for all of them. An item served before in JSON is
/// rendered and cached here; an item never served, or whose body is no
/// non-empty mapping and so has no element text, is written from its tree.
fn list_yaml(kind: &str, items: &[Arc<StoredObject>]) -> String {
    // Fill first, so every cached element's length is known exactly; an
    // item written from its tree is estimated by `kf_yaml::wire_len_hint`.
    let mut scratch = String::new();
    for item in items {
        let object = &item.object;
        if object.cached_wire(BodyFormat::Yaml).is_none() && served_before(object) {
            scratch.clear();
            object.write_wire(BodyFormat::Yaml, &mut scratch);
        }
    }
    let items_len: usize = items
        .iter()
        .map(|item| match item.object.cached_yaml_item() {
            Some(text) => text.len(),
            None => kf_yaml::wire_len_hint(item.object.body()),
        })
        .sum();
    let mut out = String::with_capacity(envelope_len(kind) + items_len);
    push_yaml_kind(kind, &mut out);
    if items.is_empty() {
        out.push_str("items: []\n");
        return out;
    }
    out.push_str("items:\n");
    for item in items {
        item.object.write_yaml_item(&mut out);
    }
    out
}

/// A JSON list: the items' cached texts joined inside the envelope, in a
/// buffer reserved for all of them. An item served before in YAML is
/// rendered and cached here; an item never served is written from its tree.
fn list_json(kind: &str, items: &[Arc<StoredObject>]) -> String {
    let items_len: usize = items
        .iter()
        .map(|item| match item.object.cached_wire(BodyFormat::Json) {
            Some(text) => text.len() + 1,
            None => kf_yaml::wire_len_hint(item.object.body()),
        })
        .sum();
    let mut out = String::with_capacity(envelope_len(kind) + items_len);
    out.push_str("{\"kind\":");
    push_json_kind(kind, &mut out);
    out.push_str(",\"items\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let object = &item.object;
        match object.cached_wire(BodyFormat::Json) {
            Some(text) => out.push_str(text),
            None if served_before(object) => object.write_wire(BodyFormat::Json, &mut out),
            None => kf_yaml::write_json(object.body(), &mut out),
        }
    }
    out.push_str("]}");
    out
}

/// Whether `kind` is an envelope kind as a server names one — `<Kind>List`
/// or `<Kind>WatchBatch` in ASCII letters and digits, a letter first. No
/// such word reads as a null, a bool or a number, and none holds a byte JSON
/// escapes, so both writers copy it bare, as they would have written it.
fn is_bare_kind(kind: &str) -> bool {
    kind.as_bytes().first().is_some_and(u8::is_ascii_alphabetic)
        && kind.bytes().all(|b| b.is_ascii_alphanumeric())
        && (kind.ends_with("List") || kind.ends_with("WatchBatch"))
}

/// Append the `kind:` line of a YAML envelope.
fn push_yaml_kind(kind: &str, out: &mut String) {
    if is_bare_kind(kind) {
        out.push_str("kind: ");
        out.push_str(kind);
        out.push('\n');
    } else {
        kf_yaml::emit_entry("kind", &Value::from(kind), 0, out);
    }
}

/// Append the `kind` value of a JSON envelope.
fn push_json_kind(kind: &str, out: &mut String) {
    if is_bare_kind(kind) {
        out.push('"');
        out.push_str(kind);
        out.push('"');
    } else {
        kf_yaml::write_json(&Value::from(kind), out);
    }
}

/// The owned wire envelope of one watch event (the [`ResponseBody::to_value`]
/// reference shape): `type`, `revision`, and the object tree when present.
fn watch_event_value(event: &crate::WatchEvent) -> Value {
    let mut map = kf_yaml::Mapping::new();
    map.insert("type", Value::from(event.kind.as_str()));
    map.insert("revision", Value::from(event.revision as i64));
    if let Some(object) = &event.object {
        map.insert("object", (**object).clone());
    }
    Value::Map(map)
}

/// The response to an [`ApiRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// Status class.
    pub status: ResponseStatus,
    /// Human-readable message (for errors: the denial reason, logged by the
    /// proxy for auditing and forensics).
    pub message: String,
    /// Response body, when the request returns objects — shared handles to
    /// the stored objects, never copies.
    pub body: Option<ResponseBody>,
}

impl ApiResponse {
    /// A success response with a message.
    pub fn ok(message: impl Into<String>) -> Self {
        ApiResponse {
            status: ResponseStatus::Ok,
            message: message.into(),
            body: None,
        }
    }

    /// A `201 Created` response.
    pub fn created(message: impl Into<String>) -> Self {
        ApiResponse {
            status: ResponseStatus::Created,
            message: message.into(),
            body: None,
        }
    }

    /// An error response with the given status.
    pub fn error(status: ResponseStatus, message: impl Into<String>) -> Self {
        ApiResponse {
            status,
            message: message.into(),
            body: None,
        }
    }

    /// Attach a response body, builder style.
    pub fn with_body(mut self, body: ResponseBody) -> Self {
        self.body = Some(body);
        self
    }

    /// Whether the response is a success (2xx).
    pub fn is_success(&self) -> bool {
        matches!(self.status, ResponseStatus::Ok | ResponseStatus::Created)
    }

    /// Whether the request was rejected by authorization or policy (403).
    pub fn is_denied(&self) -> bool {
        self.status == ResponseStatus::Forbidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> K8sObject {
        K8sObject::from_yaml(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n    - name: c\n      image: nginx\n",
        )
        .unwrap()
    }

    #[test]
    fn create_requests_default_the_namespace() {
        let req = ApiRequest::create("alice", &pod());
        assert_eq!(req.namespace, "default");
        assert_eq!(req.verb, Verb::Create);
        assert_eq!(req.name, "web");
        assert!(req.body.is_some());
    }

    #[test]
    fn raw_requests_carry_bytes_and_replay_cheaply() {
        let object = pod();
        let req = ApiRequest::create("alice", &object);
        let bytes = req.body.raw().expect("raw body");
        assert_eq!(&bytes[..], object.to_yaml().as_bytes());
        // Cloning a raw request shares the buffer; no re-serialization.
        let cloned = req.clone();
        assert_eq!(cloned.body.raw().unwrap().len(), bytes.len());
        // The raw body materializes back to the same document.
        let tree = req.materialize_body().unwrap().unwrap();
        assert!(tree.loosely_equals(object.body()));
        assert_eq!(req.object().unwrap().name(), "web");
    }

    #[test]
    fn materialize_rejects_malformed_raw_bodies() {
        let bad = ApiRequest {
            body: RequestBody::Raw(Bytes::from("a: 1\n   broken\n"), BodyFormat::Yaml),
            ..ApiRequest::get("alice", ResourceKind::Pod, "default", "web")
        };
        assert!(bad.materialize_body().is_err());
        let multi = ApiRequest {
            body: RequestBody::Raw(Bytes::from("kind: Pod\n---\nkind: Pod\n"), BodyFormat::Yaml),
            ..ApiRequest::get("alice", ResourceKind::Pod, "default", "web")
        };
        assert!(multi.materialize_body().is_err());
        let bad_json = ApiRequest {
            body: RequestBody::Raw(Bytes::from("{\"kind\": }"), BodyFormat::Json),
            ..ApiRequest::get("alice", ResourceKind::Pod, "default", "web")
        };
        assert!(bad_json.materialize_body().is_err());
    }

    #[test]
    fn mutating_constructors_serialize_the_object_in_their_format() {
        let object = pod();
        type Constructor = fn(&str, &K8sObject) -> ApiRequest;
        let constructors: [(Constructor, Verb, BodyFormat); 4] = [
            (ApiRequest::create, Verb::Create, BodyFormat::Yaml),
            (ApiRequest::update, Verb::Update, BodyFormat::Yaml),
            (ApiRequest::create_json, Verb::Create, BodyFormat::Json),
            (ApiRequest::update_json, Verb::Update, BodyFormat::Json),
        ];
        for (constructor, verb, format) in constructors {
            let req = constructor("alice", &object);
            assert_eq!(req.verb, verb);
            assert_eq!(req.body.format(), Some(format));
            assert_eq!(req.wire_format(), Some(format));
            let expected = match format {
                BodyFormat::Json => kf_yaml::to_json(object.body()),
                _ => kf_yaml::to_yaml(object.body()),
            };
            assert_eq!(&req.payload()[..], expected.as_bytes());
        }
    }

    #[test]
    fn json_raw_requests_carry_bytes_and_materialize_back() {
        let object = pod();
        let req = ApiRequest::create_json("alice", &object);
        assert_eq!(req.body.format(), Some(BodyFormat::Json));
        let bytes = req.body.raw().expect("raw body");
        assert_eq!(bytes.first(), Some(&b'{'), "JSON bodies start at `{{`");
        // The raw JSON body materializes back to the same document the YAML
        // form produces.
        let tree = req.materialize_body().unwrap().unwrap();
        assert!(tree.loosely_equals(object.body()));
        assert_eq!(req.object().unwrap().name(), "web");
        // Auto-format bodies with no header to go by detect JSON from the
        // first significant byte.
        let auto = ApiRequest {
            body: RequestBody::Raw(bytes.clone(), BodyFormat::Auto),
            content_type: None,
            ..req.clone()
        };
        assert_eq!(auto.wire_format(), Some(BodyFormat::Auto));
        let tree = auto.materialize_body().unwrap().unwrap();
        assert!(tree.loosely_equals(object.body()));
    }

    #[test]
    fn content_type_negotiates_the_raw_body_format() {
        let object = pod();
        // The constructors declare their canonical media type…
        let yaml = ApiRequest::create("alice", &object);
        assert_eq!(yaml.content_type.as_deref(), Some("application/yaml"));
        assert_eq!(yaml.wire_format(), Some(BodyFormat::Yaml));
        let json = ApiRequest::create_json("alice", &object);
        assert_eq!(json.content_type.as_deref(), Some("application/json"));
        assert_eq!(json.wire_format(), Some(BodyFormat::Json));
        // …and an explicit header overrides an Auto-tagged body.
        let auto = ApiRequest {
            body: RequestBody::Raw(json.body.raw().unwrap().clone(), BodyFormat::Auto),
            ..json.clone()
        }
        .with_content_type("application/json;stream=watch");
        assert_eq!(auto.wire_format(), Some(BodyFormat::Json));
        assert!(auto
            .materialize_body()
            .unwrap()
            .unwrap()
            .loosely_equals(object.body()));
        // A media type naming neither encoding falls back to the body tag
        // (Auto → first-byte detection).
        let unknown = auto.with_content_type("application/vnd.kubernetes.protobuf");
        assert_eq!(unknown.wire_format(), Some(BodyFormat::Auto));
        assert!(unknown
            .materialize_body()
            .unwrap()
            .unwrap()
            .loosely_equals(object.body()));
        // Body-less requests have nothing to negotiate.
        assert_eq!(
            ApiRequest::get("alice", ResourceKind::Pod, "default", "web")
                .with_content_type("application/json")
                .wire_format(),
            None
        );
    }

    #[test]
    fn tree_requests_share_the_object_tree() {
        // A request holds bytes, never the caller's tree: the tree it
        // materializes has one owner (so the server's namespace defaulting
        // writes it in place), and the object built from it shares it.
        let object = pod();
        let req = ApiRequest::create("alice", &object);
        let tree = req.materialize_body().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&tree, object.shared_body()));
        assert_eq!(Arc::strong_count(&tree), 1);
        let parsed = K8sObject::from_shared(Arc::clone(&tree)).unwrap();
        assert!(Arc::ptr_eq(parsed.shared_body(), &tree));
        // Replaying the request shares the byte buffer, not a copy of it.
        let replay = req.clone();
        assert_eq!(
            replay.body.raw().unwrap().as_ptr(),
            req.body.raw().unwrap().as_ptr()
        );
    }

    #[test]
    fn response_bodies_are_shared_handles() {
        let tree = Arc::new(kf_yaml::parse("kind: Pod\nmetadata:\n  name: x\n").unwrap());
        let stored = StoredObject::shared(K8sObject::from_shared(Arc::clone(&tree)).unwrap(), 1);
        let response = ApiResponse::ok("ok").with_body(ResponseBody::Object(Arc::clone(&stored)));
        let body = response.body.as_ref().unwrap();
        assert!(Arc::ptr_eq(body.object().unwrap(), &tree));
        assert!(body.items().is_none());
        let list = ApiResponse::ok("ok").with_body(ResponseBody::List {
            kind: "PodList".to_owned(),
            items: vec![Arc::clone(&stored), Arc::clone(&stored)],
        });
        let body = list.body.as_ref().unwrap();
        assert_eq!(body.items().unwrap().len(), 2);
        assert!(Arc::ptr_eq(&body.items().unwrap()[0], &stored));
        // The streaming serializer carries the wire shape without touching
        // the reference (deep-copying) renderer.
        let rendered = kf_yaml::parse(&body.to_wire(BodyFormat::Yaml)).unwrap();
        assert_eq!(rendered.get("kind").unwrap().as_str(), Some("PodList"));
        assert_eq!(rendered.get("items").unwrap().as_seq().unwrap().len(), 2);
    }

    /// Every [`ResponseBody`] shape a server can produce, for the wire
    /// serializer pin below.
    fn response_body_corpus() -> Vec<ResponseBody> {
        let pod = Arc::new(
            kf_yaml::parse(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: \"1\"\nspec:\n  containers:\n    - name: c\n      image: nginx\n      ports:\n        - containerPort: 80\n",
            )
            .unwrap(),
        );
        let svc = Arc::new(kf_yaml::parse("kind: Service\nmetadata:\n  name: s\n").unwrap());
        let added = crate::WatchEvent {
            kind: crate::WatchEventKind::Added,
            revision: 1,
            namespace: "default".into(),
            name: "web".into(),
            object: Some(Arc::clone(&pod)),
        };
        let deleted = crate::WatchEvent {
            kind: crate::WatchEventKind::Deleted,
            revision: 5,
            namespace: "default".into(),
            name: "s".into(),
            object: Some(Arc::clone(&svc)),
        };
        let stored = |tree: &Arc<Value>| {
            StoredObject::shared(K8sObject::from_shared(Arc::clone(tree)).unwrap(), 1)
        };
        vec![
            ResponseBody::Object(stored(&pod)),
            ResponseBody::List {
                kind: "PodList".into(),
                items: vec![stored(&pod), stored(&svc)],
            },
            ResponseBody::List {
                kind: "PodList".into(),
                items: Vec::new(),
            },
            ResponseBody::WatchBatch {
                kind: "PodWatchBatch".into(),
                events: vec![added, deleted, crate::WatchEvent::bookmark(7)],
                cursor: 7,
            },
            ResponseBody::WatchBatch {
                kind: "PodWatchBatch".into(),
                events: Vec::new(),
                cursor: 0,
            },
        ]
    }

    #[test]
    fn streaming_wire_serializer_matches_the_owned_reference_byte_for_byte() {
        for body in response_body_corpus() {
            let reference = body.to_value();
            assert_eq!(
                body.to_wire(BodyFormat::Yaml),
                kf_yaml::to_yaml(&reference),
                "YAML wire bytes diverged for {body:?}"
            );
            assert_eq!(
                body.to_wire(BodyFormat::Json),
                kf_yaml::to_json(&reference),
                "JSON wire bytes diverged for {body:?}"
            );
            // Auto has no bytes to sniff on the response side: canonical YAML.
            assert_eq!(
                body.to_wire(BodyFormat::Auto),
                body.to_wire(BodyFormat::Yaml)
            );
        }
    }

    #[test]
    fn envelope_kinds_are_written_as_the_emitter_writes_them() {
        // Bare server-named kinds and every string that must take the
        // emitter's quoting instead.
        let item = StoredObject::shared(
            K8sObject::from_yaml("kind: Pod\nmetadata:\n  name: x\n").unwrap(),
            1,
        );
        for kind in [
            "PodList",
            "NetworkPolicyWatchBatch",
            "List",
            "true",
            "NaN",
            "123List",
            "a bList",
            "q\"kList",
            "",
            "ÉtéList",
        ] {
            for body in [
                ResponseBody::List {
                    kind: kind.into(),
                    items: vec![Arc::clone(&item)],
                },
                ResponseBody::WatchBatch {
                    kind: kind.into(),
                    events: vec![crate::WatchEvent::bookmark(3)],
                    cursor: 3,
                },
            ] {
                let reference = body.to_value();
                assert_eq!(
                    body.to_wire(BodyFormat::Yaml),
                    kf_yaml::to_yaml(&reference),
                    "{kind:?}"
                );
                assert_eq!(
                    body.to_wire(BodyFormat::Json),
                    kf_yaml::to_json(&reference),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn watch_batch_accessors_expose_events_and_cursor() {
        let batch = response_body_corpus().remove(3);
        let (events, cursor) = batch.watch_events().unwrap();
        assert_eq!(cursor, 7);
        assert_eq!(events.len(), 3);
        assert!(batch.object().is_none());
        assert!(batch.items().is_none());
        let object = ResponseBody::Object(StoredObject::shared(pod(), 1));
        assert!(object.watch_events().is_none());
    }

    #[test]
    fn paths_follow_api_conventions() {
        let req = ApiRequest::create("alice", &pod());
        assert_eq!(req.path(), "/api/v1/namespaces/default/pods/web");
        assert_eq!(req.http_method(), "POST");
        let list = ApiRequest::list("alice", ResourceKind::Deployment, "prod");
        assert_eq!(list.path(), "/apis/apps/v1/namespaces/prod/deployments");
        assert_eq!(list.http_method(), "GET");
    }

    #[test]
    fn payload_size_reflects_the_encoded_body() {
        let req = ApiRequest::create("alice", &pod());
        assert!(req.payload_size() > 50);
        let get = ApiRequest::get("alice", ResourceKind::Pod, "default", "web");
        assert_eq!(get.payload_size(), 0);
    }

    #[test]
    fn object_parses_back_from_the_body() {
        let req = ApiRequest::create("alice", &pod());
        let object = req.object().unwrap();
        assert_eq!(object.name(), "web");
        assert!(
            ApiRequest::get("alice", ResourceKind::Pod, "default", "web")
                .object()
                .is_none()
        );
    }

    #[test]
    fn response_status_classes() {
        assert!(ApiResponse::ok("fine").is_success());
        assert!(ApiResponse::created("made").is_success());
        let denied = ApiResponse::error(ResponseStatus::Forbidden, "no");
        assert!(denied.is_denied());
        assert!(!denied.is_success());
        assert_eq!(ResponseStatus::Forbidden.code(), 403);
        assert_eq!(ResponseStatus::Created.code(), 201);
    }
}
