//! Runtime enforcement: the KubeFence proxy.
//!
//! The paper deploys mitmproxy between clients and the API server, with a
//! plugin that extracts the Kubernetes object from each intercepted request,
//! validates it against the workload's validator and either forwards it
//! unchanged or rejects it with an HTTP error and an audit entry. The
//! [`EnforcementProxy`] reproduces that behaviour in front of any
//! [`RequestHandler`] (normally the simulated [`k8s_apiserver::ApiServer`]),
//! and implements [`RequestHandler`] itself so clients cannot tell the
//! difference — complete mediation by construction.
//!
//! The enforcement hot path is contention-free: statistics are per-field
//! atomics and the denial audit trail is a [`SlotRing`] (the bounded,
//! sharded ring behind the server's audit log) of flat slots that denials
//! overwrite in place, so concurrent admissions never serialize on proxy
//! bookkeeping — nor on the allocator behind it. [`EnforcementProxy::reset`]
//! empties the ring, and a cleared ring pins nothing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use k8s_apiserver::{
    ApiRequest, ApiResponse, RequestBody, RequestHandler, ResponseStatus, SlotRing,
};
use k8s_model::ResourceKind;
use kf_yaml::BodyFormat;

use crate::stream::{RawVerdict, SourceLocation};
use crate::validator::{Validator, ValidatorSet, Violation, ViolationReason};

/// One denied request, as logged by the proxy for auditing and forensics.
#[derive(Debug, Clone, PartialEq)]
pub struct DenialRecord {
    /// User whose request was denied.
    pub user: String,
    /// Resource kind of the request.
    pub kind: ResourceKind,
    /// Object name targeted by the request.
    pub object_name: String,
    /// The violations that caused the denial (offending field and reason).
    pub violations: Vec<Violation>,
    /// The line/byte offset of the violating field or parse error in the
    /// payload. `None` when no single position decided the denial: a body
    /// that is not valid UTF-8, holds several documents or lacks a known
    /// `kind` or a `metadata.name`.
    pub location: Option<SourceLocation>,
}

/// Aggregate statistics kept by the proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProxyStats {
    /// Requests forwarded to the API server.
    pub forwarded: u64,
    /// Requests rejected by validation.
    pub denied: u64,
    /// Requests forwarded without validation (no body to inspect).
    pub passthrough: u64,
    /// Total time spent inside request validation, in microseconds — the
    /// measured component of the proxy's overhead (Table IV). It times the
    /// verdict only: building an admitted body's tree from the events the
    /// verdict read is the server's parse, moved into the proxy, and is
    /// not counted.
    pub validation_time_us: u64,
}

impl ProxyStats {
    /// Total requests seen by the proxy.
    pub fn total(&self) -> u64 {
        self.forwarded + self.denied + self.passthrough
    }

    /// The cumulative validation time.
    pub fn validation_time(&self) -> Duration {
        Duration::from_micros(self.validation_time_us)
    }
}

/// An atomic counter padded to its own cache line, so RMW traffic on one
/// counter never steals line ownership from the others (no false sharing).
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Per-field atomic counters behind [`ProxyStats`]: each counter owns a
/// full cache line, so concurrent requests update genuinely disjoint lines
/// without taking any lock.
#[derive(Debug, Default)]
struct AtomicStats {
    forwarded: PaddedCounter,
    denied: PaddedCounter,
    passthrough: PaddedCounter,
    /// Accumulated in **nanoseconds** (per-request µs accumulation would
    /// truncate sub-µs validations to zero); reported in µs.
    validation_time_ns: PaddedCounter,
}

impl AtomicStats {
    fn snapshot(&self) -> ProxyStats {
        ProxyStats {
            forwarded: self.forwarded.get(),
            denied: self.denied.get(),
            passthrough: self.passthrough.get(),
            validation_time_us: self.validation_time_ns.get() / 1_000,
        }
    }

    fn reset(&self) {
        self.forwarded.reset();
        self.denied.reset();
        self.passthrough.reset();
        self.validation_time_ns.reset();
    }
}

/// Default total capacity of the denial ring (records kept across shards).
pub const DEFAULT_DENIAL_CAPACITY: usize = 4096;

/// The most bytes of any one string a ring slot keeps. Paths, names and
/// `found` values are the client's: the 403 carries them whole, the ring
/// keeps a prefix ending in `…`, so what a denial pins does not grow with
/// the body that caused it.
const RETAINED_STRING_BYTES: usize = 256;

/// What a fresh slot's buffer starts with: room for a one-violation record
/// with long names, path and allowed-value list (99 of 100 records of the
/// benchmark's hostile pool), so that refilling a slot almost never has to
/// grow it. Growing is a reallocation of memory another client's thread may
/// own — the contention this ring exists to avoid — and leaves a hole
/// behind: buffers that start empty or smaller, or that grow to an exact
/// fit, were measured slower (down to the speed of the ring of records
/// this one replaced), and 384 bytes, which 1 record in 25 outgrows, read
/// a higher peak RSS than 448. A larger record grows its slot by `Vec`'s
/// doubling and the slot keeps what it grew to, up to [`SLOT_MAX_BYTES`].
const SLOT_INITIAL_BYTES: usize = 448;

/// The most bytes a slot's buffer keeps once the record it held is
/// overwritten: four fresh slots, above every record of the benchmark's
/// hostile pool and of the attack catalog. A wider record (a refusal of
/// thousands of unknown keys reports each) is retained whole while it is;
/// the next record that fits lets the buffer go, so one wide denial does
/// not pin memory for the proxy's life.
const SLOT_MAX_BYTES: usize = 4 * SLOT_INITIAL_BYTES;

const TAG_UNKNOWN_KIND: u8 = 0;
const TAG_UNKNOWN_FIELD: u8 = 1;
const TAG_TYPE_MISMATCH: u8 = 2;
const TAG_VALUE_NOT_ALLOWED: u8 = 3;
const TAG_STRUCTURE_MISMATCH: u8 = 4;

/// One retained denial, flat: every string of the record back to back in
/// one buffer, which the denial that evicts this one overwrites in place.
/// Whatever the old and the new report look like, steady-state retention
/// neither allocates nor frees — in particular it never hands memory that
/// another client's thread allocated back to the allocator.
///
/// `text` holds `user`, `object_name`, then to its end per violation a
/// reason tag byte, `path` and the reason's two strings (none for the tags
/// that carry none); a string is its little-endian `u32` length, then its
/// bytes.
#[derive(Debug)]
struct DenialSlot {
    kind: ResourceKind,
    location: Option<SourceLocation>,
    text: Vec<u8>,
}

impl DenialSlot {
    /// A fresh slot, before its first record.
    fn blank() -> Self {
        DenialSlot {
            kind: ResourceKind::Pod,
            location: None,
            text: Vec::with_capacity(SLOT_INITIAL_BYTES),
        }
    }

    /// Encode one denial over the record this slot held, keeping the
    /// capacity its buffer has grown up to [`SLOT_MAX_BYTES`].
    fn encode(
        &mut self,
        request: &ApiRequest,
        violations: &[Violation],
        location: Option<SourceLocation>,
    ) {
        let text = &mut self.text;
        text.clear();
        push_retained(text, &request.user);
        push_retained(text, &request.name);
        for violation in violations {
            let (tag, strings) = match &violation.reason {
                ViolationReason::UnknownKind => (TAG_UNKNOWN_KIND, None),
                ViolationReason::UnknownField => (TAG_UNKNOWN_FIELD, None),
                ViolationReason::TypeMismatch { expected, found } => {
                    (TAG_TYPE_MISMATCH, Some((expected, found)))
                }
                ViolationReason::ValueNotAllowed { allowed, found } => {
                    (TAG_VALUE_NOT_ALLOWED, Some((allowed, found)))
                }
                ViolationReason::StructureMismatch { expected, found } => {
                    (TAG_STRUCTURE_MISMATCH, Some((expected, found)))
                }
            };
            text.push(tag);
            push_retained(text, &violation.path);
            if let Some((first, second)) = strings {
                push_retained(text, first);
                push_retained(text, second);
            }
        }
        if text.capacity() > SLOT_MAX_BYTES && text.len() <= SLOT_MAX_BYTES {
            text.shrink_to(SLOT_INITIAL_BYTES);
        }
        self.kind = request.kind;
        self.location = location;
    }

    /// Rebuild the public record — the cold path, `denials()` only.
    fn decode(&self) -> DenialRecord {
        let mut reader = SlotReader(&self.text);
        let user = reader.string();
        let object_name = reader.string();
        let violations = std::iter::from_fn(|| {
            let tag = *reader.bytes(1).first()?;
            let path = reader.string();
            let reason = match tag {
                TAG_UNKNOWN_KIND => ViolationReason::UnknownKind,
                TAG_UNKNOWN_FIELD => ViolationReason::UnknownField,
                TAG_TYPE_MISMATCH => ViolationReason::TypeMismatch {
                    expected: reader.string(),
                    found: reader.string(),
                },
                TAG_VALUE_NOT_ALLOWED => ViolationReason::ValueNotAllowed {
                    allowed: reader.string(),
                    found: reader.string(),
                },
                _ => ViolationReason::StructureMismatch {
                    expected: reader.string(),
                    found: reader.string(),
                },
            };
            Some(Violation { path, reason })
        })
        .collect();
        DenialRecord {
            user,
            kind: self.kind,
            object_name,
            violations,
            location: self.location,
        }
    }
}

/// Append one length-prefixed string to a slot buffer, cut to
/// [`RETAINED_STRING_BYTES`] at a character boundary.
fn push_retained(text: &mut Vec<u8>, string: &str) {
    const ELLIPSIS: &str = "…";
    let (kept, ellipsis) = if string.len() <= RETAINED_STRING_BYTES {
        (string, "")
    } else {
        let mut end = RETAINED_STRING_BYTES - ELLIPSIS.len();
        while !string.is_char_boundary(end) {
            end -= 1;
        }
        (&string[..end], ELLIPSIS)
    };
    text.extend_from_slice(&((kept.len() + ellipsis.len()) as u32).to_le_bytes());
    text.extend_from_slice(kept.as_bytes());
    text.extend_from_slice(ellipsis.as_bytes());
}

/// A cursor over a slot buffer. Only [`DenialSlot::encode`] writes slots, so
/// every read is in range and valid UTF-8; reads are checked all the same
/// and clamp rather than panic.
struct SlotReader<'s>(&'s [u8]);

impl<'s> SlotReader<'s> {
    fn bytes(&mut self, len: usize) -> &'s [u8] {
        let (head, tail) = self.0.split_at(len.min(self.0.len()));
        self.0 = tail;
        head
    }

    fn string(&mut self) -> String {
        let len = self.bytes(4).try_into().map_or(0, u32::from_le_bytes);
        String::from_utf8_lossy(self.bytes(len as usize)).into_owned()
    }
}

/// The violation the proxy records for a body that does not parse as a
/// Kubernetes object of a known kind, carrying the defect the validator
/// reported (position + reason).
fn unparsable_body_violation(detail: &str) -> Violation {
    Violation {
        path: "<request body>".to_owned(),
        reason: ViolationReason::StructureMismatch {
            expected: "recognizable Kubernetes object".to_owned(),
            found: format!("unparsable or unknown-kind body ({detail})"),
        },
    }
}

/// The denial message for an unparsable body.
fn unparsable_body_message(detail: &str) -> String {
    format!("KubeFence: request body is not a recognizable Kubernetes object ({detail})")
}

/// The KubeFence enforcement proxy.
#[derive(Debug)]
pub struct EnforcementProxy<H> {
    upstream: H,
    validators: ValidatorSet,
    denials: SlotRing<DenialSlot>,
    stats: AtomicStats,
}

impl<H: RequestHandler> EnforcementProxy<H> {
    /// A proxy protecting a single workload.
    pub fn new(upstream: H, validator: Validator) -> Self {
        Self::with_validators(upstream, ValidatorSet::single(validator))
    }

    /// A proxy protecting several workloads at once (requests are routed to
    /// the validators covering their resource kind; any match admits).
    pub fn with_validators(upstream: H, validators: ValidatorSet) -> Self {
        Self::with_denial_capacity(upstream, validators, DEFAULT_DENIAL_CAPACITY)
    }

    /// A proxy with an explicit bound on the retained denial records.
    pub fn with_denial_capacity(upstream: H, validators: ValidatorSet, capacity: usize) -> Self {
        EnforcementProxy {
            upstream,
            validators,
            denials: SlotRing::new(capacity, DenialSlot::blank),
            stats: AtomicStats::default(),
        }
    }

    /// The upstream handler (the protected API server).
    pub fn upstream(&self) -> &H {
        &self.upstream
    }

    /// The validators enforced by the proxy.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// The denials retained by the ring buffer, in admission order.
    pub fn denials(&self) -> Vec<DenialRecord> {
        self.denials.snapshot(DenialSlot::decode)
    }

    /// Denial records evicted because the ring was full.
    pub fn dropped_denials(&self) -> u64 {
        self.denials.dropped()
    }

    /// Clear recorded denials and statistics (between experiment phases).
    pub fn reset(&self) {
        self.denials.clear();
        self.stats.reset();
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ProxyStats {
        self.stats.snapshot()
    }

    fn deny(
        &self,
        request: &ApiRequest,
        violations: &[Violation],
        message: String,
        location: Option<SourceLocation>,
    ) -> ApiResponse {
        self.stats.denied.add(1);
        self.denials
            .record(|slot, _| slot.encode(request, violations, location));
        ApiResponse::error(ResponseStatus::Forbidden, message)
    }

    fn deny_policy(
        &self,
        request: &ApiRequest,
        violations: &[Violation],
        location: Option<SourceLocation>,
    ) -> ApiResponse {
        const PREFIX: &str = "KubeFence: request denied by workload policy: ";
        // A rendered violation is rarely longer than 128 bytes.
        let mut message = String::with_capacity(PREFIX.len() + 128 * violations.len());
        message.push_str(PREFIX);
        for (i, violation) in violations.iter().enumerate() {
            let separator = if i == 0 { "" } else { "; " };
            let _ = write!(message, "{separator}{violation}");
        }
        self.deny(request, violations, message, location)
    }

    /// The admission path: the wire bytes — YAML or JSON, per the request's
    /// negotiated [`BodyFormat`] — are validated **while parsing**, by the
    /// pass behind [`ValidatorSet::admit_raw_format`], and tokenized once.
    /// An admitted request goes upstream with the tree built from the
    /// events that pass read ([`RequestHandler::handle_parsed`]), so the
    /// server stores what was validated instead of parsing the bytes again;
    /// a denial report is synthesized from matcher state on the same pass,
    /// by resuming matchers from where they died (no tree parse; see
    /// `kubefence::stream`).
    fn handle_raw(&self, request: &ApiRequest, bytes: &[u8], format: BodyFormat) -> ApiResponse {
        let started = Instant::now();
        let (verdict, admitted) = match std::str::from_utf8(bytes) {
            Ok(text) => self.validators.admission(text, format),
            Err(_) => {
                let verdict = RawVerdict::Unparsable {
                    reason: "request body is not valid UTF-8".to_owned(),
                    location: None,
                };
                (verdict, None)
            }
        };
        // The verdict only: building the admitted tree below is the parse
        // the server no longer does, not validation.
        self.stats
            .validation_time_ns
            .add(started.elapsed().as_nanos() as u64);
        match verdict {
            RawVerdict::Admitted => {
                self.stats.forwarded.add(1);
                let document = admitted
                    .expect("an admission keeps what it read")
                    .into_document();
                self.upstream.handle_parsed(request, document)
            }
            RawVerdict::Denied {
                violations,
                location,
            } => self.deny_policy(request, &violations, location),
            RawVerdict::Unparsable { reason, location } => self.deny(
                request,
                &[unparsable_body_violation(&reason)],
                unparsable_body_message(&reason),
                location,
            ),
        }
    }
}

impl<H: RequestHandler> RequestHandler for EnforcementProxy<H> {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        // Only mutating requests carry specifications to validate; reads are
        // forwarded untouched (RBAC still applies upstream). A body is
        // validated under the **negotiated** wire format: the request's
        // `Content-Type` when it names an encoding, the body tag otherwise.
        match &request.body {
            RequestBody::None => {
                self.stats.passthrough.add(1);
                self.upstream.handle(request)
            }
            RequestBody::Raw(bytes, format) => {
                self.handle_raw(request, bytes, request.wire_format().unwrap_or(*format))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::Validator;
    use k8s_apiserver::{ApiServer, StoreBackend};
    use k8s_model::{K8sObject, Verb};

    fn allowed_manifest() -> String {
        r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:1.25
          securityContext:
            runAsNonRoot: true
"#
        .to_owned()
    }

    fn proxy() -> EnforcementProxy<ApiServer> {
        let manifests = vec![kf_yaml::parse(&allowed_manifest()).unwrap()];
        let validator = Validator::from_manifests("demo", &manifests).unwrap();
        EnforcementProxy::new(ApiServer::new(), validator)
    }

    #[test]
    fn compliant_requests_are_forwarded_and_persisted() {
        let proxy = proxy();
        let object =
            K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
                .unwrap();
        let response = proxy.handle(&ApiRequest::create("operator", &object));
        assert!(response.is_success());
        assert_eq!(proxy.upstream().store().len(), 1);
        assert_eq!(proxy.stats().forwarded, 1);
        assert!(proxy.denials().is_empty());
    }

    #[test]
    fn non_compliant_requests_are_denied_and_logged() {
        let proxy = proxy();
        let evil_yaml = allowed_manifest()
            .replace("replicas: int", "replicas: 3")
            .replace(
                "    spec:\n      containers:",
                "    spec:\n      hostNetwork: true\n      containers:",
            );
        let object = K8sObject::from_yaml(&evil_yaml).unwrap();
        let response = proxy.handle(&ApiRequest::create("operator", &object));
        assert!(response.is_denied());
        assert_eq!(
            response.message,
            "KubeFence: request denied by workload policy: \
             field `spec.template.spec.hostNetwork` is not allowed"
        );
        // Nothing reaches the API server, so nothing is stored and no CVE is
        // exercised.
        assert_eq!(proxy.upstream().store().len(), 0);
        assert!(proxy.upstream().exploits().is_empty());
        let denials = proxy.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].user, "operator");
        assert_eq!(denials[0].violations.len(), 1);
        // Several violations are joined with `; `, in document order.
        let worse = K8sObject::from_yaml(
            &evil_yaml.replace("image: docker.io/bitnami/nginx:1.25", "image: 7"),
        )
        .unwrap();
        let response = proxy.handle(&ApiRequest::create("operator", &worse));
        assert_eq!(
            response.message,
            "KubeFence: request denied by workload policy: \
             field `spec.template.spec.hostNetwork` is not allowed; \
             field `spec.template.spec.containers[0].image` must be one of \
             [docker.io/bitnami/nginx:1.25], found `7`"
        );
    }

    #[test]
    fn reads_pass_through_without_validation() {
        let proxy = proxy();
        let response = proxy.handle(&ApiRequest::list(
            "operator",
            ResourceKind::Deployment,
            "default",
        ));
        assert!(response.is_success());
        assert_eq!(proxy.stats().passthrough, 1);
        assert_eq!(proxy.stats().validation_time_us, 0);
    }

    #[test]
    fn requests_for_unknown_kinds_are_denied() {
        let proxy = proxy();
        let secret = K8sObject::minimal(ResourceKind::Secret, "stolen", "default");
        let response = proxy.handle(&ApiRequest::create("operator", &secret));
        assert!(response.is_denied());
        assert_eq!(proxy.stats().denied, 1);
    }

    #[test]
    fn reset_clears_denials_and_stats() {
        let proxy = proxy();
        let secret = K8sObject::minimal(ResourceKind::Secret, "stolen", "default");
        proxy.handle(&ApiRequest::create("operator", &secret));
        assert_eq!(proxy.denials().len(), 1);
        proxy.reset();
        assert!(proxy.denials().is_empty());
        assert_eq!(proxy.stats().total(), 0);
    }

    #[test]
    fn unparsable_bodies_are_denied_logged_and_timed() {
        let proxy = proxy();
        // A body that is YAML but not a recognizable Kubernetes object.
        let request = ApiRequest {
            user: "mallory".to_owned(),
            verb: Verb::Create,
            kind: ResourceKind::Deployment,
            namespace: "default".to_owned(),
            name: "mystery".to_owned(),
            content_type: None,
            resource_version: None,
            body: RequestBody::Raw("replicas: 3\n".into(), BodyFormat::Yaml),
        };
        let response = proxy.handle(&request);
        assert!(response.is_denied());
        assert_eq!(proxy.stats().denied, 1);
        // The denial is in the audit trail with the request's coordinates…
        let denials = proxy.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].user, "mallory");
        assert_eq!(denials[0].kind, ResourceKind::Deployment);
        assert_eq!(denials[0].object_name, "mystery");
        assert!(matches!(
            denials[0].violations[0].reason,
            ViolationReason::StructureMismatch { .. }
        ));
        // …and the time spent rejecting it is accounted as validation work
        // (accumulated in nanoseconds, so even sub-µs rejections register).
        for _ in 0..50 {
            proxy.handle(&request);
        }
        let stats = proxy.stats();
        assert_eq!(stats.denied, 51);
        assert!(
            stats.validation_time_us > 0,
            "denial-path validation time must be accounted"
        );
    }

    #[test]
    fn denial_ring_is_bounded_and_keeps_the_newest_records() {
        let manifests = vec![kf_yaml::parse(&allowed_manifest()).unwrap()];
        let validator = Validator::from_manifests("demo", &manifests).unwrap();
        let proxy = EnforcementProxy::with_denial_capacity(
            ApiServer::new(),
            ValidatorSet::single(validator),
            16,
        );
        for i in 0..100 {
            let secret = K8sObject::minimal(ResourceKind::Secret, &format!("s{i}"), "default");
            proxy.handle(&ApiRequest::create("operator", &secret));
        }
        let denials = proxy.denials();
        assert_eq!(proxy.stats().denied, 100);
        assert!(
            denials.len() <= 16,
            "ring must stay bounded, got {}",
            denials.len()
        );
        assert_eq!(proxy.dropped_denials(), 100 - denials.len() as u64);
        // The newest denial is always retained.
        assert!(denials.iter().any(|d| d.object_name == "s99"));
        // Records come back in admission order.
        let names: Vec<u32> = denials
            .iter()
            .map(|d| d.object_name[1..].parse().unwrap())
            .collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_admissions_keep_exact_counts() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        let bad = K8sObject::minimal(ResourceKind::Secret, "s", "default");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        proxy.handle(&ApiRequest::update("operator", &ok));
                        proxy.handle(&ApiRequest::create("operator", &bad));
                    }
                });
            }
        });
        let stats = proxy.stats();
        assert_eq!(stats.denied, 400);
        assert_eq!(stats.forwarded, 400);
        assert_eq!(stats.total(), 800);
    }

    #[test]
    fn raw_bodies_stream_through_the_proxy() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        let response = proxy.handle(&ApiRequest::create("operator", &ok));
        assert!(response.is_success());
        assert_eq!(proxy.upstream().store().len(), 1);
        // A hostile raw body is denied with the violating field's location.
        let evil_yaml = allowed_manifest()
            .replace("replicas: int", "replicas: 3")
            .replace(
                "    spec:\n      containers:",
                "    spec:\n      hostNetwork: true\n      containers:",
            );
        let evil = K8sObject::from_yaml(&evil_yaml).unwrap();
        let request = ApiRequest::create("operator", &evil);
        let response = proxy.handle(&request);
        assert!(response.is_denied());
        assert!(response.message.contains("hostNetwork"));
        let denials = proxy.denials();
        assert_eq!(denials.len(), 1);
        let location = denials[0]
            .location
            .expect("raw denials carry the violating field's location");
        let text = String::from_utf8(request.payload().to_vec()).unwrap();
        let offset = location
            .offset
            .expect("stream-decided denial has an offset");
        assert!(text[offset..].starts_with("hostNetwork"));
    }

    #[test]
    fn raw_unparsable_bodies_report_position_and_reason() {
        // Both wire formats: the tokenizer's position and reason must reach
        // the response message and the denial record.
        for (payload, format, line) in [
            (
                "kind: Deployment\nmetadata:\n  name: x\n   badly: indented\n",
                BodyFormat::Yaml,
                4,
            ),
            (
                "{\"kind\": \"Deployment\",\n \"metadata\": {\"name\": \"x\"},\n broken}",
                BodyFormat::Json,
                3,
            ),
        ] {
            let proxy = proxy();
            let request = ApiRequest {
                user: "mallory".to_owned(),
                verb: Verb::Create,
                kind: ResourceKind::Deployment,
                namespace: "default".to_owned(),
                name: "mystery".to_owned(),
                content_type: None,
                resource_version: None,
                body: RequestBody::Raw(payload.into(), format),
            };
            let response = proxy.handle(&request);
            assert!(response.is_denied());
            assert!(
                response.message.contains(&format!("line {line}")),
                "{} message must carry the parse position: {}",
                format.name(),
                response.message
            );
            let denials = proxy.denials();
            assert_eq!(denials.len(), 1);
            // The violation text carries the tokenizer's reason…
            let ViolationReason::StructureMismatch { found, .. } = &denials[0].violations[0].reason
            else {
                panic!("expected a structure mismatch violation");
            };
            assert!(
                found.contains(&format!("line {line}")),
                "{} violation was: {found}",
                format.name()
            );
            // …and the record carries the parse position.
            assert_eq!(denials[0].location.unwrap().line, line);
        }
    }

    #[test]
    fn raw_json_bodies_stream_through_the_proxy() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        let response = proxy.handle(&ApiRequest::create_json("operator", &ok));
        assert!(response.is_success());
        assert_eq!(proxy.upstream().store().len(), 1);
        // A hostile raw JSON body is denied with the violating field's
        // location pointing into the JSON buffer.
        let evil_yaml = allowed_manifest()
            .replace("replicas: int", "replicas: 3")
            .replace(
                "    spec:\n      containers:",
                "    spec:\n      hostNetwork: true\n      containers:",
            );
        let evil = K8sObject::from_yaml(&evil_yaml).unwrap();
        let request = ApiRequest::create_json("operator", &evil);
        let response = proxy.handle(&request);
        assert!(response.is_denied());
        assert!(response.message.contains("hostNetwork"));
        let denials = proxy.denials();
        assert_eq!(denials.len(), 1);
        let location = denials[0]
            .location
            .expect("raw denials carry the violating field's location");
        let text = String::from_utf8(request.payload().to_vec()).unwrap();
        let offset = location
            .offset
            .expect("stream-decided denial has an offset");
        assert!(text[offset..].starts_with("\"hostNetwork\""));
    }

    /// The tree the server parses from `request` when a client sends it
    /// directly, namespace defaulted as admission does.
    fn server_side_tree(request: &ApiRequest) -> kf_yaml::Value {
        let body = request.materialize_body().unwrap().expect("a body");
        let mut object = K8sObject::from_shared(body).unwrap();
        if object.namespace().is_empty() {
            object.set_namespace(&request.namespace).unwrap();
        }
        object.body().clone()
    }

    #[test]
    fn an_admitted_body_is_stored_as_the_tree_of_its_bytes() {
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        let json = kf_yaml::to_json(ok.body());
        for request in [
            ApiRequest::create("operator", &ok),
            ApiRequest::create_json("operator", &ok),
            ApiRequest {
                body: RequestBody::Raw(json.clone().into(), BodyFormat::Auto),
                ..ApiRequest::create("operator", &ok)
            },
            ApiRequest {
                body: RequestBody::Raw(json.into(), BodyFormat::Yaml),
                ..ApiRequest::create("operator", &ok)
            }
            .with_content_type("application/json"),
        ] {
            let proxy = proxy();
            assert!(proxy.handle(&request).is_success());
            let stored = proxy
                .upstream()
                .store()
                .get(ResourceKind::Deployment, "default", "web")
                .expect("stored");
            assert_eq!(stored.object.body(), &server_side_tree(&request));
        }
    }

    /// The reader's whitespace is ASCII only: a `#` after a multibyte
    /// character does not start a comment, whatever the character's UTF-8
    /// continuation bytes (`你` is E4 BD A0, `ą` C4 85). The parser and the
    /// tree an admitted request is stored as both keep the whole value.
    /// (U+0085 itself is a line break, which the reader refuses.)
    #[test]
    fn a_hash_after_a_multibyte_character_is_read_as_text() {
        let policy = allowed_manifest().replace("docker.io/bitnami/nginx:1.25", "string");
        let validator =
            Validator::from_manifests("demo", &[kf_yaml::parse(&policy).unwrap()]).unwrap();
        let image = kf_yaml::Path::parse("spec.template.spec.containers[0].image").unwrap();
        for (written, read) in [
            ("x你#y", "x你#y"),
            ("x\u{a0}#y", "x\u{a0}#y"),
            ("x\u{105}#y", "x\u{105}#y"),
            ("x #y", "x"),
        ] {
            let parsed = kf_yaml::parse(&format!("a: {written}\n")).unwrap();
            assert_eq!(parsed.get("a").and_then(|v| v.as_str()), Some(read));
            let body = policy
                .replace("replicas: int", "replicas: 3")
                .replace("image: string", &format!("image: {written}"));
            let proxy = EnforcementProxy::new(ApiServer::new(), validator.clone());
            let request = raw_request("operator", "web", &body, BodyFormat::Yaml);
            assert!(proxy.handle(&request).is_success(), "{written:?}");
            let stored = proxy
                .upstream()
                .store()
                .get(ResourceKind::Deployment, "default", "web")
                .expect("stored");
            let stored_image = stored.object.body().get_path(&image);
            assert_eq!(stored_image.and_then(|v| v.as_str()), Some(read));
        }
    }

    #[test]
    fn the_front_door_validates_the_bytes_not_a_tree_handed_to_it() {
        let proxy = proxy();
        let benign =
            K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
                .unwrap();
        let hostile = K8sObject::from_yaml(
            &allowed_manifest()
                .replace("replicas: int", "replicas: 3")
                .replace(
                    "    spec:\n      containers:",
                    "    spec:\n      hostNetwork: true\n      containers:",
                ),
        )
        .unwrap();
        // Hostile bytes beside a benign tree: refused for what the bytes say.
        let response = proxy.handle_parsed(
            &ApiRequest::create("operator", &hostile),
            benign.body().clone(),
        );
        assert_eq!(response.status, ResponseStatus::Forbidden);
        assert!(
            response.message.contains("hostNetwork"),
            "{}",
            response.message
        );
        assert!(proxy.upstream().store().is_empty());
        assert!(proxy.upstream().exploits().is_empty());
        // Benign bytes beside a hostile tree: the tree of the bytes is what
        // the server stores.
        let request = ApiRequest::create("operator", &benign);
        assert!(proxy
            .handle_parsed(&request, hostile.body().clone())
            .is_success());
        let stored = proxy
            .upstream()
            .store()
            .get(ResourceKind::Deployment, "default", "web")
            .expect("stored");
        assert_eq!(stored.object.body(), &server_side_tree(&request));
        assert!(proxy.upstream().exploits().is_empty());
        assert_eq!(proxy.stats().denied, 1);
        assert_eq!(proxy.stats().forwarded, 1);
        // The server behind it stores the tree it is handed, exploit and
        // all: only the proxy, which built it from the bytes, may hand one.
        let server = ApiServer::new();
        assert!(server
            .handle_parsed(&request, hostile.body().clone())
            .is_success());
        assert_eq!(server.exploits().len(), 1);
    }

    #[test]
    fn content_type_governs_raw_validation() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        // An Auto-tagged JSON body with an explicit JSON content type (the
        // watch-stream variant) validates on the JSON front end.
        let json = proxy.handle(
            &ApiRequest {
                body: RequestBody::Raw(kf_yaml::to_json(ok.body()).into(), BodyFormat::Auto),
                ..ApiRequest::create("operator", &ok)
            }
            .with_content_type("application/json;stream=watch"),
        );
        assert!(json.is_success());
        // A YAML body mis-declared as JSON is parsed per the header — and
        // rejected, exactly as a real negotiating server would.
        let mislabeled = proxy
            .handle(&ApiRequest::create("operator", &ok).with_content_type("application/json"));
        assert!(mislabeled.is_denied());
        // An unrecognized media type falls back to the body tag; the same
        // YAML body goes through the YAML front end and is admitted.
        let unknown = proxy.handle(
            &ApiRequest::create("operator", &ok)
                .with_content_type("application/vnd.kubernetes.protobuf"),
        );
        assert!(unknown.is_success());
    }

    #[test]
    fn a_partial_patch_body_is_an_explicit_refusal() {
        // Patch is served as a whole-document upsert: a body that is only
        // the fields to change is no Kubernetes object, and both gates say
        // so instead of whatever the matchers would make of it.
        let proxy = proxy();
        let bare = ApiServer::new();
        for (payload, format) in [
            ("spec:\n  replicas: 3\n", BodyFormat::Yaml),
            ("{\"spec\":{\"replicas\":3}}", BodyFormat::Json),
        ] {
            let request = ApiRequest {
                verb: Verb::Patch,
                ..raw_request("operator", "web", payload, format)
            };
            let response = proxy.handle(&request);
            assert_eq!(response.status, ResponseStatus::Forbidden);
            assert!(
                response
                    .message
                    .starts_with("KubeFence: request body is not a recognizable Kubernetes object"),
                "{}",
                response.message
            );
            let response = bare.handle(&request);
            assert_eq!(response.status, ResponseStatus::BadRequest);
            assert!(
                response.message.starts_with("invalid object"),
                "{}",
                response.message
            );
        }
        assert_eq!(proxy.stats().denied, 2);
        assert_eq!(proxy.stats().forwarded, 0);
        assert!(proxy.upstream().store().is_empty() && bare.store().is_empty());
    }

    #[test]
    fn denial_ring_honors_capacities_that_are_not_shard_multiples() {
        let manifests = vec![kf_yaml::parse(&allowed_manifest()).unwrap()];
        let validator = Validator::from_manifests("demo", &manifests).unwrap();
        for capacity in [1usize, 3, 12, 17] {
            let proxy = EnforcementProxy::with_denial_capacity(
                ApiServer::new(),
                ValidatorSet::single(validator.clone()),
                capacity,
            );
            for i in 0..50 {
                let secret = K8sObject::minimal(ResourceKind::Secret, &format!("s{i}"), "default");
                proxy.handle(&ApiRequest::create("operator", &secret));
            }
            let retained = proxy.denials().len();
            assert!(
                retained <= capacity,
                "capacity {capacity}: retained {retained} exceeds the requested bound"
            );
            assert_eq!(retained as u64 + proxy.dropped_denials(), 50);
        }
    }

    #[test]
    fn concurrent_overflow_keeps_exact_denial_accounting() {
        // Satellite: N threads force the sharded denial ring past capacity;
        // retained + dropped must equal the total denials with no
        // double-counting.
        let manifests = vec![kf_yaml::parse(&allowed_manifest()).unwrap()];
        let validator = Validator::from_manifests("demo", &manifests).unwrap();
        let proxy = EnforcementProxy::with_denial_capacity(
            ApiServer::new(),
            ValidatorSet::single(validator),
            32,
        );
        const THREADS: usize = 8;
        const DENIALS_PER_THREAD: usize = 200;
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let proxy = &proxy;
                scope.spawn(move || {
                    for i in 0..DENIALS_PER_THREAD {
                        let secret = K8sObject::minimal(
                            ResourceKind::Secret,
                            &format!("s-{thread}-{i}"),
                            "default",
                        );
                        let response = proxy.handle(&ApiRequest::create("operator", &secret));
                        assert!(response.is_denied());
                    }
                });
            }
        });
        let total = (THREADS * DENIALS_PER_THREAD) as u64;
        assert_eq!(proxy.stats().denied, total);
        let retained = proxy.denials().len() as u64;
        assert!(retained <= 32, "ring must stay bounded, got {retained}");
        assert_eq!(
            retained + proxy.dropped_denials(),
            total,
            "every denial is either retained or counted as dropped, exactly once"
        );
    }

    /// The record the proxy retains for `request`, built directly from the
    /// validator's verdict on its raw body.
    fn record_from_verdict(
        proxy: &EnforcementProxy<ApiServer>,
        request: &ApiRequest,
    ) -> DenialRecord {
        let RequestBody::Raw(bytes, format) = &request.body else {
            panic!("a raw-bodied request");
        };
        let text = std::str::from_utf8(bytes).unwrap();
        let (violations, location) = match proxy.validators().validate_raw_format(text, *format) {
            RawVerdict::Admitted => panic!("a refused body"),
            RawVerdict::Denied {
                violations,
                location,
            } => (violations, location),
            RawVerdict::Unparsable { reason, location } => {
                (vec![unparsable_body_violation(&reason)], location)
            }
        };
        DenialRecord {
            user: request.user.clone(),
            kind: request.kind,
            object_name: request.name.clone(),
            violations,
            location,
        }
    }

    fn raw_request(user: &str, name: &str, payload: &str, format: BodyFormat) -> ApiRequest {
        ApiRequest {
            user: user.to_owned(),
            verb: Verb::Create,
            kind: ResourceKind::Deployment,
            namespace: "default".to_owned(),
            name: name.to_owned(),
            content_type: None,
            resource_version: None,
            body: RequestBody::Raw(payload.into(), format),
        }
    }

    #[test]
    fn retained_denials_decode_to_the_records_the_verdicts_describe() {
        let proxy = proxy();
        let hostile = K8sObject::from_yaml(
            &allowed_manifest()
                .replace("replicas: int", "replicas: many")
                .replace("runAsNonRoot: true", "runAsNonRoot: [1, 2]")
                .replace(
                    "image: docker.io/bitnami/nginx:1.25",
                    "image: \"naïve; 多字节\"",
                ),
        )
        .unwrap();
        let requests = [
            // Policy denials (type, value, structure and unknown-field
            // violations in one report), both wire formats.
            ApiRequest::create("operator", &hostile),
            ApiRequest::create_json("operator", &hostile),
            // An uncovered kind.
            ApiRequest::create(
                "operator",
                &K8sObject::minimal(ResourceKind::Secret, "stolen", "default"),
            ),
            // The unparsable bodies of
            // `raw_unparsable_bodies_report_position_and_reason`.
            raw_request(
                "mallory",
                "mystery",
                "kind: Deployment\nmetadata:\n  name: x\n   badly: indented\n",
                BodyFormat::Yaml,
            ),
            raw_request(
                "mallory",
                "mystery",
                "{\"kind\": \"Deployment\",\n \"metadata\": {\"name\": \"x\"},\n broken}",
                BodyFormat::Json,
            ),
            // An envelope defect the stream defers to the tree for.
            raw_request("mallory", "", "replicas: 3\n", BodyFormat::Yaml),
        ];
        for request in &requests {
            assert!(proxy.handle(request).is_denied());
            assert_eq!(
                proxy.denials().last(),
                Some(&record_from_verdict(&proxy, request))
            );
        }
        // The first report holds a type, a value and (rendered by the tree,
        // its value being a container) a second value violation.
        assert_eq!(proxy.denials()[0].violations.len(), 3);
    }

    /// The proxy's denial ring, driven the way a denial drives it.
    struct Ring(SlotRing<DenialSlot>);

    impl Ring {
        fn record(
            &self,
            request: &ApiRequest,
            violations: &[Violation],
            location: Option<SourceLocation>,
        ) {
            self.0
                .record(|slot, _| slot.encode(request, violations, location));
        }

        fn snapshot(&self) -> Vec<DenialRecord> {
            self.0.snapshot(DenialSlot::decode)
        }

        fn dropped(&self) -> u64 {
            self.0.dropped()
        }
    }

    #[test]
    fn slots_round_trip_every_reason_with_awkward_strings() {
        let log = Ring(SlotRing::new(4, DenialSlot::blank));
        let strings = [
            "",
            "naïve — 多字节 🦀",
            "a; b; c",
            "field `x` must be one of [1, 2]",
        ];
        let pair = |i: usize| (strings[i % 4].to_owned(), strings[(i + 1) % 4].to_owned());
        let mut violations = Vec::new();
        for (i, path) in strings.iter().enumerate() {
            let (first, found) = pair(i);
            for reason in [
                ViolationReason::UnknownKind,
                ViolationReason::UnknownField,
                ViolationReason::TypeMismatch {
                    expected: first.clone(),
                    found: found.clone(),
                },
                ViolationReason::ValueNotAllowed {
                    allowed: first.clone(),
                    found: found.clone(),
                },
                ViolationReason::StructureMismatch {
                    expected: first.clone(),
                    found: found.clone(),
                },
            ] {
                violations.push(Violation {
                    path: (*path).to_owned(),
                    reason,
                });
            }
        }
        let location = Some(SourceLocation {
            line: 7,
            offset: Some(123),
        });
        // Records of every shape land in the same few slots: one violation
        // of each kind alone, then all twenty together, then none.
        let mut reports: Vec<&[Violation]> = violations.chunks(1).collect();
        reports.push(&violations);
        reports.push(&[]);
        for (i, report) in reports.into_iter().enumerate() {
            let request = raw_request(strings[i % 4], strings[(i + 2) % 4], "", BodyFormat::Yaml);
            let location = if i % 2 == 0 { location } else { None };
            log.record(&request, report, location);
            assert_eq!(
                log.snapshot().last(),
                Some(&DenialRecord {
                    user: request.user.clone(),
                    kind: request.kind,
                    object_name: request.name.clone(),
                    violations: report.to_vec(),
                    location,
                })
            );
        }
        assert_eq!(log.snapshot().len(), 4);
        assert_eq!(log.dropped(), 22 - 4);
    }

    #[test]
    fn retained_strings_are_cut_at_a_character_boundary() {
        let log = Ring(SlotRing::new(1, DenialSlot::blank));
        // 2-byte characters after two ASCII bytes: byte 253 (where the `…`
        // would start) falls inside a character.
        let long = format!("xx{}", "é".repeat(400));
        let exact = "y".repeat(RETAINED_STRING_BYTES);
        let request = raw_request(&long, &exact, "", BodyFormat::Yaml);
        let violation = Violation {
            path: long.clone(),
            reason: ViolationReason::ValueNotAllowed {
                allowed: exact.clone(),
                found: long.clone(),
            },
        };
        log.record(&request, std::slice::from_ref(&violation), None);
        let record = log.snapshot().pop().unwrap();
        let cut = format!("xx{}…", "é".repeat(125));
        assert_eq!(cut.len(), RETAINED_STRING_BYTES - 1);
        assert_eq!(record.user, cut);
        assert_eq!(
            record.object_name, exact,
            "a string at the limit is kept whole"
        );
        assert_eq!(
            record.violations,
            [Violation {
                path: cut.clone(),
                reason: ViolationReason::ValueNotAllowed {
                    allowed: exact,
                    found: cut,
                },
            }]
        );
    }

    #[test]
    fn two_clients_overwriting_each_others_slots_keep_every_record_whole() {
        let manifests = vec![kf_yaml::parse(&allowed_manifest()).unwrap()];
        let validator = Validator::from_manifests("demo", &manifests).unwrap();
        let proxy = EnforcementProxy::with_denial_capacity(
            ApiServer::new(),
            ValidatorSet::single(validator),
            8,
        );
        let evil = K8sObject::from_yaml(
            &allowed_manifest()
                .replace("replicas: int", "replicas: 3")
                .replace(
                    "runAsNonRoot: true",
                    "runAsNonRoot: false\n            privileged: true",
                ),
        )
        .unwrap();
        // Reports of different shapes and sizes, so a slot is refilled with
        // a record unlike the one it held.
        let requests = [
            ApiRequest::create("alice", &evil),
            raw_request(
                "bob",
                "mystery",
                "kind: Deployment\nmetadata:\n  name: x\n   badly: indented\n",
                BodyFormat::Yaml,
            ),
            ApiRequest::create_json("carol", &evil),
            raw_request("dave", "mystery", "{\"kind\": broken}", BodyFormat::Json),
        ];
        let expected: Vec<DenialRecord> = requests
            .iter()
            .map(|request| record_from_verdict(&proxy, request))
            .collect();
        const PER_THREAD: usize = 400;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2 {
                let (proxy, requests, start) = (&proxy, &requests, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let request = &requests[(2 * i + thread) % requests.len()];
                        assert!(proxy.handle(request).is_denied());
                    }
                });
            }
        });
        let retained = proxy.denials();
        assert_eq!(retained.len(), 8);
        for record in &retained {
            assert!(expected.contains(record), "a torn record: {record:?}");
        }
        assert_eq!(
            proxy.stats().denied,
            retained.len() as u64 + proxy.dropped_denials()
        );
        assert_eq!(proxy.stats().denied, 2 * PER_THREAD as u64);
    }
}
