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
//! atomics and the denial audit trail is a bounded, sharded ring buffer, so
//! concurrent admissions never serialize on proxy bookkeeping.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use k8s_apiserver::{ApiRequest, ApiResponse, RequestBody, RequestHandler, ResponseStatus};
use k8s_model::ResourceKind;
use kf_yaml::{BodyFormat, Value};

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
    /// For raw (wire-bytes) bodies: the line/byte offset of the violating
    /// field or parse error in the payload. `None` on the legacy tree path.
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
    /// measured component of the proxy's overhead (Table IV).
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

/// Number of independently locked shards in the denial ring.
const DENIAL_SHARDS: usize = 8;

/// One shard of the denial ring: records with their global order stamps.
type DenialRing = VecDeque<(u64, DenialRecord)>;

/// Lock one shard, ignoring poison: every update leaves the ring valid, and
/// a thread that panicked mid-denial must not turn later denials into panics.
fn lock_ring(shard: &Mutex<DenialRing>) -> MutexGuard<'_, DenialRing> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded, sharded ring buffer of [`DenialRecord`]s.
///
/// Writers are spread over up to [`DENIAL_SHARDS`] independently locked
/// rings by a global sequence counter, so concurrent denials contend only
/// 1/N of the time and the common (admit) path never touches the log at
/// all. When a shard is full the oldest record in that shard is evicted —
/// enforcement never blocks or grows without bound because of audit
/// bookkeeping. The requested total capacity is distributed exactly across
/// the shards (small capacities get fewer shards), so the retained count
/// never exceeds it. Snapshots are reassembled in global admission order
/// via the sequence stamps.
#[derive(Debug)]
struct DenialLog {
    shards: Vec<Mutex<DenialRing>>,
    /// Per-shard record bounds; sums to the requested total capacity.
    shard_capacities: Vec<usize>,
    /// Global order stamp; also selects the shard for each record.
    seq: AtomicU64,
    /// Records evicted because a shard reached capacity.
    dropped: AtomicU64,
}

impl DenialLog {
    fn new(total_capacity: usize) -> Self {
        let capacity = total_capacity.max(1);
        let shard_count = DENIAL_SHARDS.min(capacity);
        let shard_capacities: Vec<usize> = (0..shard_count)
            .map(|i| capacity / shard_count + usize::from(i < capacity % shard_count))
            .collect();
        DenialLog {
            shards: (0..shard_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            shard_capacities,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, record: DenialRecord) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let index = (seq as usize) % self.shards.len();
        let mut shard = lock_ring(&self.shards[index]);
        if shard.len() == self.shard_capacities[index] {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back((seq, record));
    }

    /// All retained records, in global admission order.
    fn snapshot(&self) -> Vec<DenialRecord> {
        let mut stamped: Vec<(u64, DenialRecord)> = self
            .shards
            .iter()
            .flat_map(|shard| lock_ring(shard).iter().cloned().collect::<Vec<_>>())
            .collect();
        stamped.sort_unstable_by_key(|(seq, _)| *seq);
        stamped.into_iter().map(|(_, record)| record).collect()
    }

    fn clear(&self) {
        for shard in &self.shards {
            lock_ring(shard).clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The violation the proxy records for a body that does not parse as a
/// Kubernetes object of a known kind. When the tokenizer reported a precise
/// defect (position + reason), it is threaded into the record.
fn unparsable_body_violation(detail: Option<&str>) -> Violation {
    Violation {
        path: "<request body>".to_owned(),
        reason: ViolationReason::StructureMismatch {
            expected: "recognizable Kubernetes object".to_owned(),
            found: match detail {
                Some(detail) => format!("unparsable or unknown-kind body ({detail})"),
                None => "unparsable or unknown-kind body".to_owned(),
            },
        },
    }
}

/// The denial message for an unparsable body, with the parse defect when
/// known.
fn unparsable_body_message(detail: Option<&str>) -> String {
    match detail {
        Some(detail) => {
            format!("KubeFence: request body is not a recognizable Kubernetes object ({detail})")
        }
        None => "KubeFence: request body is not a recognizable Kubernetes object".to_owned(),
    }
}

/// The KubeFence enforcement proxy.
#[derive(Debug)]
pub struct EnforcementProxy<H> {
    upstream: H,
    validators: ValidatorSet,
    denials: DenialLog,
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
            denials: DenialLog::new(capacity),
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
        self.denials.snapshot()
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
        violations: Vec<Violation>,
        message: String,
        location: Option<SourceLocation>,
    ) -> ApiResponse {
        self.stats.denied.add(1);
        self.denials.record(DenialRecord {
            user: request.user.clone(),
            kind: request.kind,
            object_name: request.name.clone(),
            violations,
            location,
        });
        ApiResponse::error(ResponseStatus::Forbidden, message)
    }

    fn deny_policy(
        &self,
        request: &ApiRequest,
        violations: Vec<Violation>,
        location: Option<SourceLocation>,
    ) -> ApiResponse {
        let message = format!(
            "KubeFence: request denied by workload policy: {}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        self.deny(request, violations, message, location)
    }

    /// The legacy path: a pre-parsed tree body. Probes validity without
    /// materializing (deep-cloning) an object; the compiled plane validates
    /// the borrowed body in place.
    fn handle_tree(&self, request: &ApiRequest, body: &Value) -> ApiResponse {
        let started = Instant::now();
        let kind = match k8s_model::K8sObject::peek_kind(body) {
            Ok(kind) => kind,
            Err(_) => {
                // An unparsable or unknown-kind body can never match a
                // validator; block it outright. The time spent discovering
                // that is validation work, and the denial belongs in the
                // audit trail like any other.
                self.stats
                    .validation_time_ns
                    .add(started.elapsed().as_nanos() as u64);
                return self.deny(
                    request,
                    vec![unparsable_body_violation(None)],
                    unparsable_body_message(None),
                    None,
                );
            }
        };
        let verdict = self.validators.validate_kind_body(kind, body);
        self.stats
            .validation_time_ns
            .add(started.elapsed().as_nanos() as u64);
        match verdict {
            Ok(()) => {
                self.stats.forwarded.add(1);
                self.upstream.handle(request)
            }
            Err(violations) => self.deny_policy(request, violations, None),
        }
    }

    /// The wire-faithful path: raw bytes — YAML or JSON, per the request's
    /// declared [`BodyFormat`] — are validated **while parsing**; no
    /// document tree is allocated on the accept path, and denial reports
    /// are synthesized from matcher state by a second tokenizer pass (no
    /// tree parse; see `kubefence::stream` for the two-phase design).
    fn handle_raw(&self, request: &ApiRequest, bytes: &[u8], format: BodyFormat) -> ApiResponse {
        let started = Instant::now();
        let verdict = match std::str::from_utf8(bytes) {
            Ok(text) => self.validators.validate_raw_format(text, format),
            Err(_) => RawVerdict::Unparsable {
                reason: "request body is not valid UTF-8".to_owned(),
                location: None,
            },
        };
        self.stats
            .validation_time_ns
            .add(started.elapsed().as_nanos() as u64);
        match verdict {
            RawVerdict::Admitted => {
                self.stats.forwarded.add(1);
                self.upstream.handle(request)
            }
            RawVerdict::Denied {
                violations,
                location,
            } => self.deny_policy(request, violations, location),
            RawVerdict::Unparsable { reason, location } => self.deny(
                request,
                vec![unparsable_body_violation(Some(&reason))],
                unparsable_body_message(Some(&reason)),
                location,
            ),
        }
    }
}

impl<H: RequestHandler> RequestHandler for EnforcementProxy<H> {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        // Only mutating requests carry specifications to validate; reads are
        // forwarded untouched (RBAC still applies upstream). Raw bodies are
        // validated under the **negotiated** wire format: the request's
        // `Content-Type` when it names an encoding, the body tag otherwise.
        match &request.body {
            RequestBody::None => {
                self.stats.passthrough.add(1);
                self.upstream.handle(request)
            }
            RequestBody::Tree(body) => self.handle_tree(request, body),
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
    use k8s_apiserver::ApiServer;
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
        assert!(response.message.contains("hostNetwork"));
        // Nothing reaches the API server, so nothing is stored and no CVE is
        // exercised.
        assert_eq!(proxy.upstream().store().len(), 0);
        assert!(proxy.upstream().exploits().is_empty());
        let denials = proxy.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].user, "operator");
        assert_eq!(denials[0].violations.len(), 1);
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
            body: kf_yaml::parse("replicas: 3\n").unwrap().into(),
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
        let response = proxy.handle(&ApiRequest::create_raw("operator", &ok));
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
        let request = ApiRequest::create_raw("operator", &evil);
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
                body: k8s_apiserver::RequestBody::Raw(payload.into(), format),
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
        let response = proxy.handle(&ApiRequest::create_raw_json("operator", &ok));
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
        let request = ApiRequest::create_raw_json("operator", &evil);
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

    #[test]
    fn content_type_governs_raw_validation() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        // An Auto-tagged JSON body with an explicit JSON content type (the
        // watch-stream variant) validates on the JSON front end.
        let json = proxy.handle(
            &ApiRequest {
                body: k8s_apiserver::RequestBody::Raw(
                    kf_yaml::to_json(ok.body()).into(),
                    BodyFormat::Auto,
                ),
                ..ApiRequest::create("operator", &ok)
            }
            .with_content_type("application/json;stream=watch"),
        );
        assert!(json.is_success());
        // A YAML body mis-declared as JSON is parsed per the header — and
        // rejected, exactly as a real negotiating server would.
        let mislabeled = proxy
            .handle(&ApiRequest::create_raw("operator", &ok).with_content_type("application/json"));
        assert!(mislabeled.is_denied());
        // An unrecognized media type falls back to the body tag; the same
        // YAML body goes through the YAML front end and is admitted.
        let unknown = proxy.handle(
            &ApiRequest::create_raw("operator", &ok)
                .with_content_type("application/vnd.kubernetes.protobuf"),
        );
        assert!(unknown.is_success());
    }

    #[test]
    fn raw_and_tree_bodies_reach_identical_verdicts() {
        let proxy = proxy();
        let ok = K8sObject::from_yaml(&allowed_manifest().replace("replicas: int", "replicas: 3"))
            .unwrap();
        let bad = K8sObject::minimal(ResourceKind::Secret, "s", "default");
        for object in [&ok, &bad] {
            // Repeated creates hit apply semantics (201 then 200), so compare
            // the admit/deny verdict, not the exact status class.
            let tree = proxy.handle(&ApiRequest::create("operator", object));
            let raw = proxy.handle(&ApiRequest::create_raw("operator", object));
            assert_eq!(
                tree.is_success(),
                raw.is_success(),
                "verdict diverged for {}",
                object.name()
            );
            assert_eq!(tree.is_denied(), raw.is_denied());
        }
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
}
