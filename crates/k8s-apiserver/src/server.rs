//! The API server: routing, authorization, persistence, audit and exploit
//! accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use k8s_model::{K8sObject, ResourceKind, Verb};
use k8s_rbac::{AccessDecision, AccessReview, AuditEvent, AuditLog, RbacPolicySet};
use kf_yaml::Value;

use crate::health::{AdmissionGate, DegradePolicy, HealthReport};
use crate::persist::{DurabilityState, Persistence};
use crate::request::{ApiRequest, ApiResponse, ResponseBody, ResponseStatus};
use crate::ring::SlotRing;
use crate::store::{ObjectStore, StoreBackend};
use crate::sync::RwLock;
use crate::vuln::VulnerabilityOracle;

/// Anything that can serve API requests. The KubeFence proxy implements this
/// trait as well, so clients (operators, the attack executor, the benchmark
/// drivers) are oblivious to whether a proxy sits in front of the server —
/// exactly the complete-mediation deployment the paper describes.
pub trait RequestHandler {
    /// Handle one request and produce a response.
    fn handle(&self, request: &ApiRequest) -> ApiResponse;

    /// Handle a request whose body a validating front end has already
    /// parsed into `body` — the tree of exactly the request's wire bytes
    /// under its negotiated format, which the enforcement proxy builds from
    /// the events its admission pass read, so the bytes are tokenized once.
    ///
    /// The default ignores `body` and serves the bytes through
    /// [`RequestHandler::handle`]. That is the only safe answer for a
    /// handler that validates what it forwards: a tree handed to it is the
    /// caller's claim, not what the bytes say. [`ApiServer`] overrides it to
    /// store `body` in place of parsing the bytes again.
    fn handle_parsed(&self, request: &ApiRequest, body: Value) -> ApiResponse {
        drop(body);
        self.handle(request)
    }
}

/// A successful exploitation: an accepted request exercised the vulnerable
/// code of a CVE.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploitEvent {
    /// CVE identifier.
    pub cve_id: String,
    /// User whose request triggered it.
    pub user: String,
    /// Resource kind of the triggering request.
    pub kind: ResourceKind,
    /// Name of the triggering object.
    pub object_name: String,
    /// The accepted specification that exercised the vulnerable code —
    /// shared with the admitted object (and thus the store and audit trail);
    /// recording an exploit never copies the document.
    pub spec: Arc<Value>,
}

/// Audit events the server retains: the newest 4,096, in 8 shards of 512
/// slots. Every learning replay in this repository audits fewer (the
/// benchmark's 944 at most); a longer one shows in
/// [`ApiServer::audit_dropped`].
pub const AUDIT_LOG_CAPACITY: usize = 4_096;

/// Exploitation events the server retains: the newest 256, in 8 shards of
/// 32 slots.
pub const EXPLOIT_LOG_CAPACITY: usize = 256;

/// What each string buffer of a fresh slot starts with: room for the
/// longest namespace Kubernetes allows (63 bytes) and for most users and
/// object names. A slot whose buffers started empty would grow them
/// whenever a longer name than any it held came round, so the ring's
/// bytes would creep up with request count long after it wrapped.
const SLOT_STRING_INITIAL_BYTES: usize = 64;

/// The most bytes a ring slot keeps allocated for one of its strings once
/// the value it held is overwritten. A longer user, namespace or name is
/// retained whole while its event is; the next event that fits lets the
/// buffer go, so one long name does not pin memory for the ring's life.
const SLOT_STRING_BYTES: usize = 256;

/// A fresh slot's string buffer.
fn slot_string() -> String {
    String::with_capacity(SLOT_STRING_INITIAL_BYTES)
}

/// Overwrite a slot's string with `text`, reusing its buffer.
fn overwrite(slot: &mut String, text: &str) {
    if slot.capacity() > SLOT_STRING_BYTES && text.len() <= SLOT_STRING_BYTES {
        *slot = slot_string();
    }
    slot.clear();
    slot.push_str(text);
}

/// The simulated Kubernetes API server.
///
/// Users named in [`ApiServer::with_admin`] (default: `admin`) bypass RBAC,
/// mirroring cluster-admin credentials; everyone else is subject to the
/// configured [`RbacPolicySet`]. When no policy set is configured at all the
/// server behaves like the paper's baseline cluster before hardening: every
/// authenticated request is authorized.
///
/// The server is generic over its persistence plane so a wrapper or fake
/// [`StoreBackend`] can be substituted ([`ApiServer::with_store`]); the
/// default [`ObjectStore`] shares one `Arc<Value>` per object from admission
/// through storage, audit and reads.
#[derive(Debug)]
pub struct ApiServer<S: StoreBackend = ObjectStore> {
    store: S,
    /// Read-mostly: every request takes a read lock, policy installation a
    /// write lock.
    rbac: RwLock<Option<RbacPolicySet>>,
    /// The newest [`AUDIT_LOG_CAPACITY`] audit events.
    audit: SlotRing<AuditEvent>,
    oracle: VulnerabilityOracle,
    /// The newest [`EXPLOIT_LOG_CAPACITY`] exploitation events.
    exploits: SlotRing<ExploitEvent>,
    admins: Vec<String>,
    /// Queue bound handed to [`StoreBackend::subscribe`] for push watches
    /// attached through [`WatchHub::subscribe_push`].
    watch_queue_capacity: usize,
    /// What the serving path does with mutating requests while the store's
    /// durability is degraded (see `docs/robustness.md`).
    degrade: DegradePolicy,
    /// Optional bounded-admission gate; `None` admits everything.
    gate: Option<AdmissionGate>,
    /// Mutating requests rejected with `503` under
    /// [`DegradePolicy::FailClosed`].
    rejected_writes: AtomicU64,
}

impl Default for ApiServer {
    fn default() -> Self {
        ApiServer::new()
    }
}

impl ApiServer {
    /// A server with an empty store, no RBAC policy and the default `admin`
    /// superuser.
    pub fn new() -> Self {
        Self::with_store(ObjectStore::new())
    }

    /// The recovery path: open (or create) a persistence directory, rebuild
    /// the store from its snapshot + WAL suffix (truncating a torn tail),
    /// and serve from the recovered state — objects byte-identical to the
    /// pre-crash trees at the last durable revision, watch journals sealed
    /// at the recovered horizon, and every subsequent write appended to the
    /// WAL. Returns the server, the [`Persistence`] handle that checkpoints
    /// it, and what recovery found.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or [`std::io::ErrorKind::InvalidData`] for a
    /// corrupt snapshot (see [`Persistence::open`]).
    pub fn durable(
        config: crate::persist::PersistConfig,
    ) -> std::io::Result<(Self, Persistence, crate::persist::RecoveryReport)> {
        let (store, persistence, report) = Persistence::open(config)?;
        Ok((Self::with_store(store), persistence, report))
    }
}

impl<S: StoreBackend> ApiServer<S> {
    /// A server over an explicit persistence plane.
    pub fn with_store(store: S) -> Self {
        ApiServer {
            store,
            rbac: RwLock::new(None),
            audit: SlotRing::new(AUDIT_LOG_CAPACITY, || AuditEvent {
                sequence: 0,
                user: slot_string(),
                verb: Verb::Get,
                kind: ResourceKind::Pod,
                namespace: slot_string(),
                name: slot_string(),
                allowed: false,
                request_body: None,
            }),
            oracle: VulnerabilityOracle::new(),
            exploits: SlotRing::new(EXPLOIT_LOG_CAPACITY, || ExploitEvent {
                cve_id: slot_string(),
                user: slot_string(),
                kind: ResourceKind::Pod,
                object_name: slot_string(),
                spec: Arc::new(Value::Null),
            }),
            admins: vec!["admin".to_owned()],
            watch_queue_capacity: crate::DEFAULT_SUBSCRIBER_QUEUE_CAPACITY,
            degrade: DegradePolicy::default(),
            gate: None,
            rejected_writes: AtomicU64::new(0),
        }
    }

    /// Choose what happens to mutating requests while the store's
    /// durability is degraded: [`DegradePolicy::FailOpen`] (the default)
    /// keeps serving from memory, [`DegradePolicy::FailClosed`] rejects
    /// them with `503` while reads and watches keep serving.
    pub fn with_degrade_policy(mut self, policy: DegradePolicy) -> Self {
        self.degrade = policy;
        self
    }

    /// Bound request admission: at most `max_in_flight` requests execute
    /// concurrently, each willing to wait up to `deadline` for a slot
    /// before being shed with `429`.
    pub fn with_admission_limit(
        mut self,
        max_in_flight: usize,
        deadline: std::time::Duration,
    ) -> Self {
        self.gate = Some(AdmissionGate::new(max_in_flight, deadline));
        self
    }

    /// A point-in-time health summary: the store's durability status, the
    /// degradation policy reacting to it, the admission gate's load
    /// counters and the audit events dropped — the surface operators (and
    /// the chaos workload) observe every transition through.
    pub fn health_report(&self) -> HealthReport {
        let durability = self.store.durability();
        let (admitted_total, shed_total, in_flight, waiting, peak, max) = match &self.gate {
            Some(gate) => (
                gate.admitted_total(),
                gate.shed_total(),
                gate.in_flight(),
                gate.waiting(),
                gate.peak_in_flight(),
                Some(gate.max_in_flight()),
            ),
            None => (0, 0, 0, 0, 0, None),
        };
        let fsync_batches = durability.fsync_batches;
        let avg_group_size = durability.avg_group_size();
        HealthReport {
            durability,
            policy: self.degrade,
            rejected_writes: self.rejected_writes.load(Ordering::Relaxed),
            admitted_total,
            shed_total,
            in_flight,
            waiting,
            peak_in_flight: peak,
            max_in_flight: max,
            fsync_batches,
            avg_group_size,
            checkpoint_dirty_shards: self.store.checkpoint_dirty_shards(),
            audit_dropped: self.audit_dropped(),
        }
    }

    /// Add an additional superuser that bypasses RBAC.
    pub fn with_admin(mut self, user: &str) -> Self {
        self.admins.push(user.to_owned());
        self
    }

    /// Bound the delivery queues of push watches attached through
    /// [`WatchHub::subscribe_push`] (default:
    /// [`crate::DEFAULT_SUBSCRIBER_QUEUE_CAPACITY`]; tests use tiny bounds
    /// to force slow-consumer eviction).
    pub fn with_watch_queue_capacity(mut self, capacity: usize) -> Self {
        self.watch_queue_capacity = capacity.max(1);
        self
    }

    /// Install (or replace) the RBAC policy enforced for non-admin users.
    pub fn set_rbac_policy(&self, policy: Option<RbacPolicySet>) {
        *self.rbac.write() = policy;
    }

    /// The object store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Snapshot of the retained audit events (the newest
    /// [`AUDIT_LOG_CAPACITY`]), in admission order.
    pub fn audit_log(&self) -> AuditLog {
        AuditLog::from_events(self.audit.snapshot(AuditEvent::clone))
    }

    /// Audit events overwritten by newer ones since the last
    /// [`ApiServer::clear_audit_log`]. A policy learned from
    /// [`ApiServer::audit_log`] covers every request only while this is 0.
    pub fn audit_dropped(&self) -> u64 {
        self.audit.dropped()
    }

    /// Clear the audit log and its dropped count (between experiment
    /// phases), releasing the request bodies the events held.
    pub fn clear_audit_log(&self) {
        self.audit.clear();
    }

    /// The CVE oracle used by this server.
    pub fn oracle(&self) -> &VulnerabilityOracle {
        &self.oracle
    }

    /// The retained exploitation events (the newest
    /// [`EXPLOIT_LOG_CAPACITY`]) in the order they were recorded: empty
    /// exactly when none was recorded since the last
    /// [`ApiServer::clear_exploits`].
    pub fn exploits(&self) -> Vec<ExploitEvent> {
        self.exploits.snapshot(ExploitEvent::clone)
    }

    /// Clear recorded exploitation events, releasing the specs they held.
    pub fn clear_exploits(&self) {
        self.exploits.clear();
    }

    /// Authorize `request` under the installed policy. The yes/no question
    /// allocates nothing; only a denial builds an [`AccessReview`], to word
    /// its reason.
    fn authorize(&self, request: &ApiRequest) -> Result<(), String> {
        if self.admins.iter().any(|a| a == &request.user) {
            return Ok(());
        }
        let rbac = self.rbac.read();
        let Some(policy) = rbac.as_ref() else {
            return Ok(());
        };
        if policy.allows(
            &request.user,
            request.verb,
            request.kind,
            &request.namespace,
            &request.name,
        ) {
            return Ok(());
        }
        let review = AccessReview::new(
            &request.user,
            request.verb,
            request.kind,
            &request.namespace,
            &request.name,
        );
        match policy.authorize(&review) {
            AccessDecision::Allow { .. } => Ok(()),
            AccessDecision::Deny { reason } => Err(reason),
        }
    }

    /// Audit `request`, with the body it carries when `with_body`: its wire
    /// bytes, in the format the server reads them in.
    fn record_audit(&self, request: &ApiRequest, allowed: bool, with_body: bool) {
        // The body is a handle to the request's buffer, not a copy; the
        // strings are copied into the slot's own buffers.
        let body = with_body
            .then(|| request.body.raw().cloned().zip(request.wire_format()))
            .flatten();
        self.audit.record(|event, sequence| {
            event.sequence = sequence;
            overwrite(&mut event.user, &request.user);
            event.verb = request.verb;
            event.kind = request.kind;
            overwrite(&mut event.namespace, &request.namespace);
            overwrite(&mut event.name, &request.name);
            event.allowed = allowed;
            event.request_body = body;
        });
    }

    /// Admit a mutating request's payload as the object to persist. `parsed`
    /// is the tree a validating front end built from the request's bytes
    /// ([`RequestHandler::handle_parsed`]: behind the proxy, the events its
    /// admission pass read); without one — a client talking to the server
    /// directly — the payload is parsed here, once, under the negotiated
    /// wire format.
    fn admit_object(
        &self,
        request: &ApiRequest,
        parsed: Option<Value>,
    ) -> Result<K8sObject, ApiResponse> {
        let refuse = |message: String| ApiResponse::error(ResponseStatus::BadRequest, message);
        let body = match parsed {
            Some(body) => Arc::new(body),
            None => match request.materialize_body() {
                Err(message) => return Err(refuse(format!("invalid request body: {message}"))),
                Ok(None) => return Err(refuse("mutating request without a body".into())),
                Ok(Some(body)) => body,
            },
        };
        // The store shares the tree: no part of it is copied.
        let mut object = match self.store.ingest(&body) {
            Ok(object) => object,
            Err(e) => return Err(refuse(format!("invalid object: {e}"))),
        };
        // From here the object's handle is the only one — the `Arc` was
        // made just above and no caller ever held it — so defaulting below
        // writes the tree in place, never a copy.
        drop(body);
        if object.kind() != request.kind {
            let message = format!(
                "object kind {} does not match endpoint {}",
                object.kind(),
                request.kind
            );
            return Err(refuse(message));
        }
        // Namespace defaulting, as the admission chain would do.
        if object.kind().is_namespaced() && object.namespace().is_empty() {
            let namespace = if request.namespace.is_empty() {
                "default"
            } else {
                &request.namespace
            };
            if let Err(e) = object.set_namespace(namespace) {
                let message = format!("admission failure: {e}");
                return Err(refuse(message));
            }
        }
        Ok(object)
    }

    /// Serve a `watch` request from the store's revision-indexed journal.
    ///
    /// * `resourceVersion` **absent** — initial-list-then-stream: the
    ///   response synthesizes one `Added` event per stored object (each at
    ///   the object's own resource version, sharing its stored tree) and a
    ///   cursor to resume from. The cursor is the kind's journal revision
    ///   read *before* the scan, so no concurrent write can fall between
    ///   the listing and the stream; writes racing the scan may appear both
    ///   in the listing and in the first delta batch, which cache upserts
    ///   absorb.
    /// * `resourceVersion` **present** — resume-from-revision: exactly the
    ///   events published after that revision, in order, or `410 Gone` when
    ///   the journal has compacted past the cursor (the client re-lists).
    ///
    /// Every batch ends with a bookmark event carrying the batch cursor, so
    /// idle watchers advance without object payloads.
    fn handle_watch(&self, request: &ApiRequest) -> ApiResponse {
        let batch_kind = format!("{}WatchBatch", request.kind);
        match request.resource_version {
            Some(revision) => {
                match self
                    .store
                    .events_since(request.kind, &request.namespace, revision)
                {
                    Ok(delta) => {
                        // The bookmark carries the journal head, not the last
                        // matching event: a quiet-namespace watcher on a busy
                        // kind advances past foreign churn instead of falling
                        // behind the compaction horizon.
                        let crate::WatchDelta { mut events, resume } = delta;
                        events.push(crate::WatchEvent::bookmark(resume));
                        ApiResponse::ok("ok").with_body(ResponseBody::WatchBatch {
                            kind: batch_kind,
                            events,
                            cursor: resume,
                        })
                    }
                    Err(error) => ApiResponse::error(ResponseStatus::Gone, error.to_string()),
                }
            }
            None => {
                let (cursor, mut events) = self.initial_listing(request);
                events.push(crate::WatchEvent::bookmark(cursor));
                ApiResponse::ok("ok").with_body(ResponseBody::WatchBatch {
                    kind: batch_kind,
                    events,
                    cursor,
                })
            }
        }
    }

    /// The initial listing of a cursor-less watch, pull or push: the kind's
    /// journal revision, read **before** the scan so that a stream resuming
    /// from it covers every write the listing could have missed, and one
    /// `Added` event per listed object at its own resource version, sharing
    /// its stored tree. The vector has room for one more event, the
    /// bookmark a pull watch ends its batch with.
    fn initial_listing(&self, request: &ApiRequest) -> (u64, Vec<crate::WatchEvent>) {
        let cursor = self.store.watch_revision(request.kind);
        let listed = self.store.list(request.kind, &request.namespace);
        let mut events = Vec::with_capacity(listed.len() + 1);
        events.extend(listed.into_iter().map(|stored| crate::WatchEvent {
            kind: crate::WatchEventKind::Added,
            revision: stored.resource_version,
            namespace: stored.object.namespace().to_owned(),
            name: stored.object.name().to_owned(),
            object: Some(Arc::clone(stored.object.shared_body())),
        }));
        (cursor, events)
    }

    fn record_exploits(&self, request: &ApiRequest, object: &K8sObject) {
        for record in self.oracle.triggered_by(object) {
            self.exploits.record(|event, _| {
                overwrite(&mut event.cve_id, &record.id);
                overwrite(&mut event.user, &request.user);
                event.kind = object.kind();
                overwrite(&mut event.object_name, object.name());
                // A handle to the admitted spec — forensics sees the exact
                // tree the store persisted, at zero copy cost.
                event.spec = Arc::clone(object.shared_body());
            });
        }
    }
}

impl<S: StoreBackend> RequestHandler for ApiServer<S> {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        self.serve(request, None)
    }

    /// Serve `request` with `body` as its payload's tree: the same gate,
    /// authorization and admission as [`RequestHandler::handle`], minus the
    /// parse.
    fn handle_parsed(&self, request: &ApiRequest, body: Value) -> ApiResponse {
        self.serve(request, Some(body))
    }
}

impl<S: StoreBackend> ApiServer<S> {
    fn serve(&self, request: &ApiRequest, parsed: Option<Value>) -> ApiResponse {
        // 0. Overload protection: seat the request inside the bounded
        //    in-flight window or shed it with `429` — before any per-request
        //    work is spent on a request the server cannot serve in time.
        let _permit = match &self.gate {
            Some(gate) => match gate.admit() {
                Ok(permit) => Some(permit),
                Err(shed) => {
                    return ApiResponse::error(ResponseStatus::TooManyRequests, shed.to_string());
                }
            },
            None => None,
        };
        self.handle_admitted(request, parsed)
    }

    /// Whether `verb` mutates the store (the verbs the fail-closed policy
    /// rejects while durability is degraded).
    fn is_mutating(verb: Verb) -> bool {
        matches!(
            verb,
            Verb::Create | Verb::Update | Verb::Patch | Verb::Delete | Verb::DeleteCollection
        )
    }

    /// Admission, persistence and audit of one authorized create, update or
    /// patch. The audit event holds the request's wire bytes, refused or
    /// not: the trail never pins the tree the store holds.
    fn admit_and_persist(&self, request: &ApiRequest, parsed: Option<Value>) -> ApiResponse {
        let response = match self.admit_object(request, parsed) {
            Ok(object) => {
                // The vulnerable code runs while the API server (and
                // downstream components) process the accepted spec.
                self.record_exploits(request, &object);
                match request.verb {
                    // `kubectl apply` semantics: create, falling back to
                    // update on conflict — one upsert, no second admission
                    // round trip.
                    Verb::Create => match self.store.upsert(object) {
                        (version, true) => {
                            ApiResponse::created(format!("created (resourceVersion {version})"))
                        }
                        (version, false) => {
                            ApiResponse::ok(format!("configured (resourceVersion {version})"))
                        }
                    },
                    _ => match self.store.update(object) {
                        Some(version) => {
                            ApiResponse::ok(format!("configured (resourceVersion {version})"))
                        }
                        None => ApiResponse::error(
                            ResponseStatus::NotFound,
                            format!("{} \"{}\" not found", request.kind, request.name),
                        ),
                    },
                }
            }
            Err(refused) => refused,
        };
        self.record_audit(request, response.is_success(), true);
        response
    }

    fn handle_admitted(&self, request: &ApiRequest, parsed: Option<Value>) -> ApiResponse {
        // 1. Authorization (RBAC) — decided on the resource path alone, so
        //    unauthorized traffic never pays for body parsing and its audit
        //    event records no body.
        if let Err(reason) = self.authorize(request) {
            self.record_audit(request, false, false);
            return ApiResponse::error(ResponseStatus::Forbidden, reason);
        }

        // 1a. Fail-closed degradation: while durability is not proven, the
        //     policy may refuse to accept writes the disk cannot hold yet.
        //     Reads, lists and watches come from memory and keep serving in
        //     every durability state. The state probe is lock-free, so the
        //     hot path never queues behind the WAL mutex.
        if Self::is_mutating(request.verb)
            && self.degrade == DegradePolicy::FailClosed
            && self.store.durability_state() != DurabilityState::Healthy
        {
            self.rejected_writes.fetch_add(1, Ordering::Relaxed);
            self.record_audit(request, false, false);
            let status = self.store.durability();
            let detail = match &status.latched {
                Some(latched) => format!(" ({latched})"),
                None => String::new(),
            };
            return ApiResponse::error(
                ResponseStatus::ServiceUnavailable,
                format!(
                    "durability {} with gap {}: writes rejected by fail-closed policy{detail}",
                    status.state, status.gap
                ),
            );
        }

        // 2. Admission + persistence per verb.
        let response = match request.verb {
            Verb::Create | Verb::Update | Verb::Patch => {
                return self.admit_and_persist(request, parsed)
            }
            Verb::Get => match self
                .store
                .get(request.kind, &request.namespace, &request.name)
            {
                // The stored handle itself — the read path copies nothing.
                Some(stored) => ApiResponse::ok("ok").with_body(ResponseBody::Object(stored)),
                None => ApiResponse::error(
                    ResponseStatus::NotFound,
                    format!("{} \"{}\" not found", request.kind, request.name),
                ),
            },
            Verb::List => ApiResponse::ok("ok").with_body(ResponseBody::List {
                kind: format!("{}List", request.kind),
                items: self.store.list(request.kind, &request.namespace),
            }),
            Verb::Watch => self.handle_watch(request),
            Verb::Delete => {
                match self
                    .store
                    .delete(request.kind, &request.namespace, &request.name)
                {
                    Some(_) => ApiResponse::ok("deleted"),
                    None => ApiResponse::error(
                        ResponseStatus::NotFound,
                        format!("{} \"{}\" not found", request.kind, request.name),
                    ),
                }
            }
            Verb::DeleteCollection => {
                // Collection semantics, not single-object: remove every
                // object of the kind in the namespace, one revision bump and
                // one `Deleted` watch event per object.
                let deleted = self
                    .store
                    .delete_collection(request.kind, &request.namespace);
                ApiResponse::ok(format!("deleted {deleted} objects"))
            }
        };

        // 3. Audit. These verbs carry no payload; one that does anyway is
        //    audited with its bytes, unparsed.
        self.record_audit(request, response.is_success(), true);
        response
    }
}

/// A push-mode watch attachment: the initial listing (empty when resuming
/// from a cursor) plus the live subscription the store will fan events into.
#[derive(Debug)]
pub struct PushWatch {
    /// Synthesized `Added` events for the objects stored at attach time
    /// (initial-list mode only), each sharing its stored tree.
    pub initial: Vec<crate::WatchEvent>,
    /// The bounded-queue subscription, attached at the cursor the initial
    /// listing (or the request's `resourceVersion`) establishes.
    pub subscriber: crate::WatchSubscriber,
}

/// A request handler that can also attach **push-mode** watches: instead of
/// answering a watch request with a delta batch (pull), it returns a
/// [`PushWatch`] whose subscriber receives every later event without the
/// client ever polling. The same authorization and audit pipeline as
/// [`RequestHandler::handle`] applies — a push watch is a watch request in
/// every respect except delivery.
pub trait WatchHub: RequestHandler {
    /// Attach a push watch for `request` (a `Verb::Watch` request).
    ///
    /// * `resourceVersion` **absent** — initial-list-then-push: the result
    ///   carries one `Added` event per stored object and a subscription
    ///   attached at the pre-scan journal revision, so no write can fall
    ///   between the listing and the stream (writes racing the scan may
    ///   appear in both, which cache upserts absorb — the same contract as
    ///   the pull path).
    /// * `resourceVersion` **present** — resume-from-revision: the
    ///   subscription backfills everything after the cursor.
    ///
    /// # Errors
    ///
    /// The same [`ApiResponse`] failures the pull path produces: `Forbidden`
    /// on RBAC denial (audited), `BadRequest` for non-watch verbs, and
    /// `410 Gone` when the cursor predates the compaction horizon (the
    /// caller re-lists).
    fn subscribe_push(&self, request: &ApiRequest) -> Result<PushWatch, ApiResponse>;
}

impl<S: StoreBackend> WatchHub for ApiServer<S> {
    fn subscribe_push(&self, request: &ApiRequest) -> Result<PushWatch, ApiResponse> {
        if request.verb != Verb::Watch {
            return Err(ApiResponse::error(
                ResponseStatus::BadRequest,
                format!("subscribe_push serves watch requests, not {}", request.verb),
            ));
        }
        if let Err(reason) = self.authorize(request) {
            self.record_audit(request, false, false);
            return Err(ApiResponse::error(ResponseStatus::Forbidden, reason));
        }
        let (cursor, initial) = match request.resource_version {
            Some(revision) => (revision, Vec::new()),
            None => self.initial_listing(request),
        };
        let subscriber = self
            .store
            .subscribe(
                request.kind,
                &request.namespace,
                cursor,
                self.watch_queue_capacity,
            )
            .map_err(|error| ApiResponse::error(ResponseStatus::Gone, error.to_string()))?;
        self.record_audit(request, true, false);
        Ok(PushWatch {
            initial,
            subscriber,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestBody;
    use k8s_rbac::{audit2rbac, Audit2RbacOptions};
    use kf_yaml::BodyFormat;

    fn pod_yaml(name: &str, extra: &str) -> String {
        format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\nspec:\n  containers:\n    - name: c\n      image: nginx\n{extra}"
        )
    }

    fn pod(name: &str) -> K8sObject {
        K8sObject::from_yaml(&pod_yaml(name, "")).unwrap()
    }

    #[test]
    fn admin_can_create_get_and_delete() {
        let server = ApiServer::new();
        assert!(server
            .handle(&ApiRequest::create("admin", &pod("a")))
            .is_success());
        let get = server.handle(&ApiRequest::get("admin", ResourceKind::Pod, "default", "a"));
        assert!(get.is_success());
        assert!(get.body.is_some());
        assert!(server
            .handle(&ApiRequest::delete(
                "admin",
                ResourceKind::Pod,
                "default",
                "a"
            ))
            .is_success());
        assert_eq!(server.store().len(), 0);
    }

    #[test]
    fn create_on_existing_object_behaves_like_apply() {
        let server = ApiServer::new();
        assert!(server
            .handle(&ApiRequest::create("admin", &pod("a")))
            .is_success());
        let second = server.handle(&ApiRequest::create("admin", &pod("a")));
        assert!(second.is_success());
        assert_eq!(server.store().len(), 1);
    }

    #[test]
    fn rbac_denies_users_without_grants() {
        let server = ApiServer::new();
        server.set_rbac_policy(Some(RbacPolicySet::new()));
        let response = server.handle(&ApiRequest::create("mallory", &pod("x")));
        assert!(response.is_denied());
        assert_eq!(server.store().len(), 0);
        // Authorization never pays for a parse: bytes that are no document
        // at all are refused the same way, not answered `400`.
        let garbage = ApiRequest {
            body: RequestBody::Raw("{\"kind\": ]".into(), BodyFormat::Json),
            ..ApiRequest::create("mallory", &pod("y"))
        };
        assert!(server.handle(&garbage).is_denied());
        // The denials show up in the audit log, without a body.
        let log = server.audit_log();
        assert_eq!(log.denied().len(), 2);
        assert!(log.denied().iter().all(|e| e.request_body.is_none()));
    }

    #[test]
    fn a_denial_is_worded_byte_for_byte() {
        let server = ApiServer::new();
        let mut policy = RbacPolicySet::new();
        policy.add_role(k8s_rbac::Role::namespaced("reader", "web").with_rule(
            k8s_rbac::PolicyRule::for_kind(ResourceKind::Pod, [Verb::Get]),
        ));
        policy.add_binding(
            k8s_rbac::RoleBinding::namespaced("reader-binding", "web", "reader")
                .with_subject(k8s_rbac::Subject::user("operator:nginx")),
        );
        server.set_rbac_policy(Some(policy));
        // An allowed read of a missing object gets past RBAC.
        let allowed = ApiRequest::get("operator:nginx", ResourceKind::Pod, "web", "x");
        assert_eq!(server.handle(&allowed).status, ResponseStatus::NotFound);
        for (request, message) in [
            (
                ApiRequest::get("operator:nginx", ResourceKind::Secret, "web", "tls"),
                "no RBAC rule allows user \"operator:nginx\" to get secrets in namespace \"web\"",
            ),
            (
                ApiRequest::get("operator:nginx", ResourceKind::Pod, "data", "x"),
                "no RBAC rule allows user \"operator:nginx\" to get pods in namespace \"data\"",
            ),
            (
                ApiRequest::create("mallory", &pod("x")),
                "no RBAC rule allows user \"mallory\" to create pods in namespace \"default\"",
            ),
            (
                ApiRequest::list("", ResourceKind::ClusterRole, ""),
                "no RBAC rule allows user \"\" to list clusterroles in namespace \"\"",
            ),
        ] {
            let response = server.handle(&request);
            assert_eq!(response.status, ResponseStatus::Forbidden);
            assert_eq!(response.message, message);
        }
        let watch = ApiRequest::watch("mallory", ResourceKind::Pod, "web", None);
        let refused = server.subscribe_push(&watch).expect_err("a denial");
        assert_eq!(
            refused.message,
            "no RBAC rule allows user \"mallory\" to watch pods in namespace \"web\""
        );
    }

    #[test]
    fn audit_driven_policy_admits_the_recorded_workload() {
        let server = ApiServer::new().with_admin("operator-learning");
        // Learning phase: the operator deploys with permissive access.
        let deployment = K8sObject::from_yaml(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: 1\n  template:\n    spec:\n      containers:\n        - name: c\n          image: nginx\n",
        )
        .unwrap();
        server.handle(&ApiRequest::create("operator-learning", &deployment));
        let log = server.audit_log();
        let policy = audit2rbac(
            log.events(),
            "operator-learning",
            &Audit2RbacOptions::default(),
        );

        // Enforcement phase: a fresh server with the inferred policy; the same
        // user (now subject to RBAC) can repeat the workload.
        let enforced = ApiServer::new();
        enforced.set_rbac_policy(Some(policy));
        let response = enforced.handle(&ApiRequest::create("operator-learning", &deployment));
        assert!(response.is_success());
        // …but cannot touch kinds it never used.
        let secret = K8sObject::minimal(ResourceKind::Secret, "s", "default");
        assert!(enforced
            .handle(&ApiRequest::create("operator-learning", &secret))
            .is_denied());
    }

    #[test]
    fn accepted_malicious_specs_record_exploits() {
        let server = ApiServer::new();
        let evil = K8sObject::from_yaml(&pod_yaml("evil", "  hostNetwork: true\n")).unwrap();
        assert!(server
            .handle(&ApiRequest::create("admin", &evil))
            .is_success());
        let exploits = server.exploits();
        assert!(exploits.iter().any(|e| e.cve_id == "CVE-2020-15257"));
        assert_eq!(exploits[0].user, "admin");
    }

    #[test]
    fn rejected_requests_do_not_record_exploits() {
        let server = ApiServer::new();
        server.set_rbac_policy(Some(RbacPolicySet::new()));
        let evil = K8sObject::from_yaml(&pod_yaml("evil", "  hostNetwork: true\n")).unwrap();
        assert!(server
            .handle(&ApiRequest::create("mallory", &evil))
            .is_denied());
        assert!(server.exploits().is_empty());
    }

    fn get_pod(user: &str, namespace: &str, name: &str) -> ApiRequest {
        ApiRequest::get(user, ResourceKind::Pod, namespace, name)
    }

    #[test]
    fn the_audit_ring_keeps_the_newest_events_in_order_and_counts_the_rest() {
        let server = ApiServer::new();
        const EXTRA: usize = 100;
        for i in 0..AUDIT_LOG_CAPACITY + EXTRA {
            server.handle(&get_pod("admin", "default", &format!("pod-{i}")));
        }
        let log = server.audit_log();
        assert_eq!(log.events().len(), AUDIT_LOG_CAPACITY);
        for (i, event) in log.events().iter().enumerate() {
            assert_eq!(event.sequence, (EXTRA + i) as u64);
            assert_eq!(event.name, format!("pod-{}", EXTRA + i));
            assert_eq!((event.verb, event.user.as_str()), (Verb::Get, "admin"));
        }
        assert_eq!(server.audit_dropped(), EXTRA as u64);
        assert_eq!(server.health_report().audit_dropped, EXTRA as u64);
    }

    #[test]
    fn a_cleared_audit_ring_refills_from_empty() {
        let server = ApiServer::new();
        for i in 0..AUDIT_LOG_CAPACITY + 10 {
            server.handle(&get_pod("admin", "default", &format!("old-{i}")));
        }
        server.clear_audit_log();
        assert!(server.audit_log().events().is_empty());
        assert_eq!(server.audit_dropped(), 0);
        for i in 0..20 {
            server.handle(&get_pod("admin", "default", &format!("new-{i}")));
        }
        let names: Vec<String> = server
            .audit_log()
            .events()
            .iter()
            .map(|event| event.name.clone())
            .collect();
        let expected: Vec<String> = (0..20).map(|i| format!("new-{i}")).collect();
        assert_eq!(names, expected);
        assert_eq!(server.audit_dropped(), 0);
    }

    #[test]
    fn two_clients_overwriting_each_others_audit_slots_keep_every_event_whole() {
        let server = ApiServer::new();
        // Requests whose strings differ in length, one past what a slot
        // keeps between events, so a slot is refilled with an event unlike
        // the one it held.
        let long = "n".repeat(SLOT_STRING_BYTES + 1);
        let requests = [
            get_pod("alice", "default", "a"),
            get_pod("operator:postgresql", "data", "release-name-postgresql-0"),
            get_pod("bob", "a-namespace-with-a-long-name", &long),
            ApiRequest::list("carol", ResourceKind::Pod, "kube-system"),
        ];
        const PER_THREAD: usize = 3_000;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2 {
                let (server, requests, start) = (&server, &requests, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        server.handle(&requests[(2 * i + thread) % requests.len()]);
                    }
                });
            }
        });
        let log = server.audit_log();
        assert_eq!(log.events().len(), AUDIT_LOG_CAPACITY);
        for event in log.events() {
            let whole = requests.iter().any(|request| {
                (event.verb, &event.user, &event.namespace, &event.name)
                    == (
                        request.verb,
                        &request.user,
                        &request.namespace,
                        &request.name,
                    )
            });
            assert!(whole, "a torn event: {event:?}");
        }
        assert!(log
            .events()
            .windows(2)
            .all(|w| w[0].sequence < w[1].sequence));
        assert_eq!(
            log.events().len() as u64 + server.audit_dropped(),
            2 * PER_THREAD as u64
        );
    }

    #[test]
    fn the_exploit_log_is_a_ring_too() {
        let server = ApiServer::new();
        const CREATES: usize = EXPLOIT_LOG_CAPACITY + 44;
        for i in 0..CREATES {
            let evil = pod_yaml(&format!("evil-{i}"), "  hostNetwork: true\n");
            let evil = K8sObject::from_yaml(&evil).unwrap();
            assert!(server
                .handle(&ApiRequest::create("admin", &evil))
                .is_success());
        }
        let exploits = server.exploits();
        assert_eq!(exploits.len(), EXPLOIT_LOG_CAPACITY);
        // The newest records, oldest first: each create adds the same
        // records, so the retained ones start inside the last 256 creates.
        let index =
            |event: &ExploitEvent| -> usize { event.object_name["evil-".len()..].parse().unwrap() };
        assert!(exploits.windows(2).all(|w| index(&w[0]) <= index(&w[1])));
        assert!(index(&exploits[0]) >= CREATES - EXPLOIT_LOG_CAPACITY);
        let last = exploits.last().unwrap();
        assert_eq!(index(last), CREATES - 1);
        let stored = server
            .store()
            .get(ResourceKind::Pod, "default", &last.object_name)
            .unwrap();
        assert!(Arc::ptr_eq(&last.spec, stored.object.shared_body()));
        server.clear_exploits();
        assert!(server.exploits().is_empty());
        let evil = K8sObject::from_yaml(&pod_yaml("again", "  hostNetwork: true\n")).unwrap();
        assert!(server
            .handle(&ApiRequest::create("admin", &evil))
            .is_success());
        assert!(server.exploits().iter().all(|e| e.object_name == "again"));
        assert!(!server.exploits().is_empty());
    }

    #[test]
    fn a_long_string_leaves_its_slot_with_the_next_value_that_fits() {
        let mut slot = String::new();
        overwrite(&mut slot, &"x".repeat(4 * SLOT_STRING_BYTES));
        assert!(slot.capacity() >= 4 * SLOT_STRING_BYTES);
        overwrite(&mut slot, "short");
        assert_eq!(slot, "short");
        assert!(slot.capacity() <= SLOT_STRING_BYTES);
        let buffer = slot.as_ptr();
        overwrite(&mut slot, "other");
        assert_eq!((slot.as_str(), slot.as_ptr()), ("other", buffer));
    }

    #[test]
    fn malformed_bodies_are_bad_requests() {
        let server = ApiServer::new();
        let request = ApiRequest {
            user: "admin".into(),
            verb: Verb::Create,
            kind: ResourceKind::Pod,
            namespace: "default".into(),
            name: "x".into(),
            content_type: None,
            resource_version: None,
            body: RequestBody::Raw("replicas: 3\n".into(), BodyFormat::Yaml),
        };
        let response = server.handle(&request);
        assert_eq!(response.status, ResponseStatus::BadRequest);
    }

    #[test]
    fn kind_mismatch_between_body_and_endpoint_is_rejected() {
        let server = ApiServer::new();
        let request = ApiRequest {
            kind: ResourceKind::Service,
            ..ApiRequest::create("admin", &pod("x"))
        };
        let response = server.handle(&request);
        assert_eq!(response.status, ResponseStatus::BadRequest);
    }

    #[test]
    fn namespace_is_defaulted_at_admission() {
        let server = ApiServer::new();
        let mut request = ApiRequest::create("admin", &pod("a"));
        request.namespace = "prod".into();
        // The body has no namespace; the endpoint namespace wins.
        assert!(server.handle(&request).is_success());
        assert!(server.store().get(ResourceKind::Pod, "prod", "a").is_some());
    }

    #[test]
    fn a_read_after_an_update_serves_the_new_body() {
        // The first get fills the stored version's cached text; the update
        // stores a new version, and the next get and list render that one.
        let server = ApiServer::new();
        assert!(server
            .handle(&ApiRequest::create("admin", &pod("a")))
            .is_success());
        let get = || server.handle(&ApiRequest::get("admin", ResourceKind::Pod, "default", "a"));
        let list = || server.handle(&ApiRequest::list("admin", ResourceKind::Pod, "default"));
        let formats = [kf_yaml::BodyFormat::Yaml, kf_yaml::BodyFormat::Json];
        let before: Vec<String> = formats
            .iter()
            .map(|&format| get().body.unwrap().to_wire(format))
            .collect();
        let updated = K8sObject::from_yaml(&pod_yaml("a", "  hostname: edited\n")).unwrap();
        assert!(server
            .handle(&ApiRequest::update("admin", &updated))
            .is_success());
        for (format, before) in formats.into_iter().zip(before) {
            for response in [get(), list()] {
                let body = response.body.unwrap();
                let wire = body.to_wire(format);
                assert_ne!(wire, before, "{format:?}");
                assert!(wire.contains("edited"), "{format:?}: {wire}");
                assert_eq!(
                    wire,
                    match format {
                        kf_yaml::BodyFormat::Json => kf_yaml::to_json(&body.to_value()),
                        _ => kf_yaml::to_yaml(&body.to_value()),
                    }
                );
            }
        }
    }

    #[test]
    fn list_returns_all_objects_of_the_kind() {
        let server = ApiServer::new();
        server.handle(&ApiRequest::create("admin", &pod("a")));
        server.handle(&ApiRequest::create("admin", &pod("b")));
        let response = server.handle(&ApiRequest::list("admin", ResourceKind::Pod, "default"));
        let body = response.body.unwrap();
        assert_eq!(body.items().unwrap().len(), 2);
        // The streaming serializer renders the wire shape straight from the
        // item handles.
        let rendered = kf_yaml::parse(&body.to_wire(kf_yaml::BodyFormat::Yaml)).unwrap();
        assert_eq!(rendered.get("items").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(rendered.get("kind").unwrap().as_str(), Some("PodList"));
    }

    #[test]
    fn watch_without_cursor_lists_then_streams() {
        let server = ApiServer::new();
        server.handle(&ApiRequest::create("admin", &pod("a")));
        server.handle(&ApiRequest::create("admin", &pod("b")));
        // Initial watch: one Added per stored object plus a bookmark cursor.
        let initial = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            None,
        ));
        assert!(initial.is_success());
        let (events, cursor) = initial.body.as_ref().unwrap().watch_events().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, crate::WatchEventKind::Added);
        assert_eq!(events[2].kind, crate::WatchEventKind::Bookmark);
        assert_eq!(cursor, 2);
        // The synthesized events share the stored trees.
        let stored = server
            .store()
            .get(ResourceKind::Pod, "default", "a")
            .unwrap();
        assert!(events
            .iter()
            .filter_map(|e| e.object.as_ref())
            .any(|tree| Arc::ptr_eq(tree, stored.object.shared_body())));

        // Nothing happened: resuming from the cursor delivers only a
        // bookmark, holding the cursor steady.
        let idle = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            Some(cursor),
        ));
        let (events, idle_cursor) = idle.body.as_ref().unwrap().watch_events().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, crate::WatchEventKind::Bookmark);
        assert_eq!(idle_cursor, cursor);

        // A write after the cursor streams as exactly one delta.
        server.handle(&ApiRequest::create("admin", &pod("c")));
        server.handle(&ApiRequest::delete(
            "admin",
            ResourceKind::Pod,
            "default",
            "a",
        ));
        let delta = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            Some(cursor),
        ));
        let (events, next) = delta.body.as_ref().unwrap().watch_events().unwrap();
        assert_eq!(events.len(), 3, "added + deleted + bookmark");
        assert_eq!(events[0].kind, crate::WatchEventKind::Added);
        assert_eq!(events[0].name, "c");
        assert_eq!(events[1].kind, crate::WatchEventKind::Deleted);
        assert_eq!(events[1].name, "a");
        assert!(next > cursor);
    }

    #[test]
    fn pull_and_push_initial_listings_agree() {
        let server = ApiServer::new();
        for name in ["b", "a", "c"] {
            server.handle(&ApiRequest::create("admin", &pod(name)));
        }
        let modified = K8sObject::from_yaml(&pod_yaml("a", "  hostNetwork: true\n")).unwrap();
        server.handle(&ApiRequest::update("admin", &modified));
        let elsewhere = pod_yaml("d", "").replace("  name: d\n", "  name: d\n  namespace: other\n");
        server.handle(&ApiRequest::create(
            "admin",
            &K8sObject::from_yaml(&elsewhere).unwrap(),
        ));
        let config = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cfg\ndata:\n  k: v\n";
        server.handle(&ApiRequest::create(
            "admin",
            &K8sObject::from_yaml(config).unwrap(),
        ));
        let pod_revision = server.store().watch_revision(ResourceKind::Pod);
        assert!(pod_revision < server.store().revision());

        let watch = ApiRequest::watch("admin", ResourceKind::Pod, "default", None);
        let pulled = server.handle(&watch);
        let (events, pull_cursor) = pulled.body.as_ref().unwrap().watch_events().unwrap();
        let (bookmark, listed) = events.split_last().unwrap();
        assert_eq!(bookmark.kind, crate::WatchEventKind::Bookmark);
        let pushed = server.subscribe_push(&watch).expect("admin may watch");

        assert_eq!(pull_cursor, pod_revision);
        assert_eq!(pushed.subscriber.resume(), pull_cursor);
        let keys = |events: &[crate::WatchEvent]| -> Vec<_> {
            events
                .iter()
                .map(|e| (e.kind, e.revision, e.namespace.clone(), e.name.clone()))
                .collect()
        };
        let pulled_keys = keys(listed);
        assert_eq!(pulled_keys, keys(&pushed.initial));
        let names: Vec<&str> = pulled_keys.iter().map(|k| k.3.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        for (pull, push) in listed.iter().zip(&pushed.initial) {
            assert!(Arc::ptr_eq(
                pull.object.as_ref().unwrap(),
                push.object.as_ref().unwrap()
            ));
        }
    }

    #[test]
    fn watch_on_a_compacted_journal_is_gone() {
        let server = ApiServer::with_store(crate::ObjectStore::with_journal_capacity(2));
        for name in ["a", "b", "c", "d"] {
            server.handle(&ApiRequest::create("admin", &pod(name)));
        }
        let stale = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            Some(0),
        ));
        assert_eq!(stale.status, ResponseStatus::Gone);
        assert_eq!(ResponseStatus::Gone.code(), 410);
        // Recovery: an initial watch re-lists and hands out a live cursor.
        let relist = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            None,
        ));
        let (events, cursor) = relist.body.as_ref().unwrap().watch_events().unwrap();
        assert_eq!(events.len(), 5, "four objects + bookmark");
        let resumed = server.handle(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            Some(cursor),
        ));
        assert!(resumed.is_success());
    }

    #[test]
    fn delete_collection_deletes_the_whole_namespace_of_the_kind() {
        let server = ApiServer::new();
        for name in ["a", "b", "c"] {
            server.handle(&ApiRequest::create("admin", &pod(name)));
        }
        let watch_cursor = server.store().watch_revision(ResourceKind::Pod);
        let response = server.handle(&ApiRequest::delete_collection(
            "admin",
            ResourceKind::Pod,
            "default",
        ));
        assert!(response.is_success());
        assert_eq!(response.message, "deleted 3 objects");
        assert_eq!(server.store().len(), 0);
        // One Deleted event per removed object.
        let events = server
            .store()
            .events_since(ResourceKind::Pod, "default", watch_cursor)
            .unwrap()
            .events;
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.kind == crate::WatchEventKind::Deleted));
        // An empty collection deletes zero objects, successfully.
        let again = server.handle(&ApiRequest::delete_collection(
            "admin",
            ResourceKind::Pod,
            "default",
        ));
        assert!(again.is_success());
        assert_eq!(again.message, "deleted 0 objects");
    }

    #[test]
    fn update_of_missing_object_is_not_found() {
        let server = ApiServer::new();
        let response = server.handle(&ApiRequest::update("admin", &pod("ghost")));
        assert_eq!(response.status, ResponseStatus::NotFound);
    }

    #[test]
    fn a_parsed_body_is_stored_as_handed_and_defaulted_in_place() {
        let server = ApiServer::new();
        // The bytes name a plain pod; the handed tree carries a label the
        // bytes do not, so what is stored shows which one the server used.
        let request = ApiRequest::create("admin", &pod("p"));
        let labelled = K8sObject::from_yaml(
            &pod_yaml("p", "").replace("  name: p\n", "  name: p\n  labels:\n    handed: yes\n"),
        )
        .unwrap();
        let response = server.handle_parsed(&request, labelled.body().clone());
        assert!(response.is_success(), "{}", response.message);
        let stored = server
            .store()
            .get(ResourceKind::Pod, "default", "p")
            .expect("defaulted into the endpoint's namespace");
        let tree = stored.object.shared_body();
        assert_eq!(
            tree.get("metadata").and_then(|m| m.get("labels")),
            labelled
                .body()
                .get("metadata")
                .and_then(|m| m.get("labels"))
        );
        // The audit holds the request's own buffer, not the handed tree.
        let log = server.audit_log();
        let event = log.events().last().unwrap();
        let (audited, _) = event.request_body.as_ref().unwrap();
        assert_eq!(audited.as_ptr(), request.body.raw().unwrap().as_ptr());
        // A gate in front seats a parsed request like any other.
        let gated = ApiServer::new().with_admission_limit(1, std::time::Duration::ZERO);
        assert!(gated
            .handle_parsed(&request, labelled.body().clone())
            .is_success());
        assert_eq!(gated.health_report().admitted_total, 1);
    }

    #[test]
    fn accepted_requests_share_one_tree_from_admission_to_reads() {
        // The server parses an admitted body once; that tree is the stored
        // body and what reads return, while the audit event holds the
        // request's own buffer — with and without a namespace for admission
        // to default, in both formats.
        let server = ApiServer::new();
        for (name, request) in [
            ("a", ApiRequest::create("admin", &pod("a"))),
            ("b", ApiRequest::create_json("admin", &pod("b"))),
            (
                "c",
                ApiRequest::create(
                    "admin",
                    &K8sObject::from_yaml(
                        &pod_yaml("c", "")
                            .replace("  name: c\n", "  name: c\n  namespace: default\n"),
                    )
                    .unwrap(),
                ),
            ),
        ] {
            assert!(server.handle(&request).is_success());
            let stored = server
                .store()
                .get(ResourceKind::Pod, "default", name)
                .unwrap();
            let tree = stored.object.shared_body();
            let get = server.handle(&ApiRequest::get(
                "admin",
                ResourceKind::Pod,
                "default",
                name,
            ));
            assert!(Arc::ptr_eq(get.body.unwrap().object().unwrap(), tree));
            let log = server.audit_log();
            let event = log
                .events()
                .iter()
                .find(|e| e.verb == Verb::Create && e.name == name)
                .unwrap();
            let (audited, _) = event.request_body.as_ref().unwrap();
            assert_eq!(audited.as_ptr(), request.body.raw().unwrap().as_ptr());
        }
    }
}
