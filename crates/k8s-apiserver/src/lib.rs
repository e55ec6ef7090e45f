//! # k8s-apiserver — the simulated Kubernetes API server
//!
//! The paper evaluates KubeFence against a real two-node cluster; this crate
//! provides the substitute described in `docs/architecture.md`: an
//! in-process API server that exposes exactly the surface KubeFence interacts
//! with — authenticated REST-style requests carrying YAML object
//! specifications — and implements the behaviours the experiments depend on:
//!
//! * [`ApiRequest`] / [`ApiResponse`] — the request/response model (verb,
//!   resource path, body, payload size);
//! * [`ObjectStore`] — an etcd-like versioned in-memory store;
//! * [`WatchEvent`] / [`WatchSubscription`] — the revision-indexed watch
//!   plane: every write is published into a bounded per-kind journal
//!   (sub-sharded by namespace hash, batched publication on multi-write
//!   paths), so `Verb::Watch` streams incremental events (with
//!   `Gone`-on-compaction semantics) instead of answering with a full list;
//! * [`WatchSubscriber`] / [`WatchDispatcher`] / [`WatchHub`] — the
//!   push-notify fabric: per-subscriber bounded delivery queues fanned out
//!   to inside the publication critical section (same-object coalescing,
//!   slow-consumer eviction → `Gone` → re-list) that also let pull
//!   subscriptions block instead of poll, and an epoll-style readiness
//!   dispatcher for informer fleets;
//! * [`ApiServer`] — request handling: authorization through an optional
//!   [`k8s_rbac::RbacPolicySet`], object validation, persistence, audit
//!   logging, and **CVE-trigger simulation** (a request whose specification
//!   exercises a vulnerable feature records an exploitation event);
//! * [`SlotRing`] — the bounded log behind the audit and exploit trails
//!   (and the enforcement proxy's denial trail): a sharded ring of slots
//!   overwritten in place;
//! * [`RequestHandler`] — the trait shared by the API server and any
//!   man-in-the-middle component (the KubeFence proxy) placed in front of it.
//!
//! ```
//! use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
//! use k8s_model::K8sObject;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = ApiServer::new();
//! let pod = K8sObject::from_yaml(
//!     "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n    - name: web\n      image: nginx\n",
//! )?;
//! let response = server.handle(&ApiRequest::create("admin", &pod));
//! assert!(response.is_success());
//! assert_eq!(server.store().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
pub mod persist;
mod request;
pub mod ring;
mod server;
pub mod storage_io;
mod store;
mod sync;
mod vuln;
mod watch;

pub use health::{AdmissionGate, AdmissionPermit, DegradePolicy, HealthReport, ShedError};
pub use persist::{
    segment_file, CheckpointReport, DurabilityState, DurabilityStatus, DurabilityTransition,
    FsyncPolicy, GroupTicket, LatchedError, ManifestData, ManifestEntry, PersistConfig,
    Persistence, RecoveryReport, RetryPolicy, SegmentData, StorageErrorKind, TornTail, Wal,
    WalRecord, MANIFEST_FILE, MANIFEST_PREV_FILE,
};
pub use request::{ApiRequest, ApiResponse, RequestBody, ResponseBody, ResponseStatus};
pub use ring::SlotRing;
pub use server::{
    ApiServer, ExploitEvent, PushWatch, RequestHandler, WatchHub, AUDIT_LOG_CAPACITY,
    EXPLOIT_LOG_CAPACITY,
};
pub use storage_io::{
    FaultKind, FaultOp, FaultSchedule, FaultyIo, PlannedFault, RealIo, StorageIo,
};
pub use store::{ObjectStore, StoreBackend, StoredObject};
pub use vuln::VulnerabilityOracle;
pub use watch::{
    namespace_shard, WatchDelta, WatchDispatcher, WatchError, WatchEvent, WatchEventKind,
    WatchSubscriber, WatchSubscription, DEFAULT_JOURNAL_CAPACITY, DEFAULT_JOURNAL_SHARDS,
    DEFAULT_SUBSCRIBER_QUEUE_CAPACITY,
};
