//! API-server audit logging.
//!
//! The paper's RBAC baseline is built by enabling audit logging, running an
//! attack-free deployment of each operator, and feeding the recorded events to
//! `audit2rbac`. Audit events carry the resource, verb, namespace and user —
//! and, at the `RequestResponse` level, the full request body — but RBAC
//! policies can only be expressed over the former, which is exactly the
//! granularity gap KubeFence fills.

use std::sync::Arc;

use k8s_model::{ResourceKind, Verb};
use kf_yaml::Value;

/// One audit event recorded by the API server.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Monotonic sequence number within the log.
    pub sequence: u64,
    /// Authenticated user.
    pub user: String,
    /// Request verb.
    pub verb: Verb,
    /// Target resource kind.
    pub kind: ResourceKind,
    /// Target namespace (empty for cluster-scoped resources).
    pub namespace: String,
    /// Target object name (empty for collection operations).
    pub name: String,
    /// Whether the request was allowed.
    pub allowed: bool,
    /// The request body ("available" in the audit log, as the paper notes,
    /// but not expressible in RBAC policies). Shared with the request that
    /// produced it — recording an event never deep-clones the document.
    pub request_body: Option<Arc<Value>>,
}

/// An in-memory audit log.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Assemble a log from already-stamped events (used by the sharded API
    /// server to merge its per-shard buffers into one chronological log).
    /// Events keep their original sequence numbers.
    pub fn from_events(events: Vec<AuditEvent>) -> Self {
        AuditLog { events }
    }

    /// Record an event, assigning the next sequence number.
    // The argument list mirrors the audit event's fields one-to-one; a
    // params struct would just duplicate `AuditEvent`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        user: &str,
        verb: Verb,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
        allowed: bool,
        request_body: Option<Arc<Value>>,
    ) -> &AuditEvent {
        let event = AuditEvent {
            sequence: self.events.len() as u64,
            user: user.to_owned(),
            verb,
            kind,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
            allowed,
            request_body,
        };
        self.events.push(event);
        self.events.last().expect("just pushed")
    }

    /// All events, in order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded for a specific user.
    pub fn for_user(&self, user: &str) -> Vec<&AuditEvent> {
        self.events.iter().filter(|e| e.user == user).collect()
    }

    /// Events that were denied.
    pub fn denied(&self) -> Vec<&AuditEvent> {
        self.events.iter().filter(|e| !e.allowed).collect()
    }

    /// Clear the log (used between experiment phases).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_and_queryable() {
        let mut log = AuditLog::new();
        log.record(
            "alice",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "web",
            true,
            None,
        );
        log.record("bob", Verb::Get, ResourceKind::Pod, "dev", "", true, None);
        log.record(
            "mallory",
            Verb::Create,
            ResourceKind::Pod,
            "prod",
            "x",
            false,
            None,
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[0].sequence, 0);
        assert_eq!(log.events()[2].sequence, 2);
        assert_eq!(log.for_user("alice").len(), 1);
        assert_eq!(log.denied().len(), 1);
        assert_eq!(log.denied()[0].user, "mallory");
    }

    #[test]
    fn request_bodies_are_preserved_when_provided() {
        let mut log = AuditLog::new();
        let body = kf_yaml::parse("kind: Deployment\nspec:\n  replicas: 1\n").unwrap();
        log.record(
            "alice",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "web",
            true,
            Some(Arc::new(body.clone())),
        );
        assert_eq!(log.events()[0].request_body.as_deref(), Some(&body));
    }

    #[test]
    fn clear_resets_the_log() {
        let mut log = AuditLog::new();
        log.record("a", Verb::Get, ResourceKind::Service, "ns", "", true, None);
        log.clear();
        assert!(log.is_empty());
    }
}
