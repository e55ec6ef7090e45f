//! API-server audit logging.
//!
//! The paper's RBAC baseline is built by enabling audit logging, running an
//! attack-free deployment of each operator, and feeding the recorded events to
//! `audit2rbac`. Audit events carry the resource, verb, namespace and user —
//! and, at the `RequestResponse` level, the full request body — but RBAC
//! policies can only be expressed over the former, which is exactly the
//! granularity gap KubeFence fills.

use bytes::Bytes;
use k8s_model::{ResourceKind, Verb};
use kf_yaml::BodyFormat;

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
    /// but not expressible in RBAC policies): the wire bytes the client
    /// sent, with the format the server read them in — what a Kubernetes
    /// audit `requestObject` records, and what log-driven policy refinement
    /// reads. A handle to the request's own buffer: recording an event never
    /// copies it, and never pins the tree the server parsed from it.
    pub request_body: Option<(Bytes, BodyFormat)>,
}

/// A snapshot of the API server's audit trail: the events its bounded ring
/// held when the snapshot was taken, in order. The server records into the
/// ring; this type only carries and queries the copy.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
}

impl AuditLog {
    /// Assemble a log from already-stamped events (used by the sharded API
    /// server to merge its per-shard buffers into one chronological log).
    /// Events keep their original sequence numbers.
    pub fn from_events(events: Vec<AuditEvent>) -> Self {
        AuditLog { events }
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

    /// Events that were denied.
    pub fn denied(&self) -> Vec<&AuditEvent> {
        self.events.iter().filter(|e| !e.allowed).collect()
    }
}

/// Body-less events for `(user, verb, kind, namespace, name, allowed)`,
/// sequenced by position: what the audit and `audit2rbac` tests feed on.
#[cfg(test)]
pub(crate) fn events_of(rows: &[(&str, Verb, ResourceKind, &str, &str, bool)]) -> Vec<AuditEvent> {
    rows.iter()
        .enumerate()
        .map(
            |(sequence, &(user, verb, kind, namespace, name, allowed))| AuditEvent {
                sequence: sequence as u64,
                user: user.to_owned(),
                verb,
                kind,
                namespace: namespace.to_owned(),
                name: name.to_owned(),
                allowed,
                request_body: None,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_and_queryable() {
        let log = AuditLog::from_events(events_of(&[
            (
                "alice",
                Verb::Create,
                ResourceKind::Deployment,
                "prod",
                "web",
                true,
            ),
            ("bob", Verb::Get, ResourceKind::Pod, "dev", "", true),
            (
                "mallory",
                Verb::Create,
                ResourceKind::Pod,
                "prod",
                "x",
                false,
            ),
        ]));
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[0].sequence, 0);
        assert_eq!(log.events()[2].sequence, 2);
        assert_eq!(log.denied().len(), 1);
        assert_eq!(log.denied()[0].user, "mallory");
    }
}
