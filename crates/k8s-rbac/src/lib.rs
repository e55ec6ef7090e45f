//! # k8s-rbac — the RBAC substrate and the `audit2rbac` baseline
//!
//! The paper compares KubeFence against native Kubernetes RBAC with
//! least-privilege, per-workload policies inferred by the `audit2rbac` tool.
//! This crate implements that entire baseline:
//!
//! * [`PolicyRule`], [`Role`], [`RoleBinding`], [`Subject`] — the RBAC object
//!   model (Roles and ClusterRoles share one type distinguished by scope);
//! * [`RbacPolicySet`] / [`AccessReview`] — the authorization evaluator the
//!   simulated API server consults on every request;
//! * [`AuditEvent`] / [`AuditLog`] — API-server audit events and the snapshot
//!   of the server's audit trail that carries them;
//! * [`audit2rbac`] — inference of the minimal RBAC policy that covers a
//!   recorded attack-free workload, mirroring the paper's RBAC setup
//!   (Section VI-D).
//!
//! RBAC operates on *resources and verbs*; it cannot express constraints on
//! specification fields. That limitation — reproduced faithfully here — is
//! what KubeFence addresses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod audit2rbac;
mod evaluator;
mod role;

pub use audit::{AuditEvent, AuditLog};
pub use audit2rbac::{audit2rbac, Audit2RbacOptions};
pub use evaluator::{AccessDecision, AccessReview, RbacPolicySet};
pub use role::{PolicyRule, Role, RoleBinding, RoleScope, Subject, SubjectKind};
