//! # k8s-model — Kubernetes object model for the KubeFence reproduction
//!
//! This crate provides the Kubernetes-side vocabulary shared by the whole
//! workspace:
//!
//! * [`ResourceKind`] — the API resource types (endpoints) considered by the
//!   paper's evaluation (Figure 9 / Table I), with their API groups, plural
//!   names and supported verbs;
//! * [`K8sObject`] / [`ObjectMeta`] — a thin typed view over a
//!   [`kf_yaml::Value`] manifest;
//! * [`schema`] — the **field-schema catalog**: for every resource kind, the
//!   tree of configurable specification fields, used to quantify the attack
//!   surface (the paper counts 4,882 configurable fields over 20 endpoints,
//!   this catalog 5,869);
//! * [`cve`] — the K8s CVE database (49 CVEs, July 2016 – December 2023) with
//!   the affected component and, where applicable, the specification fields
//!   that trigger the vulnerable code;
//! * [`Component`] — the component taxonomy used to group CVEs.
//!
//! ```
//! use k8s_model::{ResourceKind, schema::catalog};
//!
//! let catalog = catalog();
//! let pod_fields = catalog.fields_for(ResourceKind::Pod).unwrap().field_count();
//! assert!(pod_fields > 100, "Pod exposes a large configurable surface");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
pub mod condition;
pub mod cve;
mod error;
mod gvk;
mod kinds;
mod meta;
mod object;
pub mod schema;

pub use component::Component;
pub use condition::{FieldCheck, FieldCondition, FieldRef, FieldScope};
pub use error::Error;
pub use gvk::{GroupVersionKind, Verb};
pub use kinds::ResourceKind;
pub use meta::ObjectMeta;
pub use object::K8sObject;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
