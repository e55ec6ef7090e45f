//! # kf-yaml — document tree and YAML subset used by the KubeFence reproduction
//!
//! Every artifact that KubeFence manipulates — Helm `values.yaml` files,
//! rendered Kubernetes manifests, API request bodies, policy validators — is a
//! hierarchical document. This crate provides the shared document tree
//! ([`Value`]) together with:
//!
//! * a parser for the YAML subset used throughout the project
//!   ([`parse`] / [`parse_documents`]),
//! * an emitter producing canonical YAML text ([`to_yaml`]),
//! * dotted-path addressing into documents ([`Path`]),
//! * structural helpers: deep merge, leaf enumeration, diffing,
//! * a compact binary codec and CRC-32 framing used by the durable
//!   persistence plane ([`binary`]).
//!
//! The subset covers what Kubernetes manifests and Helm values files actually
//! use in this repository: block mappings and sequences, quoted and plain
//! scalars, flow sequences/mappings, comments and multi-document streams.
//! Anchors, tags and block scalars are intentionally out of scope.
//!
//! Raw request bodies may also arrive as **JSON** — the dominant wire format
//! in front of a real API server. The [`json`] module provides a JSON
//! tokenizer emitting the same [`events::Event`] stream, [`parse_json`] /
//! [`to_json`] for trees, and [`BodyFormat`] for format declaration and
//! auto-detection.
//!
//! ```
//! use kf_yaml::{parse, Path};
//!
//! # fn main() -> Result<(), kf_yaml::Error> {
//! let doc = parse("spec:\n  replicas: 3\n  containers:\n    - name: web\n")?;
//! let replicas = doc.get_path(&Path::parse("spec.replicas")?).unwrap();
//! assert_eq!(replicas.as_i64(), Some(3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
mod emitter;
mod error;
pub mod events;
mod format;
pub mod json;
mod parser;
mod path;
mod value;

pub use emitter::{
    emit_entry, emit_entry_inline, emit_rendered_seq_item, emit_seq_item, to_yaml, wire_len_hint,
    write_yaml,
};
pub use error::Error;
pub use format::BodyFormat;
pub use json::{parse_json, to_json, write_json};
pub use parser::{parse, parse_documents, TreeBuilder};
pub use path::{Path, PathSegment};
pub use value::{Mapping, Value};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
