//! # KubeFence — workload-specific, field-level Kubernetes API filtering
//!
//! This crate implements the primary contribution of *"KubeFence: Security
//! Hardening of the Kubernetes Attack Surface"* (DSN 2025): automatic
//! generation of fine-grained API security policies from the Helm charts of
//! Kubernetes Operators, and runtime enforcement of those policies by a proxy
//! interposed between clients and the API server.
//!
//! The pipeline follows the four phases of Section V of the paper:
//!
//! 1. **Values-schema generation** ([`schema_gen`]) — the chart's default
//!    values are generalized into type placeholders, enumerations (from
//!    `# @options:` annotations) and security-locked constants.
//! 2. **Configuration-space exploration** ([`explore`]) — values *variants*
//!    are generated so that every option of every enumerative field is covered
//!    by at least one variant.
//! 3. **Manifest rendering** — every variant is rendered through the chart
//!    templates (via [`helm_lite`]), producing the set of permissible
//!    manifests.
//! 4. **Validator generation** ([`validator`]) — the manifests are merged,
//!    per resource kind, into a single *validator*: a tree of constants, type
//!    placeholders and enumerations used to check incoming API requests.
//!
//! Enforcement ([`proxy`]) wraps the (simulated) API server behind an
//! [`EnforcementProxy`] that validates every mutating request against the
//! workload's validator, forwards compliant requests and rejects everything
//! else with an HTTP 403 plus an audit record — the same complete-mediation
//! deployment the paper builds with mitmproxy.
//!
//! The attack-surface analysis of the paper's evaluation (Figure 9, Table I)
//! is implemented in [`surface`].
//!
//! ```
//! use kubefence::{PolicyGenerator, GeneratorConfig};
//! use helm_lite::{Chart, ChartMetadata, TemplateFile, ValuesFile};
//!
//! # fn main() -> Result<(), kubefence::Error> {
//! let chart = Chart::new(
//!     ChartMetadata::new("demo", "1.0.0"),
//!     ValuesFile::parse("replicas: 2\n").map_err(kubefence::Error::from)?,
//!     vec![TemplateFile::new(
//!         "deployment.yaml",
//!         "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: demo\nspec:\n  replicas: {{ .Values.replicas }}\n",
//!     )],
//! );
//! let validator = PolicyGenerator::new(GeneratorConfig::default()).generate(&chart)?;
//! assert_eq!(validator.kinds().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aot;
pub mod compile;
mod error;
pub mod explore;
mod pipeline;
pub mod proxy;
pub mod schema_gen;
pub mod security;
pub mod stream;
pub mod surface;
pub mod validator;

pub use aot::{aot_path, load_validator_set, save_validator_set};
pub use compile::{ArenaDecodeError, CompiledNode, CompiledValidator};
pub use error::Error;
pub use explore::ConfigurationExplorer;
pub use kf_yaml::BodyFormat;
pub use pipeline::{GeneratorConfig, PolicyGenerator};
pub use proxy::{DenialRecord, EnforcementProxy, ProxyStats};
pub use schema_gen::{ValuesSchema, ValuesSchemaGenerator};
pub use security::{SecurityLock, SecurityLocks};
pub use stream::{RawVerdict, SourceLocation};
pub use surface::{AttackSurfaceAnalyzer, SurfaceReport, WorkloadSurface};
pub use validator::{PolicyNode, TypeTag, Validator, ValidatorSet, Violation, ViolationReason};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
