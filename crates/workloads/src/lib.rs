//! # kf-workloads — operator charts, deployment drivers and the e2e corpus
//!
//! The paper evaluates KubeFence on five Helm-based operators from Artifact
//! Hub — **Nginx**, **MLflow**, **PostgreSQL**, **RabbitMQ** and
//! **SonarQube** — chosen to cover databases, networking, AI/ML, data
//! streaming and security workloads. This crate ships faithful synthetic
//! charts for the same five operators (same resource kinds, realistic field
//! footprints), plus:
//!
//! * [`OperatorWorkload`] / [`Operator`] — access to each operator's chart and
//!   its rendered deployment manifests;
//! * [`DeploymentDriver`] — the `kubectl apply` driver that issues the
//!   operator's API requests against any [`k8s_apiserver::RequestHandler`]
//!   (used by the RBAC learning phase, the effectiveness experiment and the
//!   overhead example);
//! * [`ChaosDriver`] — the fault-injection workload: seeded fault schedules
//!   driven through a durable server's front door, crash, clean reopen, and
//!   the robustness plane's recovery invariants asserted per run (see
//!   `docs/robustness.md`);
//! * [`RecoveryDriver`] — the crash/replay driver over the durable
//!   persistence plane: populate a WAL-backed store, crash it without a
//!   checkpoint, reopen, and verify byte-identical recovery (used by the
//!   persistence integration tests);
//! * [`e2e`] — the end-to-end test corpus model behind Figure 5 (6,580 tests
//!   over 12 categories, of which only 29 reach CVE-affected code).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
pub mod charts;
mod driver;
pub mod e2e;
mod informer;
mod operator;
mod recovery;
mod throughput;

pub use chaos::{ChaosDriver, ChaosOutcome, ChaosReport};
pub use driver::{json_twin, DeploymentDriver, DeploymentOutcome};
pub use informer::{Informer, PushInformer, RelistGate, RelistPermit};
pub use operator::{Operator, OperatorWorkload};
pub use recovery::{RecoveryDriver, ReplayVerdict};
pub use throughput::{MixRatio, ThroughputDriver};
