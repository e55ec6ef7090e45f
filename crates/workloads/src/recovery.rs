//! Crash/replay drivers over the durable persistence plane.
//!
//! A [`RecoveryDriver`] runs the cycle the persistence plane exists for:
//! populate a durable store with an operator's (replicated) chart objects,
//! mutate it, **crash without warning** (drop the store — no checkpoint, no
//! shutdown hook), reopen from checkpoint segments + WAL, and verify the
//! recovered state is byte-identical to what the crash interrupted. The
//! `persistence_plane` integration tests drive their scenarios through this
//! type, so "what a crash means" is defined once.

use std::io;
use std::sync::Arc;

use k8s_apiserver::persist::{PersistConfig, Persistence, RecoveryReport};
use k8s_apiserver::{ObjectStore, StoreBackend, StoredObject};
use k8s_model::K8sObject;

use crate::driver::DeploymentDriver;
use crate::operator::Operator;

/// Drives populate → crash → replay cycles for one operator's objects.
#[derive(Debug, Clone)]
pub struct RecoveryDriver {
    operator: Operator,
    config: PersistConfig,
}

/// What a [`RecoveryDriver::run_cycle`] found after replay.
#[derive(Debug)]
pub struct ReplayVerdict {
    /// The recovery report of the post-crash open.
    pub report: RecoveryReport,
    /// Objects expected to survive the crash (applies minus deletions).
    pub expected_objects: usize,
    /// Objects actually recovered.
    pub recovered_objects: usize,
    /// Whether every recovered object matched its pre-crash twin —
    /// resource version equal and document tree byte-identical.
    pub byte_identical: bool,
    /// Human-readable descriptions of any mismatches (empty when
    /// `byte_identical`).
    pub mismatches: Vec<String>,
}

impl RecoveryDriver {
    /// A driver persisting `operator`'s objects under `config.dir`.
    pub fn new(operator: Operator, config: PersistConfig) -> Self {
        RecoveryDriver { operator, config }
    }

    /// The persistence config the cycle opens with.
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }

    /// The operator's chart objects replicated `scale` times under suffixed
    /// names (`web`, `web-1`, …) — the same populated-collection model the
    /// throughput and informer drivers use.
    pub fn objects(&self, scale: usize) -> Vec<K8sObject> {
        assert!(scale > 0, "a cycle needs at least one replica");
        let name_path = kf_yaml::Path::parse("metadata.name").expect("static path");
        let driver = DeploymentDriver::new(self.operator);
        let mut out = Vec::new();
        for object in driver.objects() {
            for replica in 0..scale {
                if replica == 0 {
                    out.push(object.clone());
                } else {
                    let mut copy = object.clone();
                    copy.set_field(
                        &name_path,
                        kf_yaml::Value::from(format!("{}-{replica}", object.name()).as_str()),
                    )
                    .expect("chart objects carry a metadata mapping");
                    out.push(copy);
                }
            }
        }
        out
    }

    /// Open the durable store this driver's cycles run against.
    ///
    /// # Errors
    ///
    /// Those of [`Persistence::open`].
    pub fn open(&self) -> io::Result<(ObjectStore, Persistence, RecoveryReport)> {
        Persistence::open(self.config.clone())
    }

    /// One full crash/replay cycle:
    ///
    /// 1. open the persistence directory and apply every (replicated)
    ///    object through the batched write path;
    /// 2. delete every fifth object through the single-delete path, so the
    ///    WAL carries both write shapes;
    /// 3. optionally checkpoint mid-stream (`checkpoint_mid`), so replay
    ///    exercises the snapshot + WAL-suffix combination rather than a
    ///    pure log replay;
    /// 4. **crash** — drop the store with whatever WAL tail the fsync
    ///    policy left;
    /// 5. reopen and compare every recovered object against its pre-crash
    ///    twin: same resource version, byte-identical tree.
    ///
    /// # Errors
    ///
    /// Filesystem errors from either open or the checkpoint.
    pub fn run_cycle(&self, scale: usize, checkpoint_mid: bool) -> io::Result<ReplayVerdict> {
        let expected: Vec<Arc<StoredObject>>;
        {
            let (store, persistence, _) = self.open()?;
            let objects = self.objects(scale);
            let half = objects.len() / 2;
            let (first, second) = objects.split_at(half);
            store.apply_batch(first.to_vec());
            if checkpoint_mid {
                persistence.checkpoint(&store)?;
            }
            store.apply_batch(second.to_vec());
            for object in objects.iter().step_by(5) {
                store.delete(object.kind(), object.namespace(), object.name());
            }
            // Make the tail durable regardless of policy, then crash: the
            // verdict below asserts equality at the last fsync'd revision,
            // which this sync pins to "everything".
            persistence.wal().sync()?;
            expected = store.snapshot_objects();
            // `store` and `persistence` drop here with no checkpoint — the
            // crash. Nothing below may observe in-memory state.
        }
        let (recovered, _persistence, report) = self.open()?;
        let mut mismatches = Vec::new();
        for want in &expected {
            let got = recovered.get(
                want.object.kind(),
                want.object.namespace(),
                want.object.name(),
            );
            match got {
                None => mismatches.push(format!(
                    "{}/{} lost in replay",
                    want.object.namespace(),
                    want.object.name()
                )),
                Some(got) => {
                    if got.resource_version != want.resource_version {
                        mismatches.push(format!(
                            "{}/{} resource version {} != {}",
                            want.object.namespace(),
                            want.object.name(),
                            got.resource_version,
                            want.resource_version
                        ));
                    } else if got.object.body() != want.object.body() {
                        mismatches.push(format!(
                            "{}/{} tree differs after replay",
                            want.object.namespace(),
                            want.object.name()
                        ));
                    }
                }
            }
        }
        let recovered_objects = StoreBackend::len(&recovered);
        if recovered_objects != expected.len() {
            mismatches.push(format!(
                "recovered {} objects, expected {}",
                recovered_objects,
                expected.len()
            ));
        }
        Ok(ReplayVerdict {
            byte_identical: mismatches.is_empty(),
            expected_objects: expected.len(),
            recovered_objects,
            mismatches,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "kf-recovery-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crash_replay_cycle_is_byte_identical_from_the_wal_alone() {
        let dir = temp_dir("wal-only");
        let driver = RecoveryDriver::new(Operator::Nginx, PersistConfig::new(&dir));
        let verdict = driver.run_cycle(3, false).expect("cycle");
        assert!(
            verdict.byte_identical,
            "mismatches: {:?}",
            verdict.mismatches
        );
        assert!(verdict.expected_objects > 0);
        assert_eq!(verdict.report.snapshot_objects, 0, "no checkpoint ran");
        assert!(verdict.report.replayed > 0, "state came from the WAL");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_replay_cycle_is_byte_identical_from_snapshot_plus_suffix() {
        let dir = temp_dir("snap-suffix");
        let driver = RecoveryDriver::new(Operator::Postgresql, PersistConfig::new(&dir));
        let verdict = driver.run_cycle(3, true).expect("cycle");
        assert!(
            verdict.byte_identical,
            "mismatches: {:?}",
            verdict.mismatches
        );
        assert!(
            verdict.report.snapshot_objects > 0,
            "the mid-stream checkpoint contributed a snapshot"
        );
        assert!(
            verdict.report.replayed > 0,
            "the post-checkpoint writes replayed from the WAL suffix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
