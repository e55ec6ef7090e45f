//! The crash-recovery check: does every acknowledged write survive a power
//! loss?
//!
//! The persistence directory is copied as a power loss would leave it (see
//! [`TracedIo::crash_copy`]: every file cut back to what a successful
//! `sync_data` covers), the copy is reopened with `Persistence::open`, and
//! every write the clients saw acknowledged must be present at or above its
//! acknowledged `resourceVersion`. Reopening is also what `recovery_s`
//! times.

use std::path::Path;
use std::time::Instant;

use k8s_apiserver::{ObjectStore, PersistConfig, Persistence, RecoveryReport, StoreBackend};
use k8s_model::ResourceKind;

use crate::io::TracedIo;

/// One write a client saw acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acknowledged {
    /// Kind of the written object.
    pub kind: ResourceKind,
    /// Its namespace (empty for cluster-scoped kinds).
    pub namespace: String,
    /// Its name.
    pub name: String,
    /// The `resourceVersion` the reply carried.
    pub revision: u64,
}

/// What the check found.
#[derive(Debug, Default)]
pub struct DurabilityReport {
    /// `Persistence::open` wall time per crash copy.
    pub recovery_s: Vec<f64>,
    /// What the first reopen found.
    pub recovery: RecoveryReport,
    /// Bytes the crash copy cut off as never synced.
    pub cut_bytes: u64,
    /// Bytes of the crashed directory.
    pub disk_bytes: u64,
    /// Acknowledged writes that did not survive, and any other mismatch.
    pub problems: Vec<String>,
}

/// Crash-copy `dir` `copies` times under `scratch`, reopen each copy, and
/// check the first against `acknowledged` and, when given, against the live
/// store's final state (under group commit everything acknowledged is
/// durable, so a quiesced store and its recovery must agree exactly).
pub fn check(
    io: &TracedIo,
    dir: &Path,
    scratch: &Path,
    acknowledged: &[Acknowledged],
    live: Option<&ObjectStore>,
    copies: usize,
) -> DurabilityReport {
    let mut report = DurabilityReport::default();
    for copy in 0..copies {
        let target = scratch.join(format!("crash-{copy}"));
        let _ = std::fs::remove_dir_all(&target);
        match io.crash_copy(dir, &target) {
            Ok(cut) => report.cut_bytes = cut,
            Err(e) => {
                report.problems.push(format!("crash copy failed: {e}"));
                return report;
            }
        }
        if copy == 0 {
            report.disk_bytes = dir_bytes(&target);
        }
        let started = Instant::now();
        let opened = Persistence::open(PersistConfig::new(&target));
        report.recovery_s.push(started.elapsed().as_secs_f64());
        match opened {
            Ok((store, _persistence, recovery)) => {
                if copy == 0 {
                    verify(&store, acknowledged, live, &mut report.problems);
                    report.recovery = recovery;
                }
            }
            Err(e) => report.problems.push(format!("reopen failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&target);
    }
    report
}

fn verify(
    recovered: &ObjectStore,
    acknowledged: &[Acknowledged],
    live: Option<&ObjectStore>,
    problems: &mut Vec<String>,
) {
    let mut lost = 0usize;
    for ack in acknowledged {
        let survived = recovered
            .get(ack.kind, &ack.namespace, &ack.name)
            .is_some_and(|stored| stored.resource_version >= ack.revision);
        if !survived {
            lost += 1;
            if lost <= 4 {
                problems.push(format!(
                    "acknowledged write {} {}/{} at resourceVersion {} did not survive the crash",
                    ack.kind, ack.namespace, ack.name, ack.revision
                ));
            }
        }
    }
    if lost > 4 {
        problems.push(format!("… and {} more acknowledged writes lost", lost - 4));
    }
    if let Some(live) = live {
        let fingerprint = |store: &ObjectStore| -> Vec<(String, String, String, u64)> {
            store
                .snapshot_objects()
                .iter()
                .map(|stored| {
                    (
                        stored.object.kind().to_string(),
                        stored.object.namespace().to_owned(),
                        stored.object.name().to_owned(),
                        stored.resource_version,
                    )
                })
                .collect()
        };
        if fingerprint(live) != fingerprint(recovered) {
            problems.push("the recovered store differs from the quiesced live store".to_owned());
        }
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .filter(|meta| meta.is_file())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::scratch_dir;
    use k8s_apiserver::FsyncPolicy;
    use k8s_model::K8sObject;
    use std::sync::Arc;

    fn pod(name: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: ns\nspec:\n  containers:\n    - name: app\n      image: nginx\n"
        ))
        .expect("pod parses")
    }

    fn ack(name: &str, revision: u64) -> Acknowledged {
        Acknowledged {
            kind: ResourceKind::Pod,
            namespace: "ns".to_owned(),
            name: name.to_owned(),
            revision,
        }
    }

    /// The check must be able to fail: a write that was appended but never
    /// synced is cut from the crash copy, and calling it "acknowledged"
    /// makes the check report it lost.
    #[test]
    fn an_unsynced_tail_is_gone_after_the_crash_and_the_check_says_so() {
        let out = crate::out_dir().join(format!("test-durability-{}", std::process::id()));
        let dir = scratch_dir(&out, "durability");
        let io = Arc::new(TracedIo::new());
        // `Os` never syncs on its own: durability is exactly what the test
        // asks for by hand.
        let (store, persistence, _) = Persistence::open_with_io(
            PersistConfig::new(&dir).with_fsync(FsyncPolicy::Os),
            Arc::clone(&io) as Arc<dyn k8s_apiserver::StorageIo>,
        )
        .expect("fresh directory opens");
        let (synced_a, _) = store.upsert(pod("a"));
        let (synced_b, _) = store.upsert(pod("b"));
        persistence.wal().sync().expect("sync succeeds");
        let (unsynced_c, _) = store.upsert(pod("c"));
        let (unsynced_a, _) = store.upsert(pod("a"));

        // Acknowledging only what was synced passes…
        let honest = check(
            &io,
            &dir,
            &out,
            &[ack("a", synced_a), ack("b", synced_b)],
            None,
            2,
        );
        assert_eq!(honest.problems, Vec::<String>::new());
        assert!(honest.cut_bytes > 0, "the unsynced tail was cut");
        assert_eq!(honest.recovery_s.len(), 2);
        assert_eq!(honest.recovery.live_objects, 2);

        // …acknowledging the unsynced tail fails, write by write…
        let lying = check(
            &io,
            &dir,
            &out,
            &[
                ack("a", unsynced_a),
                ack("b", synced_b),
                ack("c", unsynced_c),
            ],
            None,
            1,
        );
        assert_eq!(lying.problems.len(), 2, "{:?}", lying.problems);
        assert!(lying.problems[0].contains("ns/a"));
        assert!(lying.problems[1].contains("ns/c"));

        // …and so does comparing against the live store, which holds it.
        let against_live = check(&io, &dir, &out, &[], Some(&store), 1);
        assert_eq!(against_live.problems.len(), 1);

        // Once synced, the same acknowledgements hold.
        persistence.wal().sync().expect("sync succeeds");
        let durable = check(
            &io,
            &dir,
            &out,
            &[ack("a", unsynced_a), ack("c", unsynced_c)],
            Some(&store),
            1,
        );
        assert_eq!(durable.problems, Vec::<String>::new());
        assert_eq!(durable.cut_bytes, 0);
        let _ = std::fs::remove_dir_all(&out);
    }
}
