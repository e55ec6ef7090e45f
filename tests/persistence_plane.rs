//! The durable persistence plane, pinned end to end: a restarted store
//! serves byte-identical objects and resumes watch cursors at the
//! recovered revision (the PR's acceptance invariant), torn and corrupt
//! WAL tails are truncated — never panicked on — with recovery landing
//! exactly on the longest intact frame prefix, revisions stay gapless
//! across the crash, and checkpointing compacts the WAL while sealing the
//! watch horizon (stale cursor ⇒ `Gone` ⇒ re-list).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use k8s_apiserver::persist::{self, FsyncPolicy, PersistConfig, Persistence, WAL_FILE};
use k8s_apiserver::{
    ApiRequest, ApiServer, ObjectStore, RequestHandler, StoreBackend, WatchError, WatchSubscription,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_workloads::{Operator, RecoveryDriver};

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kf-persistence-plane-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn pod(name: &str, image: &str) -> K8sObject {
    K8sObject::from_yaml(&format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: default\nspec:\n  \
         containers:\n    - name: c\n      image: {image}\n"
    ))
    .unwrap()
}

fn open(dir: &PathBuf) -> (ObjectStore, Persistence, persist::RecoveryReport) {
    Persistence::open(PersistConfig::new(dir)).expect("persistence opens")
}

/// **The acceptance invariant.** A store that crashed after an acknowledged
/// sync serves byte-identical objects after restart, and a watch cursor
/// taken at the pre-crash revision resumes exactly there: no replayed
/// history, no `Gone`, and the first post-restart write is the first event
/// it sees — at a gapless revision.
#[test]
fn restart_serves_byte_identical_objects_and_resumes_watch_cursors() {
    let dir = temp_dir("acceptance");
    let pre_crash_revision;
    let expected: Vec<(String, u64, String)>;
    {
        let (store, persistence, _) = open(&dir);
        for i in 0..40 {
            store.create(pod(&format!("pin-{i}"), "nginx:1.25"));
        }
        // Mutate: update half through the CoW path, delete a quarter.
        for i in (0..40).step_by(2) {
            store.upsert(pod(&format!("pin-{i}"), "nginx:1.26"));
        }
        for i in (0..40).step_by(4) {
            store.delete(ResourceKind::Pod, "default", &format!("pin-{i}"));
        }
        persistence.wal().sync().expect("tail syncs");
        pre_crash_revision = StoreBackend::revision(&store);
        expected = store
            .snapshot_objects()
            .iter()
            .map(|s| {
                (
                    s.object.name().to_owned(),
                    s.resource_version,
                    s.object.to_yaml(),
                )
            })
            .collect();
        // Crash: drop with no checkpoint.
    }

    let (store, _persistence, report) = open(&dir);
    assert_eq!(report.recovered_revision, pre_crash_revision);
    assert_eq!(report.live_objects, expected.len());
    for (name, resource_version, yaml) in &expected {
        let stored = store
            .get(ResourceKind::Pod, "default", name)
            .unwrap_or_else(|| panic!("{name} lost in replay"));
        assert_eq!(stored.resource_version, *resource_version);
        assert_eq!(
            stored.object.to_yaml(),
            *yaml,
            "{name} must serialize to identical bytes after restart"
        );
    }
    // Revisions continue gaplessly: the next write takes exactly R+1.
    let (next_revision, _) = store.upsert(pod("post-restart", "nginx:1.27"));
    assert_eq!(next_revision, pre_crash_revision + 1);

    // A cursor at the recovered revision resumes seamlessly: the write
    // above is its first and only event.
    let mut at_horizon = WatchSubscription::at(ResourceKind::Pod, "default", pre_crash_revision);
    let events = at_horizon.poll(&store).expect("cursor at horizon streams");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].revision, pre_crash_revision + 1);
    // The delivered event shares the stored tree by pointer (zero-copy
    // survives recovery: replayed state is ordinary `Arc` state).
    let stored = store
        .get(ResourceKind::Pod, "default", "post-restart")
        .expect("post-restart write is live");
    assert!(events[0]
        .object
        .as_ref()
        .is_some_and(|o| std::sync::Arc::ptr_eq(o, stored.object.shared_body())));

    // A cursor from before the crash cannot be served (the journal did not
    // survive the restart) — it must get `Gone` at the sealed horizon and
    // re-list, never a silently incomplete stream.
    let mut stale = WatchSubscription::at(ResourceKind::Pod, "default", pre_crash_revision - 1);
    match stale.poll(&store) {
        Err(WatchError::Gone { compacted_through }) => {
            assert_eq!(compacted_through, pre_crash_revision);
        }
        other => panic!("stale pre-crash cursor must be Gone, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Walk the intact frame boundaries of a WAL file: each frame is
/// `[len u32][crc u32][payload len]`. Returns the byte offset after each
/// complete frame, computed independently of the recovery code.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut offset = 0usize;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        if offset + 8 + len > bytes.len() {
            break;
        }
        offset += 8 + len;
        ends.push(offset);
    }
    ends
}

/// Property: for **every** cut point inside the last three frames (clean
/// boundaries, mid-header, mid-payload), opening the truncated log
/// recovers exactly the records whose frames survived whole, truncates the
/// file to that prefix, and keeps serving — no panic, no partial record.
#[test]
fn torn_wal_tails_recover_the_longest_intact_prefix() {
    let dir = temp_dir("torn-master");
    {
        let (store, persistence, _) = open(&dir);
        for i in 0..12 {
            store.create(pod(&format!("torn-{i}"), "nginx"));
        }
        persistence.wal().sync().expect("tail syncs");
    }
    let master = std::fs::read(dir.join(WAL_FILE)).expect("WAL exists");
    let ends = frame_ends(&master);
    assert_eq!(ends.len(), 12, "one frame per single-object write");

    // Every byte position from the start of frame 10 to EOF is a cut point.
    for cut in ends[9]..master.len() {
        let case = temp_dir("torn-case");
        std::fs::create_dir_all(&case).unwrap();
        std::fs::write(case.join(WAL_FILE), &master[..cut]).unwrap();

        let survivors = ends.iter().filter(|&&end| end <= cut).count();
        let (store, _persistence, report) = open(&case);
        assert_eq!(
            report.replayed, survivors,
            "cut at byte {cut}: exactly the whole frames replay"
        );
        assert_eq!(StoreBackend::len(&store), survivors);
        assert_eq!(StoreBackend::revision(&store), survivors as u64);
        let expect_torn = ends.binary_search(&cut).is_err();
        assert_eq!(report.torn_tail.is_some(), expect_torn);
        // The torn bytes are physically gone: the file now ends on the
        // intact prefix, so a re-read sees no tear.
        let after = std::fs::read(case.join(WAL_FILE)).unwrap();
        assert_eq!(
            after.len(),
            ends.get(survivors.wrapping_sub(1)).copied().unwrap_or(0)
        );
        // And the store keeps writing from the recovered revision.
        let (revision, _) = store.upsert(pod("resume", "nginx"));
        assert_eq!(revision, survivors as u64 + 1);
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt byte (bit flip, not truncation) in the middle of a frame cuts
/// replay at that frame — CRC catches it — and everything after the flip
/// is dropped as unframeable noise rather than resynchronized on garbage.
#[test]
fn corrupt_wal_bytes_cut_replay_at_the_damaged_frame() {
    let dir = temp_dir("corrupt");
    {
        let (store, persistence, _) = open(&dir);
        for i in 0..8 {
            store.create(pod(&format!("flip-{i}"), "nginx"));
        }
        persistence.wal().sync().expect("tail syncs");
    }
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).expect("WAL exists");
    let ends = frame_ends(&bytes);
    // Flip one payload byte inside the 6th frame.
    let target = ends[4] + 12;
    bytes[target] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let replay = persist::read_wal(&wal_path).expect("reading never errors on corruption");
    assert_eq!(replay.records.len(), 5, "frames before the flip survive");
    let torn = replay.torn.expect("the flip is a detected tear");
    assert_eq!(torn.valid_len, ends[4] as u64);

    let (store, _persistence, report) = open(&dir);
    assert_eq!(report.replayed, 5);
    assert_eq!(StoreBackend::revision(&store), 5);
    assert!(store.get(ResourceKind::Pod, "default", "flip-4").is_some());
    assert!(store.get(ResourceKind::Pod, "default", "flip-5").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpointing ties compaction to the revision horizon: the WAL keeps
/// only records past the snapshot, recovery combines snapshot + suffix,
/// and a cursor from before the horizon gets `410 Gone` at exactly the
/// horizon — the same contract the in-memory journal compaction gives.
#[test]
fn checkpoint_compacts_the_wal_and_seals_the_gone_horizon() {
    let dir = temp_dir("checkpoint");
    let horizon;
    {
        let (store, persistence, _) = open(&dir);
        for i in 0..30 {
            store.create(pod(&format!("ckpt-{i}"), "nginx"));
        }
        let report = persistence.checkpoint(&store).expect("checkpoint runs");
        horizon = report.revision;
        assert_eq!(horizon, 30);
        assert_eq!(report.wal_retained, 0, "nothing newer than the horizon yet");
        // Ten more writes after the checkpoint land in the WAL suffix.
        for i in 0..10 {
            store.create(pod(&format!("suffix-{i}"), "nginx"));
        }
        persistence.wal().sync().expect("tail syncs");
        let replay = persist::read_wal(&dir.join(WAL_FILE)).expect("suffix reads");
        assert_eq!(replay.records.len(), 10, "compaction dropped the prefix");
        assert!(replay.records.iter().all(|r| r.revision > horizon));
    }

    let (store, _persistence, report) = open(&dir);
    assert_eq!(report.snapshot_objects, 30);
    assert_eq!(report.replayed, 10);
    assert_eq!(StoreBackend::revision(&store), 40);
    assert_eq!(StoreBackend::len(&store), 40);

    let mut stale = WatchSubscription::at(ResourceKind::Pod, "default", horizon);
    match stale.poll(&store) {
        Err(WatchError::Gone { compacted_through }) => assert_eq!(compacted_through, 40),
        other => panic!("pre-restart cursor must be Gone, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The fsync policy bounds loss, it does not change correctness: with the
/// deferred `Os` policy, everything up to the last explicit sync survives,
/// the recovered prefix is exact (not approximate), and `durable_revision`
/// never overstates what is on disk.
#[test]
fn deferred_fsync_recovers_an_exact_prefix_and_never_overstates_durability() {
    let dir = temp_dir("deferred");
    let durable;
    {
        let (store, persistence, _) =
            Persistence::open(PersistConfig::new(&dir).with_fsync(FsyncPolicy::Os))
                .expect("persistence opens");
        for i in 0..20 {
            store.create(pod(&format!("batch-{i}"), "nginx"));
            if i == 15 {
                assert_eq!(
                    persistence.wal().durable_revision(),
                    0,
                    "nothing proven yet"
                );
                persistence.wal().sync().expect("mid-run sync");
            }
        }
        durable = persistence.wal().durable_revision();
        // Only the explicit sync after write 16 proved anything.
        assert_eq!(durable, 16);
        assert_eq!(persistence.wal().appended_revision(), 20);
        // Crash without the final sync.
    }
    let (store, _persistence, report) = open(&dir);
    // The page cache may have flushed more than the guarantee, but never
    // less, and whatever replays is a gapless prefix.
    assert!(report.recovered_revision >= durable);
    assert!(report.recovered_revision <= 20);
    assert_eq!(StoreBackend::len(&store) as u64, report.recovered_revision);
    for i in 0..report.recovered_revision {
        assert!(
            store
                .get(ResourceKind::Pod, "default", &format!("batch-{i}"))
                .is_some(),
            "recovered prefix must be gapless at batch-{i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite property test for the incremental-checkpoint plane: **any**
/// seeded interleaving of {churn, dirty-shard checkpoint, manifest tear,
/// crash, reopen} recovers byte-identical state — exactly what a full
/// snapshot would have preserved. A torn current manifest must never cost
/// correctness: recovery falls back to the previous complete manifest (or
/// probes the self-validating segments directly) and replays the longer
/// WAL suffix.
#[test]
fn random_interleavings_of_checkpoint_churn_and_crash_recover_byte_identically() {
    use k8s_apiserver::persist::MANIFEST_FILE;

    /// Crash (drop both handles), reopen, and require the recovered store
    /// to be byte-identical to the pre-crash one.
    fn crash_and_verify(
        dir: &PathBuf,
        store: ObjectStore,
        persistence: Persistence,
        expect_fallback: bool,
        context: &str,
    ) -> (ObjectStore, Persistence) {
        persistence.wal().sync().expect("pre-crash sync");
        let revision = StoreBackend::revision(&store);
        let expected: Vec<(String, u64, String)> = store
            .snapshot_objects()
            .iter()
            .map(|s| {
                (
                    s.object.name().to_owned(),
                    s.resource_version,
                    s.object.to_yaml(),
                )
            })
            .collect();
        drop(store);
        drop(persistence);

        let (store, persistence, report) = open(dir);
        assert_eq!(
            report.recovered_revision, revision,
            "{context}: the revision floor survives the crash"
        );
        assert_eq!(
            StoreBackend::len(&store),
            expected.len(),
            "{context}: object count survives"
        );
        for (name, resource_version, yaml) in &expected {
            let stored = store
                .get(ResourceKind::Pod, "default", name)
                .unwrap_or_else(|| panic!("{context}: {name} lost in replay"));
            assert_eq!(
                stored.resource_version, *resource_version,
                "{context}: {name}"
            );
            assert_eq!(
                stored.object.to_yaml(),
                *yaml,
                "{context}: {name} must recover byte-identically"
            );
        }
        if expect_fallback {
            assert!(
                report.manifest_fallback,
                "{context}: a torn current manifest with an intact previous one \
                 must be reported as a fallback"
            );
        }
        (store, persistence)
    }

    let mut fallbacks_exercised = 0u32;
    for seed in 1u64..=8 {
        let dir = temp_dir("interleave");
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut store, mut persistence, _) = open(&dir);
        // Shadow model of the manifest chain: `Some(true)` = intact file,
        // `Some(false)` = torn file, `None` = absent/unknown. Every
        // checkpoint rotates current → previous before writing a fresh
        // current, so a torn manifest can end up in either slot; the
        // fallback report is only owed for torn-current + intact-previous.
        let mut current_intact: Option<bool> = None;
        let mut prev_intact: Option<bool> = None;
        for step in 0..60 {
            match rng() % 10 {
                // Churn: upserts and deletes over a small name pool so the
                // same shards keep going dirty and clean.
                0..=5 => {
                    let name = format!("p-{}", rng() % 24);
                    if rng() % 4 == 0 {
                        store.delete(ResourceKind::Pod, "default", &name);
                    } else {
                        store.upsert(pod(&name, &format!("nginx:1.{}", rng() % 32)));
                    }
                }
                // Incremental checkpoint: rewrites only the dirty shards.
                6 | 7 => {
                    let report = persistence.checkpoint(&store).expect("checkpoint runs");
                    assert!(report.dirty_shards <= report.total_shards);
                    if current_intact.is_some() {
                        prev_intact = current_intact;
                    }
                    current_intact = Some(true);
                }
                // Checkpoint, then tear the freshly written manifest in
                // half — the worst moment to lose it.
                8 => {
                    persistence.checkpoint(&store).expect("checkpoint runs");
                    if current_intact.is_some() {
                        prev_intact = current_intact;
                    }
                    let manifest = dir.join(MANIFEST_FILE);
                    let bytes = std::fs::read(&manifest).expect("manifest exists");
                    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).expect("tear it");
                    current_intact = Some(false);
                }
                // Crash mid-sequence and keep going on the recovered store.
                _ => {
                    let expect_fallback =
                        current_intact == Some(false) && prev_intact == Some(true);
                    fallbacks_exercised += u32::from(expect_fallback);
                    (store, persistence) = crash_and_verify(
                        &dir,
                        store,
                        persistence,
                        expect_fallback,
                        &format!("seed {seed} step {step}"),
                    );
                    // Recovery quarantines a torn current manifest; stop
                    // modelling the chain until fresh checkpoints rebuild it.
                    if current_intact == Some(false) {
                        current_intact = None;
                        prev_intact = None;
                    }
                }
            }
        }
        let expect_fallback = current_intact == Some(false) && prev_intact == Some(true);
        fallbacks_exercised += u32::from(expect_fallback);
        crash_and_verify(
            &dir,
            store,
            persistence,
            expect_fallback,
            &format!("seed {seed} final"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        fallbacks_exercised > 0,
        "the seeds must hit the torn-current + intact-previous fallback at least once"
    );
}

/// The crash/replay driver's verdict holds for every operator's chart
/// objects — realistic multi-kind bodies, batched writes, deletes — in
/// both its pure-WAL and snapshot + suffix modes.
#[test]
fn every_operator_survives_crash_replay_byte_identically() {
    for operator in Operator::ALL {
        for checkpoint_mid in [false, true] {
            let dir = temp_dir("operators");
            let driver = RecoveryDriver::new(operator, PersistConfig::new(&dir));
            let verdict = driver.run_cycle(2, checkpoint_mid).expect("cycle runs");
            assert!(
                verdict.byte_identical,
                "{operator:?} (checkpoint_mid={checkpoint_mid}): {:?}",
                verdict.mismatches
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The server-level recovery path: an [`ApiServer::durable`] instance
/// restarted over the same directory answers requests against the replayed
/// state — the whole stack (request handling → store → WAL → replay) in
/// one loop.
#[test]
fn durable_api_server_serves_replayed_state_after_restart() {
    let dir = temp_dir("server");
    {
        let (server, persistence, _) =
            ApiServer::durable(PersistConfig::new(&dir)).expect("durable server opens");
        let server = server.with_admin("admin");
        for i in 0..10 {
            let response = server.handle(&ApiRequest::create(
                "admin",
                &pod(&format!("api-{i}"), "nginx"),
            ));
            assert!(response.is_success());
        }
        persistence.wal().sync().expect("tail syncs");
    }
    let (server, _persistence, report) =
        ApiServer::durable(PersistConfig::new(&dir)).expect("restart opens");
    let server = server.with_admin("admin");
    assert_eq!(report.live_objects, 10);
    assert_eq!(server.store().len(), 10);
    // The replayed state is live server state: an update goes through the
    // normal request path and lands at the next gapless revision.
    let response = server.handle(&ApiRequest::create("admin", &pod("api-0", "nginx:1.26")));
    assert!(response.is_success());
    assert_eq!(server.store().revision(), report.recovered_revision + 1);
    std::fs::remove_dir_all(&dir).ok();
}
