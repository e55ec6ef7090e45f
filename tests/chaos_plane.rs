//! The robustness plane, pinned end to end: the chaos sweep's recovery
//! invariants across seeded fault schedules × both degradation policies,
//! the fail-closed 503-for-writes / 200-for-reads serving contract, the
//! fail-open durability demotion, concurrent writers racing a latched WAL
//! error, corrupt-snapshot quarantine through the server boot path, and
//! admission-gate load shedding.
//!
//! The sweep test honours `KF_CHAOS_SEED` (CI pins it in the parity job)
//! and prints the invariant summary for the step summary.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use k8s_apiserver::persist::{PersistConfig, Persistence, RetryPolicy};
use k8s_apiserver::storage_io::{FaultSchedule, FaultyIo};
use k8s_apiserver::{
    ApiRequest, ApiServer, DegradePolicy, DurabilityState, FsyncPolicy, RequestBody,
    RequestHandler, ResponseStatus, StorageErrorKind, StoreBackend,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_workloads::ChaosDriver;
use kf_yaml::BodyFormat;

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kf-chaos-plane-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn pod(name: &str, image: &str) -> K8sObject {
    K8sObject::from_yaml(&format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: chaos\nspec:\n  containers:\n    - name: app\n      image: {image}\n"
    ))
    .expect("pod parses")
}

/// A degraded durable server over a permanent fsync fault, with immediate
/// (zero-backoff) retries so state transitions are deterministic.
fn degraded_server(
    dir: &PathBuf,
    policy: DegradePolicy,
    fail_stop_after: u32,
) -> (ApiServer, Persistence) {
    let io = Arc::new(FaultyIo::over_real(
        FaultSchedule::parse("fsync@1:permanent").expect("spec parses"),
    ));
    let config = PersistConfig::new(dir).with_retry(RetryPolicy::immediate(fail_stop_after));
    let (store, persistence, _) = Persistence::open_with_io(config, io).expect("boot is clean");
    (
        ApiServer::with_store(store).with_degrade_policy(policy),
        persistence,
    )
}

/// The acceptance sweep: ≥ 8 seeded fault schedules × both degradation
/// policies, every run either recovers byte-identically after reopen or
/// fail-stops with a structured latched error, and `durable_revision`
/// never exceeds what is on stable storage. `KF_CHAOS_SEED` pins the base
/// seed (CI parity job); the summary prints with `--nocapture`.
#[test]
fn chaos_sweep_is_green_across_seeds_and_both_policies() {
    let base_seed: u64 = std::env::var("KF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let dir = temp_dir("sweep");
    let driver = ChaosDriver::new(dir.clone());
    let report = driver.sweep(base_seed, 8).expect("sweep runs");
    println!("chaos sweep @ seed {base_seed}\n{}", report.summary());
    assert_eq!(report.outcomes.len(), 16, "8 schedules x 2 policies");
    assert!(
        report.outcomes.iter().any(|o| o.injected_faults > 0),
        "the sweep must actually inject faults"
    );
    assert!(
        report.all_green(),
        "invariant violations:\n{}",
        report.summary()
    );
    // Only a green sweep cleans up: a failed one keeps its WALs to look at.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_closed_rejects_writes_with_503_while_reads_and_watches_serve() {
    let dir = temp_dir("fail-closed");
    let (server, persistence) = degraded_server(&dir, DegradePolicy::FailClosed, 1_000);

    // The degrading write itself is acknowledged — the store applied it
    // before the fsync failed — and flips the machine to Degraded.
    let first = server.handle(&ApiRequest::create("admin", &pod("a", "nginx")));
    assert!(first.is_success());
    assert_eq!(
        server.store().durability_state(),
        DurabilityState::Degraded,
        "fsync failure degrades"
    );

    // Writes now answer 503 with the structured reason...
    let write = server.handle(&ApiRequest::create("admin", &pod("b", "nginx")));
    assert_eq!(write.status, ResponseStatus::ServiceUnavailable);
    assert_eq!(write.status.code(), 503);
    assert!(
        write.message.contains("fail-closed"),
        "message names the policy: {}",
        write.message
    );
    let delete = server.handle(&ApiRequest::delete(
        "admin",
        ResourceKind::Pod,
        "chaos",
        "a",
    ));
    assert_eq!(delete.status, ResponseStatus::ServiceUnavailable);
    // ...before looking at the body: bytes that are no document get the same
    // 503, not a 400, and no refusal is audited with a body.
    let garbage = ApiRequest {
        body: RequestBody::Raw("kind: [".into(), BodyFormat::Yaml),
        ..ApiRequest::create("admin", &pod("c", "nginx"))
    };
    assert_eq!(
        server.handle(&garbage).status,
        ResponseStatus::ServiceUnavailable
    );
    let log = server.audit_log();
    assert_eq!(log.denied().len(), 3);
    assert!(log.denied().iter().all(|e| e.request_body.is_none()));

    // ...while reads, lists and watches keep serving from memory.
    let get = server.handle(&ApiRequest::get("admin", ResourceKind::Pod, "chaos", "a"));
    assert!(get.is_success(), "get serves while degraded");
    let list = server.handle(&ApiRequest::list("admin", ResourceKind::Pod, "chaos"));
    assert!(list.is_success(), "list serves while degraded");
    let watch = server.handle(&ApiRequest::watch(
        "admin",
        ResourceKind::Pod,
        "chaos",
        None,
    ));
    assert!(watch.is_success(), "watch attaches while degraded");

    // The rejected writes never reached the store, and the health surface
    // accounts for them.
    assert_eq!(StoreBackend::len(server.store()), 1);
    let health = server.health_report();
    assert_eq!(health.rejected_writes, 3);
    assert_eq!(health.policy, DegradePolicy::FailClosed);
    assert_eq!(health.durability.state, DurabilityState::Degraded);
    assert!(health.durability.gap >= 1, "the at-risk window is visible");
    assert!(!health.healthy());
    let latched = health.durability.latched.expect("latched error surfaces");
    assert_eq!(latched.kind, StorageErrorKind::Fsync);
    assert_eq!(persistence.wal().durable_revision(), 0, "nothing proven");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_open_keeps_acknowledging_writes_with_durability_demoted() {
    let dir = temp_dir("fail-open");
    let (server, persistence) = degraded_server(&dir, DegradePolicy::FailOpen, 1_000);
    for i in 0..5 {
        let response = server.handle(&ApiRequest::create(
            "admin",
            &pod(&format!("p-{i}"), "nginx"),
        ));
        assert!(response.is_success(), "fail-open acknowledges write {i}");
    }
    assert_eq!(StoreBackend::len(server.store()), 5);
    let health = server.health_report();
    assert_eq!(health.rejected_writes, 0);
    assert_eq!(health.durability.state, DurabilityState::Degraded);
    assert_eq!(
        persistence.wal().durable_revision(),
        0,
        "durability is demoted, not faked"
    );
    assert_eq!(health.durability.gap, 5, "all five writes are at risk");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: concurrent writers racing a latched WAL error. Every write
/// stays applied in memory, `durable_revision` never overstates stable
/// storage, and exactly one `Healthy → Degraded` transition is observed no
/// matter how many threads hit the failing fsync.
#[test]
fn concurrent_writers_racing_a_latched_error_observe_one_transition() {
    let dir = temp_dir("racing");
    let (server, persistence) = degraded_server(&dir, DegradePolicy::FailOpen, u32::MAX);
    const THREADS: usize = 8;
    const WRITES: usize = 10;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = &server;
            scope.spawn(move || {
                for w in 0..WRITES {
                    let response = server.handle(&ApiRequest::create(
                        "admin",
                        &pod(&format!("t{t}-w{w}"), "nginx"),
                    ));
                    assert!(response.is_success(), "fail-open write t{t}-w{w}");
                }
            });
        }
    });
    assert_eq!(
        StoreBackend::len(server.store()),
        THREADS * WRITES,
        "every acknowledged write is applied in memory"
    );
    let wal = persistence.wal();
    assert_eq!(
        wal.durable_revision(),
        0,
        "a permanently failing fsync proves nothing, ever"
    );
    assert_eq!(wal.state(), DurabilityState::Degraded);
    assert_eq!(wal.durability_gap(), (THREADS * WRITES) as u64);
    let transitions = wal.transitions();
    assert_eq!(
        transitions
            .iter()
            .filter(|t| t.to == DurabilityState::Degraded)
            .count(),
        1,
        "exactly one Healthy→Degraded transition across {THREADS} racing writers: {transitions:?}"
    );
    let latched = wal.last_error().expect("error latched");
    assert!(
        latched.failures >= 1,
        "the latch counts the episode's failures"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: corrupt checkpoint segments are quarantined at boot (renamed
/// to `.corrupt`) and the server comes up serving the WAL replay instead of
/// refusing to start.
#[test]
fn corrupt_snapshot_quarantines_and_the_server_boots_serving() {
    let dir = temp_dir("quarantine");
    {
        let (server, persistence, _) =
            ApiServer::durable(PersistConfig::new(&dir)).expect("first boot");
        for i in 0..4 {
            let response = server.handle(&ApiRequest::create(
                "admin",
                &pod(&format!("q-{i}"), "nginx"),
            ));
            assert!(response.is_success());
        }
        persistence.wal().sync().expect("writes durable");
        // Checkpoint, then write a suffix: the quarantine trades the
        // checkpointed prefix for a boot that serves, so what must survive
        // is exactly the WAL records past the checkpoint horizon.
        persistence.checkpoint(server.store()).expect("checkpoint");
        let response = server.handle(&ApiRequest::create("admin", &pod("q-late", "nginx")));
        assert!(response.is_success());
        persistence.wal().sync().expect("suffix durable");
    }
    // Flip a byte in every checkpoint segment: the per-shard CRC catches
    // each one and recovery falls back to whatever the WAL still holds.
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("dir lists") {
        let path = entry.expect("entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("store.seg-") && name.ends_with(".kfsnap") {
            let mut bytes = std::fs::read(&path).expect("segment reads");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("corrupt it");
            segments.push(path);
        }
    }
    assert!(!segments.is_empty(), "the checkpoint wrote segments");

    let (server, _persistence, report) =
        ApiServer::durable(PersistConfig::new(&dir)).expect("boot survives corruption");
    let quarantined = report.snapshot_quarantined.expect("quarantine reported");
    assert!(quarantined.exists(), "corrupt file kept for forensics");
    assert!(
        segments.iter().all(|s| !s.exists()),
        "corrupt segments moved aside"
    );
    // The WAL suffix past the checkpoint horizon still serves.
    let get = server.handle(&ApiRequest::get(
        "admin",
        ResourceKind::Pod,
        "chaos",
        "q-late",
    ));
    assert!(
        get.is_success(),
        "post-checkpoint write survives quarantine"
    );
    let write = server.handle(&ApiRequest::create("admin", &pod("q-new", "nginx")));
    assert!(write.is_success(), "the quarantined server accepts writes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the shared group-commit fsync fails mid-window while writers
/// are parked on it. Every waiter must observe the degradation and return
/// (no waiter is left parked forever), no waiter's write may be reported
/// durable, and a clean reopen replays only what the WAL actually holds —
/// never more than what was acknowledged.
#[test]
fn failed_group_window_fsync_degrades_every_parked_waiter() {
    let dir = temp_dir("group-window");
    const THREADS: usize = 4;
    const WRITES: usize = 5;
    {
        let io = Arc::new(FaultyIo::over_real(
            FaultSchedule::parse("fsync@1:permanent").expect("spec parses"),
        ));
        // A wide-open window (100ms, 64-record batch) so concurrent writers
        // genuinely park behind one leader whose shared fsync then fails.
        let config = PersistConfig::new(&dir)
            .with_fsync(FsyncPolicy::Group {
                max_wait_us: 100_000,
                max_batch: 64,
            })
            .with_retry(RetryPolicy::immediate(u32::MAX));
        let (store, persistence, _) = Persistence::open_with_io(config, io).expect("boot is clean");
        let server = ApiServer::with_store(store).with_degrade_policy(DegradePolicy::FailOpen);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let server = &server;
                scope.spawn(move || {
                    for w in 0..WRITES {
                        let response = server.handle(&ApiRequest::create(
                            "admin",
                            &pod(&format!("g{t}-w{w}"), "nginx"),
                        ));
                        // Every waiter returns: degradation wakes the
                        // parked followers instead of stranding them.
                        assert!(response.is_success(), "fail-open write g{t}-w{w}");
                    }
                });
            }
        });
        assert_eq!(StoreBackend::len(server.store()), THREADS * WRITES);
        let wal = persistence.wal();
        assert_eq!(
            wal.durable_revision(),
            0,
            "a failed shared fsync proves no waiter's write durable"
        );
        assert_eq!(wal.state(), DurabilityState::Degraded);
        assert_eq!(wal.durability_gap(), (THREADS * WRITES) as u64);
        assert_eq!(
            wal.transitions()
                .iter()
                .filter(|t| t.to == DurabilityState::Degraded)
                .count(),
            1,
            "one shared failure, one transition — not one per parked waiter"
        );
        assert_eq!(
            wal.last_error().expect("error latched").kind,
            StorageErrorKind::Fsync
        );
        let health = server.health_report();
        assert_eq!(
            health.fsync_batches, 0,
            "no group window ever closed successfully"
        );
        assert_eq!(health.avg_group_size, 0.0);
    }
    // Clean reopen: recovery replays the WAL prefix that reached the file.
    // Nothing beyond the acknowledged writes may appear, and the revision
    // floor must cover everything replayed so new writes never collide.
    let (server, persistence, report) =
        ApiServer::durable(PersistConfig::new(&dir)).expect("clean reopen");
    let recovered = StoreBackend::len(server.store());
    assert!(
        recovered <= THREADS * WRITES,
        "recovery must never invent writes: {recovered}"
    );
    assert_eq!(report.replayed, recovered);
    let write = server.handle(&ApiRequest::create("admin", &pod("g-after", "nginx")));
    assert!(write.is_success(), "the reopened server accepts writes");
    persistence
        .wal()
        .sync()
        .expect("healthy fsync after reopen");
    assert!(
        persistence.wal().durable_revision() > 0,
        "durability is restored on clean storage"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Overload protection: a gate bounded to one in-flight request with a
/// zero deadline sheds the overlapping request with `429`, and the health
/// surface accounts for every admission decision.
#[test]
fn admission_gate_sheds_overlapping_requests_with_429() {
    let server = Arc::new(ApiServer::new().with_admission_limit(1, Duration::ZERO));
    const PER_THREAD: usize = 4000;
    let shed_seen = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let mut shed = 0u64;
                    for _ in 0..PER_THREAD {
                        let response =
                            server.handle(&ApiRequest::list("admin", ResourceKind::Pod, ""));
                        match response.status {
                            ResponseStatus::TooManyRequests => shed += 1,
                            ResponseStatus::Ok => {}
                            other => panic!("unexpected status {other:?}"),
                        }
                    }
                    shed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .sum::<u64>()
    });
    let health = server.health_report();
    assert_eq!(health.max_in_flight, Some(1));
    assert_eq!(health.shed_total, shed_seen, "health matches observations");
    assert_eq!(
        health.admitted_total + health.shed_total,
        (2 * PER_THREAD) as u64,
        "every request was either admitted or shed"
    );
    assert_eq!(health.in_flight, 0, "permits all released");
    assert!(health.peak_in_flight <= 1, "the bound held");
    assert!(
        shed_seen > 0,
        "two threads x {PER_THREAD} zero-deadline requests through a width-1 gate must overlap"
    );
    assert_eq!(health.shed_total, shed_seen);
}

/// An in-memory server reports a vacuous-but-honest health surface: no
/// durability attached, healthy, nothing at risk.
#[test]
fn in_memory_server_reports_an_honest_health_surface() {
    let server = ApiServer::new();
    let response = server.handle(&ApiRequest::create("admin", &pod("m", "nginx")));
    assert!(response.is_success());
    let health = server.health_report();
    assert!(!health.durability.durable, "no WAL attached");
    assert_eq!(health.durability.state, DurabilityState::Healthy);
    assert_eq!(health.durability.gap, 0);
    assert_eq!(health.max_in_flight, None, "no gate configured");
    assert!(health.healthy());
}
