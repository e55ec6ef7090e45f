//! The revision-indexed watch plane, pinned end to end: exactly-once
//! in-order delivery under concurrent writers, zero-copy sharing between
//! the store and delivered events, and the compaction contract (stale
//! cursor ⇒ `Gone` ⇒ re-list resumes cleanly) — at the store level through
//! [`WatchSubscription`] and at the server level through the informer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use k8s_apiserver::{
    namespace_shard, AdmissionGate, ApiRequest, ApiServer, ObjectStore, PushWatch, RequestHandler,
    StoreBackend, WatchDispatcher, WatchError, WatchEventKind, WatchHub, WatchSubscription,
    DEFAULT_JOURNAL_SHARDS,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_workloads::{Informer, PushInformer, RelistGate};

fn pod(name: &str) -> K8sObject {
    pod_in(name, "default")
}

fn pod_in(name: &str, namespace: &str) -> K8sObject {
    K8sObject::from_yaml(&format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: {namespace}\nspec:\n  containers:\n    - name: c\n      image: nginx\n"
    ))
    .unwrap()
}

/// Concurrent writers create, update and delete while a concurrent watcher
/// streams the journal: every write's revision must be delivered **exactly
/// once, in strictly increasing order**, and events for live objects must
/// share the stored tree by pointer.
#[test]
fn concurrent_writers_deliver_every_revision_exactly_once_in_order() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 80;

    let store = ObjectStore::new();
    // Writers return the revision of every write they performed.
    let (written, delivered) = std::thread::scope(|scope| {
        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let store = &store;
                scope.spawn(move || {
                    let mut versions = Vec::new();
                    for round in 0..ROUNDS {
                        let name = format!("obj-{writer}-{round}");
                        let object = pod(&name);
                        versions.push(store.create(object).expect("unique names"));
                        if round % 3 == 0 {
                            versions.push(store.update(pod(&name)).expect("just created"));
                        }
                        if round % 5 == 0 {
                            store.delete(ResourceKind::Pod, "default", &name).unwrap();
                            // Deletes bump the revision too; recover it from
                            // the store counter is racy, so re-read it from
                            // the delivered stream instead (see below).
                        }
                    }
                    versions
                })
            })
            .collect();
        // One concurrent watcher streams from revision 0 while writers run.
        let watcher = {
            let store = &store;
            scope.spawn(move || {
                let mut subscription = WatchSubscription::at(ResourceKind::Pod, "default", 0);
                let mut events = Vec::new();
                // Poll until the writers' final revision is reached; the
                // expected total is writes + updates + deletes.
                let expected_deletes = WRITERS * ROUNDS.div_ceil(5);
                let expected_updates = WRITERS * ROUNDS.div_ceil(3);
                let expected = WRITERS * ROUNDS + expected_updates + expected_deletes;
                while events.len() < expected {
                    events.extend(subscription.poll(store).expect("journal must not compact"));
                }
                events
            })
        };
        let written: Vec<u64> = writer_handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer panicked"))
            .collect();
        (written, watcher.join().expect("watcher panicked"))
    });

    // In order, no duplicates: strictly increasing revisions.
    assert!(
        delivered.windows(2).all(|w| w[0].revision < w[1].revision),
        "delivered revisions must be strictly increasing"
    );
    // Exactly once: every create/update revision the writers observed is
    // delivered (deletes are in the stream as well; their revisions are the
    // remaining strictly-increasing gaps).
    let delivered_revisions: Vec<u64> = delivered.iter().map(|e| e.revision).collect();
    for version in &written {
        assert!(
            delivered_revisions.binary_search(version).is_ok(),
            "revision {version} was written but never delivered"
        );
    }
    // Everything the store did is in the stream: one event per revision.
    assert_eq!(delivered.len() as u64, store.revision());

    // Zero-copy: for every object still live, the event at its current
    // resource version shares the stored tree by pointer.
    let by_revision: BTreeMap<u64, &k8s_apiserver::WatchEvent> =
        delivered.iter().map(|e| (e.revision, e)).collect();
    let mut live_checked = 0;
    for stored in store.list(ResourceKind::Pod, "default") {
        let event = by_revision[&stored.resource_version];
        assert!(
            Arc::ptr_eq(
                event.object.as_ref().expect("write events carry objects"),
                stored.object.shared_body()
            ),
            "the delivered event must share the stored tree"
        );
        live_checked += 1;
    }
    assert!(live_checked > 0, "some objects must survive the churn");
}

/// The sharded-journal stress: concurrent writers churn across several
/// namespaces (spread over multiple journal sub-shards) while one global
/// subscriber reads through the k-way merge cursor and one subscriber per
/// namespace reads its own sub-shard. Every revision must be delivered
/// exactly once in strictly increasing order on the global stream, each
/// namespace stream must be exactly its namespace's slice of it, and live
/// objects must share the stored tree by pointer through **both** cursor
/// kinds.
#[test]
fn sharded_journals_deliver_exactly_once_globally_and_per_namespace() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 40;
    const NAMESPACES: usize = 6;

    let namespaces: Vec<String> = (0..NAMESPACES).map(|i| format!("ns-{i}")).collect();
    // The namespaces must actually span sub-shards, or the merge cursor
    // would be exercised on one shard only.
    let distinct: std::collections::BTreeSet<usize> = namespaces
        .iter()
        .map(|ns| namespace_shard(ns, DEFAULT_JOURNAL_SHARDS))
        .collect();
    assert!(distinct.len() > 1, "test namespaces must span sub-shards");

    let store = ObjectStore::new();
    // Per (writer, round, namespace): one create, an update every 3rd
    // round, a delete every 4th.
    let per_pair = ROUNDS + ROUNDS.div_ceil(3) + ROUNDS.div_ceil(4);
    let expected_total = WRITERS * NAMESPACES * per_pair;
    let expected_per_ns = WRITERS * per_pair;

    let (global, per_ns) = std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let store = &store;
            let namespaces = &namespaces;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for ns in namespaces {
                        let name = format!("obj-{writer}-{round}");
                        store.create(pod_in(&name, ns)).expect("unique names");
                        if round % 3 == 0 {
                            store.update(pod_in(&name, ns)).expect("just created");
                        }
                        if round % 4 == 0 {
                            store.delete(ResourceKind::Pod, ns, &name).unwrap();
                        }
                    }
                }
            });
        }
        let global = {
            let store = &store;
            scope.spawn(move || {
                let mut subscription = WatchSubscription::at(ResourceKind::Pod, "", 0);
                let mut events = Vec::new();
                while events.len() < expected_total {
                    events.extend(subscription.poll(store).expect("journals must not compact"));
                }
                events
            })
        };
        let ns_watchers: Vec<_> = namespaces
            .iter()
            .map(|ns| {
                let store = &store;
                scope.spawn(move || {
                    let mut subscription = WatchSubscription::at(ResourceKind::Pod, ns, 0);
                    let mut events = Vec::new();
                    while events.len() < expected_per_ns {
                        events.extend(subscription.poll(store).expect("journals must not compact"));
                    }
                    events
                })
            })
            .collect();
        (
            global.join().expect("global watcher panicked"),
            ns_watchers
                .into_iter()
                .map(|h| h.join().expect("namespace watcher panicked"))
                .collect::<Vec<_>>(),
        )
    });

    // Global: exactly once, in order, one event per revision.
    assert_eq!(global.len() as u64, store.revision());
    assert!(
        global.windows(2).all(|w| w[0].revision < w[1].revision),
        "the merge cursor must deliver the total revision order"
    );
    assert_eq!(global[0].revision, 1);
    assert_eq!(global.last().unwrap().revision, store.revision());

    // Each namespace stream is exactly its slice of the global stream.
    for (ns, events) in namespaces.iter().zip(&per_ns) {
        assert_eq!(events.len(), expected_per_ns);
        assert!(events.windows(2).all(|w| w[0].revision < w[1].revision));
        assert!(events.iter().all(|e| &e.namespace == ns));
        let global_slice: Vec<u64> = global
            .iter()
            .filter(|e| &e.namespace == ns)
            .map(|e| e.revision)
            .collect();
        let ns_revisions: Vec<u64> = events.iter().map(|e| e.revision).collect();
        assert_eq!(ns_revisions, global_slice);
    }
    // Nothing was lost or duplicated across the namespace streams either.
    assert_eq!(
        per_ns.iter().map(Vec::len).sum::<usize>(),
        expected_total,
        "namespace streams must partition the global stream"
    );

    // Zero-copy through both cursor kinds: every live object's
    // current-version event shares the stored tree.
    let global_by_revision: BTreeMap<u64, &k8s_apiserver::WatchEvent> =
        global.iter().map(|e| (e.revision, e)).collect();
    let mut live_checked = 0;
    for stored in store.list(ResourceKind::Pod, "") {
        let event = global_by_revision[&stored.resource_version];
        assert!(Arc::ptr_eq(
            event.object.as_ref().expect("write events carry objects"),
            stored.object.shared_body()
        ));
        let ns_index = namespaces
            .iter()
            .position(|ns| ns == stored.object.namespace())
            .expect("live objects live in test namespaces");
        let ns_event = per_ns[ns_index]
            .iter()
            .find(|e| e.revision == stored.resource_version)
            .expect("the namespace stream delivered the live revision");
        assert!(Arc::ptr_eq(
            ns_event.object.as_ref().unwrap(),
            stored.object.shared_body()
        ));
        live_checked += 1;
    }
    assert!(live_checked > 0, "some objects must survive the churn");
}

/// Compaction semantics under sharding: a cursor gets `Gone` **iff a
/// sub-shard it needs** compacted past it — so a namespace-scoped watcher
/// survives foreign-namespace churn that compacts other sub-shards (no
/// spurious re-list), a global cursor reports the worst needed horizon, and
/// re-list recovery resumes gaplessly afterwards.
#[test]
fn sharded_compaction_gones_exactly_the_cursors_that_need_compacted_shards() {
    const SHARD_COUNT: usize = 4;
    let store = ObjectStore::with_journal_config(2, SHARD_COUNT);

    // A quiet namespace and a busy one, guaranteed to land in different
    // journal sub-shards.
    let quiet = "quiet".to_owned();
    let busy = (0..64)
        .map(|i| format!("busy-{i}"))
        .find(|ns| namespace_shard(ns, SHARD_COUNT) != namespace_shard(&quiet, SHARD_COUNT))
        .expect("some namespace hashes to another sub-shard");

    store.create(pod_in("q", &quiet)).unwrap();
    let mut quiet_watcher = WatchSubscription::at(ResourceKind::Pod, &quiet, 0);
    assert_eq!(quiet_watcher.poll(&store).unwrap().len(), 1);

    // Churn the busy namespace far past the per-sub-shard capacity while
    // the quiet watcher keeps polling: its sub-shard never compacted, so it
    // must never see Gone — the old single-journal plane forced a re-list
    // here.
    for round in 0..8 {
        store.create(pod_in(&format!("b-{round}"), &busy)).unwrap();
        assert_eq!(
            quiet_watcher.poll(&store).expect("no spurious Gone"),
            vec![],
            "foreign churn must not leak into the quiet namespace"
        );
    }
    assert_eq!(quiet_watcher.revision(), store.revision());

    // A stale cursor scoped to the busy namespace needs the compacted
    // sub-shard: Gone, with the horizon to recover from.
    let gone = store.events_since(ResourceKind::Pod, &busy, 0).unwrap_err();
    let WatchError::Gone { compacted_through } = gone;
    assert!(compacted_through > 0);
    // The global cursor needs *every* sub-shard, the compacted one
    // included: Gone as well.
    assert!(matches!(
        store.events_since(ResourceKind::Pod, "", 0),
        Err(WatchError::Gone { .. })
    ));
    // But a global cursor at the horizon is servable again.
    assert!(store
        .events_since(ResourceKind::Pod, "", compacted_through)
        .is_ok());

    // Re-list recovery is gapless: take the standard recovery cursor, then
    // confirm the listing holds everything and new writes in both
    // namespaces stream exactly once from that cursor.
    let cursor = store.watch_revision(ResourceKind::Pod);
    assert_eq!(store.list(ResourceKind::Pod, "").len(), store.len());
    store.create(pod_in("q2", &quiet)).unwrap();
    store.create(pod_in("b-after", &busy)).unwrap();
    let delta = store.events_since(ResourceKind::Pod, "", cursor).unwrap();
    assert_eq!(delta.events.len(), 2, "exactly the post-recovery writes");
    assert!(delta
        .events
        .windows(2)
        .all(|w| w[0].revision < w[1].revision));
    assert_eq!(delta.resume, store.revision());
}

/// The compaction contract through the full server: a watcher whose cursor
/// fell behind a tiny journal gets `410 Gone`, re-lists through an initial
/// watch, and streams deltas again — with a cache that matches the store
/// exactly at every step.
#[test]
fn compaction_forces_relist_and_resumes_cleanly() {
    let server = ApiServer::with_store(ObjectStore::with_journal_capacity(4));
    let mut informer = Informer::new("admin", ResourceKind::Pod, "default");

    // Seed two objects and sync: cache matches the store.
    for name in ["a", "b"] {
        assert!(server
            .handle(&ApiRequest::create("admin", &pod(name)))
            .is_success());
    }
    assert_eq!(informer.sync(&server), 1);
    assert_eq!(informer.cache_len(), 2);
    assert_eq!(informer.relists(), 1);

    // Churn far past the journal capacity while the informer sleeps.
    for round in 0..5 {
        for name in ["c", "d", "e"] {
            server.handle(&ApiRequest::create(
                "admin",
                &pod(&format!("{name}{round}")),
            ));
        }
    }
    // Its next sync hits Gone (extra request) and recovers via re-list.
    assert_eq!(informer.sync(&server), 2, "Gone costs one recovery re-list");
    assert_eq!(informer.relists(), 2);
    assert_eq!(informer.cache_len(), server.store().len());

    // And the stream is incremental again afterwards.
    server.handle(&ApiRequest::delete(
        "admin",
        ResourceKind::Pod,
        "default",
        "a",
    ));
    assert_eq!(informer.sync(&server), 1, "a live cursor streams deltas");
    assert_eq!(informer.cache_len(), server.store().len());
    assert!(!informer
        .cache()
        .contains_key(&("default".to_owned(), "a".to_owned())));
}

/// Watch responses are part of the zero-copy plane: the delivered event
/// objects are the stored trees (the server's one parse of each admitted
/// request), for both the initial listing and the delta stream.
#[test]
fn watch_batches_share_storage_with_the_store_and_requests() {
    let server = ApiServer::new();
    let stored_tree = |name: &str| {
        let stored = server.store().get(ResourceKind::Pod, "default", name);
        Arc::clone(stored.expect("stored").object.shared_body())
    };
    let request = ApiRequest::create("admin", &pod("web"));
    assert!(server.handle(&request).is_success());
    let tree = stored_tree("web");

    // Initial watch: the synthesized Added event shares the stored tree.
    let initial = server.handle(&ApiRequest::watch(
        "admin",
        ResourceKind::Pod,
        "default",
        None,
    ));
    let (events, cursor) = initial.body.as_ref().unwrap().watch_events().unwrap();
    assert!(Arc::ptr_eq(events[0].object.as_ref().unwrap(), &tree));

    // Delta stream: a second create's Modified/Added event shares too.
    let second = ApiRequest::create_json("admin", &pod("web2"));
    assert!(server.handle(&second).is_success());
    let second_tree = stored_tree("web2");
    let delta = server.handle(&ApiRequest::watch(
        "admin",
        ResourceKind::Pod,
        "default",
        Some(cursor),
    ));
    let (events, _) = delta.body.as_ref().unwrap().watch_events().unwrap();
    let added = events
        .iter()
        .find(|e| e.kind == WatchEventKind::Added)
        .unwrap();
    assert!(Arc::ptr_eq(added.object.as_ref().unwrap(), &second_tree));

    // Two subscribers share the same allocation — no per-subscriber copies.
    let other = server.handle(&ApiRequest::watch(
        "admin",
        ResourceKind::Pod,
        "default",
        Some(cursor),
    ));
    let (other_events, _) = other.body.as_ref().unwrap().watch_events().unwrap();
    let other_added = other_events
        .iter()
        .find(|e| e.kind == WatchEventKind::Added)
        .unwrap();
    assert!(Arc::ptr_eq(
        added.object.as_ref().unwrap(),
        other_added.object.as_ref().unwrap()
    ));
}

/// Watch traffic traverses the hardened surface: learned RBAC authorizes
/// the watch verb for users that watched during learning and denies it to
/// everyone else, and every watch lands in the audit trail.
#[test]
fn watch_requests_traverse_rbac_and_audit() {
    use k8s_rbac::{audit2rbac, Audit2RbacOptions};

    // Learning phase: the operator lists and watches its pods.
    let learning = ApiServer::new().with_admin("operator-w");
    learning.handle(&ApiRequest::create("operator-w", &pod("a")));
    learning.handle(&ApiRequest::watch(
        "operator-w",
        ResourceKind::Pod,
        "default",
        None,
    ));
    let policy = audit2rbac(
        learning.audit_log().events(),
        "operator-w",
        &Audit2RbacOptions::default(),
    );

    // Enforcement phase: same user may watch; a stranger may not.
    let enforced = ApiServer::new();
    enforced.set_rbac_policy(Some(policy));
    let allowed = enforced.handle(&ApiRequest::watch(
        "operator-w",
        ResourceKind::Pod,
        "default",
        None,
    ));
    assert!(allowed.is_success());
    let denied = enforced.handle(&ApiRequest::watch(
        "mallory",
        ResourceKind::Pod,
        "default",
        None,
    ));
    assert!(denied.is_denied());
    // Both decisions are audited, verb and all.
    let log = enforced.audit_log();
    let watches: Vec<_> = log
        .events()
        .iter()
        .filter(|e| e.verb == k8s_model::Verb::Watch)
        .collect();
    assert_eq!(watches.len(), 2);
    assert!(watches.iter().any(|e| e.allowed));
    assert!(watches.iter().any(|e| !e.allowed));
}

/// A request handler wrapper that counts how many list-shaped requests are
/// in flight at once — the observable a re-list stampede would spike.
struct ConcurrencyProbe<'a, H> {
    inner: &'a H,
    in_flight: std::sync::atomic::AtomicUsize,
    peak: std::sync::atomic::AtomicUsize,
}

impl<'a, H> ConcurrencyProbe<'a, H> {
    fn new(inner: &'a H) -> Self {
        ConcurrencyProbe {
            inner,
            in_flight: std::sync::atomic::AtomicUsize::new(0),
            peak: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn peak(&self) -> usize {
        self.peak.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<H: RequestHandler> RequestHandler for ConcurrencyProbe<'_, H> {
    fn handle(&self, request: &ApiRequest) -> k8s_apiserver::ApiResponse {
        let now = self
            .in_flight
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        self.peak
            .fetch_max(now, std::sync::atomic::Ordering::SeqCst);
        let response = self.inner.handle(request);
        self.in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        response
    }
}

impl<H: WatchHub> WatchHub for ConcurrencyProbe<'_, H> {
    fn subscribe_push(
        &self,
        request: &ApiRequest,
    ) -> Result<PushWatch, k8s_apiserver::ApiResponse> {
        let now = self
            .in_flight
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        self.peak
            .fetch_max(now, std::sync::atomic::Ordering::SeqCst);
        let result = self.inner.subscribe_push(request);
        self.in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        result
    }
}

/// The compaction-storm acceptance test: a herd of push informers is evicted
/// in one burst, and every recovery re-list must pass through a shared
/// [`RelistGate`] — so the number of concurrent full re-lists observed at
/// the server stays at the gate's bound, far below the herd size.
#[test]
fn a_gated_herd_recovers_without_a_relist_stampede() {
    const HERD: usize = 48;
    const GATE: usize = 4;

    // Tiny per-subscriber queues: a three-object burst evicts everyone.
    let server = ApiServer::new().with_watch_queue_capacity(2);
    for i in 0..4 {
        server.handle(&ApiRequest::create("admin", &pod(&format!("seed-{i}"))));
    }
    let probe = ConcurrencyProbe::new(&server);
    let gate = std::sync::Arc::new(RelistGate::new(GATE));
    let mut herd: Vec<PushInformer> = (0..HERD)
        .map(|i| {
            PushInformer::new("admin", ResourceKind::Pod, "default")
                .with_gate(std::sync::Arc::clone(&gate), i as u64)
        })
        .collect();
    // Attach serially (the storm under test is the recovery, not the
    // bootstrap), then verify every informer is live and in sync.
    for informer in &mut herd {
        informer.attach(&probe);
        assert_eq!(informer.cache_len(), 4);
    }

    // The storm: distinct-object churn wider than every queue bound evicts
    // the whole herd at once.
    for i in 0..3 {
        server.handle(&ApiRequest::create("admin", &pod(&format!("storm-{i}"))));
    }
    assert!(herd
        .iter()
        .all(|informer| informer.subscription().unwrap().is_evicted()));

    // Every informer pumps concurrently; recovery re-lists must serialize
    // through the gate.
    std::thread::scope(|scope| {
        for informer in &mut herd {
            let probe = &probe;
            scope.spawn(move || {
                informer.pump_now(probe);
            });
        }
    });
    for informer in &herd {
        assert_eq!(informer.evictions(), 1);
        assert_eq!(informer.cache_len(), 7, "recovered to the full store");
        assert!(informer.is_attached());
    }
    assert_eq!(gate.admissions(), HERD as u64 + HERD as u64);
    assert!(
        gate.peak_admitted() <= GATE,
        "gate admitted {} concurrent re-lists, bound is {GATE}",
        gate.peak_admitted()
    );
    assert!(
        probe.peak() <= GATE,
        "server saw {} concurrent re-lists from a herd of {HERD}; the gate must bound this below the herd size",
        probe.peak()
    );

    // And the recovered subscriptions stream again.
    server.handle(&ApiRequest::delete(
        "admin",
        ResourceKind::Pod,
        "default",
        "storm-0",
    ));
    for informer in &mut herd {
        informer.pump_now(&probe);
        assert_eq!(informer.cache_len(), 6);
    }
}

/// Server-level eviction recovery is gapless: after `Gone`, one re-list
/// brings the cache to the exact store state even when the missed events
/// included deletes (which a naive "replay what I missed" could not).
#[test]
fn evicted_push_watchers_relist_to_the_exact_store_state() {
    let server = ApiServer::new().with_watch_queue_capacity(2);
    server.handle(&ApiRequest::create("admin", &pod("keep")));
    let mut informer = PushInformer::new("admin", ResourceKind::Pod, "default");
    informer.attach(&server);

    // The burst both creates and deletes while the informer is not
    // draining; the queue bound trips mid-burst.
    for i in 0..3 {
        server.handle(&ApiRequest::create("admin", &pod(&format!("burst-{i}"))));
    }
    server.handle(&ApiRequest::delete(
        "admin",
        ResourceKind::Pod,
        "default",
        "burst-1",
    ));
    assert!(informer.subscription().unwrap().is_evicted());
    informer.pump_now(&server);
    assert_eq!(informer.evictions(), 1);

    // The recovered cache equals the store exactly — no ghost of the
    // deleted object, nothing missed.
    let stored: Vec<String> = server
        .store()
        .list(ResourceKind::Pod, "default")
        .iter()
        .map(|s| s.object.name().to_owned())
        .collect();
    let cached: Vec<String> = informer
        .cache()
        .keys()
        .map(|(_, name)| name.clone())
        .collect();
    assert_eq!(cached, stored);
    assert_eq!(stored, ["burst-0", "burst-2", "keep"]);
}

/// Coalesced bursts at the server level: a hot object rewritten many times
/// between drains delivers once, with the newest body, sharing the stored
/// tree by pointer.
#[test]
fn coalesced_bursts_preserve_last_write_wins_and_zero_copy_sharing() {
    let server = ApiServer::new();
    let push = server
        .subscribe_push(&ApiRequest::watch(
            "admin",
            ResourceKind::Pod,
            "default",
            None,
        ))
        .expect("fresh watch attaches");
    // Forty rewrites of one hot object plus one write of another, all
    // before the consumer drains.
    for _ in 0..40 {
        server.handle(&ApiRequest::create("admin", &pod("hot")));
    }
    server.handle(&ApiRequest::create("admin", &pod("cold")));
    let events = push
        .subscriber
        .try_recv()
        .expect("not evicted: coalescing bounds the queue");
    // Last write wins: one event per object, the hot one at its final
    // revision, delivery order still by revision.
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].name, "hot");
    assert_eq!(events[1].name, "cold");
    assert!(events[0].revision < events[1].revision);
    assert_eq!(push.subscriber.coalesced(), 39);
    let stored = server
        .store()
        .get(ResourceKind::Pod, "default", "hot")
        .unwrap();
    assert_eq!(events[0].revision, stored.resource_version);
    assert!(
        Arc::ptr_eq(
            events[0].object.as_ref().unwrap(),
            stored.object.shared_body()
        ),
        "the coalesced survivor shares the stored tree"
    );
    // The queue never held more than the two live entries, so the default
    // bound was never at risk from the burst.
    assert!(!push.subscriber.is_evicted());
}

/// Push subscriptions traverse the same RBAC and audit pipeline as pull
/// watches: denials never attach, and both outcomes are audited.
#[test]
fn push_subscriptions_traverse_rbac_and_audit() {
    let server = ApiServer::new();
    server.set_rbac_policy(Some(k8s_rbac::RbacPolicySet::new()));
    let denied = server.subscribe_push(&ApiRequest::watch(
        "mallory",
        ResourceKind::Pod,
        "default",
        None,
    ));
    assert!(denied.is_err());
    let allowed = server.subscribe_push(&ApiRequest::watch(
        "admin",
        ResourceKind::Pod,
        "default",
        None,
    ));
    assert!(allowed.is_ok());
    let log = server.audit_log();
    let watches: Vec<_> = log
        .events()
        .iter()
        .filter(|e| e.verb == k8s_model::Verb::Watch)
        .collect();
    assert_eq!(watches.len(), 2);
    assert!(watches.iter().any(|e| !e.allowed));
    assert!(watches.iter().any(|e| e.allowed));
}

/// The blocking pull path: `recv_timeout` parks on a one-shot subscriber
/// and is woken by a concurrent server-side write — no poll loop.
#[test]
fn blocking_subscriptions_wake_on_server_writes() {
    let server = ApiServer::new();
    let store = server.store();
    let mut subscription = WatchSubscription::at(ResourceKind::Pod, "default", 0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(25));
            server.handle(&ApiRequest::create("admin", &pod("late")));
        });
        let started = std::time::Instant::now();
        let events = subscription
            .recv_timeout(store, std::time::Duration::from_secs(5))
            .expect("no compaction");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "late");
        assert!(started.elapsed() < std::time::Duration::from_secs(4));
    });
}

/// A namespace whose journal sub-shard differs from `other`'s.
fn namespace_outside_shard_of(other: &str) -> String {
    (0..64)
        .map(|i| format!("ns-{i}"))
        .find(|ns| {
            namespace_shard(ns, DEFAULT_JOURNAL_SHARDS)
                != namespace_shard(other, DEFAULT_JOURNAL_SHARDS)
        })
        .expect("some namespace hashes elsewhere")
}

/// No lost wakeup, without a race to win: the scope revision is read, an
/// event is published, and only then does the ten-second wait start — it
/// must return at once, in every scope shape.
#[test]
fn a_publication_after_the_generation_read_ends_the_wait_at_once() {
    let check = |store: &ObjectStore, namespace: &str, publish: &dyn Fn()| {
        let seen = store.watch_generation(ResourceKind::Pod, namespace);
        publish();
        let started = Instant::now();
        let now = store.wait_for_watch(ResourceKind::Pod, namespace, seen, Duration::from_secs(10));
        assert!(
            now > seen,
            "{namespace:?}: scope revision {now} not past {seen}"
        );
        assert!(started.elapsed() < Duration::from_secs(1), "{namespace:?}");
    };

    // A namespace scope.
    let store = ObjectStore::new();
    check(&store, "default", &|| {
        store.create(pod("a")).unwrap();
    });

    // All namespaces, with the new event in a sub-shard other than the one
    // holding the revision read as `seen`.
    let store = ObjectStore::new();
    store.create(pod("max")).unwrap();
    let elsewhere = namespace_outside_shard_of("default");
    check(&store, "", &|| {
        store.create(pod_in("b", &elsewhere)).unwrap();
    });

    // A `seen` the journal has since compacted past.
    let store = ObjectStore::with_journal_capacity(2);
    store.create(pod("c0")).unwrap();
    check(&store, "default", &|| {
        for i in 1..5 {
            store.create(pod(&format!("c{i}"))).unwrap();
        }
        assert!(store.events_since(ResourceKind::Pod, "default", 1).is_err());
    });
}

/// The wait really blocks, and a publication from another thread wakes it
/// long before its deadline, in both scope shapes.
#[test]
fn wait_for_watch_blocks_until_a_concurrent_publication() {
    for namespace in ["default", ""] {
        let store = ObjectStore::new();
        let seen = store.watch_generation(ResourceKind::Pod, namespace);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(25));
                store.create(pod("late")).unwrap();
            });
            let started = Instant::now();
            let now =
                store.wait_for_watch(ResourceKind::Pod, namespace, seen, Duration::from_secs(10));
            assert!(now > seen, "{namespace:?}");
            assert!(started.elapsed() < Duration::from_secs(5), "{namespace:?}");
        });
    }
}

/// `Duration::MAX` is a valid timeout at every wait of the watch plane and
/// the admission gate: each call below finds what it waits for already
/// true and returns at once.
#[test]
fn duration_max_timeouts_return_at_once_when_ready() {
    let store = ObjectStore::new();
    let seen = store.watch_generation(ResourceKind::Pod, "default");
    let subscriber = store
        .subscribe(ResourceKind::Pod, "default", seen, 16)
        .unwrap();
    store.create(pod("ready")).unwrap();
    let dispatcher = WatchDispatcher::new();
    dispatcher.register(&subscriber, 7);
    let gate = AdmissionGate::new(1, Duration::MAX);
    let cases: [(&str, &dyn Fn() -> bool); 5] = [
        (
            "StoreBackend::wait_for_watch (publication past seen)",
            &|| store.wait_for_watch(ResourceKind::Pod, "default", seen, Duration::MAX) > seen,
        ),
        ("WatchSubscription::recv_timeout (event published)", &|| {
            WatchSubscription::at(ResourceKind::Pod, "default", seen)
                .recv_timeout(&store, Duration::MAX)
                .is_ok_and(|events| events.len() == 1)
        }),
        (
            "WatchDispatcher::next_ready (backlogged registration)",
            &|| dispatcher.next_ready(Duration::MAX) == Some(7),
        ),
        ("WatchSubscriber::recv_timeout (event queued)", &|| {
            subscriber
                .recv_timeout(Duration::MAX)
                .is_ok_and(|events| events.len() == 1)
        }),
        ("AdmissionGate::admit (free seat)", &|| gate.admit().is_ok()),
    ];
    for (entry, call) in cases {
        let started = Instant::now();
        assert!(call(), "{entry}");
        assert!(started.elapsed() < Duration::from_secs(1), "{entry}");
    }
}
