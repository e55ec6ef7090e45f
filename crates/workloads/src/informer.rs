//! Informer-style operators: local caches reconciled from the watch plane.
//!
//! Real operators and controllers do not poll lists — they keep a local
//! cache seeded by one initial list and then apply incremental watch
//! deltas, exactly the traffic shape the paper's workload characterization
//! attributes to the dominant share of API-server load. This module models
//! both delivery disciplines:
//!
//! * [`Informer::sync`] — **pull**, against any [`RequestHandler`]: the
//!   first tick issues an initial watch (`resourceVersion` absent — list +
//!   cursor), every subsequent tick resumes from the cursor and applies
//!   only the deltas; a `410 Gone` (journal compacted past the cursor)
//!   falls back to one re-list and resumes cleanly.
//! * [`PushInformer`] — **push**, against any [`WatchHub`]: attaches a
//!   bounded subscriber queue and drains what the publication path fans
//!   into it; eviction recovers by re-listing through a [`RelistGate`].

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use k8s_apiserver::{
    AdmissionGate, AdmissionPermit, ApiRequest, RequestHandler, ResponseStatus, WatchEvent,
    WatchEventKind, WatchHub, WatchSubscriber,
};
use k8s_model::ResourceKind;
use kf_yaml::Value;

/// A local object cache over one watched collection (kind + namespace),
/// reconciled through a [`RequestHandler`] as one authenticated user — the
/// client half of the watch plane.
#[derive(Debug, Clone)]
pub struct Informer {
    user: String,
    kind: ResourceKind,
    namespace: String,
    /// Resume cursor; `None` before the first successful watch (and after a
    /// `Gone`, which forces a fresh initial watch).
    cursor: Option<u64>,
    /// The reconciled collection, keyed by (namespace, name). Values are
    /// the delivered trees — shared handles on the zero-copy plane.
    cache: BTreeMap<(String, String), Arc<Value>>,
    /// Cache mutations applied by watch deltas and initial seeds.
    events_applied: u64,
    /// Full re-lists performed (initial syncs and `Gone` recoveries).
    relists: u64,
}

impl Informer {
    /// An informer over `kind` in `namespace` (all namespaces when empty),
    /// authenticated as `user`.
    pub fn new(user: &str, kind: ResourceKind, namespace: &str) -> Self {
        Informer {
            user: user.to_owned(),
            kind,
            namespace: namespace.to_owned(),
            cursor: None,
            cache: BTreeMap::new(),
            events_applied: 0,
            relists: 0,
        }
    }

    /// The reconciled objects, in key order.
    pub fn cache(&self) -> &BTreeMap<(String, String), Arc<Value>> {
        &self.cache
    }

    /// Number of objects currently reconciled.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache mutations applied so far (seeds + deltas).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Full re-lists performed so far.
    pub fn relists(&self) -> u64 {
        self.relists
    }

    /// The current resume cursor, once a watch succeeded.
    pub fn cursor(&self) -> Option<u64> {
        self.cursor
    }

    /// One watch-driven reconcile tick. Returns the number of requests
    /// issued (1 normally; 2 when a compacted journal forced a `Gone` →
    /// re-list recovery).
    pub fn sync<H: RequestHandler>(&mut self, handler: &H) -> u64 {
        let request = ApiRequest::watch(&self.user, self.kind, &self.namespace, self.cursor);
        let response = handler.handle(&request);
        if response.status == ResponseStatus::Gone {
            // The journal compacted past our cursor: the one consistent
            // recovery is a fresh initial watch (list + new cursor).
            self.cursor = None;
            self.cache.clear();
            return 1 + self.sync(handler);
        }
        if self.cursor.is_none() {
            self.relists += 1;
        }
        let Some(body) = &response.body else {
            return 1;
        };
        let Some((events, cursor)) = body.watch_events() else {
            return 1;
        };
        for event in events {
            self.apply(event);
        }
        self.cursor = Some(cursor);
        1
    }

    /// Apply one delivered event to the cache. Added/Modified upsert (so
    /// the overlap between an initial listing and the first delta batch is
    /// absorbed), Deleted removes, bookmarks only carry the cursor.
    fn apply(&mut self, event: &WatchEvent) {
        match event.kind {
            WatchEventKind::Added | WatchEventKind::Modified => {
                if let Some(object) = &event.object {
                    self.cache.insert(
                        (event.namespace.clone(), event.name.clone()),
                        Arc::clone(object),
                    );
                    self.events_applied += 1;
                }
            }
            WatchEventKind::Deleted => {
                self.cache
                    .remove(&(event.namespace.clone(), event.name.clone()));
                self.events_applied += 1;
            }
            WatchEventKind::Bookmark => {}
        }
    }
}

/// Bounded, jittered admission for full re-lists — the herd hardening for
/// the watch plane's recovery path.
///
/// A compaction storm (or a burst of slow-consumer evictions) can hand a
/// whole fleet of informers a `410 Gone` in the same instant; if each one
/// immediately issues a full re-list, the server absorbs `herd × list` in
/// one spike — the thundering herd the jitter-and-serialize discipline
/// exists to prevent. Every re-list first sleeps a **deterministic
/// per-informer jitter** (hash of its token, so runs are reproducible) to
/// spread the herd in time, then acquires one of `max_concurrent` permits;
/// excess re-listers block until a permit frees. The permit is held across
/// the whole list+resubscribe, so at no point do more than `max_concurrent`
/// full re-lists run concurrently.
#[derive(Debug)]
pub struct RelistGate {
    /// The permits: the server's admission gate with no deadline, so a
    /// re-lister waits for its turn instead of being shed.
    permits: AdmissionGate,
    jitter_unit: Duration,
    jitter_slots: u64,
}

impl RelistGate {
    /// A gate admitting at most `max_concurrent` simultaneous re-lists,
    /// with jitter disabled (pure serialization).
    pub fn new(max_concurrent: usize) -> Self {
        RelistGate {
            permits: AdmissionGate::new(max_concurrent, Duration::MAX),
            jitter_unit: Duration::ZERO,
            jitter_slots: 1,
        }
    }

    /// Spread admissions over `slots` jitter buckets of `unit` each: an
    /// informer with token `t` sleeps `(hash(t) % slots) × unit` before
    /// competing for a permit. Deterministic per token, so a replayed run
    /// jitters identically.
    pub fn with_jitter(mut self, unit: Duration, slots: u64) -> Self {
        self.jitter_unit = unit;
        self.jitter_slots = slots.max(1);
        self
    }

    /// The configured concurrency bound.
    pub fn max_concurrent(&self) -> usize {
        self.permits.max_in_flight()
    }

    /// The jitter delay `token` would incur.
    pub fn jitter_for(&self, token: u64) -> Duration {
        if self.jitter_unit.is_zero() {
            return Duration::ZERO;
        }
        let mut hasher = DefaultHasher::new();
        token.hash(&mut hasher);
        self.jitter_unit * ((hasher.finish() % self.jitter_slots) as u32)
    }

    /// Highest number of simultaneously admitted re-lists observed so far
    /// (never exceeds [`RelistGate::max_concurrent`] by construction).
    pub fn peak_admitted(&self) -> usize {
        self.permits.peak_in_flight()
    }

    /// Total re-lists admitted so far.
    pub fn admissions(&self) -> u64 {
        self.permits.admitted_total()
    }

    /// Jitter, then block until a permit is free. The permit is released
    /// when the returned guard drops — hold it across the whole re-list.
    pub fn admit(&self, token: u64) -> RelistPermit<'_> {
        let jitter = self.jitter_for(token);
        if !jitter.is_zero() {
            std::thread::sleep(jitter);
        }
        RelistPermit {
            _permit: self
                .permits
                .admit()
                .expect("a gate without a deadline never sheds"),
        }
    }
}

/// An admitted re-list slot; dropping it frees the permit.
#[derive(Debug)]
pub struct RelistPermit<'a> {
    _permit: AdmissionPermit<'a>,
}

/// A push-mode informer: the same local-cache contract as [`Informer`], but
/// instead of polling watch deltas it holds a [`WatchSubscriber`] whose
/// bounded queue the store fills on publication — an idle informer costs the
/// server **nothing** between writes. Recovery is symmetric with the pull
/// informer: a slow-consumer eviction or compaction `Gone` clears the cache
/// and re-attaches through an optional [`RelistGate`], so a storm that
/// `Gone`s a fleet cannot stampede the server with simultaneous re-lists.
#[derive(Debug)]
pub struct PushInformer {
    user: String,
    kind: ResourceKind,
    namespace: String,
    cache: BTreeMap<(String, String), Arc<Value>>,
    subscription: Option<WatchSubscriber>,
    gate: Option<Arc<RelistGate>>,
    /// Stable identity for gate jitter (defaults to 0; fleets assign
    /// distinct tokens).
    token: u64,
    events_applied: u64,
    relists: u64,
    evictions: u64,
}

impl PushInformer {
    /// A push informer over `kind` in `namespace` (all namespaces when
    /// empty), authenticated as `user`.
    pub fn new(user: &str, kind: ResourceKind, namespace: &str) -> Self {
        PushInformer {
            user: user.to_owned(),
            kind,
            namespace: namespace.to_owned(),
            cache: BTreeMap::new(),
            subscription: None,
            gate: None,
            token: 0,
            events_applied: 0,
            relists: 0,
            evictions: 0,
        }
    }

    /// Route this informer's re-lists (initial attach and every recovery)
    /// through `gate`, jittered by `token`.
    pub fn with_gate(mut self, gate: Arc<RelistGate>, token: u64) -> Self {
        self.gate = Some(gate);
        self.token = token;
        self
    }

    /// The reconciled objects, in key order.
    pub fn cache(&self) -> &BTreeMap<(String, String), Arc<Value>> {
        &self.cache
    }

    /// Number of objects currently reconciled.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache mutations applied so far (initial seeds + pushed deltas).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Full re-lists performed so far (initial attach + recoveries).
    pub fn relists(&self) -> u64 {
        self.relists
    }

    /// Slow-consumer evictions survived so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether a live subscription is attached.
    pub fn is_attached(&self) -> bool {
        self.subscription.is_some()
    }

    /// The live subscription, for dispatcher registration.
    pub fn subscription(&self) -> Option<&WatchSubscriber> {
        self.subscription.as_ref()
    }

    /// Attach (or re-attach) the subscription: one initial-list push watch,
    /// admitted through the gate when one is configured — the permit covers
    /// the whole list+subscribe, so gated fleets cannot stampede. Returns
    /// the number of requests issued (1 per attempt; a compaction racing
    /// the attach forces a retry).
    pub fn attach<H: WatchHub>(&mut self, hub: &H) -> u64 {
        // Clone the gate handle so the permit does not pin a borrow of
        // `self` across the cache mutations below.
        let gate = self.gate.clone();
        let _permit = gate.as_ref().map(|gate| gate.admit(self.token));
        let mut requests = 0;
        loop {
            requests += 1;
            let request = ApiRequest::watch(&self.user, self.kind, &self.namespace, None);
            match hub.subscribe_push(&request) {
                Ok(push) => {
                    self.cache.clear();
                    self.relists += 1;
                    for event in &push.initial {
                        self.apply(event);
                    }
                    self.subscription = Some(push.subscriber);
                    return requests;
                }
                Err(response) if response.status == ResponseStatus::Gone => {
                    // The journal compacted between the cursor read and the
                    // attach; the initial watch is self-healing — try again.
                    continue;
                }
                Err(_) => return requests,
            }
        }
    }

    /// One push reconcile tick: block up to `timeout` for delivered events
    /// and fold them into the cache. An eviction (`Gone`) clears the cache
    /// and re-attaches through the gate — the push plane's equivalent of
    /// the pull informer's compaction recovery. Returns the number of
    /// requests issued (0 when events arrived over the live subscription —
    /// push delivery is not a request).
    pub fn pump<H: WatchHub>(&mut self, hub: &H, timeout: Duration) -> u64 {
        let Some(subscription) = &self.subscription else {
            return self.attach(hub);
        };
        match subscription.recv_timeout(timeout) {
            Ok(events) => {
                for event in &events {
                    self.apply(event);
                }
                0
            }
            Err(_gone) => {
                self.evictions += 1;
                self.subscription = None;
                self.cache.clear();
                self.attach(hub)
            }
        }
    }

    /// Drain whatever is queued right now without blocking, applying it to
    /// the cache; `Gone` recovery as in [`PushInformer::pump`]. Returns the
    /// number of requests issued.
    pub fn pump_now<H: WatchHub>(&mut self, hub: &H) -> u64 {
        self.pump(hub, Duration::ZERO)
    }

    fn apply(&mut self, event: &WatchEvent) {
        match event.kind {
            WatchEventKind::Added | WatchEventKind::Modified => {
                if let Some(object) = &event.object {
                    self.cache.insert(
                        (event.namespace.clone(), event.name.clone()),
                        Arc::clone(object),
                    );
                    self.events_applied += 1;
                }
            }
            WatchEventKind::Deleted => {
                self.cache
                    .remove(&(event.namespace.clone(), event.name.clone()));
                self.events_applied += 1;
            }
            WatchEventKind::Bookmark => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::{ApiServer, ObjectStore};
    use k8s_model::K8sObject;

    fn pod(name: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: default\nspec:\n  containers:\n    - name: c\n      image: nginx\n"
        ))
        .unwrap()
    }

    #[test]
    fn informers_seed_then_apply_deltas() {
        let server = ApiServer::new();
        server.handle(&ApiRequest::create("admin", &pod("a")));
        let mut informer = Informer::new("admin", ResourceKind::Pod, "default");
        assert_eq!(informer.sync(&server), 1);
        assert_eq!(informer.cache_len(), 1);
        assert_eq!(informer.relists(), 1);
        // Deltas: one create, one delete — applied incrementally, no relist.
        server.handle(&ApiRequest::create("admin", &pod("b")));
        server.handle(&ApiRequest::delete(
            "admin",
            ResourceKind::Pod,
            "default",
            "a",
        ));
        assert_eq!(informer.sync(&server), 1);
        assert_eq!(informer.cache_len(), 1);
        assert!(informer
            .cache()
            .contains_key(&("default".to_owned(), "b".to_owned())));
        assert_eq!(informer.relists(), 1, "delta syncs must not re-list");
        // The cached tree is the stored tree — zero-copy to the client.
        let stored = server
            .store()
            .get(ResourceKind::Pod, "default", "b")
            .unwrap();
        let cached = &informer.cache()[&("default".to_owned(), "b".to_owned())];
        assert!(Arc::ptr_eq(cached, stored.object.shared_body()));
    }

    #[test]
    fn informers_recover_from_compacted_journals() {
        let server = ApiServer::with_store(ObjectStore::with_journal_capacity(2));
        server.handle(&ApiRequest::create("admin", &pod("a")));
        let mut informer = Informer::new("admin", ResourceKind::Pod, "default");
        informer.sync(&server);
        assert_eq!(informer.cache_len(), 1);
        // Enough churn to compact the informer's cursor away.
        for name in ["b", "c", "d", "e"] {
            server.handle(&ApiRequest::create("admin", &pod(name)));
        }
        // Gone → one extra request for the recovery re-list, cache complete.
        assert_eq!(informer.sync(&server), 2);
        assert_eq!(informer.cache_len(), 5);
        assert_eq!(informer.relists(), 2);
        // And the informer streams deltas again afterwards.
        server.handle(&ApiRequest::delete(
            "admin",
            ResourceKind::Pod,
            "default",
            "a",
        ));
        assert_eq!(informer.sync(&server), 1);
        assert_eq!(informer.cache_len(), 4);
    }

    #[test]
    fn push_informers_attach_then_receive_pushed_deltas() {
        let server = ApiServer::new();
        server.handle(&ApiRequest::create("admin", &pod("a")));
        let mut informer = PushInformer::new("admin", ResourceKind::Pod, "default");
        assert_eq!(informer.attach(&server), 1);
        assert_eq!(informer.cache_len(), 1);
        assert_eq!(informer.relists(), 1);
        // Writes land in the subscriber queue without the informer asking.
        server.handle(&ApiRequest::create("admin", &pod("b")));
        server.handle(&ApiRequest::delete(
            "admin",
            ResourceKind::Pod,
            "default",
            "a",
        ));
        assert_eq!(informer.pump_now(&server), 0, "push delivery is free");
        assert_eq!(informer.cache_len(), 1);
        assert!(informer
            .cache()
            .contains_key(&("default".to_owned(), "b".to_owned())));
        assert_eq!(informer.relists(), 1, "deltas must not re-list");
        // Zero-copy end to end: the cached tree is the stored tree.
        let stored = server
            .store()
            .get(ResourceKind::Pod, "default", "b")
            .unwrap();
        let cached = &informer.cache()[&("default".to_owned(), "b".to_owned())];
        assert!(Arc::ptr_eq(cached, stored.object.shared_body()));
    }

    #[test]
    fn evicted_push_informers_recover_by_relisting_gaplessly() {
        // A queue bound of two and three-object bursts: the informer is
        // evicted while idle, then recovers to the exact store state.
        let server = ApiServer::new().with_watch_queue_capacity(2);
        let mut informer = PushInformer::new("admin", ResourceKind::Pod, "default");
        informer.attach(&server);
        for name in ["a", "b", "c"] {
            server.handle(&ApiRequest::create("admin", &pod(name)));
        }
        assert!(informer.subscription().unwrap().is_evicted());
        let requests = informer.pump_now(&server);
        assert!(requests >= 1, "recovery re-lists");
        assert_eq!(informer.evictions(), 1);
        assert_eq!(informer.relists(), 2);
        assert_eq!(informer.cache_len(), 3);
        // And the new subscription streams again.
        server.handle(&ApiRequest::delete(
            "admin",
            ResourceKind::Pod,
            "default",
            "b",
        ));
        informer.pump_now(&server);
        assert_eq!(informer.cache_len(), 2);
        assert_eq!(informer.evictions(), 1);
    }

    #[test]
    fn the_relist_gate_bounds_concurrency_and_jitters_deterministically() {
        let gate = RelistGate::new(2).with_jitter(Duration::from_millis(1), 4);
        assert_eq!(gate.max_concurrent(), 2);
        assert_eq!(gate.jitter_for(7), gate.jitter_for(7), "deterministic");
        assert!(gate.jitter_for(7) < Duration::from_millis(4));
        let p1 = gate.admit(1);
        let p2 = gate.admit(2);
        assert_eq!(gate.peak_admitted(), 2);
        drop(p1);
        let _p3 = gate.admit(3);
        drop(p2);
        assert_eq!(gate.admissions(), 3);
        assert_eq!(gate.peak_admitted(), 2, "never above the bound");
    }
}
