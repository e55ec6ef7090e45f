//! Building the system under test: validators from the charts, the learned
//! RBAC policy, the store (in memory or durable), the server, the proxy and
//! the watch subscribers — everything `setup_s` times.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use k8s_apiserver::{
    ApiServer, FsyncPolicy, ObjectStore, PersistConfig, Persistence, RequestHandler, StoreBackend,
    WatchDispatcher, WatchEventKind, WatchHub, WatchSubscriber,
};
use k8s_rbac::{audit2rbac, Audit2RbacOptions, RbacPolicySet};
use kf_workloads::Operator;
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator, ProxyStats, ValidatorSet};

use crate::io::TracedIo;
use crate::pool::Pool;
use crate::trace::{Traced, TracedStore};

/// The fsync policy `durable_churn` runs under, as the `KF_WAL_FSYNC` knob
/// spells it: group commit with the program's default window.
pub const FSYNC_POLICY: &str = "group";

/// Watch-journal capacity per sub-shard, through the program's own
/// constructor knob (`ObjectStore::with_journal_capacity`,
/// `PersistConfig::journal_capacity`). A store serves at its steady speed
/// only once its journals are full and every write retires an old event
/// (and frees its tree). At the default 4096 that takes ≈ 270 000 requests —
/// 8 s on `deploy_churn`, 50 s on `durable_churn` — during which throughput
/// falls 3× and memory climbs past 700 MiB; at 256 the warm-up segments fill
/// them, so the measured segments see the steady state a long-running server
/// is in.
pub const JOURNAL_CAPACITY: usize = 256;

/// Where each part of set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Rendering the five charts' default manifests.
    pub render: Duration,
    /// `PolicyGenerator::generate` over the five charts.
    pub generate: Duration,
    /// The `audit2rbac` inference proper (not the learning replay).
    pub audit2rbac: Duration,
}

/// Generate the five operators' validators, timing chart rendering and
/// policy generation apart.
pub fn generate_validators() -> (ValidatorSet, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        let chart = operator.chart();
        let started = Instant::now();
        let manifests = helm_lite::render_chart(&chart, None, operator.release_name())
            .expect("built-in charts render");
        times.render += started.elapsed();
        std::hint::black_box(manifests);
        let started = Instant::now();
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&chart)
            .expect("built-in charts generate valid policies");
        times.generate += started.elapsed();
        set.push(validator);
    }
    (set, times)
}

/// Learn the RBAC policy the paper's way: replay the workload's legitimate
/// traffic (and the subscribers' watches) once against a permissive
/// learning server with audit on, then run `audit2rbac` per operator and
/// merge the roles.
pub fn learn_policy(pool: &Pool, times: &mut SetupTimes) -> RbacPolicySet {
    let mut learning = ApiServer::new();
    for operator in Operator::ALL {
        learning = learning.with_admin(&operator.user());
    }
    // Reads of an empty store would be audited as failures and learn nothing.
    seed_store(learning.store(), pool);
    for entry in &pool.requests {
        if !entry.class.hostile() {
            learning.handle(&entry.request);
        }
    }
    for target in 0..pool.targets.len() {
        learning.handle(&pool.watch_request(target));
    }
    let log = learning.audit_log();
    let started = Instant::now();
    let mut merged = RbacPolicySet::new();
    for operator in Operator::ALL {
        let policy = audit2rbac(
            log.events(),
            &operator.user(),
            &Audit2RbacOptions::default(),
        );
        for role in policy.roles() {
            merged.add_role(role.clone());
        }
        for binding in policy.bindings() {
            merged.add_binding(binding.clone());
        }
    }
    times.audit2rbac += started.elapsed();
    merged
}

/// What a workload needs built.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Operators are admins (RBAC out of the way) instead of holding the
    /// learned policy.
    pub admins: bool,
    /// Push subscribers to attach, round-robin over the pool's targets.
    pub subscribers: usize,
    /// `Some(dir)`: a durable store under `dir` with [`FSYNC_POLICY`].
    pub durable_dir: Option<PathBuf>,
}

/// The durable half of a system.
#[derive(Debug)]
pub struct Durable {
    /// The checkpoint/WAL handle.
    pub persistence: Persistence,
    /// The I/O wrapper the store writes through.
    pub io: Arc<TracedIo>,
}

/// One push subscriber and the state it has reconstructed from its events.
#[derive(Debug)]
pub struct Watcher {
    target: usize,
    subscriber: WatchSubscriber,
    /// (namespace, name) -> resource version, from the initial listing and
    /// every event since.
    pub state: BTreeMap<(String, String), u64>,
    last_revision: u64,
    /// Whether every drained batch arrived in revision order.
    pub in_order: bool,
    /// Slow-consumer evictions survived (each costs a re-list).
    pub evictions: u64,
    /// Re-lists after the initial one (one per eviction).
    pub relists: u64,
    coalesced_before: u64,
}

impl Watcher {
    /// Attach a subscriber on the pool's `target`-th collection.
    pub fn attach<H: WatchHub>(hub: &H, pool: &Pool, target: usize) -> Watcher {
        let push = hub
            .subscribe_push(&pool.watch_request(target))
            .unwrap_or_else(|denied| panic!("watch subscription refused: {}", denied.message));
        let mut watcher = Watcher {
            target,
            subscriber: push.subscriber,
            state: BTreeMap::new(),
            last_revision: 0,
            in_order: true,
            evictions: 0,
            relists: 0,
            coalesced_before: 0,
        };
        for event in &push.initial {
            watcher.state.insert(
                (event.namespace.clone(), event.name.clone()),
                event.revision,
            );
        }
        watcher
    }

    /// The live subscription (dispatcher registration).
    pub fn subscriber(&self) -> &WatchSubscriber {
        &self.subscriber
    }

    /// Events replaced in the queue by a newer event for the same object.
    pub fn coalesced(&self) -> u64 {
        self.coalesced_before + self.subscriber.coalesced()
    }

    /// Drain whatever is queued, folding it into [`Watcher::state`];
    /// `on_event` sees each drained revision. An eviction re-lists, as an
    /// informer would. Returns the number of events drained.
    pub fn drain<H: WatchHub>(
        &mut self,
        hub: &H,
        pool: &Pool,
        mut on_event: impl FnMut(u64),
    ) -> usize {
        match self.subscriber.try_recv() {
            Ok(events) => {
                for event in &events {
                    self.in_order &= event.revision > self.last_revision;
                    self.last_revision = event.revision;
                    let key = (event.namespace.clone(), event.name.clone());
                    match event.kind {
                        WatchEventKind::Added | WatchEventKind::Modified => {
                            self.state.insert(key, event.revision);
                        }
                        WatchEventKind::Deleted => {
                            self.state.remove(&key);
                        }
                        WatchEventKind::Bookmark => {}
                    }
                    on_event(event.revision);
                }
                events.len()
            }
            Err(_gone) => {
                let mut fresh = Watcher::attach(hub, pool, self.target);
                fresh.in_order = self.in_order;
                fresh.evictions = self.evictions + 1;
                fresh.relists = self.relists + 1;
                fresh.coalesced_before = self.coalesced();
                *self = fresh;
                0
            }
        }
    }

    /// Whether the reconstructed state equals what the store lists for the
    /// watched collection right now (call after quiesce).
    pub fn matches_store<S: StoreBackend>(&self, store: &S, pool: &Pool) -> bool {
        let (_, kind, namespace) = &pool.targets[self.target % pool.targets.len()];
        let listed: BTreeMap<(String, String), u64> = store
            .list(*kind, namespace)
            .iter()
            .map(|stored| {
                (
                    (
                        stored.object.namespace().to_owned(),
                        stored.object.name().to_owned(),
                    ),
                    stored.resource_version,
                )
            })
            .collect();
        listed == self.state
    }
}

/// The assembled system: what clients call, plus the handles the benchmark
/// needs for housekeeping and checks. Implemented by the plain stack (the
/// program exactly as it ships) and by the traced stack (the same program
/// with span wrappers at its three seams).
pub trait Stack: Sync {
    /// What clients send requests to.
    type Front: RequestHandler + Sync;
    /// The server's store type.
    type Store: StoreBackend;

    /// The front door.
    fn front(&self) -> &Self::Front;
    /// The server behind the proxy.
    fn server(&self) -> &ApiServer<Self::Store>;
    /// The concrete store (checkpoints, final-state comparison).
    fn object_store(&self) -> &ObjectStore;
    /// Proxy counters.
    fn proxy_stats(&self) -> ProxyStats;
    /// Denial records evicted from the proxy's ring.
    fn dropped_denials(&self) -> u64;
    /// Clear the proxy's denial ring and counters.
    fn reset_proxy(&self);
}

/// The program as it ships.
pub type PlainStack = EnforcementProxy<ApiServer<ObjectStore>>;

impl Stack for PlainStack {
    type Front = Self;
    type Store = ObjectStore;

    fn front(&self) -> &Self {
        self
    }
    fn server(&self) -> &ApiServer<ObjectStore> {
        self.upstream()
    }
    fn object_store(&self) -> &ObjectStore {
        self.upstream().store()
    }
    fn proxy_stats(&self) -> ProxyStats {
        self.stats()
    }
    fn dropped_denials(&self) -> u64 {
        EnforcementProxy::dropped_denials(self)
    }
    fn reset_proxy(&self) {
        self.reset()
    }
}

/// The program with a span wrapper at each seam: client→proxy,
/// proxy→server, server→store (and store→disk through [`TracedIo`]).
pub type TracedStack = Traced<EnforcementProxy<Traced<ApiServer<TracedStore<ObjectStore>>>>>;

impl Stack for TracedStack {
    type Front = Self;
    type Store = TracedStore<ObjectStore>;

    fn front(&self) -> &Self {
        self
    }
    fn server(&self) -> &ApiServer<TracedStore<ObjectStore>> {
        self.inner().upstream().inner()
    }
    fn object_store(&self) -> &ObjectStore {
        self.server().store().inner()
    }
    fn proxy_stats(&self) -> ProxyStats {
        self.inner().stats()
    }
    fn dropped_denials(&self) -> u64 {
        self.inner().dropped_denials()
    }
    fn reset_proxy(&self) {
        self.inner().reset()
    }
}

/// A built system with everything attached to it.
#[derive(Debug)]
pub struct System<K> {
    /// The request stack.
    pub stack: K,
    /// Attached push subscribers.
    pub watchers: Vec<Watcher>,
    /// The durable plane, when the workload has one.
    pub durable: Option<Durable>,
}

fn open_store(spec: &SystemSpec) -> (ObjectStore, Option<Durable>) {
    match &spec.durable_dir {
        None => (ObjectStore::with_journal_capacity(JOURNAL_CAPACITY), None),
        Some(dir) => {
            let io = Arc::new(TracedIo::new());
            let fsync = FsyncPolicy::parse(FSYNC_POLICY).expect("known policy spelling");
            let mut config = PersistConfig::new(dir).with_fsync(fsync);
            config.journal_capacity = JOURNAL_CAPACITY;
            let (store, persistence, _) = Persistence::open_with_io(
                config,
                Arc::clone(&io) as Arc<dyn k8s_apiserver::StorageIo>,
            )
            .expect("persistence directory opens");
            (store, Some(Durable { persistence, io }))
        }
    }
}

fn seed_store<S: StoreBackend>(store: &S, pool: &Pool) {
    let results = store.apply_batch(pool.objects.iter().map(|o| o.object.clone()).collect());
    assert_eq!(
        results.len(),
        pool.objects.len(),
        "seeding applied every object"
    );
}

fn configure<S: StoreBackend>(store: S, spec: &SystemSpec, pool: &Pool) -> ApiServer<S> {
    let mut server = ApiServer::with_store(store);
    if spec.admins {
        for operator in Operator::ALL {
            server = server.with_admin(&operator.user());
        }
    } else {
        server.set_rbac_policy(Some(learn_policy(pool, &mut SetupTimes::default())));
    }
    server
}

fn attach_watchers<H: WatchHub>(hub: &H, spec: &SystemSpec, pool: &Pool) -> Vec<Watcher> {
    (0..spec.subscribers)
        .map(|target| Watcher::attach(hub, pool, target))
        .collect()
}

/// Build the plain system: charts → validators → learned RBAC → store
/// (opened and seeded) → server → proxy → subscribers.
pub fn build_plain(spec: &SystemSpec, pool: &Pool) -> System<PlainStack> {
    let (validators, _) = generate_validators();
    let (store, durable) = open_store(spec);
    seed_store(&store, pool);
    let server = configure(store, spec, pool);
    let watchers = attach_watchers(&server, spec, pool);
    let stack = EnforcementProxy::with_validators(server, validators);
    System {
        stack,
        watchers,
        durable,
    }
}

/// Build the traced system: the same steps with the span wrappers in place.
pub fn build_traced(spec: &SystemSpec, pool: &Pool) -> System<TracedStack> {
    let (validators, _) = generate_validators();
    let (store, durable) = open_store(spec);
    let store = TracedStore::new(store);
    seed_store(&store, pool);
    let server = configure(store, spec, pool);
    let watchers = attach_watchers(&server, spec, pool);
    let stack = Traced::new(
        EnforcementProxy::with_validators(Traced::new(server, "server.handle"), validators),
        "proxy.handle",
    );
    System {
        stack,
        watchers,
        durable,
    }
}

/// Register every watcher with a fresh dispatcher, token = index.
pub fn dispatcher_for(watchers: &[Watcher]) -> WatchDispatcher {
    let dispatcher = WatchDispatcher::new();
    for (token, watcher) in watchers.iter().enumerate() {
        dispatcher.register(watcher.subscriber(), token);
    }
    dispatcher
}

/// The streamed verdict on every pool body equals the tree-path reference
/// (which only lacks the deciding event's location), and agrees with the
/// body's class.
///
/// # Errors
///
/// The first body on which the two paths, or path and class, disagree.
pub fn check_verdict_parity(pool: &Pool, set: &ValidatorSet) -> Result<usize, String> {
    use kubefence::RawVerdict;
    let strip = |verdict: RawVerdict| match verdict {
        RawVerdict::Denied { violations, .. } => RawVerdict::Denied {
            violations,
            location: None,
        },
        RawVerdict::Unparsable { reason, .. } => RawVerdict::Unparsable {
            reason,
            location: None,
        },
        admitted => admitted,
    };
    let mut checked = 0;
    for (text, format, class) in pool.bodies() {
        let streamed = set.validate_raw_format(text, format);
        if streamed.is_admitted() == class.hostile() {
            return Err(format!("{class:?} body got verdict {streamed:?}"));
        }
        let reference = set.validate_raw_tree_format(text, format);
        if strip(streamed.clone()) != strip(reference.clone()) {
            return Err(format!(
                "streamed verdict {streamed:?} differs from reference {reference:?}"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// A fresh scratch directory under the benchmark's `out/`.
pub fn scratch_dir(out: &Path, label: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = out.join(format!(
        "{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    // A stale directory of the same name would be replayed as a crash.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}
