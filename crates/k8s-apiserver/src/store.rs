//! The etcd-like versioned object store backing the simulated API server.
//!
//! The store is sharded by key hash: objects are spread over [`SHARDS`]
//! independently locked maps so concurrent writers to different objects do
//! not serialize on one global lock, while the resource-version counter is a
//! single atomic — still globally monotonic, never a lock. Reads take one
//! shard's read lock; whole-store scans (`list`, `count_by_kind`) visit the
//! shards in order.
//!
//! The shards hold **`Arc<StoredObject>` handles**: a write moves the
//! admitted object (whose body is already an `Arc<Value>` shared with the
//! request that carried it) behind one `Arc`, and every read — `get`,
//! `list`, `delete` — hands that handle back instead of cloning the document
//! tree. `list` filters and orders purely by key (a range scan from the
//! first matching key) and clones only handles, so a large store pays for
//! the objects it returns, never for the ones it skips.
//!
//! Every write also **publishes a [`WatchEvent`]** into a bounded per-kind
//! journal (`crate::watch`, namespace-sharded into `DEFAULT_JOURNAL_SHARDS`
//! sub-shards per kind), keyed by the same global revision counter;
//! [`StoreBackend::events_since`] turns the store into an incremental event
//! source so watchers replay exactly the writes they missed instead of
//! re-listing. Fanned-out events share the stored object's `Arc<Value>`;
//! the journal retains each event as its encoded payload plus a weak handle
//! to that tree, so retained history costs bytes, never a tree, while a
//! read of a current version still hands out the stored tree itself.
//!
//! **All six write paths commit one way.** `create`, `update`, `upsert`,
//! `delete`, `apply_batch` and `delete_collection` stage their writes under
//! one store shard's write lock, encoding each one's record payload once,
//! and hand them to `ObjectStore::commit`, which marks the shard dirty,
//! publishes the events (allocating the revisions, one journal entry per
//! touched sub-shard; the journal keeps the payloads), appends WAL frames
//! copied from the same payloads in one `write` and applies the map
//! effects. A durable write waits for its group-commit fsync only **after**
//! releasing every lock: a `get` or `list` may see a write before it is
//! durable — as a watch subscriber, fanned out at publication, always
//! could — but the writer is acknowledged only once an fsync covers its
//! frame or the WAL has left `Healthy`.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::Value;

use crate::persist::{self, DurabilityState, DurabilityStatus, Frames, GroupTicket, Wal};
use crate::sync::{RwLock, RwLockWriteGuard};
use crate::watch::{
    KindJournals, StagedEvent, WatchDelta, WatchError, WatchEventKind, WatchSubscriber,
    DEFAULT_JOURNAL_CAPACITY, DEFAULT_JOURNAL_SHARDS,
};

/// A stored object together with its resource version.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    /// The object as last written.
    pub object: K8sObject,
    /// Monotonic resource version assigned at the last write.
    pub resource_version: u64,
}

impl StoredObject {
    /// `object` at `resource_version` as a shared handle: what the store
    /// holds, what reads return and what a [`ResponseBody`] carries.
    ///
    /// [`ResponseBody`]: crate::ResponseBody
    pub fn shared(object: K8sObject, resource_version: u64) -> Arc<StoredObject> {
        Arc::new(StoredObject {
            object,
            resource_version,
        })
    }
}

/// Key identifying an object: kind + namespace + name.
type Key = (ResourceKind, String, String);

/// A key's parts, borrowed: what a point lookup probes a shard with, so a
/// `get` builds no owned [`Key`]. A `Key` borrows as a `dyn KeyView`, and
/// views compare by their parts, which is the tuple's own order.
trait KeyView {
    fn parts(&self) -> (ResourceKind, &str, &str);
}

impl KeyView for Key {
    fn parts(&self) -> (ResourceKind, &str, &str) {
        (self.0, &self.1, &self.2)
    }
}

impl KeyView for (ResourceKind, &str, &str) {
    fn parts(&self) -> (ResourceKind, &str, &str) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// One store shard's objects, by key.
type Shard = BTreeMap<Key, Arc<StoredObject>>;

/// One write staged for `ObjectStore::commit`: its key, the watch event it
/// publishes, and what the key holds afterwards.
struct Write {
    key: Key,
    op: WatchEventKind,
    /// The tree the watch event carries: the new body, or a deleted
    /// object's last one (a deletion's WAL frame logs the key alone).
    body: Arc<Value>,
    /// The write's record payload (`persist::encode_payload`), encoded once
    /// at staging: the journal retains it and the WAL frame copies it.
    payload: Box<[u8]>,
    /// The object stored under `key` afterwards; `None` removes the key.
    object: Option<K8sObject>,
}

impl Write {
    fn new(key: Key, op: WatchEventKind, body: Arc<Value>, object: Option<K8sObject>) -> Write {
        let payload = persist::encode_payload(key.0, op, &key.1, &key.2, Some(&body));
        Write {
            key,
            op,
            body,
            payload,
            object,
        }
    }

    /// Store `object` under `key`: `Modified` if the key `exists`, else
    /// `Added`.
    fn put(key: Key, exists: bool, object: K8sObject) -> Write {
        let op = if exists {
            WatchEventKind::Modified
        } else {
            WatchEventKind::Added
        };
        Write::new(key, op, Arc::clone(object.shared_body()), Some(object))
    }

    /// Remove `key`; the `Deleted` event carries `stored`'s last tree.
    fn delete(key: Key, stored: &StoredObject) -> Write {
        let body = Arc::clone(stored.object.shared_body());
        Write::new(key, WatchEventKind::Deleted, body, None)
    }
}

/// Number of hash shards. A small power of two: enough to spread the five
/// operator workloads' writes, cheap to scan for list operations. Also the
/// granularity of incremental checkpoints (one snapshot segment per shard)
/// and of parallel recovery replay — `pub(crate)` so the persistence plane
/// partitions by the same geometry.
pub(crate) const SHARDS: usize = 16;

/// The persistence plane behind [`crate::ApiServer`]: how request bodies
/// become stored objects and how stored objects come back out.
/// [`ObjectStore`] is the one implementation the crate ships; the contract
/// is a trait so a wrapper (the end-to-end benchmark's per-call tracer) or a
/// test fake can stand in front of it while the server logic stays
/// identical.
pub trait StoreBackend: Send + Sync {
    /// Interpret an admitted request body as a [`K8sObject`] ready to
    /// persist. [`ObjectStore`] takes a handle to the caller's tree — no
    /// part of the document is copied.
    ///
    /// # Errors
    ///
    /// Exactly those of [`K8sObject::from_value`].
    fn ingest(&self, body: &Arc<Value>) -> k8s_model::Result<K8sObject>;

    /// Create an object. Returns the assigned resource version, or `None` if
    /// an object with the same kind/namespace/name already exists.
    fn create(&self, object: K8sObject) -> Option<u64>;

    /// Update an existing object. Returns the new resource version, or
    /// `None` if the object does not exist.
    fn update(&self, object: K8sObject) -> Option<u64>;

    /// Create the object if absent, update it otherwise, reporting whether
    /// it was created (`true`) or replaced (`false`).
    fn upsert(&self, object: K8sObject) -> (u64, bool);

    /// Fetch an object by kind, namespace and name.
    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>>;

    /// Delete an object; returns it if it existed.
    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>>;

    /// List objects of a kind in a namespace (all namespaces when
    /// `namespace` is empty), in key order.
    fn list(&self, kind: ResourceKind, namespace: &str) -> Vec<Arc<StoredObject>>;

    /// Delete every object of a kind in a namespace (all namespaces when
    /// `namespace` is empty), returning how many were removed. Every object
    /// gets its own revision bump and `Deleted` watch event.
    fn delete_collection(&self, kind: ResourceKind, namespace: &str) -> usize;

    /// Upsert a batch of objects, returning `(resource_version, created)`
    /// per object aligned to the input order — the bulk-load path workload
    /// seeding and replay use. Semantically identical to calling
    /// [`StoreBackend::upsert`] per object.
    fn apply_batch(&self, objects: Vec<K8sObject>) -> Vec<(u64, bool)>;

    /// Every watch event of `kind` with revision strictly greater than
    /// `revision`, restricted to `namespace` when non-empty, in revision
    /// order — plus the journal-head resume cursor ([`WatchDelta`]), so
    /// quiet-namespace watchers advance past foreign churn. Events hand out
    /// the published trees while anything holds them, and trees decoded
    /// from the journal's bytes after that.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when the cursor predates the journal's
    /// compaction horizon — the caller must re-list and resume from a fresh
    /// cursor.
    fn events_since(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
    ) -> Result<WatchDelta, WatchError>;

    /// The highest revision published to `kind`'s watch journal (0 when the
    /// kind has never been written). Safe as an initial-list watch cursor:
    /// the effects of every revision `<=` this value are visible to a list
    /// that starts after reading it.
    fn watch_revision(&self, kind: ResourceKind) -> u64;

    /// Attach a push subscription for `kind` (scoped to `namespace` when
    /// non-empty) resuming after `revision`, with a delivery queue bounded
    /// to `capacity` live events (see
    /// [`crate::DEFAULT_SUBSCRIBER_QUEUE_CAPACITY`]). Events published after
    /// the cursor are fanned into the returned [`WatchSubscriber`]'s queue
    /// inside the publication critical section, sharing the stored trees.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when the cursor predates the compaction horizon
    /// of a needed journal sub-shard — re-list and subscribe from the fresh
    /// cursor.
    fn subscribe(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
        capacity: usize,
    ) -> Result<WatchSubscriber, WatchError>;

    /// The last revision published to the `(kind, namespace)` watch scope:
    /// the namespace's journal sub-shard (which other namespaces may share),
    /// or [`StoreBackend::watch_revision`] for all namespaces. Read it
    /// **before** polling [`StoreBackend::events_since`]; passing the value
    /// to [`StoreBackend::wait_for_watch`] then cannot miss a publication
    /// that raced the poll.
    fn watch_generation(&self, kind: ResourceKind, namespace: &str) -> u64;

    /// Block until an event of `(kind, namespace)` with a revision past
    /// `seen` is published, or `timeout` elapses, returning the scope
    /// revision ([`StoreBackend::watch_generation`]) on exit. Returns at
    /// once when the scope is already past `seen`. Spurious wakeups are
    /// allowed; lost wakeups are not.
    fn wait_for_watch(
        &self,
        kind: ResourceKind,
        namespace: &str,
        seen: u64,
        timeout: std::time::Duration,
    ) -> u64;

    /// The current global revision (number of writes so far).
    fn revision(&self) -> u64;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool;

    /// Count the stored objects per kind.
    fn count_by_kind(&self) -> BTreeMap<ResourceKind, usize>;

    /// Every stored object, in key order — the scan the persistence plane
    /// snapshots (`crate::persist::Persistence::checkpoint`). The default
    /// walks [`StoreBackend::list`] per kind, which already pays only for
    /// handles on the zero-copy store.
    fn snapshot_objects(&self) -> Vec<Arc<StoredObject>> {
        let mut out = Vec::new();
        for kind in ResourceKind::ALL {
            out.extend(self.list(kind, ""));
        }
        out
    }

    /// Bulk-load recovered state: insert every object at its **recorded**
    /// resource version (no re-admission, no new revisions, no watch
    /// events), advance the revision counter to at least `revision`, and
    /// seal the watch journals' compaction horizon there — a watcher
    /// resuming with a pre-crash cursor below the horizon gets the standard
    /// `410 Gone` → re-list recovery, while a cursor at the horizon streams
    /// the writes that follow. This is the boot half of the WAL contract;
    /// see `crate::persist`.
    fn restore(&self, objects: Vec<StoredObject>, revision: u64);

    /// A point-in-time durability summary of the attached persistence
    /// plane. A WAL-less store reports a pure in-memory store
    /// ([`DurabilityStatus::in_memory`]): trivially `Healthy`, nothing
    /// durable, nothing at risk.
    fn durability(&self) -> DurabilityStatus;

    /// The durability state machine's current state, cheap enough for a
    /// per-request policy check ([`ObjectStore`] answers from a lock-free
    /// atomic mirror). `Healthy` when no WAL is attached.
    fn durability_state(&self) -> DurabilityState;

    /// How many store shards the most recent checkpoint claimed as dirty —
    /// the health surface's view of how incremental checkpoints actually
    /// are.
    fn checkpoint_dirty_shards(&self) -> usize;
}

fn key_of(object: &K8sObject) -> Key {
    (
        object.kind(),
        object.namespace().to_owned(),
        object.name().to_owned(),
    )
}

/// The shard an object lives in, from its key parts. `pub(crate)` because
/// recovery replay partitions snapshot objects and WAL records by the same
/// function — a `String` and a `&str` hash identically, so the two callers
/// cannot disagree.
pub(crate) fn shard_index_raw(kind_index: usize, namespace: &str, name: &str) -> usize {
    let mut hasher = DefaultHasher::new();
    kind_index.hash(&mut hasher);
    namespace.hash(&mut hasher);
    name.hash(&mut hasher);
    (hasher.finish() as usize) % SHARDS
}

fn shard_index(key: &Key) -> usize {
    shard_index_raw(key.0.index(), &key.1, &key.2)
}

/// The first key a `list(kind, namespace)` scan can match; used as the lower
/// range bound so the scan never visits earlier keys at all.
fn list_lower_bound(kind: ResourceKind, namespace: &str) -> Key {
    (kind, namespace.to_owned(), String::new())
}

/// Whether a key still belongs to a `list(kind, namespace)` scan (keys are
/// ordered, so the first mismatch ends the scan).
fn list_key_matches(key: &Key, kind: ResourceKind, namespace: &str) -> bool {
    key.0 == kind && (namespace.is_empty() || key.1 == namespace)
}

/// An in-memory, versioned object store with etcd-like semantics: every write
/// bumps a global revision, `create` fails on existing keys, `update` and
/// `delete` fail on missing keys. Reads return shared handles — see the
/// module docs for the copy discipline.
#[derive(Debug)]
pub struct ObjectStore {
    shards: Vec<RwLock<Shard>>,
    /// Global revision counter (number of writes so far). A revision is
    /// allocated inside [`KindJournals::publish`] — under the written kind's
    /// journal lock, while `commit` holds the affected shard's write lock — so
    /// versions of one object are strictly increasing, globally unique, and
    /// published to the watch journal in allocation order.
    revision: AtomicU64,
    /// Per-kind bounded watch journals; every write publishes one event.
    journals: KindJournals,
    /// The write-ahead log, when the store is durable: `commit` appends a
    /// write's frames **while holding its shard write lock**, so the
    /// on-disk per-key order matches the in-memory one, and the writer
    /// waits for the fsync after unlocking. `None` (the default) keeps the
    /// store purely in-memory.
    wal: Option<Arc<Wal>>,
    /// Per-shard dirty flags for incremental checkpoints: a write path sets
    /// its shard's flag **after taking the shard write lock and before
    /// allocating the revision**, and the checkpoint reads its horizon
    /// before swapping the flags — so any write at or below the horizon is
    /// guaranteed to have its flag observed by the swap (the alloc
    /// continues the counter's release sequence; see
    /// `KindJournals::push_locked`), and any write above it stays in the
    /// WAL past compaction. All flags start `true`: the first checkpoint of
    /// any store (fresh or restored) is a full one, whatever the on-disk
    /// manifest state.
    dirty: Vec<AtomicBool>,
    /// How many shards the most recent checkpoint claimed (the
    /// `checkpoint_dirty_shards` health counter).
    last_checkpoint_dirty: AtomicUsize,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// An empty store whose watch journals retain at most `capacity` events
    /// per namespace sub-shard (tests use tiny capacities to exercise
    /// compaction; the default is [`DEFAULT_JOURNAL_CAPACITY`]), with the
    /// default sub-shard count.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        ObjectStore::with_journal_config(capacity, DEFAULT_JOURNAL_SHARDS)
    }

    /// An empty store with full journal control: `capacity` events retained
    /// per sub-shard, `shard_count` namespace sub-shards per kind (tests
    /// use small counts to force or avoid sub-shard collisions).
    ///
    /// Degenerate configs are clamped rather than honored: `capacity == 0`
    /// (a journal that can hold nothing) falls back to
    /// [`DEFAULT_JOURNAL_CAPACITY`] and `shard_count == 0` (no sub-shard to
    /// hash into) to [`DEFAULT_JOURNAL_SHARDS`], so a bad value degrades to
    /// the defaults instead of panicking deep inside journal construction.
    pub fn with_journal_config(capacity: usize, shard_count: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_JOURNAL_CAPACITY
        } else {
            capacity
        };
        let shard_count = if shard_count == 0 {
            DEFAULT_JOURNAL_SHARDS
        } else {
            shard_count
        };
        ObjectStore {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            revision: AtomicU64::new(0),
            journals: KindJournals::new(capacity, shard_count),
            wal: None,
            dirty: (0..SHARDS).map(|_| AtomicBool::new(true)).collect(),
            last_checkpoint_dirty: AtomicUsize::new(0),
        }
    }

    /// Attach a write-ahead log: every subsequent write appends its frame
    /// before the shard lock drops. Called once at construction time by the
    /// recovery path (`crate::persist::Persistence::open`) — the store is
    /// not yet shared, hence `&mut`.
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if the store is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Flag a shard as touched since the last checkpoint. Must be called
    /// while holding the shard's write lock and **before** allocating the
    /// write's revision — that ordering (plus the horizon-before-swap read
    /// on the checkpoint side) is what makes an incremental checkpoint
    /// never miss a write at or below its horizon. See the `dirty` field.
    fn mark_dirty(&self, shard_no: usize) {
        self.dirty[shard_no].store(true, Ordering::Release);
    }

    /// The current global revision (number of writes so far). Inherent as
    /// well as [`StoreBackend::revision`], so a holder of the concrete store
    /// reads it without importing the trait.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Relaxed)
    }

    /// The one write critical section, entered with shard `shard_no`'s
    /// write lock, under which the caller staged `writes` (checking each
    /// one's precondition and encoding its payload). In order: mark the
    /// shard dirty **before** any revision is allocated; stage each write's
    /// WAL frame around a copy of its payload; publish the watch events,
    /// which allocates the revisions (written into `revisions`, aligned to
    /// `writes`) and moves the payloads into the journal; seal the frames
    /// with those revisions and append them in one `write`; apply the map
    /// effects. It releases the lock on return and hands back the
    /// group-commit ticket, which the caller redeems with
    /// [`ObjectStore::wait_durable`] once it holds no lock at all.
    /// Publishing and mapping under the one lock is what lets an
    /// initial-list scan pair a journal cursor with a consistent view of the
    /// store (see `docs/watch-plane.md`); appending under it keeps the
    /// on-disk per-key order the in-memory one.
    fn commit<W>(
        &self,
        shard_no: usize,
        mut shard: RwLockWriteGuard<'_, Shard>,
        mut writes: W,
        revisions: &mut [u64],
    ) -> Option<GroupTicket>
    where
        W: AsMut<[Write]> + IntoIterator<Item = Write>,
    {
        self.mark_dirty(shard_no);
        let frames = self.wal.as_ref().map(|_| {
            let staged = writes.as_mut();
            let bytes = staged.iter().map(|write| write.payload.len()).sum();
            let mut frames = Frames::with_capacity(staged.len(), bytes);
            for write in staged.iter() {
                frames.push(&write.payload, write.object.is_some());
            }
            frames
        });
        let events = writes.as_mut().iter_mut().map(|write| {
            let Write {
                key: (kind, namespace, name),
                op,
                body,
                payload,
                ..
            } = write;
            StagedEvent::new(*kind, *op, namespace, name, body, std::mem::take(payload))
        });
        self.journals.publish(&self.revision, events, revisions);
        let ticket = self.wal.as_ref().zip(frames).and_then(|(wal, mut frames)| {
            frames.seal(revisions);
            wal.append_frames(frames)
        });
        for (write, &resource_version) in writes.into_iter().zip(&*revisions) {
            match write.object {
                Some(object) => {
                    shard.insert(write.key, StoredObject::shared(object, resource_version));
                }
                None => {
                    shard.remove(&write.key);
                }
            }
        }
        ticket
    }

    /// Redeem a commit's group-commit ticket: return once an fsync covers
    /// its frames, or the WAL has left `Healthy`. Callers hold no lock here,
    /// so a stalled fsync blocks only the writers waiting on it.
    fn wait_durable(&self, ticket: Option<GroupTicket>) {
        if let (Some(wal), Some(ticket)) = (&self.wal, ticket) {
            wal.group_commit(ticket);
        }
    }

    /// Store `object` when `admit(exists)` allows it — the body of
    /// `create`, `update` and `upsert`. Returns the new resource version and
    /// whether the write created the key.
    fn put(&self, object: K8sObject, admit: fn(bool) -> bool) -> Option<(u64, bool)> {
        let key = key_of(&object);
        let shard_no = shard_index(&key);
        let shard = self.shards[shard_no].write();
        let exists = shard.contains_key(&key);
        if !admit(exists) {
            return None;
        }
        let mut revision = [0];
        let write = Write::put(key, exists, object);
        let ticket = self.commit(shard_no, shard, [write], &mut revision);
        self.wait_durable(ticket);
        Some((revision[0], !exists))
    }

    /// Claim the dirty shards for a checkpoint: atomically swap every flag
    /// to clean and return the indexes that were dirty (also recorded as
    /// the `checkpoint_dirty_shards` health counter). The caller **must**
    /// have read its checkpoint horizon *before* calling this — that
    /// read-then-swap order is half of the no-lost-writes argument (the
    /// flag is set under the shard lock *before* the revision allocates,
    /// so a revision covered by the horizon is always either clean or
    /// claimed); the other half is
    /// [`ObjectStore::remark_dirty`] on any failure, so an aborted
    /// checkpoint never launders a shard clean.
    pub fn take_dirty_shards(&self) -> Vec<usize> {
        let claimed: Vec<usize> = (0..SHARDS)
            .filter(|&shard_no| self.dirty[shard_no].swap(false, Ordering::AcqRel))
            .collect();
        self.last_checkpoint_dirty
            .store(claimed.len(), Ordering::Relaxed);
        claimed
    }

    /// Return claimed shards to the dirty set after a failed checkpoint
    /// attempt (their segments were not durably rewritten).
    pub fn remark_dirty(&self, shards: &[usize]) {
        for &shard_no in shards {
            self.mark_dirty(shard_no);
        }
    }

    /// Every stored object of one shard, in key order — what an
    /// incremental checkpoint writes into that shard's segment file.
    pub fn snapshot_shard(&self, shard_no: usize) -> Vec<Arc<StoredObject>> {
        self.shards[shard_no]
            .read()
            .values()
            .map(Arc::clone)
            .collect()
    }
}

impl StoreBackend for ObjectStore {
    fn ingest(&self, body: &Arc<Value>) -> k8s_model::Result<K8sObject> {
        // Zero-copy: the stored object holds the request's parsed tree.
        K8sObject::from_shared(Arc::clone(body))
    }

    /// The object is **moved** behind the stored handle — its body keeps
    /// sharing whatever tree admission handed in.
    fn create(&self, object: K8sObject) -> Option<u64> {
        Some(self.put(object, |exists| !exists)?.0)
    }

    fn update(&self, object: K8sObject) -> Option<u64> {
        Some(self.put(object, |exists| exists)?.0)
    }

    /// The `kubectl apply` behaviour: one shard lock, no re-admission round
    /// trip for the create-on-conflict path.
    fn upsert(&self, object: K8sObject) -> (u64, bool) {
        self.put(object, |_| true)
            .expect("an upsert admits every write")
    }

    /// Returns a shared handle — no part of the document tree is copied —
    /// and allocates nothing: the shard is probed with the borrowed parts.
    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        let probe = (kind, namespace, name);
        self.shards[shard_index_raw(kind.index(), namespace, name)]
            .read()
            .get(&probe as &dyn KeyView)
            .map(Arc::clone)
    }

    /// The published `Deleted` event carries the object's last stored tree.
    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        let key = (kind, namespace.to_owned(), name.to_owned());
        let shard_no = shard_index(&key);
        let shard = self.shards[shard_no].write();
        let stored = Arc::clone(shard.get(&key)?);
        let ticket = self.commit(shard_no, shard, [Write::delete(key, &stored)], &mut [0]);
        self.wait_durable(ticket);
        Some(stored)
    }

    /// Objects come back in key order, as the unsharded store returned them.
    /// Each shard is **range-scanned from the first matching key** and the
    /// scan decides membership on keys alone, cloning handles for the
    /// matches — values of skipped entries are never touched, and no tree is
    /// copied for the returned ones either.
    fn list(&self, kind: ResourceKind, namespace: &str) -> Vec<Arc<StoredObject>> {
        let lower = list_lower_bound(kind, namespace);
        let mut out: Vec<Arc<StoredObject>> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read();
            out.extend(
                guard
                    .range::<Key, _>((Bound::Included(&lower), Bound::Unbounded))
                    .take_while(|(key, _)| list_key_matches(key, kind, namespace))
                    .map(|(_, stored)| Arc::clone(stored)),
            );
        }
        // Key order across shards; the key is derivable from the object, so
        // nothing beyond the handles collected above is allocated.
        out.sort_by(|a, b| {
            (a.object.kind(), a.object.namespace(), a.object.name()).cmp(&(
                b.object.kind(),
                b.object.namespace(),
                b.object.name(),
            ))
        });
        out
    }

    /// Per store shard, the matching keys are range-scanned under the
    /// shard's write lock and committed as one batch of `Deleted` writes,
    /// each event carrying the object's last stored tree — so a racing
    /// re-create of the same name is guaranteed a later revision than the
    /// deletion it follows. Waits for durability once, after the last lock
    /// is released.
    fn delete_collection(&self, kind: ResourceKind, namespace: &str) -> usize {
        let lower = list_lower_bound(kind, namespace);
        let mut deleted = 0;
        let mut ticket = None;
        for (shard_no, shard) in self.shards.iter().enumerate() {
            let guard = shard.write();
            let writes: Vec<Write> = guard
                .range::<Key, _>((Bound::Included(&lower), Bound::Unbounded))
                .take_while(|(key, _)| list_key_matches(key, kind, namespace))
                .map(|(key, stored)| Write::delete(key.clone(), stored))
                .collect();
            if writes.is_empty() {
                continue;
            }
            deleted += writes.len();
            let mut revisions = vec![0; writes.len()];
            let committed = self.commit(shard_no, guard, writes, &mut revisions);
            ticket = GroupTicket::merge(ticket, committed);
        }
        self.wait_durable(ticket);
        deleted
    }

    /// Grouped by store shard: each group is staged under its shard's write
    /// lock (in-batch earlier writes to the same key count as existing) and
    /// committed in one critical section — one journal entry per touched
    /// sub-shard, one WAL append — and the batch waits for durability once,
    /// after the last lock is released.
    fn apply_batch(&self, objects: Vec<K8sObject>) -> Vec<(u64, bool)> {
        let mut results = vec![(0u64, false); objects.len()];
        let mut groups: Vec<Vec<(usize, K8sObject)>> = Vec::new();
        groups.resize_with(SHARDS, Vec::new);
        for (index, object) in objects.into_iter().enumerate() {
            groups[shard_index(&key_of(&object))].push((index, object));
        }
        let mut ticket = None;
        for (shard_no, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = self.shards[shard_no].write();
            let mut writes: Vec<Write> = Vec::with_capacity(group.len());
            let mut slots = Vec::with_capacity(group.len());
            for (index, object) in group {
                let key = key_of(&object);
                // Same-key events share a sub-shard, so their revisions are
                // assigned in batch order: the last write wins in the map
                // AND carries the highest version.
                let exists = shard.contains_key(&key) || writes.iter().any(|w| w.key == key);
                slots.push((index, !exists));
                writes.push(Write::put(key, exists, object));
            }
            let mut revisions = vec![0; writes.len()];
            let committed = self.commit(shard_no, shard, writes, &mut revisions);
            ticket = GroupTicket::merge(ticket, committed);
            for ((index, created), revision) in slots.into_iter().zip(revisions) {
                results[index] = (revision, created);
            }
        }
        self.wait_durable(ticket);
        results
    }

    /// Zero-copy while a tree lives: an event hands out the stored tree
    /// itself, and decodes the journal's bytes only for a superseded version
    /// nothing holds any more.
    fn events_since(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
    ) -> Result<WatchDelta, WatchError> {
        self.journals
            .events_since(&self.revision, kind, namespace, revision)
    }

    fn watch_revision(&self, kind: ResourceKind) -> u64 {
        self.journals.watch_revision(kind)
    }

    fn subscribe(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
        capacity: usize,
    ) -> Result<WatchSubscriber, WatchError> {
        self.journals.subscribe(kind, namespace, revision, capacity)
    }

    fn watch_generation(&self, kind: ResourceKind, namespace: &str) -> u64 {
        self.journals.scope_revision(kind, namespace)
    }

    fn wait_for_watch(
        &self,
        kind: ResourceKind,
        namespace: &str,
        seen: u64,
        timeout: std::time::Duration,
    ) -> u64 {
        self.journals.wait_past(kind, namespace, seen, timeout)
    }

    fn revision(&self) -> u64 {
        ObjectStore::revision(self)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.read().is_empty())
    }

    fn count_by_kind(&self) -> BTreeMap<ResourceKind, usize> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for ((kind, _, _), _) in shard.read().iter() {
                *out.entry(*kind).or_insert(0) += 1;
            }
        }
        out
    }

    /// Inserts bypass the journal and the WAL (replay must not re-log
    /// itself); the revision counter and the journals' compaction horizon
    /// are advanced to the recovered revision.
    fn restore(&self, objects: Vec<StoredObject>, revision: u64) {
        let mut floor = revision;
        for stored in objects {
            floor = floor.max(stored.resource_version);
            let key = key_of(&stored.object);
            self.shards[shard_index(&key)]
                .write()
                .insert(key, Arc::new(stored));
        }
        self.revision.fetch_max(floor, Ordering::Relaxed);
        self.journals.restore_horizon(floor);
        // Boot-conservative: the first checkpoint after a restore rewrites
        // every shard, so its correctness never depends on what segments
        // the on-disk manifest happened to list.
        for shard_no in 0..SHARDS {
            self.mark_dirty(shard_no);
        }
    }

    fn durability(&self) -> DurabilityStatus {
        match &self.wal {
            Some(wal) => wal.status(),
            None => DurabilityStatus::in_memory(),
        }
    }

    fn durability_state(&self) -> DurabilityState {
        match &self.wal {
            Some(wal) => wal.state(),
            None => DurabilityState::Healthy,
        }
    }

    fn checkpoint_dirty_shards(&self) -> usize {
        self.last_checkpoint_dirty.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(kind: ResourceKind, name: &str, namespace: &str) -> K8sObject {
        K8sObject::minimal(kind, name, namespace)
    }

    #[test]
    fn create_then_get_roundtrips() {
        let store = ObjectStore::new();
        let version = store
            .create(object(ResourceKind::Service, "svc", "prod"))
            .unwrap();
        assert_eq!(version, 1);
        let stored = store.get(ResourceKind::Service, "prod", "svc").unwrap();
        assert_eq!(stored.resource_version, 1);
        assert_eq!(stored.object.name(), "svc");
    }

    #[test]
    fn reads_return_shared_handles_not_copies() {
        let store = ObjectStore::new();
        let obj = object(ResourceKind::Pod, "a", "ns");
        let tree = Arc::clone(obj.shared_body());
        store.create(obj).unwrap();
        let got = store.get(ResourceKind::Pod, "ns", "a").unwrap();
        assert!(
            Arc::ptr_eq(got.object.shared_body(), &tree),
            "get must hand back the stored tree, not a copy"
        );
        let listed = store.list(ResourceKind::Pod, "ns");
        assert_eq!(listed.len(), 1);
        assert!(Arc::ptr_eq(listed[0].object.shared_body(), &tree));
        // Both reads share the same StoredObject allocation too.
        assert!(Arc::ptr_eq(&got, &listed[0]));
        let deleted = store.delete(ResourceKind::Pod, "ns", "a").unwrap();
        assert!(Arc::ptr_eq(deleted.object.shared_body(), &tree));
    }

    #[test]
    fn create_conflicts_on_existing_objects() {
        let store = ObjectStore::new();
        assert!(store.create(object(ResourceKind::Pod, "a", "ns")).is_some());
        assert!(store.create(object(ResourceKind::Pod, "a", "ns")).is_none());
        // Same name in a different namespace or kind is fine.
        assert!(store
            .create(object(ResourceKind::Pod, "a", "other"))
            .is_some());
        assert!(store
            .create(object(ResourceKind::ConfigMap, "a", "ns"))
            .is_some());
    }

    #[test]
    fn update_requires_an_existing_object() {
        let store = ObjectStore::new();
        assert!(store.update(object(ResourceKind::Pod, "a", "ns")).is_none());
        store.create(object(ResourceKind::Pod, "a", "ns")).unwrap();
        let v2 = store.update(object(ResourceKind::Pod, "a", "ns")).unwrap();
        assert_eq!(v2, 2);
    }

    #[test]
    fn apply_upserts_and_bumps_revision() {
        let store = ObjectStore::new();
        assert_eq!(
            store.upsert(object(ResourceKind::Secret, "s", "ns")),
            (1, true)
        );
        assert_eq!(
            store.upsert(object(ResourceKind::Secret, "s", "ns")),
            (2, false)
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.revision(), 2);
    }

    #[test]
    fn delete_removes_and_reports() {
        let store = ObjectStore::new();
        store.create(object(ResourceKind::Pod, "a", "ns")).unwrap();
        assert!(store.delete(ResourceKind::Pod, "ns", "a").is_some());
        assert!(store.delete(ResourceKind::Pod, "ns", "a").is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn list_filters_by_kind_and_namespace() {
        let store = ObjectStore::new();
        store.create(object(ResourceKind::Pod, "a", "ns1")).unwrap();
        store.create(object(ResourceKind::Pod, "b", "ns1")).unwrap();
        store.create(object(ResourceKind::Pod, "c", "ns2")).unwrap();
        store
            .create(object(ResourceKind::Service, "s", "ns1"))
            .unwrap();
        assert_eq!(store.list(ResourceKind::Pod, "ns1").len(), 2);
        assert_eq!(store.list(ResourceKind::Pod, "").len(), 3);
        assert_eq!(store.list(ResourceKind::Service, "ns1").len(), 1);
        let counts = store.count_by_kind();
        assert_eq!(counts[&ResourceKind::Pod], 3);
    }

    #[test]
    fn list_returns_objects_in_key_order_across_shards() {
        let store = ObjectStore::new();
        // Enough names to land in several different shards.
        for name in ["zeta", "alpha", "mike", "kilo", "echo", "yankee", "bravo"] {
            store.create(object(ResourceKind::Pod, name, "ns")).unwrap();
        }
        let names: Vec<String> = store
            .list(ResourceKind::Pod, "ns")
            .into_iter()
            .map(|stored| stored.object.name().to_owned())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn a_borrowed_probe_orders_and_finds_as_the_owned_key() {
        let parts = [
            (ResourceKind::Pod, "", ""),
            (ResourceKind::Pod, "a", "bc"),
            (ResourceKind::Pod, "ab", "c"),
            (ResourceKind::Pod, "ab", ""),
            (ResourceKind::Deployment, "ab", "c"),
            (ResourceKind::Pod, "é", "x"),
        ];
        let owned = |(kind, namespace, name): (ResourceKind, &str, &str)| -> Key {
            (kind, namespace.to_owned(), name.to_owned())
        };
        for a in parts {
            for b in parts {
                let (probe_a, probe_b): (&dyn KeyView, &dyn KeyView) = (&a, &b);
                assert_eq!(probe_a.cmp(probe_b), owned(a).cmp(&owned(b)), "{a:?} {b:?}");
            }
        }
        let shard: Shard = parts
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                (
                    owned(key),
                    StoredObject::shared(object(ResourceKind::Pod, "p", "ns"), i as u64),
                )
            })
            .collect();
        for (i, key) in parts.iter().enumerate() {
            let found = shard
                .get(key as &dyn KeyView)
                .expect("stored under its parts");
            assert_eq!(found.resource_version, i as u64);
        }
        assert!(!shard.contains_key(&(ResourceKind::Pod, "a", "b") as &dyn KeyView));
    }

    #[test]
    fn racing_first_reads_of_a_stored_version_serve_identical_bytes() {
        // Two readers make the first read of each version at once. The one
        // that loses the race to fill the cache keeps its own rendering and
        // waits for no one's; both serve the bytes of the stored tree.
        let store = ObjectStore::new();
        let start = std::sync::Barrier::new(2);
        let replicas = kf_yaml::Path::parse("spec.replicas").unwrap();
        for round in 0..32 {
            let mut pod = object(ResourceKind::Pod, "racy", "ns");
            pod.set_field(&replicas, Value::Int(round)).unwrap();
            store.upsert(pod);
            let stored = store.get(ResourceKind::Pod, "ns", "racy").unwrap();
            for format in [kf_yaml::BodyFormat::Yaml, kf_yaml::BodyFormat::Json] {
                let get = crate::ResponseBody::Object(Arc::clone(&stored));
                let read = || {
                    start.wait();
                    get.to_wire(format)
                };
                let (a, b) = std::thread::scope(|scope| {
                    let a = scope.spawn(read);
                    let b = scope.spawn(read);
                    (a.join().unwrap(), b.join().unwrap())
                });
                let expected = match format {
                    kf_yaml::BodyFormat::Json => kf_yaml::to_json(stored.object.body()),
                    _ => kf_yaml::to_yaml(stored.object.body()),
                };
                assert_eq!(a, b, "round {round}, {format:?}");
                assert_eq!(a, expected, "round {round}, {format:?}");
                assert_eq!(stored.object.cached_wire(format), Some(expected.as_str()));
            }
            // A YAML list races the first YAML get of a new version: one
            // served before in JSON on even rounds, so both fill the slot,
            // and one never served on odd rounds, so the list may find the
            // element cached or write the item from its tree.
            pod = object(ResourceKind::Pod, "racy", "ns");
            pod.set_field(&replicas, Value::Int(round + 100)).unwrap();
            store.upsert(pod);
            let stored = store.get(ResourceKind::Pod, "ns", "racy").unwrap();
            if round % 2 == 0 {
                crate::ResponseBody::Object(Arc::clone(&stored)).to_wire(kf_yaml::BodyFormat::Json);
            }
            let get = crate::ResponseBody::Object(Arc::clone(&stored));
            let list = crate::ResponseBody::List {
                kind: "PodList".into(),
                items: vec![Arc::clone(&stored)],
            };
            let (got, listed) = std::thread::scope(|scope| {
                let got = scope.spawn(|| {
                    start.wait();
                    get.to_wire(kf_yaml::BodyFormat::Yaml)
                });
                let listed = scope.spawn(|| {
                    start.wait();
                    list.to_wire(kf_yaml::BodyFormat::Yaml)
                });
                (got.join().unwrap(), listed.join().unwrap())
            });
            assert_eq!(got, kf_yaml::to_yaml(stored.object.body()), "round {round}");
            assert_eq!(listed, kf_yaml::to_yaml(&list.to_value()), "round {round}");
            let mut element = String::new();
            kf_yaml::emit_seq_item(stored.object.body(), 2, &mut element);
            assert_eq!(stored.object.cached_yaml_item(), Some(element.as_str()));
        }
    }

    #[test]
    fn concurrent_writers_keep_unique_monotonic_versions() {
        let store = ObjectStore::new();
        let versions: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..50 {
                            let name = format!("obj-{t}-{i}");
                            mine.push(
                                store
                                    .create(object(ResourceKind::Pod, &name, "ns"))
                                    .unwrap(),
                            );
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(versions.len(), 400);
        assert_eq!(store.len(), 400);
        assert_eq!(store.revision(), 400);
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 400, "versions must be globally unique");
    }

    #[test]
    fn a_write_waits_for_its_fsync_holding_no_shard_lock() {
        // The write's group-commit fsync stalls for a second. A list issued
        // once its frame is appended must return at once, already showing
        // the write while it is not yet durable.
        use crate::persist::{PersistConfig, Persistence};
        use crate::storage_io::{FaultSchedule, FaultyIo};
        type WritePath = fn(&ObjectStore);
        let rows: [(&str, WritePath, bool); 3] = [
            (
                "upsert",
                |store| {
                    store.upsert(object(ResourceKind::Pod, "a", "ns"));
                },
                true,
            ),
            (
                "delete",
                |store| {
                    store.delete(ResourceKind::Pod, "ns", "a");
                },
                false,
            ),
            (
                "apply_batch",
                |store| {
                    store.apply_batch(vec![object(ResourceKind::Pod, "a", "ns")]);
                },
                true,
            ),
        ];
        for (name, write, present) in rows {
            let dir = std::env::temp_dir()
                .join(format!("kf-store-fsync-wait-{name}-{}", std::process::id()));
            if !present {
                // What the row deletes, written by an earlier session.
                let (store, _, _) = Persistence::open(PersistConfig::new(&dir)).expect("seed");
                store.create(object(ResourceKind::Pod, "a", "ns")).unwrap();
            }
            // Fsync 0 is the open's; fsync 1 is the write's group commit.
            let io = Arc::new(FaultyIo::over_real(
                FaultSchedule::parse("fsync@1:latency*1000000").expect("spec"),
            ));
            let (store, _persistence, _) =
                Persistence::open_with_io(PersistConfig::new(&dir), io).expect("open");
            let wal = Arc::clone(store.wal().expect("durable"));
            let target = wal.appended_revision() + 1;
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| write(&store));
                while wal.appended_revision() < target {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let listed = store.list(ResourceKind::Pod, "ns");
                let (durable, appended) = (wal.durable_revision(), wal.appended_revision());
                assert_eq!(
                    listed.is_empty(),
                    !present,
                    "{name}: the list shows the write"
                );
                assert!(
                    durable < appended,
                    "{name}: the list waited out the write's fsync \
                     (durable {durable}, appended {appended})"
                );
                writer.join().expect("writer joins");
            });
            assert_eq!(wal.durable_revision(), target, "{name}: durable on return");
            drop(store);
            std::fs::remove_dir_all(&dir).expect("remove temp dir");
        }
    }

    /// The etcd-like semantics every [`StoreBackend`] must expose, driven
    /// through the trait object the way wrappers and fakes are.
    fn exercise_backend(store: &dyn StoreBackend) {
        assert!(store.is_empty());
        assert_eq!(store.create(object(ResourceKind::Pod, "a", "ns")), Some(1));
        assert_eq!(store.create(object(ResourceKind::Pod, "a", "ns")), None);
        assert_eq!(store.update(object(ResourceKind::Pod, "a", "ns")), Some(2));
        assert_eq!(
            store.upsert(object(ResourceKind::Pod, "b", "ns")),
            (3, true)
        );
        assert_eq!(
            store.upsert(object(ResourceKind::Pod, "b", "ns")),
            (4, false)
        );
        assert_eq!(store.len(), 2);
        assert_eq!(
            store
                .get(ResourceKind::Pod, "ns", "a")
                .unwrap()
                .object
                .name(),
            "a"
        );
        assert_eq!(store.list(ResourceKind::Pod, "ns").len(), 2);
        assert_eq!(store.list(ResourceKind::Pod, "").len(), 2);
        assert_eq!(store.count_by_kind()[&ResourceKind::Pod], 2);
        assert!(store.delete(ResourceKind::Pod, "ns", "a").is_some());
        assert_eq!(store.revision(), 5);
        // One event per write, replayable in order.
        let events = store
            .events_since(ResourceKind::Pod, "ns", 0)
            .unwrap()
            .events;
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].revision < w[1].revision));
        assert_eq!(store.watch_revision(ResourceKind::Pod), 5);
        let body = Arc::new(kf_yaml::parse("kind: Pod\nmetadata:\n  name: x\n").unwrap());
        let ingested = store.ingest(&body).unwrap();
        assert_eq!(ingested.name(), "x");
    }

    #[test]
    fn both_backends_share_the_store_contract() {
        exercise_backend(&ObjectStore::new());
    }

    #[test]
    fn writes_publish_watch_events_sharing_the_stored_tree() {
        let store = ObjectStore::new();
        let obj = object(ResourceKind::Pod, "a", "ns");
        let tree = Arc::clone(obj.shared_body());
        store.create(obj).unwrap();
        store.update(object(ResourceKind::Pod, "a", "ns")).unwrap();
        store.delete(ResourceKind::Pod, "ns", "a").unwrap();
        let events = store
            .events_since(ResourceKind::Pod, "ns", 0)
            .unwrap()
            .events;
        let kinds: Vec<WatchEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                WatchEventKind::Added,
                WatchEventKind::Modified,
                WatchEventKind::Deleted
            ]
        );
        // The Added event's object is the created tree, by pointer.
        assert!(Arc::ptr_eq(events[0].object.as_ref().unwrap(), &tree));
        // Revisions are the write revisions, strictly increasing.
        assert_eq!(
            events.iter().map(|e| e.revision).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(store.watch_revision(ResourceKind::Pod), 3);
        // A cursor at the last event sees nothing new.
        assert!(store
            .events_since(ResourceKind::Pod, "ns", 3)
            .unwrap()
            .events
            .is_empty());
    }

    #[test]
    fn upsert_publishes_added_then_modified() {
        let store = ObjectStore::new();
        store.upsert(object(ResourceKind::Secret, "s", "ns"));
        store.upsert(object(ResourceKind::Secret, "s", "ns"));
        let events = store
            .events_since(ResourceKind::Secret, "ns", 0)
            .unwrap()
            .events;
        assert_eq!(events[0].kind, WatchEventKind::Added);
        assert_eq!(events[1].kind, WatchEventKind::Modified);
    }

    #[test]
    fn delete_collection_removes_everything_and_publishes_per_object() {
        let store = ObjectStore::new();
        store.create(object(ResourceKind::Pod, "a", "ns1")).unwrap();
        store.create(object(ResourceKind::Pod, "b", "ns1")).unwrap();
        store.create(object(ResourceKind::Pod, "c", "ns2")).unwrap();
        let cursor = store.watch_revision(ResourceKind::Pod);
        assert_eq!(store.delete_collection(ResourceKind::Pod, "ns1"), 2);
        assert_eq!(store.len(), 1);
        let deletions = store
            .events_since(ResourceKind::Pod, "ns1", cursor)
            .unwrap()
            .events;
        assert_eq!(deletions.len(), 2);
        assert!(deletions
            .iter()
            .all(|e| e.kind == WatchEventKind::Deleted && e.has_object()));
        // Deleting an empty collection is a no-op, not an error.
        assert_eq!(store.delete_collection(ResourceKind::Pod, "ns1"), 0);
        // All namespaces at once.
        assert_eq!(store.delete_collection(ResourceKind::Pod, ""), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn apply_batch_matches_per_object_upserts() {
        let store = ObjectStore::new();
        store
            .create(object(ResourceKind::Pod, "pre", "ns1"))
            .unwrap();
        let results = store.apply_batch(vec![
            object(ResourceKind::Pod, "a", "ns1"),
            object(ResourceKind::Pod, "pre", "ns1"),
            object(ResourceKind::Pod, "b", "ns2"),
            object(ResourceKind::Service, "s", "ns1"),
        ]);
        assert_eq!(results.len(), 4);
        // Every revision unique, continuing after the pre-existing write.
        let mut versions: Vec<u64> = results.iter().map(|(v, _)| *v).collect();
        versions.sort_unstable();
        assert_eq!(versions, vec![2, 3, 4, 5]);
        // created flags: only "pre" already existed.
        assert_eq!(
            results
                .iter()
                .map(|(_, created)| *created)
                .collect::<Vec<_>>(),
            vec![true, false, true, true]
        );
        assert_eq!(store.len(), 4);
        assert_eq!(store.revision(), 5);
        // Stored versions match the returned ones.
        for (result, (kind, ns, name)) in results.iter().zip([
            (ResourceKind::Pod, "ns1", "a"),
            (ResourceKind::Pod, "ns1", "pre"),
            (ResourceKind::Pod, "ns2", "b"),
            (ResourceKind::Service, "ns1", "s"),
        ]) {
            assert_eq!(
                store.get(kind, ns, name).unwrap().resource_version,
                result.0
            );
        }
        // The journal replays one event per batch entry, in revision order.
        let events = store.events_since(ResourceKind::Pod, "", 1).unwrap().events;
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].revision < w[1].revision));
    }

    #[test]
    fn apply_batch_orders_in_batch_duplicates_last_write_wins() {
        let store = ObjectStore::new();
        let first = object(ResourceKind::Pod, "dup", "ns");
        let second = object(ResourceKind::Pod, "dup", "ns");
        let winning_tree = Arc::clone(second.shared_body());
        let results = store.apply_batch(vec![first, second]);
        assert!(results[0].1, "first write creates");
        assert!(!results[1].1, "second write modifies");
        assert!(results[0].0 < results[1].0, "batch order assigns versions");
        let stored = store.get(ResourceKind::Pod, "ns", "dup").unwrap();
        assert_eq!(stored.resource_version, results[1].0);
        assert!(Arc::ptr_eq(stored.object.shared_body(), &winning_tree));
        // The journal saw Added then Modified.
        let events = store
            .events_since(ResourceKind::Pod, "ns", 0)
            .unwrap()
            .events;
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![WatchEventKind::Added, WatchEventKind::Modified]
        );
    }

    #[test]
    fn subscriptions_advance_their_cursor_per_poll() {
        let store = ObjectStore::new();
        let mut sub = crate::WatchSubscription::at(ResourceKind::Pod, "ns", 0);
        assert!(sub.poll(&store).unwrap().is_empty());
        store.create(object(ResourceKind::Pod, "a", "ns")).unwrap();
        store.create(object(ResourceKind::Pod, "b", "ns")).unwrap();
        assert_eq!(sub.poll(&store).unwrap().len(), 2);
        assert_eq!(sub.revision(), 2);
        // Nothing new: the cursor holds.
        assert!(sub.poll(&store).unwrap().is_empty());
        store.delete(ResourceKind::Pod, "ns", "a").unwrap();
        let events = sub.poll(&store).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::Deleted);
    }

    #[test]
    fn compacted_journals_answer_stale_cursors_with_gone() {
        let store = ObjectStore::with_journal_capacity(2);
        for name in ["a", "b", "c", "d"] {
            store.create(object(ResourceKind::Pod, name, "ns")).unwrap();
        }
        assert_eq!(
            store.events_since(ResourceKind::Pod, "ns", 0),
            Err(WatchError::Gone {
                compacted_through: 2
            })
        );
        // Recovery: re-list and resume from the list's cursor.
        let cursor = store.watch_revision(ResourceKind::Pod);
        assert_eq!(store.list(ResourceKind::Pod, "ns").len(), 4);
        assert!(store
            .events_since(ResourceKind::Pod, "ns", cursor)
            .unwrap()
            .events
            .is_empty());
    }

    #[test]
    fn quiet_namespace_subscribers_ride_the_head_past_foreign_churn() {
        // A watcher of a quiet namespace polls while another namespace of
        // the same kind churns far past the journal capacity: because every
        // poll resumes from the journal head, the cursor never falls behind
        // compaction and no spurious Gone (or re-list) is forced.
        let store = ObjectStore::with_journal_capacity(2);
        store
            .create(object(ResourceKind::Pod, "q", "quiet"))
            .unwrap();
        let mut sub = crate::WatchSubscription::at(ResourceKind::Pod, "quiet", 0);
        assert_eq!(sub.poll(&store).unwrap().len(), 1);
        for round in 0..10 {
            store
                .create(object(ResourceKind::Pod, &format!("busy-{round}"), "busy"))
                .unwrap();
            assert_eq!(
                sub.poll(&store)
                    .expect("the head cursor outruns compaction"),
                vec![],
                "foreign-namespace churn must not leak events"
            );
        }
        assert_eq!(sub.revision(), store.revision());
        // Quiet-namespace events still arrive afterwards.
        store
            .create(object(ResourceKind::Pod, "q2", "quiet"))
            .unwrap();
        assert_eq!(sub.poll(&store).unwrap().len(), 1);
    }
}
