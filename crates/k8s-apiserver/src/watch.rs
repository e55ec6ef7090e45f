//! The revision-indexed watch plane: bounded, namespace-sharded per-kind
//! event journals.
//!
//! Every store write publishes a [`WatchEvent`] into the journal of the
//! written kind, keyed by the store's global revision counter. The journal is
//! the source of truth for incremental reads: a client that knows revision
//! `R` asks for "everything after `R`" and receives exactly the writes it
//! missed, in revision order — no list, no snapshot, no polling the whole
//! collection.
//!
//! Since the write-path scale-out each per-kind journal is **sub-sharded by
//! namespace hash** ([`DEFAULT_JOURNAL_SHARDS`] sub-shards per kind, each
//! behind its own lock): same-kind writers in different namespaces no longer
//! serialize on one journal mutex, and a namespace-scoped subscriber reads
//! exactly its own sub-shard instead of filtering the whole kind's delta
//! suffix linearly. Publication is **batched**: events are fully staged
//! (strings, `Arc` clone) before any journal lock is taken, and multi-write
//! operations enter each touched sub-shard's critical section **once** for
//! the whole batch ([`KindJournals::publish_batch`]), amortizing the lock.
//! Revision allocation stays inside the journal critical section, so each
//! sub-shard remains a gapless-by-construction revision sequence.
//!
//! Two disciplines matter here, both inherited from the zero-copy
//! persistence plane:
//!
//! * **Zero copy** — a published event holds the *same* `Arc<Value>` the
//!   store holds for the object; delivering an event to any number of
//!   subscribers never copies a document tree.
//! * **Bounded memory** — each sub-shard retains at most `capacity` events.
//!   Older events are compacted away; a cursor that predates the compaction
//!   horizon of **any sub-shard it needs** gets [`WatchError::Gone`] and
//!   must re-list, exactly like a Kubernetes client receiving HTTP 410 from
//!   a compacted etcd. A namespace-scoped cursor needs only its own
//!   sub-shard, so foreign-namespace churn can no longer force a spurious
//!   re-list.
//!
//! Ordering correctness: a revision is **allocated and published under its
//! sub-shard's lock**, so every sub-shard is a strictly increasing revision
//! sequence with no gap that could be filled later; revisions are globally
//! totally ordered (one atomic counter), so a k-way **merge-on-read by
//! revision** over the sub-shards reconstructs the per-kind order exactly —
//! the merge is correct by construction. See `docs/watch-plane.md` for the
//! full argument.
//!
//! On top of the pull journals sits the **push-notify fabric**:
//! [`KindJournals::subscribe`] attaches a [`WatchSubscriber`] — a
//! per-subscriber **bounded delivery queue** fanned out to inside the
//! publication critical section. Bursty same-object writes **coalesce**
//! (last write wins, delivery order preserved); a consumer that falls more
//! than its queue bound behind is **evicted** and observes
//! [`WatchError::Gone`], funneling into the exact re-list recovery path
//! compaction already exercises. A [`WatchDispatcher`] ready-list lets a
//! handful of collector threads service tens of thousands of subscriptions
//! without a blocked thread per watcher.
//!
//! The subscriber queue is the plane's one wake mechanism. A pull watcher
//! that blocks ([`WatchSubscription::recv_timeout`]) parks on a one-shot
//! subscriber attached at its cursor ([`KindJournals::wait_past`]); the
//! subscribe contract — backfill under the sub-shard read lock, then
//! attach — is what makes a lost wakeup impossible.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use k8s_model::ResourceKind;
use kf_yaml::Value;

use crate::sync::{Condvar, Mutex, RwLock};

/// What happened to the watched object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// The object was created (or appeared in an initial listing).
    Added,
    /// The object was replaced by an update/upsert.
    Modified,
    /// The object was deleted; the event carries its last stored state.
    Deleted,
    /// A progress marker carrying only a revision, so idle watchers can
    /// advance their cursor without receiving object payloads.
    Bookmark,
}

impl WatchEventKind {
    /// The wire name of the event type (`ADDED`, `MODIFIED`, `DELETED`,
    /// `BOOKMARK`), matching the Kubernetes watch stream convention.
    pub fn as_str(&self) -> &'static str {
        match self {
            WatchEventKind::Added => "ADDED",
            WatchEventKind::Modified => "MODIFIED",
            WatchEventKind::Deleted => "DELETED",
            WatchEventKind::Bookmark => "BOOKMARK",
        }
    }
}

impl fmt::Display for WatchEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One incremental change to a watched collection.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// What happened.
    pub kind: WatchEventKind,
    /// The global store revision assigned to the write (for bookmarks: the
    /// cursor the client should resume from).
    pub revision: u64,
    /// Namespace of the affected object (empty for cluster-scoped kinds and
    /// bookmarks).
    pub namespace: String,
    /// Name of the affected object (empty for bookmarks).
    pub name: String,
    /// The object as stored at this revision (for `Deleted`: its last stored
    /// state). On the zero-copy plane this is **the** stored tree — the same
    /// `Arc<Value>` the store and every read share. `None` for bookmarks.
    pub object: Option<Arc<Value>>,
}

impl WatchEvent {
    /// A bookmark event: no object, just a safe resume revision.
    pub fn bookmark(revision: u64) -> Self {
        WatchEvent {
            kind: WatchEventKind::Bookmark,
            revision,
            namespace: String::new(),
            name: String::new(),
            object: None,
        }
    }

    /// Whether this event carries an object payload (everything but
    /// bookmarks).
    pub fn has_object(&self) -> bool {
        self.object.is_some()
    }
}

/// One delivered batch of journal events plus the safe resume cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchDelta {
    /// The matching events after the requested cursor, in revision order.
    pub events: Vec<WatchEvent>,
    /// The global revision counter at delivery time (never below the
    /// requested cursor), read while the scanned sub-shards are locked so
    /// no matching event `<=` it can be published afterwards. Resuming from
    /// here is lossless: every revision between the last delivered event
    /// and this value either failed the namespace filter or belongs to
    /// another kind or sub-shard — which is what lets a quiet-namespace
    /// watcher on a busy kind ride bookmarks past foreign churn instead of
    /// falling behind the compaction horizon.
    pub resume: u64,
}

/// Why an incremental read could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchError {
    /// The requested cursor predates the compaction horizon of a journal
    /// sub-shard the read needs: some events after it have been dropped, so
    /// the only consistent recovery is a fresh list (initial watch) and a
    /// new cursor. `compacted_through` is the highest revision that is no
    /// longer replayable.
    Gone {
        /// Highest revision dropped by compaction among the needed
        /// sub-shards; cursors `>=` this value are still servable.
        compacted_through: u64,
    },
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::Gone { compacted_through } => write!(
                f,
                "watch cursor predates the compacted journal (compacted through revision \
                 {compacted_through}); re-list and resume"
            ),
        }
    }
}

/// Default per-sub-shard journal capacity: enough to absorb the bursts the
/// throughput drivers generate between reconcile ticks, small enough that a
/// store never holds more than a few thousand event envelopes per sub-shard
/// (the envelopes are handles — the trees they point at live in the store
/// anyway).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Default number of namespace sub-shards per kind journal. A small power of
/// two: enough to spread the operator workloads' namespaces so same-kind
/// writers in different namespaces do not serialize on one lock, cheap to
/// merge on an all-namespaces read.
pub const DEFAULT_JOURNAL_SHARDS: usize = 8;

/// The journal sub-shard a namespace's events land in (and the only
/// sub-shard a namespace-scoped subscriber ever reads). Exposed so tests can
/// construct namespaces that collide or diverge deliberately.
pub fn namespace_shard(namespace: &str, shard_count: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    namespace.hash(&mut hasher);
    (hasher.finish() as usize) % shard_count.max(1)
}

/// Default bound on a push subscriber's delivery queue. Coalescing keeps the
/// live entry count at or below the working set of distinct objects churning
/// in the subscription's scope, so this bound is hit only by a consumer that
/// is genuinely not draining — which is exactly when eviction (→ re-list)
/// beats unbounded buffering.
pub const DEFAULT_SUBSCRIBER_QUEUE_CAPACITY: usize = 256;

/// The ready-list shared by a [`WatchDispatcher`] and the subscribers
/// registered with it: tokens of subscriptions that transitioned from empty
/// to non-empty (or got evicted) and have not been drained since.
#[derive(Debug, Default)]
struct ReadyList {
    queue: Mutex<VecDeque<usize>>,
    cond: Condvar,
}

impl ReadyList {
    fn push(&self, token: usize) {
        self.queue.lock().push_back(token);
        self.cond.notify_one();
    }

    fn pop(&self, timeout: Duration) -> Option<usize> {
        let queue = self.queue.lock();
        let (mut queue, _) = self
            .cond
            .wait_timeout_while(queue, timeout, |queue| queue.is_empty());
        queue.pop_front()
    }
}

/// An epoll-style readiness multiplexer over push subscriptions: register
/// each [`WatchSubscriber`] under a caller-chosen token, then have a small
/// pool of collector threads loop on [`WatchDispatcher::next_ready`] and
/// drain whichever subscription became ready. This is what lets 10k idle
/// informers cost zero threads and zero polls — a subscription only ever
/// surfaces here when its queue went non-empty or it was evicted.
#[derive(Debug, Default)]
pub struct WatchDispatcher {
    ready: Arc<ReadyList>,
}

impl WatchDispatcher {
    /// An empty dispatcher: register subscriptions, then collect readiness.
    pub fn new() -> Self {
        WatchDispatcher::default()
    }

    /// Arm readiness notification for `subscriber` under `token`. If the
    /// queue already holds events (or the subscriber is already evicted) the
    /// token is surfaced immediately, so registration after a burst cannot
    /// strand the backlog.
    pub fn register(&self, subscriber: &WatchSubscriber, token: usize) {
        let mut state = subscriber.core.state.lock();
        state.waker = Some((Arc::clone(&self.ready), token));
        if (state.live > 0 || state.evicted.is_some()) && !state.ready_armed {
            state.ready_armed = true;
            self.ready.push(token);
        }
    }

    /// Block up to `timeout` for the next ready token. `None` on timeout.
    /// After draining the returned subscription (`try_recv`), its next
    /// empty→non-empty transition re-surfaces it.
    pub fn next_ready(&self, timeout: Duration) -> Option<usize> {
        self.ready.pop(timeout)
    }
}

#[derive(Debug, Default)]
struct SubscriberState {
    /// The delivery queue, in per-sub-shard revision order. `None` slots are
    /// tombstones left by coalescing: when a newer event for the same object
    /// arrives, the stale slot is tombstoned and the newest appended at the
    /// tail — last write wins *and* the queue stays revision-sorted.
    slots: VecDeque<Option<WatchEvent>>,
    /// Sequence number of `slots[0]`; `index` maps object keys to absolute
    /// sequences so a coalesce hit finds its stale slot in O(1).
    base_seq: u64,
    /// Live (non-tombstone) entries — the value the queue bound applies to.
    live: usize,
    index: HashMap<(String, String), u64>,
    /// Set when the subscriber fell behind its bound and was evicted; holds
    /// the last revision fanned out before eviction. Drains return
    /// [`WatchError::Gone`] from then on.
    evicted: Option<u64>,
    /// Highest revision offered to this subscriber (starts at the subscribe
    /// cursor) — the resume point a drained-and-idle consumer has reached.
    resume: u64,
    /// The receiving handle was dropped; publication prunes us on sight.
    closed: bool,
    waker: Option<(Arc<ReadyList>, usize)>,
    /// A ready token is outstanding: set on surface, cleared on drain, so a
    /// burst of offers costs one token, not one per event.
    ready_armed: bool,
    /// Delivery counters (drained events / coalesced replacements), for
    /// benches and tests.
    delivered: u64,
    coalesced: u64,
}

/// The shared half of one push subscription: the hub fans events in under
/// the publication critical section, the [`WatchSubscriber`] handle drains
/// them out.
#[derive(Debug)]
struct SubscriberCore {
    /// Namespace filter (empty: all namespaces of the kind).
    namespace: String,
    /// Bound on live queue entries before the slow consumer is evicted.
    capacity: usize,
    state: Mutex<SubscriberState>,
    cond: Condvar,
}

impl SubscriberCore {
    fn new(namespace: &str, cursor: u64, capacity: usize) -> Self {
        SubscriberCore {
            namespace: namespace.to_owned(),
            capacity: capacity.max(1),
            state: Mutex::new(SubscriberState {
                resume: cursor,
                ..SubscriberState::default()
            }),
            cond: Condvar::default(),
        }
    }

    /// Surface readiness: wake a blocked `recv` and (once per drain cycle)
    /// push our token onto the dispatcher's ready-list.
    fn wake(&self, state: &mut SubscriberState) {
        self.cond.notify_all();
        if let Some((ready, token)) = &state.waker {
            if !state.ready_armed {
                state.ready_armed = true;
                ready.push(*token);
            }
        }
    }

    /// Fan one published event into the queue. Returns `false` when the
    /// receiving handle is gone and the hub should prune this subscriber.
    /// Runs inside the publication critical section, so delivery order per
    /// sub-shard is exactly publication order.
    fn offer(&self, event: &WatchEvent) -> bool {
        if !self.namespace.is_empty() && event.namespace != self.namespace {
            return true;
        }
        let mut state = self.state.lock();
        if state.closed {
            return false;
        }
        if state.evicted.is_some() {
            // Already evicted; stay registered (the handle still needs to
            // observe Gone) but drop the event — the re-list will cover it.
            return true;
        }
        state.resume = state.resume.max(event.revision);
        let key = (event.namespace.clone(), event.name.clone());
        let was_idle = state.live == 0;
        if let Some(&seq) = state.index.get(&key) {
            // Coalesce: tombstone the stale slot, append the newest at the
            // tail. The consumer sees one event — the latest — for this
            // object, still in revision order relative to everything else.
            let slot = (seq - state.base_seq) as usize;
            state.slots[slot] = None;
            state.live -= 1;
            state.coalesced += 1;
        } else if state.live == self.capacity {
            // Slow consumer: the queue bound is the contract. Drop the
            // backlog, record the horizon, and let the drain surface Gone —
            // the same re-list recovery compaction already exercises.
            let horizon = state.resume;
            state.evicted = Some(horizon);
            state.slots.clear();
            state.index.clear();
            state.live = 0;
            self.wake(&mut state);
            return true;
        }
        let seq = state.base_seq + state.slots.len() as u64;
        state.index.insert(key, seq);
        state.slots.push_back(Some(event.clone()));
        state.live += 1;
        // Bound the tombstone overhead: when dead slots dominate, rebuild
        // the queue densely so memory tracks `live`, not burst history.
        if state.slots.len() > state.live.max(self.capacity).saturating_mul(2) {
            Self::compact(&mut state);
        }
        if was_idle {
            self.wake(&mut state);
        }
        true
    }

    /// Drop tombstones and renumber. O(live) and amortized free: it runs at
    /// most once per `capacity` tombstoned offers.
    fn compact(state: &mut SubscriberState) {
        let dense: VecDeque<Option<WatchEvent>> = state
            .slots
            .drain(..)
            .filter(|slot| slot.is_some())
            .collect();
        state.slots = dense;
        state.base_seq = 0;
        state.index.clear();
        for (slot, event) in state.slots.iter().enumerate() {
            let event = event.as_ref().expect("dense after compaction");
            state
                .index
                .insert((event.namespace.clone(), event.name.clone()), slot as u64);
        }
    }

    /// Take everything queued (possibly empty), or `Gone` after eviction.
    fn drain(&self) -> Result<Vec<WatchEvent>, WatchError> {
        let mut state = self.state.lock();
        Self::drain_locked(&mut state)
    }

    fn drain_locked(state: &mut SubscriberState) -> Result<Vec<WatchEvent>, WatchError> {
        state.ready_armed = false;
        if let Some(compacted_through) = state.evicted {
            return Err(WatchError::Gone { compacted_through });
        }
        let drained = state.slots.len() as u64;
        let events: Vec<WatchEvent> = state.slots.drain(..).flatten().collect();
        state.base_seq += drained;
        state.index.clear();
        state.live = 0;
        state.delivered += events.len() as u64;
        Ok(events)
    }

    fn close(&self) {
        self.state.lock().closed = true;
    }
}

/// The receiving handle of one push subscription, returned by
/// `StoreBackend::subscribe`. Events published after the subscribe cursor
/// are fanned into its bounded queue inside the publication critical
/// section; the consumer blocks in [`WatchSubscriber::recv_timeout`] (or
/// multiplexes through a [`WatchDispatcher`]) instead of polling.
///
/// Dropping the handle detaches the subscription: the hub prunes it on the
/// next fan-out that touches it.
#[derive(Debug)]
pub struct WatchSubscriber {
    core: Arc<SubscriberCore>,
    kind: ResourceKind,
}

impl WatchSubscriber {
    /// The subscribed kind.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The namespace filter (empty: all namespaces).
    pub fn namespace(&self) -> &str {
        &self.core.namespace
    }

    /// Highest revision offered so far (starts at the subscribe cursor).
    /// Diagnostic: after `Gone` the only consistent recovery is a re-list,
    /// not a resume from here.
    pub fn resume(&self) -> u64 {
        self.core.state.lock().resume
    }

    /// Whether the subscription was evicted as a slow consumer.
    pub fn is_evicted(&self) -> bool {
        self.core.state.lock().evicted.is_some()
    }

    /// How many events offers replaced via same-object coalescing.
    pub fn coalesced(&self) -> u64 {
        self.core.state.lock().coalesced
    }

    /// How many events drains have handed out.
    pub fn delivered(&self) -> u64 {
        self.core.state.lock().delivered
    }

    /// Everything queued right now, without blocking (possibly empty).
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] once the subscription has been evicted as a slow
    /// consumer; re-list and subscribe afresh.
    pub fn try_recv(&self) -> Result<Vec<WatchEvent>, WatchError> {
        self.core.drain()
    }

    /// Block until events arrive (or eviction), up to `timeout`; an empty
    /// batch means the timeout elapsed with nothing published.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] once the subscription has been evicted.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<WatchEvent>, WatchError> {
        let state = self.core.state.lock();
        let (mut state, _) = self.core.cond.wait_timeout_while(state, timeout, |state| {
            state.evicted.is_none() && state.live == 0
        });
        SubscriberCore::drain_locked(&mut state)
    }

    /// Block until events arrive or the subscription is evicted.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] once the subscription has been evicted.
    pub fn recv(&self) -> Result<Vec<WatchEvent>, WatchError> {
        loop {
            let batch = self.recv_timeout(Duration::from_secs(60))?;
            if !batch.is_empty() {
                return Ok(batch);
            }
        }
    }
}

impl Drop for WatchSubscriber {
    fn drop(&mut self) {
        self.core.close();
    }
}

/// A fully-built event envelope waiting for its revision. Everything
/// allocation-heavy — the namespace/name strings and the `Arc` clone —
/// happens **before** any journal lock is taken, so the journal critical
/// section is down to revision allocation and two deque operations.
#[derive(Debug)]
pub(crate) struct StagedEvent {
    kind: ResourceKind,
    event: WatchEventKind,
    namespace: String,
    name: String,
    object: Arc<Value>,
}

impl StagedEvent {
    pub(crate) fn new(
        kind: ResourceKind,
        event: WatchEventKind,
        namespace: &str,
        name: &str,
        object: &Arc<Value>,
    ) -> Self {
        StagedEvent {
            kind,
            event,
            namespace: namespace.to_owned(),
            name: name.to_owned(),
            object: Arc::clone(object),
        }
    }

    fn into_event(self, revision: u64) -> WatchEvent {
        WatchEvent {
            kind: self.event,
            revision,
            namespace: self.namespace,
            name: self.name,
            object: Some(self.object),
        }
    }
}

/// One sub-shard's bounded event journal.
#[derive(Debug, Default)]
struct JournalInner {
    events: VecDeque<WatchEvent>,
    /// Highest revision dropped by compaction (0: nothing dropped yet).
    compacted_through: u64,
    /// Highest revision ever published to this sub-shard (0: none yet).
    last_revision: u64,
}

impl JournalInner {
    /// Index of the first retained event with revision strictly greater
    /// than `cursor`. The sub-shard is sorted by revision, so the resume
    /// point is binary-searched: an up-to-date subscriber pays for its
    /// deltas, not for the whole retained ring.
    fn suffix_start(&self, cursor: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.events.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.events[mid].revision <= cursor {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The per-kind, namespace-sub-sharded journals behind a store:
/// `ResourceKind::COUNT * shard_count` bounded buffers, each guarded by its
/// own lock, so watch traffic on one kind never contends with writes to
/// another — and same-kind writes to different namespaces do not contend
/// either.
#[derive(Debug)]
pub(crate) struct KindJournals {
    /// Read-write locks, flat-indexed `kind.index() * shard_count +
    /// namespace_shard(ns)`: only publication mutates a sub-shard, so
    /// concurrent subscribers drain deltas in parallel and contend with
    /// writers only for the lock itself.
    shards: Vec<RwLock<JournalInner>>,
    /// Push subscribers attached per sub-shard (same flat indexing).
    /// Publication fans each event into these queues inside the sub-shard's
    /// critical section; registration happens under the sub-shard's *read*
    /// lock, which excludes publication, so no event can slip between a
    /// subscriber's backfill and its attachment.
    subscribers: Vec<Mutex<Vec<Arc<SubscriberCore>>>>,
    shard_count: usize,
    capacity: usize,
}

impl KindJournals {
    pub(crate) fn new(capacity: usize, shard_count: usize) -> Self {
        assert!(capacity > 0, "journals need room for at least one event");
        assert!(shard_count > 0, "journals need at least one sub-shard");
        KindJournals {
            shards: (0..ResourceKind::COUNT * shard_count)
                .map(|_| RwLock::new(JournalInner::default()))
                .collect(),
            subscribers: (0..ResourceKind::COUNT * shard_count)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            shard_count,
            capacity,
        }
    }

    fn shard_index(&self, kind: ResourceKind, namespace: &str) -> usize {
        kind.index() * self.shard_count + namespace_shard(namespace, self.shard_count)
    }

    fn shard_of(&self, kind: ResourceKind, namespace: &str) -> &RwLock<JournalInner> {
        &self.shards[self.shard_index(kind, namespace)]
    }

    /// Fan one freshly published event into every push subscriber attached
    /// to its sub-shard, pruning subscribers whose handles were dropped.
    /// Runs inside the sub-shard's publication critical section, so each
    /// queue receives its sub-shard's events in exact publication order.
    fn fan_out(&self, shard_index: usize, event: &WatchEvent) {
        let mut list = self.subscribers[shard_index].lock();
        if list.is_empty() {
            return;
        }
        list.retain(|subscriber| subscriber.offer(event));
    }

    /// All sub-shards of one kind, in sub-shard order.
    fn kind_shards(&self, kind: ResourceKind) -> &[RwLock<JournalInner>] {
        let start = kind.index() * self.shard_count;
        &self.shards[start..start + self.shard_count]
    }

    /// Allocate the next global revision, fan the event into the sub-shard's
    /// push subscribers, and append it to the journal — all under the
    /// sub-shard's (already held) write lock. This is the linchpin of watch
    /// correctness: because allocation happens inside the critical section,
    /// each sub-shard is a gapless-by-construction revision sequence — no
    /// event with a smaller revision can appear after a larger one has been
    /// observed there — and every push queue receives its sub-shard's events
    /// in that same order.
    fn push_locked(
        &self,
        inner: &mut JournalInner,
        shard_index: usize,
        revision: &AtomicU64,
        staged: StagedEvent,
    ) -> u64 {
        // `AcqRel` (not `Relaxed`) so every allocation continues the
        // counter's release sequence: a thread that acquire-loads the
        // counter afterwards (the checkpoint horizon read) observes
        // everything sequenced before *any* allocation at or below the
        // loaded value — which is what makes the store's dirty-shard flags
        // (set before allocating) reliable under an incremental checkpoint.
        let assigned = revision.fetch_add(1, Ordering::AcqRel) + 1;
        let event = staged.into_event(assigned);
        self.fan_out(shard_index, &event);
        if inner.events.len() == self.capacity {
            let dropped = inner.events.pop_front().expect("capacity > 0");
            inner.compacted_through = dropped.revision;
        }
        inner.events.push_back(event);
        inner.last_revision = assigned;
        assigned
    }

    /// Publish one staged event, allocating its revision and fanning it
    /// out inside its sub-shard's critical section.
    ///
    /// Must be called while holding the written object's store-shard lock
    /// (see the store write paths), so an initial-list scan that starts
    /// after a published revision is guaranteed to observe the map effect
    /// too.
    pub(crate) fn publish(&self, revision: &AtomicU64, staged: StagedEvent) -> u64 {
        let shard_index = self.shard_index(staged.kind, &staged.namespace);
        let mut inner = self.shards[shard_index].write();
        self.push_locked(&mut inner, shard_index, revision, staged)
    }

    /// Publish a batch of staged events, entering each touched sub-shard's
    /// critical section **once** for its whole group — the lock is paid per
    /// sub-shard, not per event. Returns the assigned revisions aligned to
    /// the input order. Events for the same object stay in input order (one
    /// object maps to one sub-shard); across sub-shards the revisions of a
    /// batch may interleave, which the total revision order absorbs.
    ///
    /// The same store-shard-lock contract as [`KindJournals::publish`]
    /// applies.
    pub(crate) fn publish_batch(&self, revision: &AtomicU64, staged: Vec<StagedEvent>) -> Vec<u64> {
        let mut assigned = vec![0u64; staged.len()];
        // Group input indices by sub-shard, preserving relative order.
        let mut groups: Vec<Vec<(usize, StagedEvent)>> = Vec::new();
        groups.resize_with(self.shard_count, Vec::new);
        let mut kind: Option<ResourceKind> = None;
        for (index, event) in staged.into_iter().enumerate() {
            // Batches may span kinds; re-bucket lazily per kind run. The
            // common callers (delete_collection, apply_batch groups) stay
            // single-kind, so this loop almost never flushes early.
            if kind.is_some_and(|k| k != event.kind) {
                self.flush_groups(revision, kind.expect("checked"), &mut groups, &mut assigned);
            }
            kind = Some(event.kind);
            groups[namespace_shard(&event.namespace, self.shard_count)].push((index, event));
        }
        if let Some(kind) = kind {
            self.flush_groups(revision, kind, &mut groups, &mut assigned);
        }
        assigned
    }

    fn flush_groups(
        &self,
        revision: &AtomicU64,
        kind: ResourceKind,
        groups: &mut [Vec<(usize, StagedEvent)>],
        assigned: &mut [u64],
    ) {
        let start = kind.index() * self.shard_count;
        for (shard, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            // One critical-section entry for the whole group.
            let mut inner = self.shards[start + shard].write();
            for (index, event) in group.drain(..) {
                assigned[index] = self.push_locked(&mut inner, start + shard, revision, event);
            }
        }
    }

    /// Every event of `kind` with revision strictly greater than `cursor`,
    /// restricted to `namespace` when non-empty, in revision order —
    /// together with the resume cursor ([`WatchDelta`]).
    ///
    /// A namespace-scoped read locks and scans **only its own sub-shard**
    /// (the fix for the old linear namespace filter over the whole delta
    /// suffix); an all-namespaces read locks every sub-shard of the kind at
    /// once and k-way-merges their suffixes by revision — correct by
    /// construction because revisions are globally totally ordered. The
    /// resume cursor is the global revision counter read while the scanned
    /// sub-shards are locked: any event published later (to any scanned
    /// sub-shard) must allocate a strictly larger revision. Delivered events
    /// are the journal's own handles — no tree is copied.
    ///
    /// This stays a read of its own rather than a one-shot subscriber
    /// drain: a subscriber queue coalesces same-object events and orders
    /// them per sub-shard only, while a pull watch must return every event
    /// in global revision order.
    pub(crate) fn events_since(
        &self,
        revision: &AtomicU64,
        kind: ResourceKind,
        namespace: &str,
        cursor: u64,
    ) -> Result<WatchDelta, WatchError> {
        if !namespace.is_empty() {
            // Namespace-scoped: exactly one sub-shard holds every event of
            // this namespace, so only it is locked, searched and filtered
            // (the filter now runs over same-sub-shard neighbours only).
            let inner = self.shard_of(kind, namespace).read();
            if cursor < inner.compacted_through {
                return Err(WatchError::Gone {
                    compacted_through: inner.compacted_through,
                });
            }
            let events = inner
                .events
                .range(inner.suffix_start(cursor)..)
                .filter(|event| event.namespace == namespace)
                .cloned()
                .collect();
            return Ok(WatchDelta {
                events,
                resume: cursor.max(revision.load(Ordering::Relaxed)),
            });
        }
        // All namespaces: hold every sub-shard's read lock at once (writers
        // only ever hold one sub-shard lock, so this cannot deadlock), then
        // merge the suffixes by revision.
        let guards: Vec<_> = self
            .kind_shards(kind)
            .iter()
            .map(|shard| shard.read())
            .collect();
        let mut compacted_through = 0;
        for guard in &guards {
            if cursor < guard.compacted_through {
                compacted_through = compacted_through.max(guard.compacted_through);
            }
        }
        if compacted_through > 0 {
            return Err(WatchError::Gone { compacted_through });
        }
        let mut heads: Vec<usize> = guards.iter().map(|g| g.suffix_start(cursor)).collect();
        let total: usize = guards
            .iter()
            .zip(&heads)
            .map(|(g, head)| g.events.len() - head)
            .sum();
        let mut events = Vec::with_capacity(total);
        // k-way merge by revision: k is the sub-shard count (small), each
        // suffix already sorted, so repeatedly taking the minimum head
        // reconstructs the total order exactly.
        while events.len() < total {
            let next = guards
                .iter()
                .zip(&heads)
                .enumerate()
                .filter_map(|(i, (g, &head))| g.events.get(head).map(|event| (i, event.revision)))
                .min_by_key(|&(_, revision)| revision)
                .map(|(i, _)| i)
                .expect("events remain below total");
            events.push(guards[next].events[heads[next]].clone());
            heads[next] += 1;
        }
        Ok(WatchDelta {
            events,
            // Read while every sub-shard is locked, so no event of this
            // kind with a smaller revision can be published afterwards.
            resume: cursor.max(revision.load(Ordering::Relaxed)),
        })
    }

    /// Seal every sub-shard's compaction horizon at `revision` — the boot
    /// half of the persistence plane's recovery contract. The journals hold
    /// no pre-crash events (they are in-memory), so a cursor **below** the
    /// recovered revision must take the standard `410 Gone` → re-list
    /// recovery instead of silently skipping the history it missed, while a
    /// cursor **at** the horizon resumes streaming seamlessly; raising
    /// `last_revision` keeps [`KindJournals::watch_revision`] a safe
    /// initial-list cursor on kinds that have not been written since boot.
    pub(crate) fn restore_horizon(&self, revision: u64) {
        if revision == 0 {
            return;
        }
        for shard in &self.shards {
            let mut inner = shard.write();
            inner.compacted_through = inner.compacted_through.max(revision);
            inner.last_revision = inner.last_revision.max(revision);
        }
    }

    /// The highest revision published to `kind`'s journal so far (0 when the
    /// kind has never been written) — the max over its sub-shards. Safe as
    /// an initial-list cursor: every event `≤` this value was fully
    /// published (and, per the [`KindJournals::publish`] contract, its store
    /// effect is visible to any scan that starts afterwards).
    pub(crate) fn watch_revision(&self, kind: ResourceKind) -> u64 {
        self.kind_shards(kind)
            .iter()
            .map(|shard| shard.read().last_revision)
            .max()
            .unwrap_or(0)
    }

    /// Attach a push subscriber for `kind` (scoped to `namespace` when
    /// non-empty) resuming after `cursor`. Per needed sub-shard, the journal
    /// suffix since the cursor is **backfilled into the queue while the
    /// sub-shard's read lock is held** and the subscriber is appended to the
    /// fan-out list before that lock drops; publication needs the write
    /// lock, so no event can land between backfill and attachment — the
    /// queue sees every post-cursor event of the sub-shard exactly once.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when `cursor` predates the compaction horizon of
    /// a needed sub-shard (same contract as [`KindJournals::events_since`]).
    /// A backfill larger than `capacity` evicts the nascent subscription the
    /// same way live slowness would, so the first drain reports `Gone`.
    pub(crate) fn subscribe(
        &self,
        kind: ResourceKind,
        namespace: &str,
        cursor: u64,
        capacity: usize,
    ) -> Result<WatchSubscriber, WatchError> {
        let core = Arc::new(SubscriberCore::new(namespace, cursor, capacity));
        let start = kind.index() * self.shard_count;
        let indices: Vec<usize> = if namespace.is_empty() {
            (start..start + self.shard_count).collect()
        } else {
            vec![self.shard_index(kind, namespace)]
        };
        for index in indices {
            let inner = self.shards[index].read();
            if cursor < inner.compacted_through {
                // Partially attached sub-shards prune on the next fan-out.
                core.close();
                return Err(WatchError::Gone {
                    compacted_through: inner.compacted_through,
                });
            }
            for event in inner.events.range(inner.suffix_start(cursor)..) {
                core.offer(event);
            }
            let mut attached = self.subscribers[index].lock();
            // Prune handles dropped since the last fan-out, so timed-out
            // one-shot waiters on a quiet scope do not pile up here.
            attached.retain(|core| !core.state.lock().closed);
            attached.push(Arc::clone(&core));
        }
        Ok(WatchSubscriber { core, kind })
    }

    /// The last revision published to `(kind, namespace)`'s scope: its
    /// sub-shard's when namespace-scoped (other namespaces hashing there move
    /// it too), [`KindJournals::watch_revision`] for all namespaces.
    pub(crate) fn scope_revision(&self, kind: ResourceKind, namespace: &str) -> u64 {
        if namespace.is_empty() {
            self.watch_revision(kind)
        } else {
            self.shard_of(kind, namespace).read().last_revision
        }
    }

    /// Block until an event of `(kind, namespace)` past `seen` is
    /// published, or `timeout` elapses; returns the scope revision on exit.
    /// Unless the scope is already past `seen`, the wait is a one-shot
    /// subscriber at cursor `seen`: its backfill covers whatever landed
    /// before it attached, and its queue whatever lands after, so no wakeup
    /// is lost. A `Gone` or an eviction ends the wait; spurious wakeups are
    /// allowed.
    pub(crate) fn wait_past(
        &self,
        kind: ResourceKind,
        namespace: &str,
        seen: u64,
        timeout: Duration,
    ) -> u64 {
        let current = self.scope_revision(kind, namespace);
        if current > seen {
            return current;
        }
        if let Ok(waiter) = self.subscribe(kind, namespace, seen, 1) {
            // Events or Gone: either way the wait is over.
            let _ = waiter.recv_timeout(timeout);
        }
        self.scope_revision(kind, namespace)
    }
}

/// A pull-style subscription over a store's watch journal: remembers the
/// kind, namespace and resume cursor, and advances the cursor past every
/// batch it delivers — the store-level API the informer pattern builds on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchSubscription {
    kind: ResourceKind,
    namespace: String,
    revision: u64,
}

impl WatchSubscription {
    /// Subscribe to `kind` (in `namespace`; every namespace when empty)
    /// starting after `revision`. Use `revision = 0` to replay the whole
    /// retained journal, or a revision obtained from a list to stream only
    /// what follows it.
    pub fn at(kind: ResourceKind, namespace: &str, revision: u64) -> Self {
        WatchSubscription {
            kind,
            namespace: namespace.to_owned(),
            revision,
        }
    }

    /// The current resume cursor.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Pull every event published since the last poll, advancing the cursor
    /// to the delta's resume point (lossless: skipped revisions failed the
    /// namespace filter or live in sub-shards this subscription does not
    /// need), so even an event-free poll keeps the cursor ahead of
    /// compaction. On [`WatchError::Gone`] the cursor is left untouched —
    /// the caller re-lists and builds a fresh subscription from the list's
    /// cursor.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when the cursor predates the compaction horizon
    /// of a needed journal sub-shard.
    pub fn poll<S: crate::StoreBackend + ?Sized>(
        &mut self,
        store: &S,
    ) -> Result<Vec<WatchEvent>, WatchError> {
        let delta = store.events_since(self.kind, &self.namespace, self.revision)?;
        self.revision = delta.resume;
        Ok(delta.events)
    }

    /// Like [`WatchSubscription::poll`], but **blocks** instead of
    /// returning an empty batch: the cursor advances and events are
    /// returned as soon as something is published, or an empty batch is
    /// returned once `timeout` elapses.
    ///
    /// No wakeup can be lost: the scope revision is read *before* each
    /// poll, so a publish racing the poll either lands in the polled delta
    /// or carries a revision past the one this waiter waits beyond.
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when the cursor predates the compaction horizon
    /// of a needed journal sub-shard.
    pub fn recv_timeout<S: crate::StoreBackend + ?Sized>(
        &mut self,
        store: &S,
        timeout: Duration,
    ) -> Result<Vec<WatchEvent>, WatchError> {
        let start = Instant::now();
        loop {
            let seen = store.watch_generation(self.kind, &self.namespace);
            let events = self.poll(store)?;
            if !events.is_empty() {
                return Ok(events);
            }
            let Some(left) = timeout.checked_sub(start.elapsed()) else {
                return Ok(Vec::new());
            };
            store.wait_for_watch(self.kind, &self.namespace, seen, left);
        }
    }

    /// Block until events are published (or the cursor goes stale).
    ///
    /// # Errors
    ///
    /// [`WatchError::Gone`] when the cursor predates the compaction horizon
    /// of a needed journal sub-shard.
    pub fn recv<S: crate::StoreBackend + ?Sized>(
        &mut self,
        store: &S,
    ) -> Result<Vec<WatchEvent>, WatchError> {
        loop {
            let events = self.recv_timeout(store, Duration::from_secs(60))?;
            if !events.is_empty() {
                return Ok(events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(name: &str) -> Arc<Value> {
        Arc::new(kf_yaml::parse(&format!("kind: Pod\nmetadata:\n  name: {name}\n")).unwrap())
    }

    fn staged(event: WatchEventKind, ns: &str, name: &str, object: &Arc<Value>) -> StagedEvent {
        StagedEvent::new(ResourceKind::Pod, event, ns, name, object)
    }

    #[test]
    fn publish_assigns_strictly_increasing_revisions() {
        let journals = KindJournals::new(16, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let r1 = journals.publish(&counter, staged(WatchEventKind::Added, "ns", "a", &object));
        let r2 = journals.publish(
            &counter,
            staged(WatchEventKind::Modified, "ns", "a", &object),
        );
        assert!(r2 > r1);
        let delta = journals
            .events_since(&counter, ResourceKind::Pod, "ns", 0)
            .unwrap();
        assert_eq!(delta.events.len(), 2);
        assert_eq!(delta.events[0].revision, r1);
        assert_eq!(delta.events[1].revision, r2);
        assert_eq!(delta.resume, r2);
        assert_eq!(journals.watch_revision(ResourceKind::Pod), r2);
        assert_eq!(journals.watch_revision(ResourceKind::Service), 0);
    }

    #[test]
    fn events_share_the_published_tree_unless_copying() {
        let journals = KindJournals::new(16, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "a", &object));
        // Scoped and merged reads both hand out the published tree itself.
        for namespace in ["ns", ""] {
            let events = journals
                .events_since(&counter, ResourceKind::Pod, namespace, 0)
                .unwrap()
                .events;
            assert!(Arc::ptr_eq(events[0].object.as_ref().unwrap(), &object));
        }
    }

    #[test]
    fn namespace_filter_and_cursor_respect_the_contract() {
        let journals = KindJournals::new(16, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let r1 = journals.publish(&counter, staged(WatchEventKind::Added, "ns1", "a", &object));
        journals.publish(&counter, staged(WatchEventKind::Added, "ns2", "b", &object));
        assert_eq!(
            journals
                .events_since(&counter, ResourceKind::Pod, "ns1", 0)
                .unwrap()
                .events
                .len(),
            1
        );
        assert_eq!(
            journals
                .events_since(&counter, ResourceKind::Pod, "", 0)
                .unwrap()
                .events
                .len(),
            2
        );
        assert_eq!(
            journals
                .events_since(&counter, ResourceKind::Pod, "", r1)
                .unwrap()
                .events
                .len(),
            1
        );
        // A namespace-filtered delta still resumes from the global counter.
        let ns1 = journals
            .events_since(&counter, ResourceKind::Pod, "ns1", r1)
            .unwrap();
        assert!(ns1.events.is_empty());
        assert_eq!(ns1.resume, journals.watch_revision(ResourceKind::Pod));
    }

    #[test]
    fn merged_reads_reconstruct_the_total_revision_order() {
        // Interleave writes across enough namespaces to populate several
        // sub-shards, then check the all-namespaces merge yields exactly
        // the allocation order.
        let journals = KindJournals::new(64, 4);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let mut expected = Vec::new();
        for round in 0..12 {
            let ns = format!("ns-{}", round % 5);
            expected.push((
                journals.publish(
                    &counter,
                    staged(WatchEventKind::Added, &ns, &format!("obj-{round}"), &object),
                ),
                ns,
            ));
        }
        let delta = journals
            .events_since(&counter, ResourceKind::Pod, "", 0)
            .unwrap();
        assert_eq!(
            delta
                .events
                .iter()
                .map(|e| (e.revision, e.namespace.clone()))
                .collect::<Vec<_>>(),
            expected
        );
        assert_eq!(delta.resume, 12);
        // Mid-stream cursors binary-search into every sub-shard.
        let suffix = journals
            .events_since(&counter, ResourceKind::Pod, "", 7)
            .unwrap();
        assert_eq!(
            suffix.events.iter().map(|e| e.revision).collect::<Vec<_>>(),
            (8..=12).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn publish_batch_enters_each_sub_shard_once_and_keeps_input_alignment() {
        let journals = KindJournals::new(16, 2);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let batch: Vec<StagedEvent> = (0..6)
            .map(|i| {
                staged(
                    WatchEventKind::Deleted,
                    &format!("ns-{}", i % 3),
                    &format!("obj-{i}"),
                    &object,
                )
            })
            .collect();
        let revisions = journals.publish_batch(&counter, batch);
        assert_eq!(revisions.len(), 6);
        // Every revision allocated exactly once.
        let mut sorted = revisions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=6).collect::<Vec<u64>>());
        // Same-namespace events keep their input order (they share a
        // sub-shard, so their revisions are assigned in batch order).
        assert!(revisions[0] < revisions[3], "ns-0 order preserved");
        assert!(revisions[1] < revisions[4], "ns-1 order preserved");
        // The merged read replays the whole batch in revision order.
        let delta = journals
            .events_since(&counter, ResourceKind::Pod, "", 0)
            .unwrap();
        assert_eq!(delta.events.len(), 6);
        assert!(delta
            .events
            .windows(2)
            .all(|w| w[0].revision < w[1].revision));
    }

    #[test]
    fn compaction_reports_gone_for_stale_cursors() {
        let journals = KindJournals::new(2, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        for i in 0..4 {
            journals.publish(
                &counter,
                staged(WatchEventKind::Modified, "ns", &format!("obj-{i}"), &object),
            );
        }
        // Revisions 1 and 2 were compacted away (one namespace, so one
        // sub-shard holds all four events).
        assert_eq!(
            journals.events_since(&counter, ResourceKind::Pod, "ns", 0),
            Err(WatchError::Gone {
                compacted_through: 2
            })
        );
        assert_eq!(
            journals.events_since(&counter, ResourceKind::Pod, "ns", 1),
            Err(WatchError::Gone {
                compacted_through: 2
            })
        );
        // The all-namespaces read needs that sub-shard too.
        assert_eq!(
            journals.events_since(&counter, ResourceKind::Pod, "", 1),
            Err(WatchError::Gone {
                compacted_through: 2
            })
        );
        // A cursor at the horizon is still servable.
        let delta = journals
            .events_since(&counter, ResourceKind::Pod, "ns", 2)
            .unwrap();
        assert_eq!(delta.events.len(), 2);
        assert_eq!(delta.events[0].revision, 3);
        assert_eq!(delta.resume, 4);
    }

    #[test]
    fn foreign_sub_shard_compaction_does_not_gone_a_namespace_cursor() {
        // Two namespaces in different sub-shards: churn one far past the
        // capacity; a cursor scoped to the quiet namespace stays servable,
        // while the all-namespaces cursor (which needs the churned
        // sub-shard) gets Gone.
        let shard_count = 4;
        let journals = KindJournals::new(2, shard_count);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let quiet = "quiet".to_owned();
        let busy = (0..64)
            .map(|i| format!("busy-{i}"))
            .find(|ns| namespace_shard(ns, shard_count) != namespace_shard(&quiet, shard_count))
            .expect("some namespace hashes elsewhere");
        journals.publish(
            &counter,
            staged(WatchEventKind::Added, &quiet, "q", &object),
        );
        for i in 0..6 {
            journals.publish(
                &counter,
                staged(WatchEventKind::Added, &busy, &format!("b-{i}"), &object),
            );
        }
        let quiet_delta = journals
            .events_since(&counter, ResourceKind::Pod, &quiet, 0)
            .unwrap();
        assert_eq!(quiet_delta.events.len(), 1);
        assert_eq!(quiet_delta.resume, 7);
        assert!(matches!(
            journals.events_since(&counter, ResourceKind::Pod, "", 0),
            Err(WatchError::Gone { .. })
        ));
    }

    #[test]
    fn namespace_shard_is_stable_and_bounded() {
        for shard_count in [1, 2, 8] {
            for ns in ["", "default", "prod", "a-rather-long-namespace-name"] {
                let shard = namespace_shard(ns, shard_count);
                assert!(shard < shard_count);
                assert_eq!(shard, namespace_shard(ns, shard_count));
            }
        }
    }

    #[test]
    fn push_subscribers_receive_backfill_then_live_events_in_order() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "a", &object));
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 16).unwrap();
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "b", &object));
        let events = sub.try_recv().unwrap();
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(events.windows(2).all(|w| w[0].revision < w[1].revision));
        assert_eq!(sub.resume(), 2);
        assert_eq!(sub.delivered(), 2);
        // Zero-copy discipline: the queued event shares the published tree.
        assert!(Arc::ptr_eq(events[0].object.as_ref().unwrap(), &object));
        // Nothing further queued.
        assert!(sub.try_recv().unwrap().is_empty());
    }

    #[test]
    fn push_subscribers_respect_the_namespace_filter_and_copy_discipline() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let scoped = journals.subscribe(ResourceKind::Pod, "ns1", 0, 16).unwrap();
        let everything = journals.subscribe(ResourceKind::Pod, "", 0, 16).unwrap();
        journals.publish(&counter, staged(WatchEventKind::Added, "ns1", "a", &object));
        journals.publish(&counter, staged(WatchEventKind::Added, "ns2", "b", &object));
        let scoped_events = scoped.try_recv().unwrap();
        assert_eq!(scoped_events.len(), 1);
        assert_eq!(scoped_events[0].name, "a");
        let all = everything.try_recv().unwrap();
        assert_eq!(all.len(), 2);
        // Every subscriber's queue shares the one published tree.
        for event in scoped_events.iter().chain(&all) {
            assert!(Arc::ptr_eq(event.object.as_ref().unwrap(), &object));
        }
    }

    #[test]
    fn coalescing_keeps_the_last_write_and_the_delivery_order() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 16).unwrap();
        let stale = tree("hot-old");
        let other = tree("other");
        let newest = tree("hot-new");
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "hot", &stale));
        journals.publish(
            &counter,
            staged(WatchEventKind::Added, "ns", "other", &other),
        );
        let r3 = journals.publish(
            &counter,
            staged(WatchEventKind::Modified, "ns", "hot", &newest),
        );
        let events = sub.try_recv().unwrap();
        // The stale "hot" event was coalesced away: one event per object,
        // the hot object's being the newest write, still revision-sorted.
        assert_eq!(
            events
                .iter()
                .map(|e| (e.name.as_str(), e.revision))
                .collect::<Vec<_>>(),
            [("other", 2), ("hot", r3)]
        );
        assert!(Arc::ptr_eq(events[1].object.as_ref().unwrap(), &newest));
        assert_eq!(sub.coalesced(), 1);
    }

    #[test]
    fn slow_consumers_are_evicted_and_observe_gone() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 2).unwrap();
        // Three distinct objects against a queue bound of two: the third
        // offer cannot coalesce, so the subscriber is evicted.
        for name in ["a", "b", "c"] {
            journals.publish(&counter, staged(WatchEventKind::Added, "ns", name, &object));
        }
        assert!(sub.is_evicted());
        assert!(matches!(sub.try_recv(), Err(WatchError::Gone { .. })));
        // Still Gone on the next drain; later publishes stay ignored.
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "d", &object));
        assert!(matches!(
            sub.recv_timeout(Duration::from_millis(5)),
            Err(WatchError::Gone { .. })
        ));
    }

    #[test]
    fn a_backfill_wider_than_the_queue_bound_evicts_like_live_slowness() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        for i in 0..5 {
            journals.publish(
                &counter,
                staged(WatchEventKind::Added, "ns", &format!("obj-{i}"), &object),
            );
        }
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 2).unwrap();
        assert!(matches!(sub.try_recv(), Err(WatchError::Gone { .. })));
    }

    #[test]
    fn subscribe_reports_gone_for_compacted_cursors() {
        let journals = KindJournals::new(2, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        for i in 0..4 {
            journals.publish(
                &counter,
                staged(WatchEventKind::Added, "ns", &format!("obj-{i}"), &object),
            );
        }
        assert_eq!(
            journals.subscribe(ResourceKind::Pod, "ns", 0, 16).err(),
            Some(WatchError::Gone {
                compacted_through: 2
            })
        );
        // A cursor at the horizon attaches fine.
        assert!(journals.subscribe(ResourceKind::Pod, "ns", 2, 16).is_ok());
    }

    #[test]
    fn recv_timeout_blocks_until_publication_wakes_it() {
        let journals = Arc::new(KindJournals::new(64, DEFAULT_JOURNAL_SHARDS));
        let counter = Arc::new(AtomicU64::new(0));
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 16).unwrap();
        let publisher = {
            let journals = Arc::clone(&journals);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                journals.publish(
                    &counter,
                    staged(WatchEventKind::Added, "ns", "late", &tree("late")),
                );
            })
        };
        let started = Instant::now();
        let events = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        publisher.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "late");
        // Woken by the publication, not the five-second deadline.
        assert!(started.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn dispatcher_surfaces_readiness_once_per_drain_cycle() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let dispatcher = WatchDispatcher::new();
        let quiet = journals
            .subscribe(ResourceKind::Pod, "quiet-ns", 0, 16)
            .unwrap();
        let busy = journals
            .subscribe(ResourceKind::Pod, "busy-ns", 0, 16)
            .unwrap();
        dispatcher.register(&quiet, 0);
        dispatcher.register(&busy, 1);
        // Nothing published: no readiness.
        assert_eq!(dispatcher.next_ready(Duration::from_millis(5)), None);
        // A burst surfaces the busy subscription exactly once.
        for name in ["a", "b", "c"] {
            journals.publish(
                &counter,
                staged(WatchEventKind::Added, "busy-ns", name, &object),
            );
        }
        assert_eq!(dispatcher.next_ready(Duration::from_millis(100)), Some(1));
        assert_eq!(dispatcher.next_ready(Duration::from_millis(5)), None);
        assert_eq!(busy.try_recv().unwrap().len(), 3);
        // Drained: the next event re-arms readiness.
        journals.publish(
            &counter,
            staged(WatchEventKind::Added, "busy-ns", "d", &object),
        );
        assert_eq!(dispatcher.next_ready(Duration::from_millis(100)), Some(1));
        assert!(!quiet.is_evicted());
    }

    #[test]
    fn registering_with_a_backlog_surfaces_immediately() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 16).unwrap();
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "a", &object));
        let dispatcher = WatchDispatcher::new();
        dispatcher.register(&sub, 7);
        assert_eq!(dispatcher.next_ready(Duration::from_millis(5)), Some(7));
    }

    #[test]
    fn dropped_subscribers_are_pruned_from_the_fan_out() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let object = tree("a");
        let shard_index = journals.shard_index(ResourceKind::Pod, "ns");
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 16).unwrap();
        assert_eq!(journals.subscribers[shard_index].lock().len(), 1);
        drop(sub);
        journals.publish(&counter, staged(WatchEventKind::Added, "ns", "a", &object));
        assert!(journals.subscribers[shard_index].lock().is_empty());
    }

    #[test]
    fn timed_out_waits_do_not_pile_up_in_the_fan_out() {
        let journals = KindJournals::new(64, DEFAULT_JOURNAL_SHARDS);
        let shard_index = journals.shard_index(ResourceKind::Pod, "quiet");
        let seen = journals.scope_revision(ResourceKind::Pod, "quiet");
        for _ in 0..1000 {
            let now = journals.wait_past(ResourceKind::Pod, "quiet", seen, Duration::ZERO);
            assert_eq!(now, seen);
        }
        // Each attach prunes the previous waiter's dropped handle.
        assert!(journals.subscribers[shard_index].lock().len() <= 1);
    }

    #[test]
    fn tombstone_compaction_keeps_queue_memory_bounded_by_live_entries() {
        let journals = KindJournals::new(4096, DEFAULT_JOURNAL_SHARDS);
        let counter = AtomicU64::new(0);
        let sub = journals.subscribe(ResourceKind::Pod, "ns", 0, 4).unwrap();
        // Hammer two objects far past the bound: coalescing tombstones every
        // stale slot, and periodic compaction keeps the deque near `live`.
        let object = tree("hot");
        for i in 0..200 {
            let name = if i % 2 == 0 { "x" } else { "y" };
            journals.publish(
                &counter,
                staged(WatchEventKind::Modified, "ns", name, &object),
            );
        }
        {
            let state = sub.core.state.lock();
            assert_eq!(state.live, 2);
            assert!(
                state.slots.len() <= 8,
                "tombstones bounded, got {}",
                state.slots.len()
            );
        }
        let events = sub.try_recv().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(sub.coalesced(), 198);
        assert!(!sub.is_evicted());
    }

    #[test]
    fn bookmarks_carry_only_a_revision() {
        let bookmark = WatchEvent::bookmark(7);
        assert_eq!(bookmark.kind, WatchEventKind::Bookmark);
        assert_eq!(bookmark.revision, 7);
        assert!(!bookmark.has_object());
        assert_eq!(WatchEventKind::Bookmark.as_str(), "BOOKMARK");
        assert_eq!(WatchEventKind::Added.to_string(), "ADDED");
    }
}
