//! Span recording through the program's public seams.
//!
//! Nothing in `crates/*` is edited: spans are taken around the calls into
//! each layer by wrappers the benchmark owns — [`Traced`] around any
//! [`RequestHandler`] (client→proxy and proxy→server), [`TracedStore`]
//! around any [`StoreBackend`], and `crate::io::TracedIo` around the
//! `StorageIo` seam. A span is `{id, parent, request_id, name, thread,
//! start_ns, end_ns}` in a pre-allocated per-thread buffer; nesting follows
//! the call stack, so a span's parent is whatever span was open on the same
//! thread when it started. Threads that never call [`start_thread`] record
//! nothing: the wrappers cost one thread-local read there.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use k8s_apiserver::{
    ApiRequest, ApiResponse, DurabilityState, DurabilityStatus, RequestHandler, StoreBackend,
    StoredObject, WatchDelta, WatchError, WatchSubscriber,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::Value;

/// One recorded span. `parent` and `request_id` are 0 when absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id: recording session (one per [`start_thread`] call) in the
    /// high bits, sequence within it in the low.
    pub id: u64,
    /// Id of the span open on the same thread when this one started.
    pub parent: u64,
    /// The request this span belongs to (shared by every span of a request).
    pub request_id: u64,
    /// Layer-qualified name (`proxy.handle`, `store.upsert`, `io.fsync`, …).
    pub name: &'static str,
    /// Recording thread.
    pub thread: u32,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Recorder {
    thread: u32,
    /// Distinguishes this recording from every other in the process, so
    /// ids stay unique when a thread index is reused segment after segment.
    session: u64,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, innermost last.
    open: Vec<usize>,
    request_id: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on the calling thread, with room for `capacity` spans
/// reserved up front so the measured loop never reallocates the buffer.
pub fn start_thread(thread: u32, capacity: usize) {
    static SESSIONS: AtomicU64 = AtomicU64::new(1);
    epoch();
    RECORDER.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            thread,
            session: SESSIONS.fetch_add(1, Ordering::Relaxed),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            request_id: 0,
        });
    });
}

/// Stop recording on the calling thread and hand back what it recorded, in
/// start order.
pub fn finish_thread() -> Vec<Span> {
    RECORDER
        .with(|cell| cell.borrow_mut().take())
        .map(|recorder| {
            assert!(recorder.open.is_empty(), "span left open at thread finish");
            recorder.spans
        })
        .unwrap_or_default()
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    index: Option<usize>,
    root: bool,
}

impl SpanGuard {
    /// Rename the span before it closes (a request's class is only known
    /// once the response is in hand).
    pub fn rename(&self, name: &'static str) {
        if let Some(index) = self.index {
            RECORDER.with(|cell| {
                if let Some(recorder) = cell.borrow_mut().as_mut() {
                    recorder.spans[index].name = name;
                }
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = now_ns();
        RECORDER.with(|cell| {
            if let Some(recorder) = cell.borrow_mut().as_mut() {
                recorder.spans[index].end_ns = end;
                let closed = recorder.open.pop();
                debug_assert_eq!(closed, Some(index), "spans close innermost first");
                if self.root {
                    recorder.request_id = 0;
                }
            }
        });
    }
}

fn open_span(name: &'static str, request_id: Option<u64>) -> SpanGuard {
    RECORDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(recorder) = slot.as_mut() else {
            return SpanGuard {
                index: None,
                root: false,
            };
        };
        if let Some(request_id) = request_id {
            recorder.request_id = request_id;
        }
        let index = recorder.spans.len();
        let parent = recorder
            .open
            .last()
            .map(|&open| recorder.spans[open].id)
            .unwrap_or(0);
        recorder.spans.push(Span {
            id: (recorder.session << 32) | (index as u64 + 1),
            parent,
            request_id: recorder.request_id,
            name,
            thread: recorder.thread,
            start_ns: 0,
            end_ns: 0,
        });
        recorder.open.push(index);
        // Stamp last so the bookkeeping above is charged to the parent.
        recorder.spans[index].start_ns = now_ns();
        SpanGuard {
            index: Some(index),
            root: request_id.is_some(),
        }
    })
}

/// Open a span under whatever span is open on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// Open the root span of request `request_id`; every span opened on this
/// thread until it closes carries the id.
pub fn request_span(name: &'static str, request_id: u64) -> SpanGuard {
    open_span(name, Some(request_id))
}

/// A [`RequestHandler`] whose `handle` runs inside a span.
#[derive(Debug)]
pub struct Traced<H> {
    inner: H,
    name: &'static str,
}

impl<H> Traced<H> {
    /// Wrap `inner`; its `handle` calls are recorded as `name`.
    pub fn new(inner: H, name: &'static str) -> Self {
        Traced { inner, name }
    }

    /// The wrapped handler.
    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H: RequestHandler> RequestHandler for Traced<H> {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        let _span = span(self.name);
        self.inner.handle(request)
    }
}

/// Work counts taken at the store boundary, beside the spans.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `list` calls served.
    pub lists: AtomicU64,
    /// Objects those lists returned.
    pub listed_items: AtomicU64,
}

/// A [`StoreBackend`] whose every method runs inside a span and forwards to
/// the wrapped store — **including the default-bodied methods the real
/// store overrides**. Inheriting a default here would silently turn batched
/// publication into per-object upserts and blind the fail-closed probe,
/// i.e. trace a different program than the one that runs untraced.
#[derive(Debug)]
pub struct TracedStore<S> {
    inner: S,
    counters: Arc<StoreCounters>,
}

impl<S> TracedStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TracedStore {
            inner,
            counters: Arc::default(),
        }
    }

    /// The wrapped store (checkpoints need the concrete type).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The boundary counters.
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }
}

impl<S: StoreBackend> StoreBackend for TracedStore<S> {
    fn ingest(&self, body: &Arc<Value>) -> k8s_model::Result<K8sObject> {
        let _span = span("store.ingest");
        self.inner.ingest(body)
    }

    fn create(&self, object: K8sObject) -> Option<u64> {
        let _span = span("store.create");
        self.inner.create(object)
    }

    fn update(&self, object: K8sObject) -> Option<u64> {
        let _span = span("store.update");
        self.inner.update(object)
    }

    fn upsert(&self, object: K8sObject) -> (u64, bool) {
        let _span = span("store.upsert");
        self.inner.upsert(object)
    }

    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        let _span = span("store.get");
        self.inner.get(kind, namespace, name)
    }

    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        let _span = span("store.delete");
        self.inner.delete(kind, namespace, name)
    }

    fn list(&self, kind: ResourceKind, namespace: &str) -> Vec<Arc<StoredObject>> {
        let _span = span("store.list");
        let items = self.inner.list(kind, namespace);
        self.counters.lists.fetch_add(1, Ordering::Relaxed);
        self.counters
            .listed_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        items
    }

    fn delete_collection(&self, kind: ResourceKind, namespace: &str) -> usize {
        let _span = span("store.delete_collection");
        self.inner.delete_collection(kind, namespace)
    }

    fn apply_batch(&self, objects: Vec<K8sObject>) -> Vec<(u64, bool)> {
        let _span = span("store.apply_batch");
        self.inner.apply_batch(objects)
    }

    fn events_since(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
    ) -> Result<WatchDelta, WatchError> {
        let _span = span("store.events_since");
        self.inner.events_since(kind, namespace, revision)
    }

    fn watch_revision(&self, kind: ResourceKind) -> u64 {
        let _span = span("store.watch_revision");
        self.inner.watch_revision(kind)
    }

    fn subscribe(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
        capacity: usize,
    ) -> Result<WatchSubscriber, WatchError> {
        let _span = span("store.subscribe");
        self.inner.subscribe(kind, namespace, revision, capacity)
    }

    fn watch_generation(&self, kind: ResourceKind, namespace: &str) -> u64 {
        let _span = span("store.watch_generation");
        self.inner.watch_generation(kind, namespace)
    }

    fn wait_for_watch(
        &self,
        kind: ResourceKind,
        namespace: &str,
        seen: u64,
        timeout: std::time::Duration,
    ) -> u64 {
        let _span = span("store.wait_for_watch");
        self.inner.wait_for_watch(kind, namespace, seen, timeout)
    }

    fn revision(&self) -> u64 {
        let _span = span("store.revision");
        self.inner.revision()
    }

    fn len(&self) -> usize {
        let _span = span("store.len");
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        let _span = span("store.is_empty");
        self.inner.is_empty()
    }

    fn count_by_kind(&self) -> BTreeMap<ResourceKind, usize> {
        let _span = span("store.count_by_kind");
        self.inner.count_by_kind()
    }

    fn snapshot_objects(&self) -> Vec<Arc<StoredObject>> {
        let _span = span("store.snapshot_objects");
        self.inner.snapshot_objects()
    }

    fn restore(&self, objects: Vec<StoredObject>, revision: u64) {
        let _span = span("store.restore");
        self.inner.restore(objects, revision)
    }

    fn durability(&self) -> DurabilityStatus {
        let _span = span("store.durability");
        self.inner.durability()
    }

    fn durability_state(&self) -> DurabilityState {
        let _span = span("store.durability_state");
        self.inner.durability_state()
    }

    fn checkpoint_dirty_shards(&self) -> usize {
        let _span = span("store.checkpoint_dirty_shards");
        self.inner.checkpoint_dirty_shards()
    }
}

/// Per-span self time: the span's duration minus the part of it its direct
/// children cover. Children of one parent run one after another on the
/// parent's thread, so their durations add without overlap.
///
/// # Errors
///
/// A description of the first inconsistency found: a parent id that names
/// no recorded span, a child outside its parent's interval, or children
/// covering more than their parent.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent == 0 {
            continue;
        }
        let &parent = index
            .get(&span.parent)
            .ok_or_else(|| format!("span {} names unrecorded parent {}", span.id, span.parent))?;
        let p = &spans[parent];
        if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) lies outside its parent {} ({})",
                span.id, span.name, p.id, p.name
            ));
        }
        covered[parent] += span.duration_ns();
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(span, &covered)| {
            span.duration_ns().checked_sub(covered).ok_or_else(|| {
                format!(
                    "children of span {} ({}) cover more than it",
                    span.id, span.name
                )
            })
        })
        .collect()
}

/// Check that, for every request, the self times of its spans sum to its
/// root span's duration, and return how many requests were checked.
///
/// # Errors
///
/// The first request whose budget does not balance (or has no single root).
pub fn assert_request_budgets(spans: &[Span], self_ns: &[u64]) -> Result<usize, String> {
    // request id -> (self-time sum, root duration, roots seen)
    let mut budgets: std::collections::HashMap<u64, (u64, u64, u32)> =
        std::collections::HashMap::new();
    for (span, &own) in spans.iter().zip(self_ns) {
        if span.request_id == 0 {
            continue;
        }
        let entry = budgets.entry(span.request_id).or_default();
        entry.0 += own;
        if span.parent == 0 {
            entry.1 = span.duration_ns();
            entry.2 += 1;
        }
    }
    for (request, (sum, root, roots)) in &budgets {
        if *roots != 1 {
            return Err(format!("request {request} has {roots} root spans"));
        }
        if sum != root {
            return Err(format!(
                "request {request}: self times sum to {sum} ns, root span is {root} ns"
            ));
        }
    }
    Ok(budgets.len())
}

/// Render spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request_id\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.request_id, s.name, s.thread, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::ObjectStore;

    fn pod(namespace: &str, name: &str, image: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: {namespace}\nspec:\n  containers:\n    - name: app\n      image: {image}\n"
        ))
        .expect("pod parses")
    }

    #[test]
    fn spans_nest_by_call_stack_and_budgets_balance() {
        start_thread(3, 64);
        {
            let root = request_span("client.request", 42);
            {
                let _proxy = span("proxy.handle");
                let _server = span("server.handle");
            }
            let _wire = span("client.to_wire");
            root.rename("client.get");
        }
        {
            let _orphan = span("watch.drain");
        }
        let spans = finish_thread();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].name, "client.get");
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[0].id);
        assert!(spans[..4].iter().all(|s| s.request_id == 42));
        // The request id is cleared when the root closes.
        assert_eq!((spans[4].request_id, spans[4].parent), (0, 0));
        assert!(spans
            .iter()
            .all(|s| s.thread == 3 && s.end_ns >= s.start_ns));

        let own = self_times(&spans).expect("consistent");
        assert_eq!(assert_request_budgets(&spans, &own), Ok(1));
        assert_eq!(
            own[0] + own[1] + own[2] + own[3],
            spans[0].duration_ns(),
            "self times sum to the root"
        );
        assert_eq!(to_jsonl(&spans).lines().count(), 5);

        // A broken parent link is reported, not papered over.
        let mut broken = spans.clone();
        broken[2].parent = 999;
        assert!(self_times(&broken).is_err());
        let mut unbalanced = own.clone();
        unbalanced[1] += 1;
        assert!(assert_request_budgets(&spans, &unbalanced).is_err());
    }

    #[test]
    fn unstarted_threads_record_nothing() {
        let _span = span("store.get");
        assert!(finish_thread().is_empty());
    }

    /// Drive every `StoreBackend` method through the wrapper and through a
    /// bare store and compare results and journal revisions: a forwarded
    /// method that fell back to the trait default would publish differently
    /// (per-object instead of batched) or report a different durability
    /// surface.
    #[test]
    fn traced_store_forwards_every_method() {
        let bare = ObjectStore::new();
        let traced = TracedStore::new(ObjectStore::new());
        start_thread(1, 256);

        macro_rules! both {
            ($call:expr) => {{
                let run = $call;
                let a = run(&bare as &dyn StoreBackend);
                let b = run(&traced as &dyn StoreBackend);
                assert_eq!(a, b);
                a
            }};
        }

        let body = Arc::clone(pod("ns", "ingested", "nginx").shared_body());
        both!(|s: &dyn StoreBackend| s.ingest(&body).map(|o| o.name().to_owned()).ok());
        both!(|s: &dyn StoreBackend| s.create(pod("ns", "a", "nginx")));
        both!(|s: &dyn StoreBackend| s.create(pod("ns", "a", "nginx")));
        both!(|s: &dyn StoreBackend| s.update(pod("ns", "a", "nginx:2")));
        both!(|s: &dyn StoreBackend| s.update(pod("ns", "missing", "nginx")));
        both!(|s: &dyn StoreBackend| s.upsert(pod("ns", "b", "nginx")));
        // Batched publication: duplicates inside the batch are where the
        // override and the per-object default hand out different revisions.
        both!(|s: &dyn StoreBackend| s.apply_batch(vec![
            pod("ns", "c", "nginx"),
            pod("other", "d", "nginx"),
            pod("ns", "c", "nginx:2"),
            pod("ns", "a", "nginx:3"),
        ]));
        both!(|s: &dyn StoreBackend| s
            .get(ResourceKind::Pod, "ns", "c")
            .map(|o| (o.resource_version, o.object.to_yaml())));
        both!(|s: &dyn StoreBackend| s
            .list(ResourceKind::Pod, "")
            .iter()
            .map(|o| (o.object.name().to_owned(), o.resource_version))
            .collect::<Vec<_>>());
        both!(|s: &dyn StoreBackend| s.watch_revision(ResourceKind::Pod));
        both!(|s: &dyn StoreBackend| s.watch_generation(ResourceKind::Pod, "ns"));
        both!(|s: &dyn StoreBackend| s.wait_for_watch(
            ResourceKind::Pod,
            "ns",
            u64::MAX,
            std::time::Duration::ZERO
        ));
        both!(|s: &dyn StoreBackend| s
            .events_since(ResourceKind::Pod, "", 0)
            .map(|d| (
                d.resume,
                d.events
                    .iter()
                    .map(|e| (e.revision, e.kind, e.name.clone()))
                    .collect::<Vec<_>>()
            ))
            .ok());
        let subscribers = both!(|s: &dyn StoreBackend| {
            let sub = s
                .subscribe(ResourceKind::Pod, "ns", 0, 64)
                .expect("cursor 0 is servable");
            sub.try_recv()
                .expect("not evicted")
                .iter()
                .map(|e| (e.revision, e.name.clone()))
                .collect::<Vec<_>>()
        });
        assert!(
            !subscribers.is_empty(),
            "subscription backfills the journal"
        );
        both!(|s: &dyn StoreBackend| s
            .delete(ResourceKind::Pod, "ns", "b")
            .map(|o| o.resource_version));
        both!(|s: &dyn StoreBackend| s.delete_collection(ResourceKind::Pod, "ns"));
        both!(|s: &dyn StoreBackend| (s.revision(), s.len(), s.is_empty(), s.count_by_kind()));
        both!(|s: &dyn StoreBackend| s
            .snapshot_objects()
            .iter()
            .map(|o| (o.object.name().to_owned(), o.resource_version))
            .collect::<Vec<_>>());
        both!(|s: &dyn StoreBackend| (
            s.durability(),
            s.durability_state(),
            s.checkpoint_dirty_shards()
        ));
        both!(|s: &dyn StoreBackend| {
            s.restore(
                vec![StoredObject {
                    object: pod("ns", "restored", "nginx"),
                    resource_version: 77,
                }],
                80,
            );
            (s.revision(), s.len(), s.watch_revision(ResourceKind::Pod))
        });
        // The journals of both stores went through the same revisions.
        both!(|s: &dyn StoreBackend| s
            .events_since(ResourceKind::Pod, "", 80)
            .map(|d| d.resume)
            .ok());

        let spans = finish_thread();
        let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
        for method in [
            "ingest",
            "create",
            "update",
            "upsert",
            "get",
            "delete",
            "list",
            "delete_collection",
            "apply_batch",
            "events_since",
            "watch_revision",
            "subscribe",
            "watch_generation",
            "wait_for_watch",
            "revision",
            "len",
            "is_empty",
            "count_by_kind",
            "snapshot_objects",
            "restore",
            "durability",
            "durability_state",
            "checkpoint_dirty_shards",
        ] {
            assert!(
                names.contains(format!("store.{method}").as_str()),
                "store.{method} was not forwarded through a span"
            );
        }
        // A forwarded override opens no nested store spans: the default
        // `apply_batch` would have recorded one `store.upsert` child per
        // object, the default `delete_collection` a `store.list`.
        for span in &spans {
            if span.parent != 0 {
                panic!(
                    "{} ran nested under another store span: a default body leaked",
                    span.name
                );
            }
        }
        assert_eq!(traced.counters().lists.load(Ordering::Relaxed), 1);
        assert_eq!(traced.counters().listed_items.load(Ordering::Relaxed), 4);
    }
}
