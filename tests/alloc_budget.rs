//! Exact allocation counts as the regression gate for the accept path: one
//! admitted create builds one compact tree and nothing copies it, a durable
//! write copies its key only where it is kept, a durable checkpoint decodes
//! no WAL record, and retained watch history holds bytes, not trees. On the
//! read path a stored version is rendered once per format and a cached read
//! is one buffer. Clocks
//! on this box move 30 % on their own; these counts repeat exactly, so they
//! bound what the end-to-end benchmark can only show through noise.
//!
//! This file is the only place in the repository where `unsafe` appears (the
//! counting `#[global_allocator]`); the product crates keep
//! `#![forbid(unsafe_code)]`. Counters are per thread, so the tests do not
//! disturb each other under the parallel test runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use k8s_apiserver::{
    ApiRequest, ApiResponse, ApiServer, ObjectStore, PersistConfig, Persistence, RequestBody,
    RequestHandler, ResponseBody, StoredObject, AUDIT_LOG_CAPACITY,
};
use k8s_model::{K8sObject, ResourceKind};
use k8s_rbac::{audit2rbac, Audit2RbacOptions, AuditEvent, RbacPolicySet};
use kf_attacks::AttackExecutor;
use kf_workloads::{json_twin, DeploymentDriver, Operator};
use kf_yaml::{Mapping, Value};
use kubefence::{
    BodyFormat, EnforcementProxy, GeneratorConfig, PolicyGenerator, ValidatorSet, ViolationReason,
};

thread_local! {
    /// Allocation calls (`alloc` + `realloc`) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_of`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Add `delta` to this thread's live bytes, raising the peak with them.
fn grow_live(delta: i64) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

/// The system allocator, counting per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        grow_live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` under this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // A moving reallocation holds both blocks for a moment; the peak
        // counts the larger one only, as the allocator may grow in place.
        grow_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` under `layout`; `new_size` is the
        // caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `work` and return its result with the allocation calls it made and
/// the bytes it left live (its result included).
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, i64) {
    let (calls, live) = (CALLS.get(), LIVE.get());
    let result = work();
    (result, CALLS.get() - calls, LIVE.get() - live)
}

/// Run `work` and return its result with the most bytes it held live at
/// any one moment beyond what was live when it started.
fn peak_of<T>(work: impl FnOnce() -> T) -> (T, i64) {
    let live = LIVE.get();
    PEAK.set(live);
    let result = work();
    (result, PEAK.get() - live)
}

/// Every manifest of the five charts as `kubectl apply` would send it, once
/// as YAML and once as JSON.
fn chart_creates() -> Vec<ApiRequest> {
    let mut requests = Vec::new();
    for operator in Operator::ALL {
        let driver = DeploymentDriver::new(operator);
        for (yaml, object) in driver.requests().into_iter().zip(driver.objects()) {
            let json = json_twin(&yaml, object);
            requests.extend([yaml, json]);
        }
    }
    assert_eq!(
        requests.len(),
        100,
        "five charts, 50 manifests, two formats"
    );
    requests
}

/// The five operators' validators in front of a server on which each
/// operator is an admin, so only the proxy refuses anything.
fn five_operator_stack() -> (ApiServer, ValidatorSet) {
    let mut validators = ValidatorSet::new();
    let mut server = ApiServer::new();
    for operator in Operator::ALL {
        let config = GeneratorConfig::for_release(operator.release_name());
        validators.push(
            PolicyGenerator::new(config)
                .generate(&operator.chart())
                .unwrap(),
        );
        server = server.with_admin(&operator.user());
    }
    (server, validators)
}

/// The attack catalog injected into each operator's manifests, as bodies
/// alternating YAML and JSON.
fn catalog_attacks() -> Vec<ApiRequest> {
    let mut requests = Vec::new();
    for operator in Operator::ALL {
        let executor = AttackExecutor::new(
            &operator.user(),
            operator.namespace(),
            DeploymentDriver::new(operator).objects().to_vec(),
        );
        for (_, object) in executor.malicious_objects() {
            requests.push(if requests.len() % 2 == 0 {
                ApiRequest::create(&operator.user(), &object)
            } else {
                ApiRequest::create_json(&operator.user(), &object)
            });
        }
    }
    assert_eq!(requests.len(), 75, "five charts, fifteen catalog entries");
    requests
}

#[test]
fn an_admitted_create_stays_inside_its_allocation_budget() {
    let (server, validators) = five_operator_stack();
    let proxy = EnforcementProxy::with_validators(server, validators);
    let requests = chart_creates();
    // First pass creates every object (and grows the store's own tables);
    // the counted pass is the steady state: the same creates as updates.
    for request in &requests {
        assert!(proxy.handle(request).is_success());
    }
    let mut calls = 0;
    for request in &requests {
        let (response, made, _) = counted(|| proxy.handle(request));
        assert!(response.is_success());
        calls += made;
    }
    let per_create = calls as f64 / requests.len() as f64;
    println!("{per_create:.2} allocations per admitted create");
    assert!(
        per_create <= 77.0,
        "{per_create} allocations per admitted create (budget 77)"
    );
}

#[test]
fn materializing_a_body_is_compact_without_extra_churn() {
    let (mut calls, mut live, mut wire) = (0, 0, 0);
    let requests = chart_creates();
    for request in &requests {
        let (tree, made, held) = counted(|| request.materialize_body());
        assert!(tree.unwrap().is_some());
        calls += made;
        live += held;
        wire += request.payload_size() as i64;
    }
    // Exact sizing must not be bought with more allocator traffic …
    let per_parse = calls as f64 / requests.len() as f64;
    println!("{per_parse:.2} allocations per materialize_body");
    assert!(
        per_parse <= 57.0,
        "{per_parse} allocations per materialize_body (budget 57)"
    );
    // … and a parsed tree carries no growth slack.
    let ratio = live as f64 / wire as f64;
    assert!(
        ratio <= 3.5,
        "a parsed tree holds {ratio} x its wire bytes live (budget 3.5)"
    );
}

/// The 50 chart objects as fresh stored handles, none of them read yet.
fn stored_chart_objects() -> Vec<Arc<StoredObject>> {
    let objects: Vec<_> = Operator::ALL
        .into_iter()
        .flat_map(|operator| DeploymentDriver::new(operator).objects().to_vec())
        .map(|object| StoredObject::shared(object, 1))
        .collect();
    assert_eq!(objects.len(), 50, "five charts, 50 manifests");
    objects
}

/// The allocation calls `body.to_wire(format)` makes.
fn wire_calls(body: &ResponseBody, format: BodyFormat) -> u64 {
    let (wire, made, _) = counted(|| body.to_wire(format));
    assert!(wire.len() > 100);
    made
}

#[test]
fn rendering_a_response_allocates_only_its_buffer() {
    // Each chart object served as a get, and seventeen of them as one list
    // (a `reconcile_watch` list holds about that many). The first get of a
    // stored object renders it into the response's buffer, sized up front,
    // and copies the text into the object's cache. A list renders an item
    // no read has served into its own buffer and caches nothing; it fills
    // the slot of an item a get served in the other format. Nothing is
    // allocated per line, key or scalar, and every cached read copies text
    // into one buffer.
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        let objects = stored_chart_objects();
        let gets: Vec<_> = objects
            .iter()
            .map(|stored| ResponseBody::Object(Arc::clone(stored)))
            .collect();
        let list = |items: &[Arc<StoredObject>]| ResponseBody::List {
            kind: "DeploymentList".into(),
            items: items[..17].to_vec(),
        };
        let first: u64 = gets.iter().map(|get| wire_calls(get, format)).sum();
        let per_first_get = first as f64 / gets.len() as f64;
        let cached: u64 = gets.iter().map(|get| wire_calls(get, format)).sum();
        let per_cached_get = cached as f64 / gets.len() as f64;
        let cached_list = wire_calls(&list(&objects), format);
        let first_list = wire_calls(&list(&stored_chart_objects()), format);
        let served = stored_chart_objects();
        let other = match format {
            BodyFormat::Json => BodyFormat::Yaml,
            _ => BodyFormat::Json,
        };
        for stored in &served {
            wire_calls(&ResponseBody::Object(Arc::clone(stored)), other);
        }
        let filling_list = wire_calls(&list(&served), format) - 17;
        println!(
            "{format:?}: {per_first_get:.2} allocations per first get, {per_cached_get:.2} per \
             cached get; {first_list} per first 17-item list, {cached_list} per cached list, \
             {filling_list} beside the 17 slots a list fills"
        );
        assert!(
            per_first_get <= 8.0,
            "{format:?}: {per_first_get} allocations per first get (budget 8)"
        );
        assert_eq!(
            cached, 50,
            "{format:?}: a cached get allocates its buffer and nothing else"
        );
        assert!(
            first_list <= 16,
            "{format:?}: {first_list} allocations per first 17-item list (budget 16)"
        );
        assert!(
            filling_list <= 16,
            "{format:?}: {filling_list} allocations beside its 17 cache slots per 17-item list \
             of items served in the other format (budget 16)"
        );
        assert!(
            cached_list <= 2,
            "{format:?}: {cached_list} allocations per cached 17-item list (budget 2)"
        );
    }
}

#[test]
fn a_refused_attack_stays_inside_its_allocation_budget() {
    let attacks = catalog_attacks();
    // Allocations of one counted pass over the attacks, after enough passes
    // for every slot of a ring that evicts to have held every attack's
    // record (64 and 75 share no factor), so no buffer has growing left.
    const WARM_UP_PASSES: u64 = 64;
    let steady_state = |capacity: usize| {
        let (server, validators) = five_operator_stack();
        let proxy = EnforcementProxy::with_denial_capacity(server, validators, capacity);
        for _ in 0..WARM_UP_PASSES {
            for request in &attacks {
                assert!(proxy.handle(request).is_denied());
            }
        }
        let mut calls = 0;
        for request in &attacks {
            let (response, made, _) = counted(|| proxy.handle(request));
            assert!(response.is_denied());
            calls += made;
        }
        (calls, proxy.dropped_denials())
    };
    // Capacity 64: every counted denial overwrites a slot another denial
    // filled.
    let (calls, dropped) = steady_state(64);
    assert_eq!(dropped, (WARM_UP_PASSES + 1) * 75 - 64);
    let per_refusal = calls as f64 / attacks.len() as f64;
    println!("{per_refusal:.2} allocations per refused attack");
    assert!(
        per_refusal <= 30.0,
        "{per_refusal} allocations per refused attack (budget 30)"
    );
    // The ring's own share of that is zero. With one slot, its buffer has
    // held the largest record by the end of the first pass and every later
    // denial fits: retention cannot allocate there. Sixty-four slots that
    // overwrite each other's records read the same count exactly …
    assert_eq!(steady_state(1).0, calls);
    // … while a ring too large to evict pays for a fresh slot per denial.
    let (never_evicting, dropped) = steady_state(8192);
    assert_eq!(dropped, 0);
    assert!(
        calls < never_evicting,
        "overwriting made {calls} allocations, fresh slots {never_evicting}"
    );
}

/// Refuse, through the five-operator proxy, a chart manifest sent in
/// `format` with `fields` (name, value as JSON, which is also YAML flow
/// syntax) written right after its `kind` — each replacing the manifest's
/// own entry of that name — and then an unknown `padding` field holding
/// 512 Ki zeros: a 1 MiB JSON array, or a 3 MiB YAML block sequence of
/// indented `- 0` lines. Returns the response and the peak live bytes of the
/// refusal, measured after a first one has compiled the validators and
/// filled a ring slot.
fn refuse_padded(format: BodyFormat, fields: &[(&str, &str)]) -> (ApiResponse, i64) {
    let (server, validators) = five_operator_stack();
    let proxy = EnforcementProxy::with_validators(server, validators);
    let operator = Operator::ALL[0];
    let driver = DeploymentDriver::new(operator);
    let object = &driver.objects()[0];
    let mut padded = Mapping::new();
    for (key, value) in object
        .body()
        .as_map()
        .expect("manifests are mappings")
        .iter()
    {
        if fields.iter().any(|(name, _)| *name == key) {
            continue;
        }
        padded.insert(key, value.clone());
        if key == "kind" {
            for (name, value) in fields {
                padded.insert(*name, kf_yaml::parse_json(value).unwrap());
            }
            padded.insert("padding", Value::Seq(vec![Value::Int(0); 1 << 19]));
        }
    }
    let padded = Value::Map(padded);
    let (body, request) = match format {
        BodyFormat::Json => (
            kf_yaml::to_json(&padded),
            ApiRequest::create_json(&operator.user(), object),
        ),
        _ => (
            kf_yaml::to_yaml(&padded),
            ApiRequest::create(&operator.user(), object),
        ),
    };
    assert!(body.len() > 1 << 20);
    let request = ApiRequest {
        body: RequestBody::Raw(body.into(), format),
        ..request
    };
    assert!(proxy.handle(&request).is_denied());
    peak_of(|| proxy.handle(&request))
}

/// An unknown root field right after `kind`: the denial is decided at the
/// sixth event, and the matcher collecting the report reads 512 Ki more to
/// the end of the document. `bound` is what a second report pass held.
fn assert_early_refusal_holds_a_constant(format: BodyFormat, bound: i64) {
    let (response, peak) = refuse_padded(format, &[("hostNetwork", "true")]);
    assert!(response.is_denied());
    assert!(
        response.message.contains("hostNetwork") && response.message.contains("padding"),
        "{}",
        response.message
    );
    // Logging every event would hold 512 Ki of them, 24 MiB at 48 bytes
    // each. The log is the prefix read up to the decision; each tokenizer
    // and the checkpoint cloned there hold a current line or value, not
    // the body.
    println!("{format:?}: {peak} bytes peak live for a refused padded body");
    assert!(
        peak <= bound,
        "{format:?}: refusing a padded body decided at its sixth event held {peak} bytes live at its peak (budget {bound})"
    );
}

/// `apiVersion` is a constant string in every chart's policy; here it is a
/// mapping, right after `kind`. The report renders that mapping, so the
/// collecting matcher builds it — and nothing else of the padded body.
/// `bound` is what a second report pass held.
fn assert_rendered_container_is_all_a_refusal_holds(format: BodyFormat, bound: i64) {
    let (response, peak) = refuse_padded(format, &[("apiVersion", "{\"v\":1}")]);
    assert!(response.is_denied());
    assert!(
        response.message.contains("apiVersion")
            && response.message.contains("v: 1")
            && response.message.contains("padding"),
        "{}",
        response.message
    );
    println!("{format:?}: {peak} bytes peak live for a refused padded body rendering a container");
    assert!(
        peak <= bound,
        "{format:?}: refusing a padded body whose report renders a 10-byte container held {peak} bytes live at its peak (budget {bound})"
    );
}

#[test]
fn a_refusal_decided_early_holds_a_constant_whatever_follows() {
    assert_early_refusal_holds_a_constant(BodyFormat::Json, 7_252);
}

#[test]
fn a_yaml_refusal_decided_early_holds_a_constant_whatever_follows() {
    assert_early_refusal_holds_a_constant(BodyFormat::Yaml, 6_872);
}

#[test]
fn a_refusal_that_renders_a_container_holds_only_that_container() {
    assert_rendered_container_is_all_a_refusal_holds(BodyFormat::Json, 12_885);
}

#[test]
fn a_yaml_refusal_that_renders_a_container_holds_only_that_container() {
    assert_rendered_container_is_all_a_refusal_holds(BodyFormat::Yaml, 7_737);
}

#[test]
fn a_denial_pins_a_bounded_share_of_the_body_that_caused_it() {
    let (server, validators) = five_operator_stack();
    // A chart manifest whose image is a 1 MiB string: refused for that
    // value, which the report quotes whole.
    let huge = "A".repeat(1 << 20);
    let operator = Operator::ALL[0];
    let (manifest, text) = DeploymentDriver::new(operator)
        .requests()
        .into_iter()
        .find_map(|request| {
            let text = String::from_utf8(request.payload().to_vec()).unwrap();
            text.contains(" image: ").then_some((request, text))
        })
        .expect("some chart manifest names an image");
    // The manifest with `image` as its image and `extra` appended.
    let refusal = |image: &str, extra: &str| {
        let line = text.lines().find(|line| line.contains(" image: ")).unwrap();
        let key_end = line.find("image: ").unwrap() + "image: ".len();
        let body = text.replacen(line, &format!("{}{image}", &line[..key_end]), 1) + extra;
        ApiRequest {
            body: RequestBody::Raw(body.into(), BodyFormat::Yaml),
            ..manifest.clone()
        }
    };
    let request = refusal(&huge, "");

    // The full-size run (the default ring, filled and overflowed) takes
    // ~15 s optimized and three times that unoptimized, where a ring of 64
    // stands in; the bound is per slot either way.
    let (capacity, refusals) = if cfg!(debug_assertions) {
        (64, 100)
    } else {
        (kubefence::proxy::DEFAULT_DENIAL_CAPACITY, 5_000)
    };
    let proxy = EnforcementProxy::with_denial_capacity(server, validators, capacity);
    // The first request compiles the validators, which is not the ring's.
    assert!(proxy.handle(&request).is_denied());
    proxy.reset();
    let ((), _, held) = counted(|| {
        for _ in 0..refusals {
            let response = proxy.handle(&request);
            assert!(response.is_denied());
            // The client is still told everything.
            assert!(response.message.len() > huge.len());
        }
    });
    assert_eq!(proxy.dropped_denials(), (refusals - capacity) as u64);
    let denials = proxy.denials();
    assert_eq!(denials.len(), capacity);
    let newest = denials.last().unwrap();
    assert!(newest.violations[0].path.ends_with(".image"));
    let ViolationReason::ValueNotAllowed { found, .. } = &newest.violations[0].reason else {
        panic!("expected a value violation, got {:?}", newest.violations[0]);
    };
    assert!(found.starts_with("AAAA") && found.ends_with('…') && found.len() <= 256);
    // Under 2 KiB a slot (this record outgrows a fresh slot's buffer, which
    // doubles), against 1 MiB a record before retained strings were cut —
    // 4 GiB for the default ring.
    assert!(
        held < (capacity as i64) << 11,
        "a full ring of {capacity} holds {held} bytes live"
    );

    // A refusal of thousands of unknown keys reports every one of them, and
    // its record grows its slot far past that bound. Once `capacity`
    // ordinary refusals have overwritten every slot, that slot is back
    // within the bound.
    const WIDE_KEYS: usize = 4_096;
    let wide_keys: String = (0..WIDE_KEYS).map(|i| format!("wide-{i}: 0\n")).collect();
    let wide = refusal("A", &wide_keys);
    let ordinary = refusal("A", "");
    let ((), _, since_wide) = counted(|| {
        let response = proxy.handle(&wide);
        assert!(response.is_denied());
        assert!(response
            .message
            .contains(&format!("wide-{}", WIDE_KEYS - 1)));
        for _ in 0..capacity {
            assert!(proxy.handle(&ordinary).is_denied());
        }
    });
    println!("{since_wide} bytes live since a wide refusal and {capacity} ordinary ones");
    assert!(
        since_wide < 1 << 11,
        "a wide refusal left {since_wide} bytes live in its slot"
    );
    assert!(
        held + since_wide < (capacity as i64) << 11,
        "a full ring of {capacity} holds {} bytes live",
        held + since_wide
    );
}

/// A pod of namespace `ns` named `pod-NN`, parsed afresh on every call as
/// the server parses every request.
fn ns_pod(n: usize) -> K8sObject {
    K8sObject::from_yaml(&format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: pod-{n:02}\n  namespace: ns\n\
         spec:\n  containers:\n    - name: app\n      image: nginx\n"
    ))
    .unwrap()
}

#[test]
fn retained_watch_history_holds_bytes_not_trees() {
    // Rewrite 64 pods of one namespace, so one journal sub-shard, until its
    // 256 events fill it. In the last round the sub-shard's deque has room
    // already and each new tree replaces the stored one, so what the round
    // leaves live is what its 64 newly superseded versions keep retained.
    let store = ObjectStore::with_journal_capacity(256);
    let mut held = 0;
    for _ in 0..4 {
        let ((), _, live) = counted(|| {
            for n in 0..64 {
                store.upsert(ns_pod(n));
            }
        });
        held = live;
    }
    let retained = store.events_since(ResourceKind::Pod, "ns", 0).unwrap();
    assert_eq!(retained.events.len(), 256, "the sub-shard is full");
    let per_entry = held as f64 / 64.0;
    // The entry's buffer: revision, kind and op (10 bytes), the two
    // length-prefixed key strings, the body flag and the encoded body.
    let buffer = 10
        + (4 + "ns".len())
        + (4 + "pod-00".len())
        + 1
        + kf_yaml::binary::value_len(ns_pod(0).body());
    println!(
        "{per_entry:.2} bytes live per retained superseded entry ({held} over 64), \
         whose buffer is {buffer} bytes"
    );
    assert!(
        per_entry <= buffer as f64 + 128.0,
        "a retained superseded entry holds {per_entry} bytes live, its buffer {buffer}"
    );
}

/// Write the same 64 pods `rounds` times into a durable store in a fresh
/// `kf-*` directory (the first round creates them, every later one
/// rewrites them unchanged), so its WAL holds `64 × rounds` records over
/// the same keys and its objects are the same whatever `rounds` is; then
/// checkpoint it. Returns the allocations the checkpoint made and those
/// per durable write of the last round.
fn checkpoint_after(rounds: usize) -> (u64, f64) {
    let dir = std::env::temp_dir().join(format!(
        "kf-alloc-budget-checkpoint-{rounds}-{}",
        std::process::id()
    ));
    let (store, persistence, _) = Persistence::open(PersistConfig::new(&dir)).unwrap();
    let pods: Vec<K8sObject> = (0..64).map(ns_pod).collect();
    let mut per_write = 0.0;
    for _ in 0..rounds {
        let ((), made, _) = counted(|| {
            for pod in &pods {
                store.upsert(pod.clone());
            }
        });
        per_write = made as f64 / pods.len() as f64;
    }
    assert_eq!(persistence.wal().appended_revision(), 64 * rounds as u64);
    let (report, made, _) = counted(|| persistence.checkpoint(&store));
    let report = report.unwrap();
    assert_eq!((report.objects, report.wal_retained), (64, 0));
    drop((store, persistence));
    std::fs::remove_dir_all(&dir).unwrap();
    (made, per_write)
}

#[test]
fn a_checkpoint_allocates_the_same_whatever_the_wal_holds() {
    // Compaction copies the frames above the horizon and decodes none, so
    // a WAL 32 times longer over the same objects costs the checkpoint no
    // allocation more: the file is read into one buffer whatever its size.
    let (short, per_write) = checkpoint_after(1);
    let (long, per_rewrite) = checkpoint_after(32);
    println!(
        "{short} allocations per checkpoint over 64 WAL records, {long} over 2,048; \
         {per_write:.2} per durable create, {per_rewrite:.2} per durable rewrite"
    );
    assert_eq!(
        short, long,
        "a checkpoint's allocations grow with the WAL it compacts"
    );
    // A durable write pays for its map key, its record payload (encoded
    // once: the journal keeps it and the WAL frame copies it), its stored
    // handle, one frame buffer and the group fsync's handle.
    assert!(
        per_write <= 11.33,
        "{per_write:.2} allocations per durable create (bound 11.33)"
    );
    assert!(
        per_rewrite <= 11.0,
        "{per_rewrite:.2} allocations per durable rewrite (bound 11.00)"
    );
}

/// A server holding the five charts' objects under the RBAC policy
/// `audit2rbac` learns from an admin replay of their creates, gets and
/// lists, with the audit trail on; and the gets and lists each operator
/// made, now subject to that policy.
fn policed_reads() -> (ApiServer, Vec<ApiRequest>, Vec<ApiRequest>) {
    let mut learning = ApiServer::new();
    for operator in Operator::ALL {
        learning = learning.with_admin(&operator.user());
    }
    let (mut creates, mut gets, mut lists) = (Vec::new(), Vec::new(), Vec::new());
    for operator in Operator::ALL {
        let user = operator.user();
        for request in DeploymentDriver::new(operator).requests() {
            let (kind, namespace) = (request.kind, request.namespace.clone());
            gets.push(ApiRequest::get(&user, kind, &namespace, &request.name));
            let list = ApiRequest::list(&user, kind, &namespace);
            if !lists.contains(&list) {
                lists.push(list);
            }
            creates.push(request);
        }
    }
    for request in creates.iter().chain(&gets).chain(&lists) {
        assert!(learning.handle(request).is_success(), "{request:?}");
    }
    assert_eq!(
        learning.audit_dropped(),
        0,
        "the replay outgrew the audit log"
    );
    let mut policy = RbacPolicySet::new();
    for operator in Operator::ALL {
        let learned = audit2rbac(
            learning.audit_log().events(),
            &operator.user(),
            &Audit2RbacOptions::default(),
        );
        learned
            .roles()
            .iter()
            .cloned()
            .for_each(|r| policy.add_role(r));
        learned
            .bindings()
            .iter()
            .cloned()
            .for_each(|b| policy.add_binding(b));
    }
    let server = ApiServer::new();
    server.set_rbac_policy(Some(policy));
    for request in &creates {
        assert!(server.handle(request).is_success(), "{request:?}");
    }
    (server, gets, lists)
}

/// The allocation calls per request of serving `requests` through the
/// server and writing each response in `format`.
fn per_read(server: &ApiServer, requests: &[ApiRequest], format: BodyFormat) -> f64 {
    let mut calls = 0;
    for request in requests {
        let (wire, made, _) = counted(|| {
            let response = server.handle(request);
            assert!(response.is_success(), "{request:?}: {}", response.message);
            response.body.expect("a read body").to_wire(format)
        });
        assert!(wire.len() > 20);
        calls += made;
    }
    calls as f64 / requests.len() as f64
}

#[test]
fn a_cached_read_through_the_server_allocates_its_copy_and_its_audit_record() {
    // Every read passes RBAC under a learned policy and is audited. With
    // each version's text cached, a get allocates its response buffer, the
    // `"ok"` message and, while the audit ring is still filling, its new
    // slot's three strings: the RBAC check and the store lookup allocate
    // nothing. A list adds its envelope kind and its item handles.
    let (server, gets, lists) = policed_reads();
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        // The first pass renders each version and fills its cache.
        per_read(&server, &gets, format);
        per_read(&server, &lists, format);
        let per_get = per_read(&server, &gets, format);
        let per_list = per_read(&server, &lists, format);
        println!(
            "{format:?}: {per_get:.2} allocations per cached get, {per_list:.2} per cached \
             list, through the server under RBAC with audit"
        );
        assert!(
            per_get <= 6.0,
            "{format:?}: {per_get} allocations per cached get through the server (budget 6)"
        );
        assert!(
            per_list <= 10.0,
            "{format:?}: {per_list} allocations per cached list through the server (budget 10)"
        );
    }
}

#[test]
fn a_cached_read_through_a_wrapped_audit_ring_allocates_only_its_copy() {
    // Once the ring has wrapped, an audited request overwrites a slot's
    // strings in place: a cached get allocates its response buffer and
    // its `"ok"` message, and the slot's buffers only where a name is
    // longer than any the slot held before.
    let (server, gets, lists) = policed_reads();
    // Once an event has been overwritten, every slot has been filled.
    while server.audit_dropped() == 0 {
        per_read(&server, &gets, BodyFormat::Json);
    }
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        per_read(&server, &gets, format);
        per_read(&server, &lists, format);
        let per_get = per_read(&server, &gets, format);
        let per_list = per_read(&server, &lists, format);
        println!(
            "{format:?}: {per_get:.2} allocations per cached get, {per_list:.2} per cached \
             list, through the server under RBAC with a wrapped audit ring"
        );
        assert!(
            per_get <= 3.0,
            "{format:?}: {per_get} allocations per cached get through a wrapped ring (budget 3)"
        );
        assert!(
            per_list <= 6.0,
            "{format:?}: {per_list} allocations per cached list through a wrapped ring (budget 6)"
        );
    }
}

#[test]
fn the_audit_trail_holds_a_bounded_number_of_bytes_however_many_requests_ran() {
    // A ring slot is its stamped event and the event's three strings, each
    // in a buffer of 64 bytes for a name no longer than that.
    const SLOT_BOUND: usize = std::mem::size_of::<(u64, AuditEvent)>() + 3 * 64;
    let (server, gets, _) = policed_reads();
    for request in &gets {
        let strings = [&request.user, &request.namespace, &request.name];
        assert!(strings.iter().all(|s| s.len() <= 64), "{request:?}");
    }
    // Render every version once, so that what stays live below is audit.
    per_read(&server, &gets, BodyFormat::Json);
    let serve = |count: usize| {
        for request in gets.iter().cycle().take(count) {
            assert!(server.handle(request).is_success(), "{request:?}");
        }
    };
    let ((), _, after_20k) = counted(|| serve(20_000));
    let ((), _, since_20k) = counted(|| serve(80_000));
    let after_100k = after_20k + since_20k;
    println!(
        "live bytes after 2e4 audited gets: {after_20k}, after 1e5: {after_100k}; \
         bound {} ({SLOT_BOUND} B a slot)",
        AUDIT_LOG_CAPACITY * SLOT_BOUND
    );
    assert!(
        after_100k <= (AUDIT_LOG_CAPACITY * SLOT_BOUND) as i64,
        "{after_100k} B live after 1e5 audited gets (bound {})",
        AUDIT_LOG_CAPACITY * SLOT_BOUND
    );
    assert!(
        since_20k <= 0,
        "the audit trail grew by {since_20k} B between 2e4 and 1e5 requests"
    );
}
