//! Exact allocation counts as the regression gate for the accept path: one
//! admitted create builds one compact tree and nothing copies it. Clocks on
//! this box move 30 % on their own; these counts repeat exactly, so they
//! bound what the end-to-end benchmark can only show through noise.
//!
//! This file is the only place in the repository where `unsafe` appears (the
//! counting `#[global_allocator]`); the product crates keep
//! `#![forbid(unsafe_code)]`. Counters are per thread, so the tests do not
//! disturb each other under the parallel test runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use k8s_apiserver::{ApiRequest, ApiServer, RequestBody, RequestHandler};
use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{
    BodyFormat, EnforcementProxy, GeneratorConfig, PolicyGenerator, ValidatorSet, ViolationReason,
};

thread_local! {
    /// Allocation calls (`alloc` + `realloc`) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        LIVE.with(|l| l.set(l.get() + layout.size() as i64));
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
        LIVE.with(|l| l.set(l.get() + new_size as i64 - layout.size() as i64));
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

/// Every manifest of the five charts as `kubectl apply` would send it, once
/// as YAML and once as JSON.
fn chart_creates() -> Vec<ApiRequest> {
    let mut requests = Vec::new();
    for operator in Operator::ALL {
        let driver = DeploymentDriver::new(operator);
        for (yaml, object) in driver.requests().into_iter().zip(driver.objects()) {
            let json = ApiRequest {
                namespace: yaml.namespace.clone(),
                ..ApiRequest::create_json(&yaml.user, object)
            };
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
    assert!(
        per_create <= 105.0,
        "{per_create} allocations per admitted create (budget 105)"
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
    assert!(
        per_parse <= 60.0,
        "{per_parse} allocations per materialize_body (budget 60)"
    );
    // … and a parsed tree carries no growth slack.
    let ratio = live as f64 / wire as f64;
    assert!(
        ratio <= 3.5,
        "a parsed tree holds {ratio} x its wire bytes live (budget 3.5)"
    );
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
    assert!(
        per_refusal <= 90.0,
        "{per_refusal} allocations per refused attack (budget 90)"
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

#[test]
fn a_denial_pins_a_bounded_share_of_the_body_that_caused_it() {
    let (server, validators) = five_operator_stack();
    // A chart manifest whose image is a 1 MiB string: refused for that
    // value, which the report quotes whole.
    let huge = "A".repeat(1 << 20);
    let operator = Operator::ALL[0];
    let request = DeploymentDriver::new(operator)
        .requests()
        .into_iter()
        .find_map(|request| {
            let text = String::from_utf8(request.payload().to_vec()).unwrap();
            let image = text.lines().find(|line| line.contains(" image: "))?;
            let key_end = image.find("image: ").unwrap() + "image: ".len();
            let body = text.replacen(image, &format!("{}{huge}", &image[..key_end]), 1);
            Some(ApiRequest {
                body: RequestBody::Raw(body.into(), BodyFormat::Yaml),
                ..request
            })
        })
        .expect("some chart manifest names an image");

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
}
