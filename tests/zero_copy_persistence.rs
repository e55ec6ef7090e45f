//! The zero-copy persistence plane, pinned by pointer identity: an admitted
//! body is parsed once — by the server, or behind the proxy built from the
//! events its admission pass read — and that one `Arc<Value>` is what the
//! object store, the watch journal (poll and push), exploit forensics and
//! every read hold, while the audit trail holds the request's own wire
//! buffer. Plus a concurrent create/update/get/list stress test pinning
//! revision monotonicity under the `Arc`-handle store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use k8s_apiserver::{
    ApiRequest, ApiServer, RequestHandler, ResponseStatus, StoreBackend, WatchHub,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::{BodyFormat, Value};
use kubefence::{EnforcementProxy, Validator};

/// A pod manifest with an explicit namespace, so admission has nothing to
/// default.
fn pod_yaml(name: &str, image: &str) -> String {
    format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: default\nspec:\n  containers:\n    - name: c\n      image: {image}\n"
    )
}

/// Send one pod create through `front` (the bare `server`, or a proxy over
/// it) and require every holder of the admitted object — store, journal
/// (poll and push), exploit records, get and list responses — to share one
/// allocation: the single parse of the wire bytes; and the audit event to
/// hold the request's own buffer. Returns that tree.
fn admit_and_expect_one_tree<H: RequestHandler>(
    front: &H,
    server: &ApiServer,
    request: &ApiRequest,
) -> Arc<Value> {
    let (kind, namespace) = (ResourceKind::Pod, "default");
    let push = server
        .subscribe_push(&ApiRequest::watch("admin", kind, namespace, None))
        .expect("admin may watch");
    let cursor = server.store().watch_revision(kind);
    assert!(front.handle(request).is_success());

    let stored = server
        .store()
        .get(kind, namespace, &request.name)
        .expect("stored");
    let tree = Arc::clone(stored.object.shared_body());
    let polled = server
        .store()
        .events_since(kind, namespace, cursor)
        .unwrap()
        .events;
    let pushed = push.subscriber.try_recv().unwrap();
    let audited = server.audit_log();
    let get = front.handle(&ApiRequest::get("admin", kind, namespace, &request.name));
    let list = front.handle(&ApiRequest::list("admin", kind, namespace));
    let exploits = server.exploits();
    let mut holders = vec![
        ("journal (poll)", polled[0].object.as_ref()),
        ("journal (push)", pushed[0].object.as_ref()),
        ("get response", get.body.as_ref().and_then(|b| b.object())),
        (
            "list response",
            list.body.as_ref().and_then(|b| {
                b.items()?
                    .iter()
                    .map(|item| item.object.shared_body())
                    .find(|body| Arc::ptr_eq(body, &tree))
            }),
        ),
    ];
    holders.extend(
        exploits
            .iter()
            .filter(|e| e.object_name == request.name)
            .map(|e| ("exploit record", Some(&e.spec))),
    );
    for (holder, handle) in holders {
        let handle = handle.unwrap_or_else(|| panic!("{holder} carries the object"));
        assert!(
            Arc::ptr_eq(handle, &tree),
            "{holder} must share the stored tree, not a copy of it"
        );
    }
    let (audited, _) = audited
        .events()
        .iter()
        .rev()
        .find_map(|e| e.request_body.as_ref())
        .expect("the audit event carries the body");
    assert_eq!(
        audited.as_ptr(),
        request.body.raw().unwrap().as_ptr(),
        "the audit event must hold the request's own buffer, not a copy of it"
    );
    tree
}

#[test]
fn one_tree_from_request_to_store_audit_and_reads() {
    let server = ApiServer::new();
    let web = K8sObject::from_yaml(&pod_yaml("web", "nginx:1.25")).unwrap();
    let api = K8sObject::from_yaml(&pod_yaml("api", "nginx:1.25")).unwrap();
    for (pod, request) in [
        (&web, ApiRequest::create("admin", &web)),
        (&api, ApiRequest::create_json("admin", &api)),
    ] {
        let tree = admit_and_expect_one_tree(&server, &server, &request);
        // What went over the wire is bytes: the server's tree is its own,
        // equal to the client's and never the client's.
        assert!(!Arc::ptr_eq(&tree, pod.shared_body()));
        assert!(tree.loosely_equals(pod.body()));
    }
}

#[test]
fn exploit_records_share_the_admitted_spec() {
    let server = ApiServer::new();
    let evil = K8sObject::from_yaml(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: evil\n  namespace: default\nspec:\n  hostNetwork: true\n  containers:\n    - name: c\n      image: nginx\n",
    )
    .unwrap();
    let tree = admit_and_expect_one_tree(&server, &server, &ApiRequest::create("admin", &evil));
    let exploits = server.exploits();
    assert!(!exploits.is_empty(), "hostNetwork must trigger the oracle");
    assert!(
        exploits.iter().all(|e| Arc::ptr_eq(&e.spec, &tree)),
        "exploit forensics must share the admitted spec"
    );
}

#[test]
fn the_proxy_preserves_sharing_end_to_end() {
    // Through the full enforcement stack: proxy (streaming validation, no
    // tree) -> server (the one parse) -> store -> journal -> reads.
    let manifest = pod_yaml("web", "nginx:string");
    let validator =
        Validator::from_manifests("demo", &[kf_yaml::parse(&manifest).unwrap()]).unwrap();
    let proxy = EnforcementProxy::new(ApiServer::new(), validator);
    let pod = K8sObject::from_yaml(&pod_yaml("web", "nginx:1.25")).unwrap();
    admit_and_expect_one_tree(&proxy, proxy.upstream(), &ApiRequest::create("admin", &pod));
    assert_eq!(proxy.stats().forwarded, 1);
}

#[test]
fn raw_bodies_parse_once_and_share_from_there() {
    // A request parses exactly once, into the tree the store keeps; the
    // audit trail keeps the request's own bytes and never parses them.
    let server = ApiServer::new();
    let pod = K8sObject::from_yaml(&pod_yaml("raw", "nginx:1.25")).unwrap();
    let request = ApiRequest::create("admin", &pod);
    assert!(server.handle(&request).is_success());
    let stored = server
        .store()
        .get(ResourceKind::Pod, "default", "raw")
        .unwrap();
    let log = server.audit_log();
    let event = log
        .events()
        .iter()
        .find(|e| e.request_body.is_some())
        .unwrap();
    let (audited, format) = event.request_body.as_ref().unwrap();
    assert_eq!(
        (audited.as_ptr(), *format),
        (request.body.raw().unwrap().as_ptr(), BodyFormat::Yaml),
        "the audit must hold the request's own buffer, in its wire format"
    );
    assert!(stored.object.body().loosely_equals(pod.body()));
}

/// What Helm renders: no `metadata.namespace`; admission defaults it.
const NAMESPACELESS_POD: &str =
    "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n    - name: c\n      image: nginx:1.25\n";

#[test]
fn a_namespaceless_raw_create_is_one_tree_everywhere() {
    // Defaulting writes the namespace into the one tree the wire bytes
    // parsed to; nothing on the accept path may copy that tree, so every
    // holder — store, journal (poll and push), audit, reads — sees one
    // allocation, and sees it defaulted.
    let pod = K8sObject::from_yaml(NAMESPACELESS_POD).unwrap();
    let validator = Validator::from_manifests("demo", &[pod.body().clone()]).unwrap();
    for request in [
        ApiRequest::create("admin", &pod),
        ApiRequest::create_json("admin", &pod),
    ] {
        let proxy = EnforcementProxy::new(ApiServer::new(), validator.clone());
        let tree = admit_and_expect_one_tree(&proxy, proxy.upstream(), &request);
        let namespace = tree.get("metadata").and_then(|m| m.get("namespace"));
        assert_eq!(namespace.and_then(Value::as_str), Some("default"));
    }
}

#[test]
fn a_refused_body_is_still_audited_with_what_it_carried() {
    // `kind` does not match the endpoint: 400, nothing stored — and the
    // audit event still holds the body that was sent.
    let server = ApiServer::new();
    let pod = K8sObject::from_yaml(NAMESPACELESS_POD).unwrap();
    let mut request = ApiRequest::create("admin", &pod);
    request.kind = ResourceKind::Service;
    assert_eq!(server.handle(&request).status, ResponseStatus::BadRequest);
    assert_eq!(server.store().len(), 0);
    let log = server.audit_log();
    let event = log.events().first().expect("audited");
    assert!(!event.allowed);
    let (audited, format) = event.request_body.as_ref().unwrap();
    assert_eq!(*format, BodyFormat::Yaml);
    let sent = kf_yaml::parse(std::str::from_utf8(audited).unwrap()).unwrap();
    assert_eq!(&sent, pod.body());
}

#[test]
fn concurrent_mutations_keep_revisions_monotonic_under_readers() {
    // Writers hammer create/update on a shared set of objects while readers
    // get and list concurrently; every observation of one object's
    // resource_version must be non-decreasing, versions must be globally
    // unique, and the final revision must equal the number of writes.
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: usize = 120;
    const OBJECTS: usize = 8;

    let server = ApiServer::new();
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("obj-{i}")).collect();
    // Seed every object once so updates always find a target.
    for name in &names {
        let pod = K8sObject::from_yaml(&pod_yaml(name, "nginx:1.25")).unwrap();
        assert!(server
            .handle(&ApiRequest::create("admin", &pod))
            .is_success());
    }
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let server = &server;
            let names = &names;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let name = &names[(writer + round) % names.len()];
                    let pod =
                        K8sObject::from_yaml(&pod_yaml(name, &format!("nginx:1.{round}"))).unwrap();
                    // Alternate create (apply semantics) and update.
                    let request = if round % 2 == 0 {
                        ApiRequest::create("admin", &pod)
                    } else {
                        ApiRequest::update("admin", &pod)
                    };
                    assert!(server.handle(&request).is_success());
                }
            });
        }
        let reader_handles: Vec<_> = (0..READERS)
            .map(|reader| {
                let server = &server;
                let names = &names;
                let stop = &stop;
                scope.spawn(move || {
                    let mut last_seen = vec![0u64; names.len()];
                    let mut observations = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let index = (observations + reader) % names.len();
                        if let Some(stored) =
                            server
                                .store()
                                .get(ResourceKind::Pod, "default", &names[index])
                        {
                            assert!(
                                stored.resource_version >= last_seen[index],
                                "resource_version went backwards: {} < {}",
                                stored.resource_version,
                                last_seen[index]
                            );
                            last_seen[index] = stored.resource_version;
                        }
                        // Lists observe a consistent per-shard snapshot of
                        // handles; every object stays present throughout.
                        let listed = server.store().list(ResourceKind::Pod, "default");
                        assert_eq!(listed.len(), names.len());
                        observations += 1;
                    }
                    observations
                })
            })
            .collect();
        // Writers finish first; then release the readers.
        // (Scope joins writers implicitly when their closures return, but
        // readers poll `stop`, so flip it once the writer handles are done.)
        // The scope API joins everything at block end; to sequence, spawn a
        // watchdog that flips `stop` after the writers' work is observable.
        let server_ref = &server;
        let stop_ref = &stop;
        scope.spawn(move || {
            let expected = (OBJECTS + WRITERS * ROUNDS) as u64;
            // Bounded wait: if a writer dies, release the readers anyway so
            // the writer's panic (not a hang) fails the test.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while server_ref.store().revision() < expected && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            stop_ref.store(true, Ordering::Relaxed);
        });
        for handle in reader_handles {
            let observations = handle.join().expect("reader panicked");
            assert!(observations > 0, "readers must observe at least once");
        }
    });

    // Every write bumped the revision exactly once.
    assert_eq!(
        server.store().revision(),
        (OBJECTS + WRITERS * ROUNDS) as u64
    );
    // The store still holds exactly the seeded objects, each at a version
    // no writer exceeded.
    assert_eq!(server.store().len(), OBJECTS);
    for stored in server.store().list(ResourceKind::Pod, "default") {
        assert!(stored.resource_version <= (OBJECTS + WRITERS * ROUNDS) as u64);
    }
}
