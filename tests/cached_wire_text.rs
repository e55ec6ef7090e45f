//! A read response is spliced from each stored object's cached wire text.
//! These tests pin its bytes: every get and list, in YAML and JSON, on the
//! read that renders an object and on the reads that copy its cached text,
//! must equal the emitters' rendering of the owned reference document
//! ([`ResponseBody::to_value`]). The benchmark checks only the status of a
//! read, so this suite is what guards the bytes.

use std::sync::Arc;

use k8s_apiserver::{ResponseBody, StoredObject};
use k8s_model::K8sObject;
use kf_workloads::{DeploymentDriver, Operator};
use kf_yaml::{BodyFormat, Mapping, Value};

/// A config map whose data holds every string shape the writers treat
/// specially, empty containers, a sequence of sequences and keys that need
/// quoting.
fn edge_object() -> K8sObject {
    let mut data = Mapping::new();
    for (key, text) in [
        ("newline", "two\nlines"),
        ("carriageReturn", "cr\rhere"),
        ("tab", "tab\there"),
        ("quote", "say \"hi\""),
        ("leadingSpaces", "  indented"),
        ("colonSpace", "key: value"),
        ("nonAscii", "日本 語 ñame"),
        ("lineSeparator", "a\u{2028}b\u{85}c"),
        ("needs quoting", "true"),
        ("123", "0x1F"),
        ("", ""),
    ] {
        data.insert(key, Value::from(text));
    }
    data.insert("emptyMap", Value::empty_map());
    data.insert("emptySeq", Value::empty_seq());
    data.insert(
        "seqOfSeqs",
        Value::Seq(vec![
            Value::Seq(vec![Value::from("a: b"), Value::Seq(vec![Value::Null])]),
            Value::empty_seq(),
            Value::Seq(vec![Value::Map(data.clone())]),
        ]),
    );
    let mut metadata = Mapping::new();
    metadata.insert("name", Value::from("edge"));
    metadata.insert("namespace", Value::from("default"));
    let mut root = Mapping::new();
    root.insert("apiVersion", Value::from("v1"));
    root.insert("kind", Value::from("ConfigMap"));
    root.insert("metadata", Value::Map(metadata));
    root.insert("data", Value::Map(data));
    K8sObject::from_value(Value::Map(root)).expect("a config map")
}

/// The 50 chart objects and the edge object as fresh stored handles, none
/// of them read yet.
fn unread_objects() -> Vec<Arc<StoredObject>> {
    let mut objects: Vec<_> = Operator::ALL
        .into_iter()
        .flat_map(|operator| DeploymentDriver::new(operator).objects().to_vec())
        .map(|object| StoredObject::shared(object, 1))
        .collect();
    assert_eq!(objects.len(), 50, "five charts, 50 manifests");
    objects.push(StoredObject::shared(edge_object(), 1));
    objects
}

/// Serve `body` in `format` and require the reference bytes.
fn assert_serves_reference(body: &ResponseBody, format: BodyFormat, read: &str) {
    let reference = body.to_value();
    let expected = match format {
        BodyFormat::Json => kf_yaml::to_json(&reference),
        _ => kf_yaml::to_yaml(&reference),
    };
    assert_eq!(
        body.to_wire(format),
        expected,
        "{read} read in {format:?} of {body:?}"
    );
}

fn gets(objects: &[Arc<StoredObject>]) -> Vec<ResponseBody> {
    objects
        .iter()
        .map(|stored| ResponseBody::Object(Arc::clone(stored)))
        .collect()
}

fn list(objects: &[Arc<StoredObject>]) -> ResponseBody {
    ResponseBody::List {
        kind: "DeploymentList".into(),
        items: objects.to_vec(),
    }
}

#[test]
fn gets_serve_the_emitters_bytes_on_first_and_cached_reads() {
    for format in [BodyFormat::Yaml, BodyFormat::Json, BodyFormat::Auto] {
        let objects = unread_objects();
        for read in ["first", "cached"] {
            for get in gets(&objects) {
                assert_serves_reference(&get, format, read);
            }
        }
        // Items whose text a get cached splice into a list.
        assert_serves_reference(&list(&objects), format, "cached list");
    }
}

#[test]
fn lists_serve_the_emitters_bytes_on_first_and_cached_reads() {
    for format in [BodyFormat::Yaml, BodyFormat::Json, BodyFormat::Auto] {
        let other = match format {
            BodyFormat::Json => BodyFormat::Yaml,
            _ => BodyFormat::Json,
        };
        let objects = unread_objects();
        let cached = |format| {
            objects
                .iter()
                .filter(|stored| stored.object.cached_wire(format).is_some())
                .count()
        };
        let body = list(&objects);
        // A list writes items no read has served from their trees and
        // caches nothing.
        for read in ["first", "second"] {
            assert_serves_reference(&body, format, read);
        }
        assert_eq!(
            cached(format),
            0,
            "{format:?}: a first list filled the cache"
        );
        // Once gets have served them in the other format, a list caches
        // their text in its own...
        for get in gets(&objects) {
            get.to_wire(other);
        }
        assert_serves_reference(&body, format, "filling");
        assert_eq!(cached(format), objects.len(), "{format:?}");
        assert_serves_reference(&body, format, "cached");
        // ...and a get serves what the list cached.
        for get in gets(&objects) {
            assert_serves_reference(&get, format, "cached");
        }
        // A list mixing cached and unread items.
        let mut mixed = unread_objects();
        mixed.rotate_left(25);
        mixed.truncate(17);
        mixed.extend(objects[..17].iter().cloned());
        assert_serves_reference(&list(&mixed), format, "mixed");
    }
}

#[test]
fn the_edge_object_quotes_what_it_must() {
    // The edge object exercises what it is meant to: quoted keys, escaped
    // line breaks (a carriage return and U+2028 among them), and empty
    // containers inline.
    let edge = ResponseBody::Object(StoredObject::shared(edge_object(), 1));
    let yaml = edge.to_wire(BodyFormat::Yaml);
    for fragment in [
        "\"two\\nlines\"",
        "\"cr\\rhere\"",
        "\"a\\Lb\\Nc\"",
        "\"needs quoting\": \"true\"",
        "\"123\": \"0x1F\"",
        "emptyMap: {}",
        "emptySeq: []",
        "    -\n      - \"a: b\"\n",
    ] {
        assert!(yaml.contains(fragment), "{fragment:?} in\n{yaml}");
    }
    assert!(!yaml.contains("two\nlines"));
    let json = edge.to_wire(BodyFormat::Json);
    assert!(json.contains("\"two\\nlines\""), "{json}");
}

#[test]
fn a_body_edited_into_no_mapping_is_served_from_its_tree() {
    // `body_mut` can leave a body that is no non-empty mapping, which has
    // no first entry for a list's dash line; a list writes such an item
    // from its tree.
    let mut objects = unread_objects();
    for (i, body) in [
        Value::empty_map(),
        Value::from("scalar"),
        Value::Seq(vec![Value::from(1)]),
    ]
    .into_iter()
    .enumerate()
    {
        let mut object = edge_object();
        *object.body_mut() = body;
        objects.insert(i * 2, StoredObject::shared(object, 1));
    }
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        for read in ["first", "cached"] {
            assert_serves_reference(&list(&objects), format, read);
            for get in gets(&objects[..6]) {
                assert_serves_reference(&get, format, read);
            }
        }
    }
}

/// How many of `objects` have their YAML list element cached.
fn cached_items(objects: &[Arc<StoredObject>]) -> usize {
    objects
        .iter()
        .filter(|stored| stored.object.cached_yaml_item().is_some())
        .count()
}

#[test]
fn yaml_lists_copy_the_element_cached_beside_each_document() {
    for format in [BodyFormat::Yaml, BodyFormat::Auto] {
        // Never served: every item is written from its tree and nothing is
        // cached.
        let unread = unread_objects();
        assert_serves_reference(&list(&unread), format, "never served");
        assert_eq!(cached_items(&unread), 0, "{format:?}");
        // After YAML gets every element is cached beside its document; a
        // list copies them and fills nothing.
        let read = unread_objects();
        for get in gets(&read) {
            get.to_wire(format);
        }
        assert_eq!(cached_items(&read), read.len(), "{format:?}");
        let elements: Vec<*const u8> = read
            .iter()
            .map(|stored| stored.object.cached_yaml_item().unwrap().as_ptr())
            .collect();
        for pass in ["after YAML gets", "again"] {
            assert_serves_reference(&list(&read), format, pass);
        }
        for (stored, element) in read.iter().zip(elements) {
            assert_eq!(stored.object.cached_yaml_item().unwrap().as_ptr(), element);
            assert_eq!(stored.object.cached_wire(BodyFormat::Json), None);
        }
        // After JSON gets a list fills each YAML slot, element included,
        // and the next list copies what it filled.
        let served = unread_objects();
        for get in gets(&served) {
            get.to_wire(BodyFormat::Json);
        }
        assert_serves_reference(&list(&served), format, "filling");
        assert_eq!(cached_items(&served), served.len(), "{format:?}");
        assert_serves_reference(&list(&served), format, "filled");
    }
}

#[test]
fn yaml_lists_write_a_body_edited_into_no_mapping_from_its_tree() {
    // A body edited into `{}`, a scalar or a sequence, after a YAML get
    // cached its element: never read again, read again in YAML (the slot
    // holds a document and no element) and read again in JSON (a list
    // fills the YAML slot).
    let mut objects = unread_objects();
    for body in [
        Value::empty_map(),
        Value::from("scalar"),
        Value::Seq(vec![Value::from(1)]),
    ] {
        for reread in [None, Some(BodyFormat::Yaml), Some(BodyFormat::Json)] {
            let mut object = edge_object();
            let mut served = String::new();
            object.write_wire(BodyFormat::Yaml, &mut served);
            assert!(object.cached_yaml_item().is_some());
            *object.body_mut() = body.clone();
            assert_eq!(object.cached_yaml_item(), None);
            let stored = StoredObject::shared(object, 1);
            if let Some(format) = reread {
                ResponseBody::Object(Arc::clone(&stored)).to_wire(format);
            }
            objects.insert(objects.len() / 2, stored);
        }
    }
    for format in [BodyFormat::Yaml, BodyFormat::Auto] {
        for read in ["first", "cached"] {
            assert_serves_reference(&list(&objects), format, read);
        }
    }
    let edited = objects
        .iter()
        .filter(|stored| stored.object.cached_wire(BodyFormat::Yaml).is_some())
        .filter(|stored| stored.object.cached_yaml_item().is_none())
        .count();
    assert_eq!(edited, 6, "the re-read edited bodies cache no element");
}
