//! The reference the compact tree builder is held to, shared by this
//! crate's property tests and the repository-level chart test
//! (`tests/builder_equivalence.rs` includes this file by path).

use kf_yaml::events::{Event, Tokenizer};
use kf_yaml::json::JsonTokenizer;
use kf_yaml::{parse_documents, parse_json, Value};

/// The trees an event stream denotes, assembled the way the tree builder
/// did before it built compact trees: one growing container per open node,
/// `Mapping::insert` per key. The reference the compact builder is held to.
fn reference_trees<'a>(mut next_event: impl FnMut() -> Option<Event<'a>>) -> Vec<Value> {
    let mut documents = Vec::new();
    let mut stack: Vec<(Value, Option<String>)> = Vec::new();
    let mut root = None;
    while let Some(event) = next_event() {
        let finished = match event {
            Event::MappingStart { .. } => {
                stack.push((Value::empty_map(), None));
                continue;
            }
            Event::SequenceStart { .. } => {
                stack.push((Value::empty_seq(), None));
                continue;
            }
            Event::Key { name, .. } => {
                stack.last_mut().expect("key inside a mapping").1 = Some(name.into_owned());
                continue;
            }
            Event::DocumentEnd => {
                documents.push(root.take().unwrap_or(Value::Null));
                continue;
            }
            Event::Scalar { value, .. } => value.into_value(),
            Event::End => stack.pop().expect("balanced events").0,
        };
        match stack.last_mut() {
            Some((Value::Map(map), key)) => {
                map.insert(key.take().expect("key precedes value"), finished);
            }
            Some((Value::Seq(items), _)) => items.push(finished),
            _ => root = Some(finished),
        }
    }
    documents
}

/// `text` must parse to exactly the reference trees — as a YAML stream, or
/// as one JSON document — and the binary codec must hand each tree back.
pub fn assert_matches_reference(text: &str, json: bool, context: &str) {
    let (parsed, reference) = if json {
        let mut tokenizer = JsonTokenizer::new(text);
        (
            vec![parse_json(text).expect("emitted JSON must parse")],
            reference_trees(|| tokenizer.next_event().expect("tokenizes")),
        )
    } else {
        let mut tokenizer = Tokenizer::new(text).expect("tokenizes");
        (
            parse_documents(text).expect("emitted YAML must parse"),
            reference_trees(|| tokenizer.next_event().expect("tokenizes")),
        )
    };
    assert_eq!(parsed, reference, "{context}: builder diverged on:\n{text}");
    for tree in &parsed {
        let bytes = kf_yaml::binary::value_to_bytes(tree);
        assert_eq!(
            &kf_yaml::binary::value_from_bytes(&bytes).expect("decodes"),
            tree,
            "{context}: binary round trip changed the tree"
        );
    }
}
