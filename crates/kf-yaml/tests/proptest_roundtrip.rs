//! Property-based tests: every document the emitter can produce must re-parse
//! to a structurally equivalent document (YAML) or to the same document
//! (JSON), and path operations must be consistent with each other.
//!
//! The build environment has no crates-registry access, so instead of the
//! `proptest` crate these properties run over a hand-rolled generator: a
//! seeded deterministic RNG produces random documents of bounded depth and
//! width, in the same shapes Kubernetes manifests use. String scalars — and
//! the emitter properties' mapping keys — are drawn from what breaks a
//! writer: multibyte UTF-8, line breaks, tabs and control bytes, indicator
//! first characters, numbers, YAML 1.1 words and their lookalikes. Failures
//! print the case number and the offending document, so a reproduction is
//! one seed away.
//!
//! `KF_FUZZ_CASES` sets the cases per property (default 256); CI's `parity`
//! job runs 10 000.

use kf_yaml::{parse, parse_json, to_json, to_yaml, Mapping, Path, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::assert_matches_reference;

/// Cases per property: `KF_FUZZ_CASES`, or 256.
fn cases() -> usize {
    match std::env::var("KF_FUZZ_CASES") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("KF_FUZZ_CASES must be an integer, got `{v}`")),
        Err(_) => 256,
    }
}

/// A mapping key in the shape Kubernetes manifests use:
/// `[a-zA-Z][a-zA-Z0-9_-]{0,12}`. Path properties need these.
fn gen_key(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let len = rng.gen_range(0usize..13);
    let mut key = String::new();
    key.push(FIRST[rng.gen_range(0usize..FIRST.len())] as char);
    for _ in 0..len {
        key.push(REST[rng.gen_range(0usize..REST.len())] as char);
    }
    key
}

/// A manifest-shaped key or, as often, any string.
fn gen_any_key(rng: &mut SmallRng) -> String {
    if rng.gen_range(0usize..2) == 0 {
        gen_key(rng)
    } else {
        gen_string(rng)
    }
}

/// Whole scalars that read as something other than a string (to this
/// crate's reader or to a YAML 1.1 one), and lookalikes that do not.
const WORDS: &[&str] = &[
    "null",
    "Null",
    "~",
    "true",
    "False",
    "yes",
    "Yes",
    "NO",
    "on",
    "Off",
    "y",
    "N",
    "<<",
    "42",
    "-7",
    "+1",
    "007",
    "1e5",
    ".5",
    "5.",
    "inf",
    "-Infinity",
    "NaN",
    ".inf",
    "-.Inf",
    ".nan",
    "0x1F",
    "0o17",
    "0b101",
    "1_000",
    "1__0.5",
    "1:20",
    "1.2.3",
    "nginx:1.25",
    "v1",
    "0x",
    "e5",
    "1e",
    "_1",
];

/// Multibyte characters (Unicode whitespace among them), line breaks, tabs,
/// control bytes and the separators a plain scalar cannot hold.
const PIECES: &[&str] = &[
    "ñ", "é", "Ж", "日", "你", "😀", "\u{a0}", "\u{85}", "\u{2028}", "\u{feff}", "\n", "\t", "\r",
    "\r\n", "\u{0}", "\u{1}", "\u{b}", "\u{c}", "\u{1b}", "\u{1f}", "\u{7f}", "- ", ": ", " #",
    "'", "\"", "\\", "---", "{}", "[]",
];

/// The characters that may not start a plain scalar.
const INDICATORS: &[u8] = b"-?:,[]{}#&*!|>%@`";

/// A string scalar: a whole word from [`WORDS`], or pieces of printable
/// ASCII, [`PIECES`] and [`WORDS`], sometimes behind an indicator.
fn gen_string(rng: &mut SmallRng) -> String {
    if rng.gen_range(0usize..4) == 0 {
        return WORDS[rng.gen_range(0usize..WORDS.len())].to_owned();
    }
    let mut text = String::new();
    if rng.gen_range(0usize..4) == 0 {
        text.push(INDICATORS[rng.gen_range(0usize..INDICATORS.len())] as char);
    }
    for _ in 0..rng.gen_range(0usize..12) {
        match rng.gen_range(0usize..4) {
            0 => text.push_str(PIECES[rng.gen_range(0usize..PIECES.len())]),
            1 => text.push_str(WORDS[rng.gen_range(0usize..WORDS.len())]),
            _ => text.push((rng.gen_range(0x20u64..0x7f) as u8) as char),
        }
    }
    text
}

fn gen_scalar(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0usize..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0usize..2) == 1),
        2 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        3 => {
            let x = rng.gen_range(-1000.0f64..1000.0);
            Value::Float((x * 100.0).round() / 100.0)
        }
        4 => {
            const EDGES: &[Value] = &[
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Float(1e21),
                Value::Float(1e-7),
                Value::Float(-0.0),
                Value::Float(f64::MAX),
                Value::Float(f64::MIN_POSITIVE),
                Value::Float(5e-324),
            ];
            EDGES[rng.gen_range(0usize..EDGES.len())].clone()
        }
        _ => Value::Str(gen_string(rng)),
    }
}

/// A random document of bounded depth (≤3 nested containers) and width (≤5
/// children per container), its mapping keys drawn by `key`.
fn gen_tree(rng: &mut SmallRng, depth: usize, key: fn(&mut SmallRng) -> String) -> Value {
    // Deeper levels become increasingly scalar-heavy and bottom out at
    // depth 0.
    if depth == 0 || rng.gen_range(0usize..4) == 0 {
        return gen_scalar(rng);
    }
    if rng.gen_range(0usize..2) == 0 {
        let len = rng.gen_range(0usize..5);
        Value::Seq((0..len).map(|_| gen_tree(rng, depth - 1, key)).collect())
    } else {
        let len = rng.gen_range(0usize..5);
        let mut map = Mapping::new();
        for _ in 0..len {
            map.insert(key(rng), gen_tree(rng, depth - 1, key));
        }
        Value::Map(map)
    }
}

/// A document whose keys address by [`Path`].
fn gen_value(rng: &mut SmallRng, depth: usize) -> Value {
    gen_tree(rng, depth, gen_key)
}

/// A document whose keys are drawn like its strings, for the emitter.
fn gen_document(rng: &mut SmallRng, depth: usize) -> Value {
    gen_tree(rng, depth, gen_any_key)
}

/// Run a property over [`cases`] generated documents with a per-property
/// seed.
fn for_each_case(seed: u64, mut property: impl FnMut(usize, &mut SmallRng)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..cases() {
        property(case, &mut rng);
    }
}

/// Emit → parse is the identity (up to int/float looseness).
#[test]
fn emit_parse_roundtrip() {
    for_each_case(0xA11CE, |case, rng| {
        let doc = gen_document(rng, 3);
        let text = to_yaml(&doc);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted YAML must parse ({e}):\n{text:?}"));
        assert!(
            reparsed.loosely_equals(&doc),
            "case {case}: roundtrip mismatch:\n{text:?}\nread back as {reparsed:?}"
        );
    });
}

/// Emit → parse is the identity for JSON, exactly: every scalar keeps its
/// type and value.
#[test]
fn json_emit_parse_roundtrip_is_exact() {
    for_each_case(0x75_0E, |case, rng| {
        let doc = gen_document(rng, 3);
        let text = to_json(&doc);
        let reparsed = parse_json(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted JSON must parse ({e}):\n{text}"));
        assert_eq!(reparsed, doc, "case {case}: roundtrip mismatch:\n{text}");
    });
}

/// Every leaf reported by `leaves()` is reachable through `get_path`.
#[test]
fn leaves_are_addressable() {
    for_each_case(0xB0B, |case, rng| {
        let doc = gen_value(rng, 3);
        for (path, leaf) in doc.leaves() {
            let found = doc.get_path(&path);
            assert!(
                found.is_some(),
                "case {case}: leaf path {path} did not resolve"
            );
            assert!(
                found.unwrap().loosely_equals(leaf),
                "case {case}: leaf mismatch at {path}"
            );
        }
    });
}

/// `set_path` followed by `get_path` returns the value just written.
#[test]
fn set_then_get_is_consistent() {
    for_each_case(0xC0FFEE, |case, rng| {
        let mut doc = gen_value(rng, 3);
        let key_count = rng.gen_range(1usize..4);
        let keys: Vec<String> = (0..key_count).map(|_| gen_key(rng)).collect();
        let scalar = gen_scalar(rng);
        // Only exercise paths whose prefixes are maps or absent, which is the
        // contract under which set_path succeeds.
        let path = Path::parse(&keys.join(".")).unwrap();
        if doc.set_path(&path, scalar.clone()).is_ok() {
            let read = doc
                .get_path(&path)
                .expect("value just written must resolve");
            assert!(
                read.loosely_equals(&scalar),
                "case {case}: read-after-write mismatch at {path}"
            );
        }
    });
}

/// Merging a document into itself is idempotent.
#[test]
fn merge_is_idempotent() {
    for_each_case(0xD00D, |case, rng| {
        let doc = gen_value(rng, 3);
        let mut merged = doc.clone();
        merged.merge_from(&doc);
        assert!(
            merged.loosely_equals(&doc),
            "case {case}: self-merge changed the document"
        );
    });
}

/// Field-path notation never contains concrete indices: every `[` is part of
/// the collapsed `[]` marker.
#[test]
fn field_paths_have_no_indices() {
    for_each_case(0xFACE, |case, rng| {
        let doc = gen_value(rng, 3);
        for field in doc.field_paths() {
            for (i, c) in field.char_indices() {
                if c == '[' {
                    assert_eq!(
                        field.as_bytes().get(i + 1),
                        Some(&b']'),
                        "case {case}: field path `{field}` contains a concrete index"
                    );
                }
            }
        }
    });
}

/// Parsing never panics on emitted output concatenated as a stream.
#[test]
fn multi_document_stream_parses() {
    for_each_case(0x5EED, |case, rng| {
        let count = rng.gen_range(1usize..4);
        let docs: Vec<Value> = (0..count).map(|_| gen_document(rng, 3)).collect();
        let mut text = String::new();
        for d in &docs {
            text.push_str("---\n");
            text.push_str(&to_yaml(d));
        }
        let parsed = kf_yaml::parse_documents(&text).expect("stream must parse");
        assert_eq!(
            parsed.len(),
            docs.len(),
            "case {case}: document count changed"
        );
        for (original, reparsed) in docs.iter().zip(parsed.iter()) {
            assert!(
                reparsed.loosely_equals(original),
                "case {case}: stream roundtrip mismatch"
            );
        }
    });
}

/// The compact builder returns trees `==` to the insert-based reference, in
/// both wire formats and on multi-document streams.
#[test]
fn compact_builder_matches_the_reference_on_generated_documents() {
    for_each_case(0xB111D, |case, rng| {
        let count = rng.gen_range(1usize..4);
        let mut stream = String::new();
        for _ in 0..count {
            let doc = gen_document(rng, 3);
            assert_matches_reference(&to_json(&doc), true, &format!("case {case} (json)"));
            stream.push_str("---\n");
            stream.push_str(&to_yaml(&doc));
        }
        assert_matches_reference(&stream, false, &format!("case {case} (yaml)"));
    });
}

/// The same on the hand-written shapes the unit tests parse: flow
/// collections, compact sequence items, empty containers and documents,
/// quoting, nesting in both directions.
#[test]
fn compact_builder_matches_the_reference_on_the_unit_corpus() {
    const YAML: &[&str] = &[
        "",
        "# only comments\n",
        "hello\n",
        "name: web\nreplicas: 3\nenabled: true\nratio: 0.5\nempty:\n",
        "spec:\n  template:\n    metadata:\n      labels:\n        app: nginx\n",
        "ports:\n  - 80\n  - 443\nargs:\n- serve\n- --port=8080\n",
        "containers:\n  - name: web\n    image: nginx:latest\n    ports:\n      - containerPort: 80\n  - name: sidecar\n    image: busybox\n",
        "emptyDir: {}\nnone: []\nvals: [1, 2, 3]\nsel: {app: web, tier: \"front end\"}\nnest: [[1, [2]], {a: [b]}]\n",
        "a: \"true\"\nb: '123'\nc: \"0.0.0.0\"\nmode: 0755\ncmd: \"echo \\\"hi\\\"\\n\"\n",
        "volumes:\n  -\n    name: data\n    emptyDir: {}\n",
        "---\nkind: Service\n---\n---\nkind: Deployment\nspec:\n  replicas: 1\n---\n",
        "- 1\n- - 2\n  - - 3\n- {k: [v]}\n",
        "a: 1\nb: 2\nc: 3\nd: 4\ne: 5\nf: 6\ng: 7\nh: 8\ni: 9\nj: [1, 2, 3, 4, 5, 6, 7, 8, 9]\n",
    ];
    const JSON: &[&str] = &[
        "null",
        "\"text\"",
        "{}",
        "[]",
        "{\"a\": {\"b\": {\"c\": [1, 2.5, true, null, \"x\"]}}, \"d\": [], \"e\": {}}",
        "[[1, [2, [3]]], {\"k\": [{\"v\": {}}]}]",
        " { \"kind\" : \"Pod\" , \"metadata\" : { \"name\" : \"p\" , \"labels\" : { \"a\" : \"b\" } } } ",
    ];
    for text in YAML {
        assert_matches_reference(text, false, "yaml corpus");
    }
    for text in JSON {
        assert_matches_reference(text, true, "json corpus");
    }
}
