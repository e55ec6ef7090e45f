//! Tree parser for the YAML subset used by the KubeFence reproduction.
//!
//! Supported syntax: block mappings, block sequences, plain / single-quoted /
//! double-quoted scalars, flow sequences (`[a, b]`) and flow mappings
//! (`{a: 1}`), comments, and multi-document streams separated by `---`.
//! Anchors, aliases, tags and block scalars (`|`, `>`) are not supported; the
//! manifests, values files and validators in this repository do not use them.
//!
//! Since the streaming-admission refactor this module is a thin *tree
//! builder* over the pull-based event tokenizer
//! ([`crate::events::Tokenizer`]): both the tree front end and the
//! validate-while-parse front end consume the same scanner, so they can
//! never disagree on the accepted syntax or on scalar typing.

use crate::events::{Event, Tokenizer};
use crate::value::{Mapping, Value};
use crate::Error;

/// Parse a single YAML document.
///
/// An empty (or comment-only) input parses to [`Value::Null`]. If the input
/// contains more than one document, only the first is returned; use
/// [`parse_documents`] for multi-document streams.
///
/// # Errors
///
/// Returns [`Error::Parse`] when the text does not conform to the supported
/// subset (bad indentation, unterminated quotes or flow collections, …).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut docs = parse_documents(text)?;
    if docs.is_empty() {
        Ok(Value::Null)
    } else {
        Ok(docs.remove(0))
    }
}

/// Parse a multi-document YAML stream (documents separated by `---`).
///
/// Documents that are entirely empty are skipped, mirroring how `kubectl`
/// treats empty documents produced by Helm conditionals.
///
/// # Errors
///
/// Returns [`Error::Parse`] when any document does not conform to the
/// supported subset.
pub fn parse_documents(text: &str) -> Result<Vec<Value>, Error> {
    let mut tokenizer = Tokenizer::new(text)?;
    let mut documents = Vec::new();
    let mut builder = TreeBuilder::default();
    while let Some(event) = tokenizer.next_event()? {
        if let Some(document) = builder.feed(event) {
            documents.push(document);
        }
    }
    Ok(documents)
}

/// An open (under-construction) container.
#[derive(Debug)]
struct Open {
    is_map: bool,
    /// Index of its first child in [`TreeBuilder::nodes`].
    start: usize,
}

/// Builds [`Value`] trees from tokenizer events. Duplicate-key rejection is
/// the tokenizer's job; the builder only assembles structure. Shared with
/// the JSON front end ([`crate::json::parse_json`]), which drives it from
/// the JSON tokenizer's identical event stream.
///
/// Children of open containers collect on one builder-owned scratch stack;
/// a finished container moves its children into an exactly-sized `Vec`, so a
/// parsed tree carries no growth slack and is no larger than its `clone()`.
#[derive(Debug)]
pub(crate) struct TreeBuilder {
    open: Vec<Open>,
    /// Children of every open container, innermost last: `(key, value)` for
    /// a mapping's, `("", item)` for a sequence's. A key is pushed with a
    /// `Null` placeholder and waits — always as the last node, because a
    /// nested container takes its own nodes back off when it ends — for
    /// [`TreeBuilder::attach`] to fill its value in.
    nodes: Vec<(String, Value)>,
    root: Option<Value>,
}

impl Default for TreeBuilder {
    /// Scratch sized for a typical manifest's open containers, so exact-size
    /// trees are not paid for with regrowth on every parse — and under
    /// 1 KiB, inside the allocator's per-thread small-object cache: a larger
    /// scratch measurably slows the parse it is meant to save.
    fn default() -> Self {
        TreeBuilder {
            open: Vec::with_capacity(16),
            nodes: Vec::with_capacity(18),
            root: None,
        }
    }
}

impl TreeBuilder {
    /// Feed one event; returns the completed document on
    /// [`Event::DocumentEnd`].
    pub(crate) fn feed(&mut self, event: Event<'_>) -> Option<Value> {
        match event {
            Event::MappingStart { .. } => self.open.push(Open {
                is_map: true,
                start: self.nodes.len(),
            }),
            Event::SequenceStart { .. } => self.open.push(Open {
                is_map: false,
                start: self.nodes.len(),
            }),
            Event::Key { name, .. } => self.nodes.push((name.into_owned(), Value::Null)),
            Event::Scalar { value, .. } => self.attach(value.into_value()),
            Event::End => {
                let open = self.open.pop().expect("events are balanced");
                // Collecting a drain allocates exactly its length.
                let children = self.nodes.drain(open.start..);
                let value = if open.is_map {
                    Value::Map(Mapping::from_unique_entries(children.collect()))
                } else {
                    Value::Seq(children.map(|(_, item)| item).collect())
                };
                self.attach(value);
            }
            Event::DocumentEnd => return Some(self.root.take().unwrap_or(Value::Null)),
        }
        None
    }

    fn attach(&mut self, value: Value) {
        match self.open.last() {
            Some(Open {
                is_map: true,
                start,
            }) => {
                debug_assert!(self.nodes.len() > *start, "key precedes value");
                self.nodes.last_mut().expect("key precedes value").1 = value;
            }
            Some(_) => self.nodes.push((String::new(), value)),
            None => self.root = Some(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Path;

    #[test]
    fn parses_flat_mapping() {
        let doc = parse("name: web\nreplicas: 3\nenabled: true\nratio: 0.5\nempty:\n").unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("web"));
        assert_eq!(doc.get("replicas").unwrap().as_i64(), Some(3));
        assert_eq!(doc.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(0.5));
        assert!(doc.get("empty").unwrap().is_null());
    }

    #[test]
    fn parses_nested_mappings() {
        let text = "spec:\n  template:\n    metadata:\n      labels:\n        app: nginx\n";
        let doc = parse(text).unwrap();
        assert_eq!(
            doc.get_path(&Path::parse("spec.template.metadata.labels.app").unwrap())
                .unwrap()
                .as_str(),
            Some("nginx")
        );
    }

    #[test]
    fn parses_block_sequences_of_scalars() {
        let doc = parse("ports:\n  - 80\n  - 443\n").unwrap();
        let ports = doc.get("ports").unwrap().as_seq().unwrap();
        assert_eq!(ports.len(), 2);
        assert_eq!(ports[1].as_i64(), Some(443));
    }

    #[test]
    fn parses_sequence_at_same_indent_as_key() {
        let doc = parse("args:\n- serve\n- --port=8080\n").unwrap();
        let args = doc.get("args").unwrap().as_seq().unwrap();
        assert_eq!(args.len(), 2);
        assert_eq!(args[1].as_str(), Some("--port=8080"));
    }

    #[test]
    fn parses_compact_mapping_sequence_items() {
        let text = "containers:\n  - name: web\n    image: nginx:latest\n    ports:\n      - containerPort: 80\n  - name: sidecar\n    image: busybox\n";
        let doc = parse(text).unwrap();
        let containers = doc.get("containers").unwrap().as_seq().unwrap();
        assert_eq!(containers.len(), 2);
        assert_eq!(
            containers[0].get("image").unwrap().as_str(),
            Some("nginx:latest")
        );
        assert_eq!(
            containers[0].get("ports").unwrap().as_seq().unwrap()[0]
                .get("containerPort")
                .unwrap()
                .as_i64(),
            Some(80)
        );
        assert_eq!(containers[1].get("name").unwrap().as_str(), Some("sidecar"));
    }

    #[test]
    fn parses_flow_collections() {
        let doc =
            parse("emptyDir: {}\nvals: [1, 2, 3]\nsel: {app: web, tier: \"front end\"}\n").unwrap();
        assert!(doc.get("emptyDir").unwrap().as_map().unwrap().is_empty());
        assert_eq!(doc.get("vals").unwrap().as_seq().unwrap().len(), 3);
        assert_eq!(
            doc.get("sel").unwrap().get("tier").unwrap().as_str(),
            Some("front end")
        );
    }

    #[test]
    fn strips_comments_and_blank_lines() {
        let text = "# heading\nname: web  # trailing comment\n\n# another\nimage: \"nginx#1\"\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("web"));
        assert_eq!(doc.get("image").unwrap().as_str(), Some("nginx#1"));
    }

    #[test]
    fn quoted_scalars_preserve_types_as_strings() {
        let doc = parse("a: \"true\"\nb: '123'\nc: \"0.0.0.0\"\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_str(), Some("true"));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("123"));
        assert_eq!(doc.get("c").unwrap().as_str(), Some("0.0.0.0"));
    }

    #[test]
    fn leading_zero_numbers_stay_strings() {
        let doc = parse("mode: 0755\n").unwrap();
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("0755"));
    }

    #[test]
    fn multi_document_streams_split_on_separators() {
        let text = "---\nkind: Service\n---\nkind: Deployment\nspec:\n  replicas: 1\n---\n";
        let docs = parse_documents(text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("kind").unwrap().as_str(), Some("Service"));
        assert_eq!(docs[1].get("kind").unwrap().as_str(), Some("Deployment"));
    }

    #[test]
    fn empty_input_is_null_or_empty_stream() {
        assert_eq!(parse("").unwrap(), Value::Null);
        assert_eq!(parse("# only comments\n").unwrap(), Value::Null);
        assert!(parse_documents("# nothing\n").unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }

    #[test]
    fn duplicate_flow_mapping_keys_are_rejected() {
        assert!(parse("m: {a: 1, a: 2}\n").is_err());
    }

    #[test]
    fn tabs_in_indentation_are_rejected() {
        assert!(parse("a:\n\tb: 1\n").is_err());
    }

    #[test]
    fn bad_indentation_is_rejected() {
        assert!(parse("a: 1\n   b: 2\n").is_err());
    }

    #[test]
    fn nested_sequence_items_with_block_value() {
        let text = "volumes:\n  -\n    name: data\n    emptyDir: {}\n";
        let doc = parse(text).unwrap();
        let volumes = doc.get("volumes").unwrap().as_seq().unwrap();
        assert_eq!(volumes[0].get("name").unwrap().as_str(), Some("data"));
    }

    #[test]
    fn colon_inside_value_does_not_split() {
        let doc =
            parse("image: docker.io/bitnami/nginx:1.25\nurl: http://example.com:8080/x\n").unwrap();
        assert_eq!(
            doc.get("image").unwrap().as_str(),
            Some("docker.io/bitnami/nginx:1.25")
        );
        assert_eq!(
            doc.get("url").unwrap().as_str(),
            Some("http://example.com:8080/x")
        );
    }

    #[test]
    fn escaped_characters_in_double_quotes() {
        let doc = parse("cmd: \"echo \\\"hi\\\"\\n\"\n").unwrap();
        assert_eq!(doc.get("cmd").unwrap().as_str(), Some("echo \"hi\"\n"));
    }

    #[test]
    fn escaped_backslash_before_closing_quote() {
        // Block scalars, flow scalars and comment stripping must all agree
        // that `"a\\"` is a complete string ending in one backslash.
        let doc = parse("v: \"a\\\\\"\nw: [\"C:\\\\\"]\nx: \"y\\\\\" # note\n").unwrap();
        assert_eq!(doc.get("v").unwrap().as_str(), Some("a\\"));
        assert_eq!(
            doc.get("w").unwrap().as_seq().unwrap()[0].as_str(),
            Some("C:\\")
        );
        assert_eq!(doc.get("x").unwrap().as_str(), Some("y\\"));
    }

    #[test]
    fn trailing_content_after_document_is_rejected() {
        let err = parse("hello\nworld\n").unwrap_err();
        assert!(err.to_string().contains("unexpected content"));
    }

    #[test]
    fn realistic_pod_manifest_parses() {
        let text = r#"apiVersion: v1
kind: Pod
metadata:
  name: test-pod
  labels:
    app: demo
spec:
  initContainers:
    - name: busybox
      image: "busybox"
      command: ["ln", "-s", "/", "/mnt/data/symlink-door"]
      volumeMounts:
        - name: test-vol
          mountPath: /test
  containers:
    - name: my-container
      image: "nginx"
      volumeMounts:
        - mountPath: /test
          name: my-volume
          subPath: symlink-door
  volumes:
    - name: my-volume
      emptyDir: {}
"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("Pod"));
        assert_eq!(
            doc.get_path(&Path::parse("spec.containers[0].volumeMounts[0].subPath").unwrap())
                .unwrap()
                .as_str(),
            Some("symlink-door")
        );
        assert_eq!(
            doc.get_path(&Path::parse("spec.initContainers[0].command").unwrap())
                .unwrap()
                .as_seq()
                .unwrap()
                .len(),
            4
        );
    }
}
