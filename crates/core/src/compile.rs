//! The compiled admission plane: an offline lowering of [`PolicyNode`] trees
//! into a flat, cache-friendly arena that the streaming matcher
//! ([`crate::stream`]) evaluates without pointer chasing, map walks or
//! pattern re-parsing.
//!
//! The tree representation ([`PolicyNode`]) remains the *authoring* form —
//! it is what manifest consolidation, merging and security locks operate on —
//! and its walk ([`Validator::validate_tree`](crate::Validator::validate_tree))
//! is the reference the parity suites pin the stream to. Before enforcement,
//! [`compile`] lowers the per-kind trees of a
//! [`Validator`](crate::Validator) into one [`CompiledValidator`]:
//!
//! * every node becomes one entry of a flat `Vec<CompiledNode>` addressed by
//!   `u32` index (no `Box`/`BTreeMap` indirection on the request path);
//! * mapping keys are interned into a string table and each map's entries are
//!   stored as one contiguous, key-sorted slice, so member lookup is a binary
//!   search over adjacent memory;
//! * string patterns are pre-split into their literal/wildcard pieces once,
//!   instead of on every request;
//! * the per-kind policy roots live in a dense table indexed by
//!   [`ResourceKind::index`], making kind dispatch a single array load.
//!
//! The arena has no walk of its own: only the stream reads it. See
//! `docs/compiled-layout.md` for the memory-layout invariants.

use std::collections::HashMap;

use k8s_model::ResourceKind;
use kf_yaml::Value;

use crate::validator::{pattern_pieces, pieces_match, PatternPiece, PolicyNode, TypeTag};

/// Sentinel for "this kind has no policy" in the kind-root table.
const NO_ROOT: u32 = u32::MAX;

/// One node of the compiled policy arena. All cross-references are `u32`
/// indices into the side tables of the owning [`CompiledValidator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledNode {
    /// Anything is allowed.
    Any,
    /// The value must match the type tag.
    Type(TypeTag),
    /// The value must loosely equal `values[value]`.
    Const {
        /// Index into the value table.
        value: u32,
    },
    /// The value must loosely equal one of `values[start..start + len]`.
    Enum {
        /// First option in the value table.
        start: u32,
        /// Number of options.
        len: u32,
    },
    /// The value must be a string matching `patterns[pattern]`.
    Pattern {
        /// Index into the pattern table.
        pattern: u32,
    },
    /// The value must be a mapping whose keys all appear among
    /// `map_entries[entries_start..entries_start + len]` (sorted by key).
    Map {
        /// First entry of this map's contiguous, key-sorted run.
        entries_start: u32,
        /// Number of entries.
        len: u32,
    },
    /// The value must be a sequence; every element checks against
    /// `nodes[element]`.
    Seq {
        /// Element policy node.
        element: u32,
    },
}

/// One `key → child` edge of a compiled map node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Interned key (index into the string table).
    pub key: u32,
    /// Child node index.
    pub child: u32,
}

/// A pattern whose literal/wildcard pieces were split at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPattern {
    /// The original pattern text (used in violation messages).
    source: String,
    /// Pre-split pieces.
    pieces: Vec<PatternPiece>,
}

impl CompiledPattern {
    fn new(source: &str) -> Self {
        CompiledPattern {
            source: source.to_owned(),
            // A Pattern node is only ever constructed from text that splits
            // into pieces; fall back to a pure-literal piece list otherwise.
            pieces: pattern_pieces(source)
                .unwrap_or_else(|| vec![PatternPiece::Literal(source.to_owned())]),
        }
    }

    /// Whether a concrete string matches the pattern.
    pub fn matches(&self, text: &str) -> bool {
        pieces_match(&self.pieces, text)
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }
}

/// A workload validator lowered into flat arenas; the enforcement hot path
/// runs entirely on this form.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledValidator {
    /// The node arena. Node 0 (when present) is the root of the first
    /// compiled kind; roots are addressed through `kind_roots`.
    nodes: Vec<CompiledNode>,
    /// Contiguous, per-map key-sorted entry runs.
    map_entries: Vec<MapEntry>,
    /// Interned key strings (deduplicated across the whole validator).
    strings: Vec<String>,
    /// Constant/enumeration option values.
    values: Vec<Value>,
    /// Pre-split string patterns.
    patterns: Vec<CompiledPattern>,
    /// Per-kind policy roots, indexed by [`ResourceKind::index`];
    /// `u32::MAX` marks kinds the workload never uses.
    kind_roots: [u32; ResourceKind::COUNT],
}

impl Default for CompiledValidator {
    /// An empty validator covering no kinds. Hand-written rather than
    /// derived: the derive would zero-fill `kind_roots`, and 0 is a valid
    /// node index, not the `NO_ROOT` sentinel.
    fn default() -> Self {
        CompiledValidator {
            nodes: Vec::new(),
            map_entries: Vec::new(),
            strings: Vec::new(),
            values: Vec::new(),
            patterns: Vec::new(),
            kind_roots: [NO_ROOT; ResourceKind::COUNT],
        }
    }
}

impl CompiledValidator {
    /// Whether the validator has a policy for a kind (O(1)).
    pub fn covers(&self, kind: ResourceKind) -> bool {
        self.kind_roots[kind.index()] != NO_ROOT
    }

    /// Number of arena nodes (diagnostics; see `docs/compiled-layout.md`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of interned key strings.
    pub fn interned_strings(&self) -> usize {
        self.strings.len()
    }

    pub(crate) fn entries(&self, start: u32, len: u32) -> &[MapEntry] {
        &self.map_entries[start as usize..(start + len) as usize]
    }

    pub(crate) fn lookup<'a>(&self, entries: &'a [MapEntry], key: &str) -> Option<&'a MapEntry> {
        entries
            .binary_search_by(|entry| self.strings[entry.key as usize].as_str().cmp(key))
            .ok()
            .map(|i| &entries[i])
    }

    /// The arena root for a kind, if the validator covers it. Used by the
    /// streaming matcher (see [`crate::stream`]).
    pub(crate) fn kind_root(&self, kind: ResourceKind) -> Option<u32> {
        let root = self.kind_roots[kind.index()];
        (root != NO_ROOT).then_some(root)
    }

    /// The arena node at `index`.
    pub(crate) fn node(&self, index: u32) -> CompiledNode {
        self.nodes[index as usize]
    }

    /// The constant/enumeration value at `index`.
    pub(crate) fn value(&self, index: u32) -> &Value {
        &self.values[index as usize]
    }

    /// The contiguous enumeration options `[start, start + len)`.
    pub(crate) fn values_slice(&self, start: u32, len: u32) -> &[Value] {
        &self.values[start as usize..(start + len) as usize]
    }

    /// The pre-split pattern at `index`.
    pub(crate) fn pattern(&self, index: u32) -> &CompiledPattern {
        &self.patterns[index as usize]
    }
}

/// Arena builder used by [`compile`].
#[derive(Default)]
struct Builder {
    nodes: Vec<CompiledNode>,
    map_entries: Vec<MapEntry>,
    strings: Vec<String>,
    string_ids: HashMap<String, u32>,
    values: Vec<Value>,
    patterns: Vec<CompiledPattern>,
}

impl Builder {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(text) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(text.to_owned());
        self.string_ids.insert(text.to_owned(), id);
        id
    }

    fn push(&mut self, node: CompiledNode) -> u32 {
        let index = self.nodes.len() as u32;
        self.nodes.push(node);
        index
    }

    fn lower(&mut self, node: &PolicyNode) -> u32 {
        match node {
            PolicyNode::Any => self.push(CompiledNode::Any),
            PolicyNode::Type(tag) => self.push(CompiledNode::Type(*tag)),
            PolicyNode::Const(value) => {
                let id = self.values.len() as u32;
                self.values.push(value.clone());
                self.push(CompiledNode::Const { value: id })
            }
            PolicyNode::Enum(options) => {
                let start = self.values.len() as u32;
                self.values.extend(options.iter().cloned());
                self.push(CompiledNode::Enum {
                    start,
                    len: options.len() as u32,
                })
            }
            PolicyNode::Pattern(pattern) => {
                let id = self.patterns.len() as u32;
                self.patterns.push(CompiledPattern::new(pattern));
                self.push(CompiledNode::Pattern { pattern: id })
            }
            PolicyNode::Seq(element) => {
                let element = self.lower(element);
                self.push(CompiledNode::Seq { element })
            }
            PolicyNode::Map(children) => {
                // Lower the children first (their own map runs are emitted
                // during recursion), then claim one contiguous run for this
                // map. BTreeMap iteration is already key-sorted, which is the
                // order binary search expects.
                let lowered: Vec<MapEntry> = children
                    .iter()
                    .map(|(key, child)| MapEntry {
                        key: self.intern(key),
                        child: self.lower(child),
                    })
                    .collect();
                let entries_start = self.map_entries.len() as u32;
                let len = lowered.len() as u32;
                self.map_entries.extend(lowered);
                self.push(CompiledNode::Map { entries_start, len })
            }
        }
    }
}

/// Lower per-kind policy trees into one flat [`CompiledValidator`].
pub fn compile<'a, I>(kinds: I) -> CompiledValidator
where
    I: IntoIterator<Item = (ResourceKind, &'a PolicyNode)>,
{
    let mut builder = Builder::default();
    let mut kind_roots = [NO_ROOT; ResourceKind::COUNT];
    for (kind, tree) in kinds {
        kind_roots[kind.index()] = builder.lower(tree);
    }
    CompiledValidator {
        nodes: builder.nodes,
        map_entries: builder.map_entries,
        strings: builder.strings,
        values: builder.values,
        patterns: builder.patterns,
        kind_roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::{Validator, ValidatorSet, ViolationReason};
    use crate::RawVerdict;
    use k8s_model::K8sObject;
    use kf_yaml::BodyFormat;

    fn validator() -> Validator {
        let manifests = vec![
            kf_yaml::parse(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:string
          imagePullPolicy: IfNotPresent
"#,
            )
            .unwrap(),
            kf_yaml::parse(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:string
          imagePullPolicy: Always
"#,
            )
            .unwrap(),
        ];
        Validator::from_manifests("demo", &manifests).unwrap()
    }

    fn request(image: &str, policy: &str, replicas: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: {replicas}
  template:
    spec:
      containers:
        - name: nginx
          image: {image}
          imagePullPolicy: {policy}
"#
        ))
        .unwrap()
    }

    #[test]
    fn compiled_maps_binary_search_their_sorted_keys() {
        let v = validator();
        let compiled = compile(v.kinds().into_iter().map(|k| (k, v.policy_for(k).unwrap())));
        // Every map run must be sorted by interned key text.
        for node in &compiled.nodes {
            if let CompiledNode::Map { entries_start, len } = node {
                let run = compiled.entries(*entries_start, *len);
                for pair in run.windows(2) {
                    assert!(
                        compiled.strings[pair[0].key as usize]
                            < compiled.strings[pair[1].key as usize],
                        "map entries must be strictly key-sorted"
                    );
                }
            }
        }
        assert!(compiled.covers(ResourceKind::Deployment));
        assert!(!compiled.covers(ResourceKind::Secret));
        assert!(compiled.node_count() > 5);
        assert!(compiled.interned_strings() > 0);
    }

    /// The stream's verdict on `original` after an AOT save/load round trip
    /// is the one it serves for `original`, and agrees with the tree walk, in
    /// both formats. Returns whether the object was admitted.
    fn assert_restored_verdicts(original: &Validator, object: &K8sObject) -> bool {
        let authored = ValidatorSet::single(original.clone());
        let restored = crate::aot::tests::round_trip(&authored);
        assert_eq!(restored, authored);
        let mut admitted = Vec::new();
        for (text, format) in [
            (kf_yaml::to_yaml(object.body()), BodyFormat::Yaml),
            (kf_yaml::to_json(object.body()), BodyFormat::Json),
        ] {
            let served = restored.validate_raw_format(&text, format);
            assert_eq!(
                served,
                authored.validate_raw_format(&text, format),
                "{text}"
            );
            match (&served, restored.validate_raw_tree_format(&text, format)) {
                (RawVerdict::Admitted, RawVerdict::Admitted) => {}
                (
                    RawVerdict::Denied { violations, .. },
                    RawVerdict::Denied {
                        violations: tree, ..
                    },
                ) => {
                    assert_eq!(violations, &tree, "{text}")
                }
                (served, tree) => panic!("stream {served:?} vs tree {tree:?}\n{text}"),
            }
            admitted.push(served.is_admitted());
        }
        assert_eq!(
            admitted[0],
            admitted[1],
            "formats disagree on {}",
            object.name()
        );
        admitted[0]
    }

    #[test]
    fn compiled_verdicts_match_tree_verdicts() {
        let v = validator();
        let cases = [
            (request("docker.io/bitnami/nginx:1.25", "Always", "3"), true),
            (request("docker.io/bitnami/nginx:1.25", "Never", "3"), false),
            (request("evil.example/pwn:latest", "Always", "3"), false),
            (
                request("docker.io/bitnami/nginx:1.25", "Always", "\"not a number\""),
                false,
            ),
            (
                K8sObject::minimal(ResourceKind::Secret, "s", "default"),
                false,
            ),
        ];
        for (object, admits) in &cases {
            assert_eq!(
                assert_restored_verdicts(&v, object),
                *admits,
                "{}",
                object.name()
            );
        }
    }

    #[test]
    fn default_compiled_validator_covers_nothing() {
        let empty = CompiledValidator::default();
        for kind in ResourceKind::ALL {
            assert!(!empty.covers(kind));
        }
        assert_eq!(*Validator::empty("empty").compiled(), empty);
        let set = ValidatorSet::single(Validator::empty("empty"));
        let pod = K8sObject::minimal(ResourceKind::Pod, "p", "ns");
        let RawVerdict::Denied { violations, .. } = set.validate_raw(&kf_yaml::to_yaml(pod.body()))
        else {
            panic!("an uncovered kind is denied");
        };
        assert_eq!(violations[0].reason, ViolationReason::UnknownKind);
    }

    #[test]
    fn interning_deduplicates_repeated_keys() {
        let v = validator();
        let compiled = v.compiled();
        // `name` appears in metadata and containers; it must be interned once.
        let occurrences = compiled
            .strings
            .iter()
            .filter(|s| s.as_str() == "name")
            .count();
        assert_eq!(occurrences, 1);
    }
}
