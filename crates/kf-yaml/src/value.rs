//! The document tree: [`Value`] and the order-preserving [`Mapping`].

use std::fmt;

use crate::path::{Path, PathSegment};
use crate::Error;

/// An order-preserving string-keyed mapping.
///
/// Kubernetes manifests are sensitive to field ordering only for human
/// readability, but preserving insertion order keeps rendered manifests and
/// generated validators deterministic and diff-friendly, which the policy
/// generation pipeline relies on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mapping {
    entries: Vec<(String, Value)>,
}

impl Mapping {
    /// Create an empty mapping.
    pub fn new() -> Self {
        Mapping {
            entries: Vec::new(),
        }
    }

    /// A mapping over entries whose keys are already known to be unique (the
    /// tokenizers reject duplicates), kept in the given order and allocation.
    pub(crate) fn from_unique_entries(entries: Vec<(String, Value)>) -> Self {
        debug_assert!(
            (1..entries.len()).all(|i| entries[..i].iter().all(|(k, _)| *k != entries[i].0)),
            "the tokenizers reject duplicate keys"
        );
        Mapping { entries }
    }

    /// Number of entries in the mapping.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mapping has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a value by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the mapping contains `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert a key/value pair, replacing (in place) any existing entry with
    /// the same key. Returns the previous value if one existed.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in self.entries.iter_mut() {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Remove an entry by key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate mutably over `(key, value)` pairs in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate over the keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterate over the values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl FromIterator<(String, Value)> for Mapping {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Mapping::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl Extend<(String, Value)> for Mapping {
    fn extend<T: IntoIterator<Item = (String, Value)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl IntoIterator for Mapping {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A node of the document tree.
///
/// `Value` plays the role that `serde_yaml::Value` would otherwise play, but
/// with an order-preserving mapping and the exact scalar taxonomy the
/// KubeFence policy machinery needs (null / bool / integer / float / string).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The YAML `null` / `~` / empty scalar.
    Null,
    /// A boolean scalar.
    Bool(bool),
    /// A signed integer scalar.
    Int(i64),
    /// A floating point scalar.
    Float(f64),
    /// A string scalar.
    Str(String),
    /// A sequence of values.
    Seq(Vec<Value>),
    /// An order-preserving mapping.
    Map(Mapping),
}

impl Default for Value {
    #[allow(clippy::derivable_impls)]
    fn default() -> Self {
        Value::Null
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Seq(_) | Value::Map(_) => write!(f, "{}", crate::to_yaml(self).trim_end()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Seq(v)
    }
}
impl From<Mapping> for Value {
    fn from(m: Mapping) -> Self {
        Value::Map(m)
    }
}

impl Value {
    /// An empty mapping value.
    pub fn empty_map() -> Self {
        Value::Map(Mapping::new())
    }

    /// An empty sequence value.
    pub fn empty_seq() -> Self {
        Value::Seq(Vec::new())
    }

    /// Short lowercase name of the node type (`"map"`, `"seq"`, `"string"`,
    /// `"int"`, `"float"`, `"bool"`, `"null"`); used in error messages and in
    /// validator type placeholders.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "seq",
            Value::Map(_) => "map",
        }
    }

    /// Whether the node is a scalar (not a mapping or sequence).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Value::Seq(_) | Value::Map(_))
    }

    /// Whether the node is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as a bool, if the node is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as an integer, if the node is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as a float. Integers are widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// View as a string slice, if the node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// View as a sequence slice, if the node is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s.as_slice()),
            _ => None,
        }
    }

    /// View as a mutable sequence, if the node is a sequence.
    pub fn as_seq_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// View as a mapping, if the node is one.
    pub fn as_map(&self) -> Option<&Mapping> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// View as a mutable mapping, if the node is one.
    pub fn as_map_mut(&mut self) -> Option<&mut Mapping> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Render the scalar as the string used in rendered manifests. Mappings
    /// and sequences render through the YAML emitter.
    pub fn scalar_to_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }

    /// Direct child lookup by mapping key (`None` for non-mappings).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Direct mutable child lookup by mapping key (`None` for non-mappings).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.as_map_mut().and_then(|m| m.get_mut(key))
    }

    /// Resolve a [`Path`] against this document.
    pub fn get_path(&self, path: &Path) -> Option<&Value> {
        let mut cur = self;
        for seg in path.segments() {
            match seg {
                PathSegment::Key(k) => cur = cur.get(k)?,
                PathSegment::Index(i) => cur = cur.as_seq()?.get(*i)?,
            }
        }
        Some(cur)
    }

    /// Resolve a [`Path`] against this document, mutably.
    pub fn get_path_mut(&mut self, path: &Path) -> Option<&mut Value> {
        let mut cur = self;
        for seg in path.segments() {
            match seg {
                PathSegment::Key(k) => cur = cur.get_mut(k)?,
                PathSegment::Index(i) => cur = cur.as_seq_mut()?.get_mut(*i)?,
            }
        }
        Some(cur)
    }

    /// Set the node at `path`, creating intermediate mappings (and extending
    /// sequences with `Null` elements) as needed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TypeMismatch`] if an intermediate node exists but has
    /// an incompatible type (e.g. indexing into a scalar).
    pub fn set_path(&mut self, path: &Path, value: Value) -> Result<(), Error> {
        let segs = path.segments();
        if segs.is_empty() {
            *self = value;
            return Ok(());
        }
        let mut cur = self;
        for (i, seg) in segs.iter().enumerate() {
            let last = i + 1 == segs.len();
            match seg {
                PathSegment::Key(k) => {
                    if cur.is_null() {
                        *cur = Value::empty_map();
                    }
                    let map = cur.as_map_mut().ok_or_else(|| Error::TypeMismatch {
                        expected: "map".into(),
                        found: "non-map".into(),
                    })?;
                    if !map.contains_key(k) {
                        map.insert(k.clone(), Value::Null);
                    }
                    let slot = map.get_mut(k).expect("just inserted");
                    if last {
                        *slot = value;
                        return Ok(());
                    }
                    cur = slot;
                }
                PathSegment::Index(idx) => {
                    if cur.is_null() {
                        *cur = Value::empty_seq();
                    }
                    let seq = cur.as_seq_mut().ok_or_else(|| Error::TypeMismatch {
                        expected: "seq".into(),
                        found: "non-seq".into(),
                    })?;
                    while seq.len() <= *idx {
                        seq.push(Value::Null);
                    }
                    if last {
                        seq[*idx] = value;
                        return Ok(());
                    }
                    cur = &mut seq[*idx];
                }
            }
        }
        unreachable!("loop always returns on the last segment")
    }

    /// Remove the node at `path`. Returns the removed value, or `None` if the
    /// path did not resolve.
    pub fn remove_path(&mut self, path: &Path) -> Option<Value> {
        let segs = path.segments();
        let (last, prefix) = segs.split_last()?;
        let parent = if prefix.is_empty() {
            self
        } else {
            self.get_path_mut(&Path::from_segments(prefix.to_vec()))?
        };
        match last {
            PathSegment::Key(k) => parent.as_map_mut()?.remove(k),
            PathSegment::Index(i) => {
                let seq = parent.as_seq_mut()?;
                if *i < seq.len() {
                    Some(seq.remove(*i))
                } else {
                    None
                }
            }
        }
    }

    /// Deep-merge `other` into `self`.
    ///
    /// Mappings are merged key-by-key (recursively); every other combination
    /// is replaced by `other`. This mirrors Helm's values-override semantics,
    /// where user-supplied values override chart defaults subtree by subtree
    /// but sequences are replaced wholesale.
    pub fn merge_from(&mut self, other: &Value) {
        match (self, other) {
            (Value::Map(dst), Value::Map(src)) => {
                for (k, v) in src.iter() {
                    match dst.get_mut(k) {
                        Some(slot) => slot.merge_from(v),
                        None => {
                            dst.insert(k.to_owned(), v.clone());
                        }
                    }
                }
            }
            (dst, src) => *dst = src.clone(),
        }
    }

    /// Enumerate all leaf nodes (scalars, empty mappings and empty sequences)
    /// together with their paths, in document order.
    pub fn leaves(&self) -> Vec<(Path, &Value)> {
        let mut out = Vec::new();
        self.collect_leaves(Path::root(), &mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, prefix: Path, out: &mut Vec<(Path, &'a Value)>) {
        match self {
            Value::Map(m) if !m.is_empty() => {
                for (k, v) in m.iter() {
                    v.collect_leaves(prefix.child_key(k), out);
                }
            }
            Value::Seq(s) if !s.is_empty() => {
                for (i, v) in s.iter().enumerate() {
                    v.collect_leaves(prefix.child_index(i), out);
                }
            }
            other => out.push((prefix, other)),
        }
    }

    /// Count the leaf nodes of the document (scalar fields plus empty
    /// containers). Used by the attack-surface accounting.
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Map(m) if !m.is_empty() => m.values().map(Value::leaf_count).sum(),
            Value::Seq(s) if !s.is_empty() => s.iter().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }

    /// Collect the set of *field paths* of the document: the paths of every
    /// mapping key, with sequence indices collapsed (`containers[0].image` and
    /// `containers[3].image` count as the same field `containers[].image`).
    ///
    /// This is the unit of the paper's attack-surface measurements.
    pub fn field_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_field_paths(String::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_field_paths(&self, prefix: String, out: &mut Vec<String>) {
        match self {
            Value::Map(m) => {
                for (k, v) in m.iter() {
                    let p = if prefix.is_empty() {
                        k.to_owned()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    out.push(p.clone());
                    v.collect_field_paths(p, out);
                }
            }
            Value::Seq(s) => {
                let p = format!("{prefix}[]");
                for v in s.iter() {
                    v.collect_field_paths(p.clone(), out);
                }
            }
            _ => {}
        }
    }

    /// Structural equality that treats integer and float representations of
    /// the same number as equal (YAML round-trips may change `1` ↔ `1.0`).
    pub fn loosely_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64 - *b).abs() < f64::EPSILON
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter().all(|(k, v)| {
                        b.get(k)
                            .map(|other| v.loosely_equals(other))
                            .unwrap_or(false)
                    })
            }
            (Value::Seq(a), Value::Seq(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.loosely_equals(y))
            }
            (a, b) => a == b,
        }
    }
}

/// Build a [`Value::Map`] from `(key, value)` pairs; convenience for tests and
/// built-in chart definitions.
#[macro_export]
macro_rules! yaml_map {
    ($($key:expr => $val:expr),* $(,)?) => {{
        let mut m = $crate::Mapping::new();
        $( m.insert($key.to_string(), $crate::Value::from($val)); )*
        $crate::Value::Map(m)
    }};
}

/// Build a [`Value::Seq`] from values; convenience for tests and built-in
/// chart definitions.
#[macro_export]
macro_rules! yaml_seq {
    ($($val:expr),* $(,)?) => {{
        $crate::Value::Seq(vec![ $( $crate::Value::from($val) ),* ])
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut containers = Mapping::new();
        containers.insert("name", Value::from("web"));
        containers.insert("image", Value::from("nginx:latest"));
        let mut spec = Mapping::new();
        spec.insert("replicas", Value::from(3));
        spec.insert("containers", Value::Seq(vec![Value::Map(containers)]));
        let mut root = Mapping::new();
        root.insert("kind", Value::from("Deployment"));
        root.insert("spec", Value::Map(spec));
        Value::Map(root)
    }

    #[test]
    fn mapping_preserves_insertion_order() {
        let mut m = Mapping::new();
        m.insert("z", Value::from(1));
        m.insert("a", Value::from(2));
        m.insert("m", Value::from(3));
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn mapping_insert_replaces_in_place() {
        let mut m = Mapping::new();
        m.insert("a", Value::from(1));
        m.insert("b", Value::from(2));
        let prev = m.insert("a", Value::from(10));
        assert_eq!(prev, Some(Value::Int(1)));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::Int(10)));
    }

    #[test]
    fn get_path_resolves_nested_fields() {
        let doc = sample();
        let p = Path::parse("spec.containers[0].image").unwrap();
        assert_eq!(doc.get_path(&p).unwrap().as_str(), Some("nginx:latest"));
    }

    #[test]
    fn get_path_missing_returns_none() {
        let doc = sample();
        let p = Path::parse("spec.template.metadata").unwrap();
        assert!(doc.get_path(&p).is_none());
    }

    #[test]
    fn set_path_creates_intermediate_maps() {
        let mut doc = Value::Null;
        let p = Path::parse("spec.securityContext.runAsNonRoot").unwrap();
        doc.set_path(&p, Value::Bool(true)).unwrap();
        assert_eq!(doc.get_path(&p).unwrap().as_bool(), Some(true));
    }

    #[test]
    fn set_path_extends_sequences() {
        let mut doc = Value::Null;
        let p = Path::parse("spec.containers[2].name").unwrap();
        doc.set_path(&p, Value::from("sidecar")).unwrap();
        let seq = doc
            .get_path(&Path::parse("spec.containers").unwrap())
            .unwrap();
        assert_eq!(seq.as_seq().unwrap().len(), 3);
        assert!(seq.as_seq().unwrap()[0].is_null());
    }

    #[test]
    fn set_path_type_mismatch_is_reported() {
        let mut doc = sample();
        let p = Path::parse("kind.sub").unwrap();
        let err = doc.set_path(&p, Value::Null).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn remove_path_removes_map_entries_and_seq_items() {
        let mut doc = sample();
        let removed = doc.remove_path(&Path::parse("spec.replicas").unwrap());
        assert_eq!(removed, Some(Value::Int(3)));
        assert!(doc
            .get_path(&Path::parse("spec.replicas").unwrap())
            .is_none());
        let removed = doc.remove_path(&Path::parse("spec.containers[0]").unwrap());
        assert!(removed.is_some());
        assert_eq!(
            doc.get_path(&Path::parse("spec.containers").unwrap())
                .unwrap()
                .as_seq()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn merge_from_overrides_subtrees() {
        let mut base = sample();
        let mut overlay = Value::Null;
        overlay
            .set_path(&Path::parse("spec.replicas").unwrap(), Value::from(5))
            .unwrap();
        overlay
            .set_path(
                &Path::parse("spec.strategy.type").unwrap(),
                Value::from("Recreate"),
            )
            .unwrap();
        base.merge_from(&overlay);
        assert_eq!(
            base.get_path(&Path::parse("spec.replicas").unwrap())
                .unwrap()
                .as_i64(),
            Some(5)
        );
        // untouched subtree survives
        assert_eq!(
            base.get_path(&Path::parse("spec.containers[0].name").unwrap())
                .unwrap()
                .as_str(),
            Some("web")
        );
        // new subtree added
        assert_eq!(
            base.get_path(&Path::parse("spec.strategy.type").unwrap())
                .unwrap()
                .as_str(),
            Some("Recreate")
        );
    }

    #[test]
    fn merge_replaces_sequences_wholesale() {
        let mut base = sample();
        let mut overlay = Value::Null;
        overlay
            .set_path(
                &Path::parse("spec.containers").unwrap(),
                Value::Seq(vec![Value::from("replaced")]),
            )
            .unwrap();
        base.merge_from(&overlay);
        let seq = base
            .get_path(&Path::parse("spec.containers").unwrap())
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].as_str(), Some("replaced"));
    }

    #[test]
    fn leaves_enumerates_scalars_with_paths() {
        let doc = sample();
        let leaves = doc.leaves();
        let paths: Vec<String> = leaves.iter().map(|(p, _)| p.to_string()).collect();
        assert!(paths.contains(&"kind".to_string()));
        assert!(paths.contains(&"spec.containers[0].image".to_string()));
        assert_eq!(doc.leaf_count(), leaves.len());
    }

    #[test]
    fn field_paths_collapse_sequence_indices() {
        let mut doc = sample();
        let mut c2 = Mapping::new();
        c2.insert("name", Value::from("sidecar"));
        c2.insert("image", Value::from("busybox"));
        doc.get_path_mut(&Path::parse("spec.containers").unwrap())
            .unwrap()
            .as_seq_mut()
            .unwrap()
            .push(Value::Map(c2));
        let fields = doc.field_paths();
        assert!(fields.contains(&"spec.containers[].image".to_string()));
        // two containers but the field is counted once
        assert_eq!(
            fields
                .iter()
                .filter(|f| f.as_str() == "spec.containers[].image")
                .count(),
            1
        );
    }

    #[test]
    fn loose_equality_treats_int_and_float_alike() {
        assert!(Value::Int(1).loosely_equals(&Value::Float(1.0)));
        assert!(!Value::Int(1).loosely_equals(&Value::Float(1.5)));
    }

    #[test]
    fn type_names_are_stable() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Float(1.0).type_name(), "float");
        assert_eq!(Value::from("x").type_name(), "string");
        assert_eq!(Value::empty_seq().type_name(), "seq");
        assert_eq!(Value::empty_map().type_name(), "map");
    }

    #[test]
    fn macros_build_documents() {
        let v = yaml_map! {
            "enabled" => true,
            "replicas" => 2,
            "tags" => yaml_seq!["a", "b"],
        };
        assert_eq!(v.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("tags").unwrap().as_seq().unwrap().len(), 2);
    }
}
