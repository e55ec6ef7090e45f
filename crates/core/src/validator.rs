//! Phases 3–4 — the policy validator: generation from rendered manifests and
//! tree-based validation of incoming API requests (Figure 8 of the paper).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::{Mapping, Value};

use crate::compile::{compile, CompiledValidator};
use crate::schema_gen::{looks_like_ip, placeholder};
use crate::security::SecurityLocks;
use crate::{Error, Result};

/// Type placeholders a validator can require for a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeTag {
    /// Any string.
    String,
    /// Any integer.
    Int,
    /// Any floating point number (integers widen).
    Float,
    /// A boolean.
    Bool,
    /// An IPv4 address literal.
    Ip,
}

impl TypeTag {
    /// The placeholder token for this type.
    pub fn placeholder(&self) -> &'static str {
        match self {
            TypeTag::String => placeholder::STRING,
            TypeTag::Int => placeholder::INT,
            TypeTag::Float => placeholder::FLOAT,
            TypeTag::Bool => "bool",
            TypeTag::Ip => placeholder::IP,
        }
    }

    /// Parse a placeholder token.
    pub fn from_placeholder(text: &str) -> Option<TypeTag> {
        match text {
            placeholder::STRING => Some(TypeTag::String),
            placeholder::INT => Some(TypeTag::Int),
            placeholder::FLOAT => Some(TypeTag::Float),
            placeholder::IP => Some(TypeTag::Ip),
            "bool" => Some(TypeTag::Bool),
            _ => None,
        }
    }

    /// Whether a concrete value satisfies this type.
    ///
    /// Numeric types also accept their quoted (string) forms: Kubernetes
    /// manifests routinely quote numbers (environment variable values, ports
    /// in annotations), and YAML round-trips through `kubectl` preserve the
    /// quoting.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            TypeTag::String => value.as_str().is_some(),
            TypeTag::Int => {
                value.as_i64().is_some()
                    || value
                        .as_str()
                        .map(|s| s.parse::<i64>().is_ok())
                        .unwrap_or(false)
            }
            TypeTag::Float => {
                value.as_f64().is_some()
                    || value
                        .as_str()
                        .map(|s| s.parse::<f64>().is_ok())
                        .unwrap_or(false)
            }
            TypeTag::Bool => value.as_bool().is_some(),
            TypeTag::Ip => value.as_str().map(looks_like_ip).unwrap_or(false),
        }
    }
}

/// One node of a policy validator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyNode {
    /// The field must equal this exact value (fixed chart constants and
    /// security-locked fields).
    Const(Value),
    /// The field may take any value of the given type.
    Type(TypeTag),
    /// The field must be a string matching a rendered template with embedded
    /// placeholders (e.g. `docker.io/bitnami/nginx:string`, where the tag is
    /// free but registry and repository are locked).
    Pattern(String),
    /// The field must equal one of the listed values (enumerations
    /// consolidated across manifests).
    Enum(Vec<Value>),
    /// A mapping; only the listed keys are allowed.
    Map(BTreeMap<String, PolicyNode>),
    /// A sequence; every element must satisfy the element policy.
    Seq(Box<PolicyNode>),
    /// Anything is allowed (conflict fallback; also the element policy of
    /// empty sequences).
    Any,
}

impl PolicyNode {
    /// Derive a policy node from a rendered manifest value, interpreting the
    /// placeholder tokens left by the values schema.
    pub fn from_manifest_value(value: &Value) -> PolicyNode {
        match value {
            Value::Str(text) => match TypeTag::from_placeholder(text) {
                Some(tag) => PolicyNode::Type(tag),
                // Placeholders that went through `b64enc` in a Secret template
                // come out as the base64 encoding of the token; they still
                // denote "any (encoded) string value".
                None if BASE64_PLACEHOLDERS.contains(&text.as_str()) => {
                    PolicyNode::Type(TypeTag::String)
                }
                None if pattern_pieces(text).is_some() => PolicyNode::Pattern(text.clone()),
                None => PolicyNode::Const(value.clone()),
            },
            Value::Map(map) => PolicyNode::Map(
                map.iter()
                    .map(|(k, v)| (k.to_owned(), PolicyNode::from_manifest_value(v)))
                    .collect(),
            ),
            Value::Seq(items) => {
                let element = items
                    .iter()
                    .map(PolicyNode::from_manifest_value)
                    .reduce(|a, b| a.merge(b))
                    .unwrap_or(PolicyNode::Any);
                PolicyNode::Seq(Box::new(element))
            }
            scalar => PolicyNode::Const(scalar.clone()),
        }
    }

    /// Merge two policy nodes derived from different manifests/variants:
    /// identical constants stay constants, diverging constants become
    /// enumerations, placeholders absorb matching constants, and mappings
    /// merge key-by-key. Structurally conflicting nodes widen to
    /// [`PolicyNode::Any`].
    pub fn merge(self, other: PolicyNode) -> PolicyNode {
        use PolicyNode::*;
        let merged = match (self, other) {
            (Any, _) | (_, Any) => Any,
            (Map(mut a), Map(b)) => {
                for (key, node) in b {
                    let merged = match a.remove(&key) {
                        Some(existing) => existing.merge(node),
                        None => node,
                    };
                    a.insert(key, merged);
                }
                Map(a)
            }
            (Seq(a), Seq(b)) => Seq(Box::new(a.merge(*b))),
            (Const(a), Const(b)) => {
                if a.loosely_equals(&b) {
                    Const(a)
                } else {
                    Enum(vec![a, b])
                }
            }
            (Enum(mut a), Const(c)) | (Const(c), Enum(mut a)) => {
                if !a.iter().any(|v| v.loosely_equals(&c)) {
                    a.push(c);
                }
                Enum(a)
            }
            (Enum(mut a), Enum(b)) => {
                for v in b {
                    if !a.iter().any(|existing| existing.loosely_equals(&v)) {
                        a.push(v);
                    }
                }
                Enum(a)
            }
            (Type(t), Type(u)) => {
                if t == u {
                    Type(t)
                } else {
                    Any
                }
            }
            (Type(t), Const(c)) | (Const(c), Type(t)) => {
                if t.matches(&c) {
                    Type(t)
                } else {
                    Any
                }
            }
            (Type(t), Enum(e)) | (Enum(e), Type(t)) => {
                if e.iter().all(|v| t.matches(v)) {
                    Type(t)
                } else {
                    Any
                }
            }
            (Pattern(a), Pattern(b)) => {
                if a == b {
                    Pattern(a)
                } else {
                    Type(TypeTag::String)
                }
            }
            (Pattern(p), Const(c)) | (Const(c), Pattern(p)) => match c.as_str() {
                Some(text) if pattern_matches(&p, text) => Pattern(p),
                Some(_) => Type(TypeTag::String),
                None => Any,
            },
            (Pattern(_), Type(TypeTag::String)) | (Type(TypeTag::String), Pattern(_)) => {
                Type(TypeTag::String)
            }
            (Pattern(_), _) | (_, Pattern(_)) => Any,
            // Structural conflicts (mapping vs scalar, sequence vs scalar):
            // widen rather than fail, matching the paper's "include all
            // possible options" conflict resolution.
            _ => Any,
        };
        merged.normalized()
    }

    /// Normalize enumerations: a two-value boolean enumeration is the `bool`
    /// type placeholder.
    fn normalized(self) -> PolicyNode {
        match self {
            PolicyNode::Enum(values)
                if values.len() == 2
                    && values.iter().any(|v| v == &Value::Bool(true))
                    && values.iter().any(|v| v == &Value::Bool(false)) =>
            {
                PolicyNode::Type(TypeTag::Bool)
            }
            other => other,
        }
    }

    /// The collapsed field paths allowed under this node, prefixed by
    /// `prefix`. Mapping keys contribute a path each; sequences contribute the
    /// `[]` marker.
    pub fn field_paths(&self, prefix: &str, out: &mut Vec<String>) {
        match self {
            PolicyNode::Map(children) => {
                for (key, child) in children {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    out.push(path.clone());
                    child.field_paths(&path, out);
                }
            }
            PolicyNode::Seq(element) => {
                element.field_paths(&format!("{prefix}[]"), out);
            }
            _ => {}
        }
    }

    /// Convert the policy node into the YAML representation used by the
    /// paper's validator files (placeholders as strings, enumerations as
    /// lists).
    pub fn to_value(&self) -> Value {
        match self {
            PolicyNode::Const(v) => v.clone(),
            PolicyNode::Pattern(p) => Value::from(p.clone()),
            PolicyNode::Type(tag) => Value::from(tag.placeholder()),
            PolicyNode::Enum(values) => Value::Seq(values.clone()),
            PolicyNode::Map(children) => {
                let mut map = Mapping::new();
                for (key, child) in children {
                    map.insert(key.clone(), child.to_value());
                }
                Value::Map(map)
            }
            PolicyNode::Seq(element) => Value::Seq(vec![element.to_value()]),
            PolicyNode::Any => Value::from("<any>"),
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationReason {
    /// The request targets a resource kind the workload never uses.
    UnknownKind,
    /// The request uses a field the workload's configuration space never
    /// produces.
    UnknownField,
    /// The field value has the wrong type.
    TypeMismatch {
        /// Expected placeholder type.
        expected: String,
        /// Type actually found.
        found: String,
    },
    /// The field value is outside the allowed constant/enumeration set.
    ValueNotAllowed {
        /// Allowed values (rendered).
        allowed: String,
        /// Value actually found.
        found: String,
    },
    /// A structural mismatch (e.g. a scalar where a mapping is required).
    StructureMismatch {
        /// Expected structure.
        expected: String,
        /// Structure actually found.
        found: String,
    },
}

/// One violation: the offending field plus the reason, as logged by the proxy
/// for auditing and forensics.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Path of the offending field.
    pub path: String,
    /// Why it was rejected.
    pub reason: ViolationReason,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            ViolationReason::UnknownKind => {
                write!(f, "resource kind `{}` is not allowed", self.path)
            }
            ViolationReason::UnknownField => write!(f, "field `{}` is not allowed", self.path),
            ViolationReason::TypeMismatch { expected, found } => write!(
                f,
                "field `{}` must be of type {expected}, found {found}",
                self.path
            ),
            ViolationReason::ValueNotAllowed { allowed, found } => write!(
                f,
                "field `{}` must be one of [{allowed}], found `{found}`",
                self.path
            ),
            ViolationReason::StructureMismatch { expected, found } => write!(
                f,
                "field `{}` must be a {expected}, found {found}",
                self.path
            ),
        }
    }
}

/// A workload's policy validator: one policy tree per resource kind the
/// workload is allowed to manage.
///
/// The tree ([`PolicyNode`]) is the authoring representation: manifests merge
/// into it and security locks rewrite it. Enforcement runs on the compiled
/// form (see [`crate::compile`]), built lazily on first use and invalidated
/// whenever the tree is mutated.
#[derive(Debug, Clone)]
pub struct Validator {
    workload: String,
    kinds: BTreeMap<ResourceKind, PolicyNode>,
    /// Lazily compiled enforcement form of `kinds`. Never serialized or
    /// compared; rebuilt on demand after mutation.
    compiled: OnceLock<CompiledValidator>,
}

impl PartialEq for Validator {
    fn eq(&self, other: &Self) -> bool {
        // The compiled arena is a cache of `kinds`; equality is defined on
        // the authoring representation alone.
        self.workload == other.workload && self.kinds == other.kinds
    }
}

impl Validator {
    /// An empty validator (allows nothing).
    pub fn empty(workload: &str) -> Self {
        Validator {
            workload: workload.to_owned(),
            kinds: BTreeMap::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Build a validator by consolidating rendered manifests, grouped by
    /// resource kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Manifest`] when a manifest cannot be interpreted as a
    /// Kubernetes object of a known kind.
    pub fn from_manifests(workload: &str, manifests: &[Value]) -> Result<Self> {
        let mut kinds: BTreeMap<ResourceKind, PolicyNode> = BTreeMap::new();
        for manifest in manifests {
            let object = K8sObject::from_value(manifest.clone()).map_err(|e| Error::Manifest {
                template: workload.to_owned(),
                message: e.to_string(),
            })?;
            let node = PolicyNode::from_manifest_value(object.body());
            let merged = match kinds.remove(&object.kind()) {
                Some(existing) => existing.merge(node),
                None => node,
            };
            kinds.insert(object.kind(), merged);
        }
        Ok(Validator {
            workload: workload.to_owned(),
            kinds,
            compiled: OnceLock::new(),
        })
    }

    /// Workload name the validator was generated for.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// A validator restored from a pre-compiled arena (the ahead-of-time
    /// policy cache; see [`crate::aot`]). The compiled form is primed
    /// directly, so enforcement starts without ever touching the authoring
    /// tree — which is empty for such a validator. Tree-side operations
    /// ([`Validator::validate_tree`], [`Validator::apply_security_locks`],
    /// [`Validator::to_yaml`]) see that empty tree; arena-restored
    /// validators are an enforcement-only form.
    pub fn from_arena(workload: &str, compiled: CompiledValidator) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(compiled);
        Validator {
            workload: workload.to_owned(),
            kinds: BTreeMap::new(),
            compiled: cell,
        }
    }

    /// The resource kinds the validator allows. For an arena-restored
    /// validator (empty authoring tree) this falls back to the compiled
    /// coverage table, so kind routing works identically for both forms.
    pub fn kinds(&self) -> Vec<ResourceKind> {
        if self.kinds.is_empty() {
            if let Some(compiled) = self.compiled.get() {
                return compiled.kinds();
            }
        }
        self.kinds.keys().copied().collect()
    }

    /// The policy tree for a kind.
    pub fn policy_for(&self, kind: ResourceKind) -> Option<&PolicyNode> {
        self.kinds.get(&kind)
    }

    /// Apply the security locks: for every kind that carries a pod
    /// specification, locked fields are pinned to their safe constants (and
    /// added when `add_if_missing` is set and the surrounding structure
    /// exists).
    pub fn apply_security_locks(&mut self, locks: &SecurityLocks) {
        for (kind, node) in self.kinds.iter_mut() {
            let Some(prefix) = k8s_model::FieldRef::pod_spec_prefix(*kind) else {
                continue;
            };
            for lock in locks.locks() {
                let absolute = format!("{prefix}.{}", lock.field);
                let segments: Vec<&str> = absolute.split('.').collect();
                apply_lock(node, &segments, &lock.locked_value, lock.add_if_missing);
            }
        }
        // The policy trees changed; drop the compiled cache so enforcement
        // recompiles against the locked trees.
        self.compiled = OnceLock::new();
    }

    /// The compiled (flat-arena) form of this validator, built on first use.
    /// This is what the enforcement hot path evaluates.
    pub fn compiled(&self) -> &CompiledValidator {
        self.compiled
            .get_or_init(|| compile(self.kinds.iter().map(|(kind, node)| (*kind, node))))
    }

    /// Validate an object against the policy; an empty vector means the
    /// request complies. Runs on the compiled form.
    pub fn validate(&self, object: &K8sObject) -> Vec<Violation> {
        self.compiled().validate(object)
    }

    /// Validate by walking the authoring tree directly. Kept as the reference
    /// implementation: differential and fuzz tests assert the compiled plane
    /// produces identical verdicts.
    pub fn validate_tree(&self, object: &K8sObject) -> Vec<Violation> {
        let Some(policy) = self.kinds.get(&object.kind()) else {
            return vec![Violation {
                path: object.kind().as_str().to_owned(),
                reason: ViolationReason::UnknownKind,
            }];
        };
        let mut violations = Vec::new();
        validate_node(policy, object.body(), "", &mut violations);
        violations
    }

    /// Whether the object complies with the policy. Short-circuits on the
    /// compiled form without allocating.
    pub fn allows(&self, object: &K8sObject) -> bool {
        self.compiled().allows(object)
    }

    /// The collapsed field paths allowed for a kind (used by the
    /// attack-surface analysis).
    pub fn field_paths(&self, kind: ResourceKind) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(node) = self.kinds.get(&kind) {
            node.field_paths("", &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// Serialize the validator to YAML, one document per kind.
    pub fn to_yaml(&self) -> String {
        let mut out = String::new();
        for (kind, node) in &self.kinds {
            out.push_str("---\n");
            let mut doc = Mapping::new();
            doc.insert("kind", Value::from(kind.as_str()));
            doc.insert("policy", node.to_value());
            out.push_str(&kf_yaml::to_yaml(&Value::Map(doc)));
        }
        out
    }
}

/// A set of validators (one per protected workload); a request is allowed if
/// any member validator allows it.
///
/// Dispatch is kind-indexed: a precomputed routing table maps every
/// [`ResourceKind`] to the member validators that cover it, so a request only
/// ever consults validators that could possibly admit it instead of scanning
/// the whole set.
#[derive(Debug, Clone, Default)]
pub struct ValidatorSet {
    validators: Vec<Validator>,
    /// `routes[kind.index()]` lists the indices of validators covering that
    /// kind, in insertion order. Built lazily; invalidated by `push`.
    routes: OnceLock<Vec<Vec<u32>>>,
}

impl PartialEq for ValidatorSet {
    fn eq(&self, other: &Self) -> bool {
        // The routing table is a cache; equality is membership equality.
        self.validators == other.validators
    }
}

impl ValidatorSet {
    /// An empty set (allows nothing).
    pub fn new() -> Self {
        ValidatorSet::default()
    }

    /// A set with a single validator.
    pub fn single(validator: Validator) -> Self {
        ValidatorSet {
            validators: vec![validator],
            routes: OnceLock::new(),
        }
    }

    /// Add a validator.
    pub fn push(&mut self, validator: Validator) {
        self.validators.push(validator);
        // Membership changed; the routing table is rebuilt on next use.
        self.routes = OnceLock::new();
    }

    /// The member validators.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// The kind-routing table: for each kind index, the member validators
    /// (by index, in insertion order) whose policies cover that kind.
    fn routes(&self) -> &Vec<Vec<u32>> {
        self.routes.get_or_init(|| {
            let mut routes = vec![Vec::new(); ResourceKind::COUNT];
            for (index, validator) in self.validators.iter().enumerate() {
                for kind in validator.kinds() {
                    routes[kind.index()].push(index as u32);
                }
            }
            routes
        })
    }

    /// The member validators (by index) that cover a kind.
    pub fn validators_for(&self, kind: ResourceKind) -> &[u32] {
        &self.routes()[kind.index()]
    }

    /// Validate an object: returns `Ok(())` when some member validator allows
    /// it, otherwise the violations reported by the closest matching
    /// *covering* validator (fewest violations), which is what the proxy
    /// logs.
    ///
    /// Dispatch is two-tier: the kind-routing table narrows the candidate
    /// validators to those covering the object's kind (an O(1) indexed
    /// lookup), and the admit decision runs each candidate's compiled
    /// fast path, which neither allocates nor builds violation reports.
    /// Violations are collected only after all candidates denied — the
    /// denial path is the rare one.
    pub fn validate(&self, object: &K8sObject) -> std::result::Result<(), Vec<Violation>> {
        self.validate_kind_body(object.kind(), object.body())
    }

    /// [`ValidatorSet::validate`] over a borrowed body — the proxy's
    /// zero-copy entry point.
    pub fn validate_kind_body(
        &self,
        kind: ResourceKind,
        body: &Value,
    ) -> std::result::Result<(), Vec<Violation>> {
        let route = self.validators_for(kind);
        // Fast path: any covering validator that admits ends the request.
        for &index in route {
            if self.validators[index as usize]
                .compiled()
                .allows_kind_body(kind, body)
            {
                return Ok(());
            }
        }
        if route.is_empty() {
            return Err(vec![Violation {
                path: kind.as_str().to_owned(),
                reason: ViolationReason::UnknownKind,
            }]);
        }
        // Denial path: collect per-validator violations and report the
        // closest match among the validators that actually cover the kind.
        let mut best: Option<Vec<Violation>> = None;
        for &index in route {
            let violations = self.validators[index as usize]
                .compiled()
                .validate_kind_body(kind, body);
            match &best {
                Some(existing) if existing.len() <= violations.len() => {}
                _ => best = Some(violations),
            }
        }
        Err(best.expect("route is non-empty"))
    }

    /// The pre-compilation reference semantics: try every member validator in
    /// turn with the tree-walking validator. Differential tests assert the
    /// kind-indexed [`ValidatorSet::validate`] admits and denies identically.
    pub fn validate_tree_scan(
        &self,
        object: &K8sObject,
    ) -> std::result::Result<(), Vec<Violation>> {
        let mut best: Option<Vec<Violation>> = None;
        for validator in &self.validators {
            let violations = validator.validate_tree(object);
            if violations.is_empty() {
                return Ok(());
            }
            match &best {
                Some(existing) if existing.len() <= violations.len() => {}
                _ => best = Some(violations),
            }
        }
        Err(best.unwrap_or_else(|| {
            vec![Violation {
                path: object.kind().as_str().to_owned(),
                reason: ViolationReason::UnknownKind,
            }]
        }))
    }
}

/// Walk the policy tree applying a lock along a dotted path with `[]` markers.
fn apply_lock(node: &mut PolicyNode, segments: &[&str], value: &Value, add_if_missing: bool) {
    let Some((head, rest)) = segments.split_first() else {
        *node = PolicyNode::Const(value.clone());
        return;
    };
    let (key, fanout) = match head.strip_suffix("[]") {
        Some(stripped) => (stripped, true),
        None => (*head, false),
    };
    let PolicyNode::Map(children) = node else {
        return;
    };
    let child = match children.get_mut(key) {
        Some(child) => child,
        None => {
            if !add_if_missing || fanout {
                return;
            }
            children.insert(key.to_owned(), PolicyNode::Map(BTreeMap::new()));
            children.get_mut(key).expect("just inserted")
        }
    };
    if fanout {
        if let PolicyNode::Seq(element) = child {
            descend_lock(element, rest, value, add_if_missing);
        }
    } else {
        descend_lock(child, rest, value, add_if_missing);
    }
}

fn descend_lock(node: &mut PolicyNode, rest: &[&str], value: &Value, add_if_missing: bool) {
    if rest.is_empty() {
        *node = PolicyNode::Const(value.clone());
    } else {
        // Intermediate structures that are not mappings yet (e.g. a missing
        // securityContext added on demand) are created as empty maps.
        if add_if_missing && !matches!(node, PolicyNode::Map(_) | PolicyNode::Seq(_)) {
            *node = PolicyNode::Map(BTreeMap::new());
        }
        apply_lock(node, rest, value, add_if_missing);
    }
}

/// The base64 encodings of the placeholder tokens (`string`, `int`, `float`,
/// `bool`, `IP`): what a placeholder looks like after a chart's `b64enc`
/// helper has processed it inside a Secret template.
const BASE64_PLACEHOLDERS: [&str; 5] = ["c3RyaW5n", "aW50", "ZmxvYXQ=", "Ym9vbA==", "SVA="];

/// One piece of a string pattern with embedded placeholders. Shared with the
/// compiled plane, which pre-splits patterns at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PatternPiece {
    /// Literal text that must appear verbatim.
    Literal(String),
    /// A placeholder wildcard (at least one character).
    Wildcard,
}

/// Split a rendered string into pattern pieces if it embeds placeholder
/// tokens (`string`, `int`, `float`, `IP`, `bool`) delimited by
/// non-alphanumeric characters. Returns `None` when the string contains no
/// embedded placeholder and should be treated as a constant.
pub(crate) fn pattern_pieces(text: &str) -> Option<Vec<PatternPiece>> {
    const TOKENS: [&str; 5] = ["string", "int", "float", "bool", "IP"];
    let bytes = text.as_bytes();
    let mut pieces = Vec::new();
    let mut literal = String::new();
    let mut i = 0;
    let mut found = false;
    while i < bytes.len() {
        let mut matched = None;
        for token in TOKENS {
            if text[i..].starts_with(token) {
                let before_ok = i == 0 || !(bytes[i - 1] as char).is_ascii_alphanumeric();
                let after = i + token.len();
                let after_ok =
                    after == bytes.len() || !(bytes[after] as char).is_ascii_alphanumeric();
                if before_ok && after_ok {
                    matched = Some(token.len());
                    break;
                }
            }
        }
        match matched {
            Some(len) => {
                if !literal.is_empty() {
                    pieces.push(PatternPiece::Literal(std::mem::take(&mut literal)));
                }
                pieces.push(PatternPiece::Wildcard);
                found = true;
                i += len;
            }
            None => {
                literal.push(text[i..].chars().next().expect("in bounds"));
                i += text[i..].chars().next().expect("in bounds").len_utf8();
            }
        }
    }
    if !literal.is_empty() {
        pieces.push(PatternPiece::Literal(literal));
    }
    // A bare placeholder (all wildcards, no literal) is handled as a Type
    // node, not as a pattern.
    if found && pieces.iter().any(|p| matches!(p, PatternPiece::Literal(_))) {
        Some(pieces)
    } else {
        None
    }
}

/// Whether a concrete string matches a pattern with embedded placeholders.
/// Splits the pattern on every call; the compiled plane avoids the re-split
/// by caching the pieces (see [`crate::compile::CompiledPattern`]).
fn pattern_matches(pattern: &str, text: &str) -> bool {
    let Some(pieces) = pattern_pieces(pattern) else {
        return pattern == text;
    };
    pieces_match(&pieces, text)
}

/// Whether a concrete string matches an already-split piece list.
pub(crate) fn pieces_match(pieces: &[PatternPiece], text: &str) -> bool {
    let mut pos = 0usize;
    let mut pending_wildcard = false;
    for (index, piece) in pieces.iter().enumerate() {
        match piece {
            PatternPiece::Wildcard => pending_wildcard = true,
            PatternPiece::Literal(literal) => {
                if index == 0 {
                    if !text.starts_with(literal.as_str()) {
                        return false;
                    }
                    pos = literal.len();
                } else {
                    // A wildcard before this literal must consume at least one
                    // character.
                    let search_from = if pending_wildcard { pos + 1 } else { pos };
                    if search_from > text.len() {
                        return false;
                    }
                    match text[search_from..].find(literal.as_str()) {
                        Some(offset) => {
                            if !pending_wildcard && offset != 0 {
                                return false;
                            }
                            pos = search_from + offset + literal.len();
                        }
                        None => return false,
                    }
                }
                pending_wildcard = false;
            }
        }
    }
    if pending_wildcard {
        pos < text.len()
    } else {
        pos == text.len()
    }
}

fn validate_node(policy: &PolicyNode, value: &Value, path: &str, violations: &mut Vec<Violation>) {
    match policy {
        PolicyNode::Any => {}
        PolicyNode::Const(expected) => {
            if !value.loosely_equals(expected) {
                violations.push(Violation {
                    path: path.to_owned(),
                    reason: ViolationReason::ValueNotAllowed {
                        allowed: expected.scalar_to_string(),
                        found: value.scalar_to_string(),
                    },
                });
            }
        }
        PolicyNode::Type(tag) => {
            if !tag.matches(value) {
                violations.push(Violation {
                    path: path.to_owned(),
                    reason: ViolationReason::TypeMismatch {
                        expected: tag.placeholder().to_owned(),
                        found: value.type_name().to_owned(),
                    },
                });
            }
        }
        PolicyNode::Pattern(pattern) => {
            let ok = value
                .as_str()
                .map(|text| pattern_matches(pattern, text))
                .unwrap_or(false);
            if !ok {
                violations.push(Violation {
                    path: path.to_owned(),
                    reason: ViolationReason::ValueNotAllowed {
                        allowed: pattern.clone(),
                        found: value.scalar_to_string(),
                    },
                });
            }
        }
        PolicyNode::Enum(options) => {
            if !options.iter().any(|o| value.loosely_equals(o)) {
                violations.push(Violation {
                    path: path.to_owned(),
                    reason: ViolationReason::ValueNotAllowed {
                        allowed: options
                            .iter()
                            .map(Value::scalar_to_string)
                            .collect::<Vec<_>>()
                            .join(", "),
                        found: value.scalar_to_string(),
                    },
                });
            }
        }
        PolicyNode::Map(children) => match value {
            Value::Map(map) => {
                for (key, child_value) in map.iter() {
                    let child_path = if path.is_empty() {
                        key.to_owned()
                    } else {
                        format!("{path}.{key}")
                    };
                    match children.get(key) {
                        Some(child_policy) => {
                            validate_node(child_policy, child_value, &child_path, violations)
                        }
                        None => violations.push(Violation {
                            path: child_path,
                            reason: ViolationReason::UnknownField,
                        }),
                    }
                }
            }
            other => violations.push(Violation {
                path: path.to_owned(),
                reason: ViolationReason::StructureMismatch {
                    expected: "mapping".to_owned(),
                    found: other.type_name().to_owned(),
                },
            }),
        },
        PolicyNode::Seq(element) => match value {
            Value::Seq(items) => {
                for (i, item) in items.iter().enumerate() {
                    validate_node(element, item, &format!("{path}[{i}]"), violations);
                }
            }
            other => violations.push(Violation {
                path: path.to_owned(),
                reason: ViolationReason::StructureMismatch {
                    expected: "sequence".to_owned(),
                    found: other.type_name().to_owned(),
                },
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(yaml: &str) -> Value {
        kf_yaml::parse(yaml).unwrap()
    }

    /// A manifest as rendered by the policy pipeline: type placeholders where
    /// the chart lets users choose values.
    fn deployment_manifest(image_policy: &str) -> Value {
        manifest(&format!(
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
          image: docker.io/bitnami/nginx:1.25
          imagePullPolicy: {image_policy}
          ports:
            - containerPort: int
          securityContext:
            runAsNonRoot: true
"#
        ))
    }

    /// A concrete request manifest, as a client would submit it.
    fn request_manifest(image_policy: &str) -> Value {
        manifest(&format!(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 3
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:1.25
          imagePullPolicy: {image_policy}
          ports:
            - containerPort: 8080
          securityContext:
            runAsNonRoot: true
"#
        ))
    }

    fn validator() -> Validator {
        Validator::from_manifests(
            "demo",
            &[
                deployment_manifest("IfNotPresent"),
                deployment_manifest("Always"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn placeholders_become_type_nodes_and_constants_stay_constant() {
        let v = validator();
        let policy = v.policy_for(ResourceKind::Deployment).unwrap();
        let PolicyNode::Map(root) = policy else {
            panic!("expected a map policy");
        };
        let PolicyNode::Map(spec) = &root["spec"] else {
            panic!("expected spec map");
        };
        assert_eq!(spec["replicas"], PolicyNode::Type(TypeTag::Int));
    }

    #[test]
    fn diverging_constants_merge_into_enumerations() {
        let v = validator();
        let paths = v.field_paths(ResourceKind::Deployment);
        assert!(paths.contains(&"spec.template.spec.containers[].imagePullPolicy".to_string()));
        // The two manifests differ only in imagePullPolicy; both options must
        // be allowed and anything else rejected.
        let ok = K8sObject::from_value(request_manifest("Always")).unwrap();
        assert!(v.allows(&ok));
        let bad = K8sObject::from_value(request_manifest("Never")).unwrap();
        let violations = v.validate(&bad);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0].reason,
            ViolationReason::ValueNotAllowed { .. }
        ));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let v = validator();
        let mut body = request_manifest("Always");
        body.set_path(
            &kf_yaml::Path::parse("spec.template.spec.hostNetwork").unwrap(),
            Value::Bool(true),
        )
        .unwrap();
        let object = K8sObject::from_value(body).unwrap();
        let violations = v.validate(&object);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].path, "spec.template.spec.hostNetwork");
        assert!(matches!(
            violations[0].reason,
            ViolationReason::UnknownField
        ));
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let v = validator();
        let secret = K8sObject::minimal(ResourceKind::Secret, "s", "default");
        let violations = v.validate(&secret);
        assert!(matches!(violations[0].reason, ViolationReason::UnknownKind));
    }

    #[test]
    fn type_placeholders_validate_by_type() {
        let v = validator();
        let mut body = request_manifest("Always");
        body.set_path(
            &kf_yaml::Path::parse("spec.replicas").unwrap(),
            Value::from(7),
        )
        .unwrap();
        assert!(v.allows(&K8sObject::from_value(body.clone()).unwrap()));
        body.set_path(
            &kf_yaml::Path::parse("spec.replicas").unwrap(),
            Value::from("a lot"),
        )
        .unwrap();
        let violations = v.validate(&K8sObject::from_value(body).unwrap());
        assert!(matches!(
            violations[0].reason,
            ViolationReason::TypeMismatch { .. }
        ));
    }

    #[test]
    fn nested_sequences_validate_each_element() {
        let v = validator();
        let mut body = request_manifest("Always");
        // Add a second container with a disallowed extra field.
        let containers = body
            .get_path_mut(&kf_yaml::Path::parse("spec.template.spec.containers").unwrap())
            .unwrap()
            .as_seq_mut()
            .unwrap();
        let mut second = containers[0].clone();
        second
            .set_path(
                &kf_yaml::Path::parse("securityContext.privileged").unwrap(),
                Value::Bool(true),
            )
            .unwrap();
        containers.push(second);
        let violations = v.validate(&K8sObject::from_value(body).unwrap());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].path.contains("containers[1]"));
    }

    #[test]
    fn security_locks_pin_fields_to_safe_constants() {
        let mut v = validator();
        v.apply_security_locks(&SecurityLocks::best_practices());
        // runAsNonRoot was `true` in the manifests and stays locked to true.
        let mut body = request_manifest("Always");
        body.set_path(
            &kf_yaml::Path::parse("spec.template.spec.containers[0].securityContext.runAsNonRoot")
                .unwrap(),
            Value::Bool(false),
        )
        .unwrap();
        let violations = v.validate(&K8sObject::from_value(body).unwrap());
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0].reason,
            ViolationReason::ValueNotAllowed { .. }
        ));
        // allowPrivilegeEscalation was absent from the chart but is added by
        // the lock table (add_if_missing), locked to false.
        let mut body = request_manifest("Always");
        body.set_path(
            &kf_yaml::Path::parse(
                "spec.template.spec.containers[0].securityContext.allowPrivilegeEscalation",
            )
            .unwrap(),
            Value::Bool(false),
        )
        .unwrap();
        assert!(v.allows(&K8sObject::from_value(body.clone()).unwrap()));
        body.set_path(
            &kf_yaml::Path::parse(
                "spec.template.spec.containers[0].securityContext.allowPrivilegeEscalation",
            )
            .unwrap(),
            Value::Bool(true),
        )
        .unwrap();
        assert!(!v.allows(&K8sObject::from_value(body).unwrap()));
    }

    #[test]
    fn boolean_enumerations_normalize_to_the_bool_type() {
        let a = PolicyNode::Const(Value::Bool(true));
        let b = PolicyNode::Const(Value::Bool(false));
        assert_eq!(a.merge(b), PolicyNode::Type(TypeTag::Bool));
    }

    #[test]
    fn structural_conflicts_widen_to_any() {
        let map = PolicyNode::Map(BTreeMap::new());
        let scalar = PolicyNode::Const(Value::from("x"));
        assert_eq!(map.merge(scalar), PolicyNode::Any);
    }

    #[test]
    fn validator_set_allows_when_any_member_allows() {
        let set_validator = validator();
        let mut set = ValidatorSet::new();
        set.push(Validator::empty("other"));
        set.push(set_validator);
        let ok = K8sObject::from_value(request_manifest("Always")).unwrap();
        assert!(set.validate(&ok).is_ok());
        let secret = K8sObject::minimal(ResourceKind::Secret, "s", "default");
        assert!(set.validate(&secret).is_err());
    }

    #[test]
    fn yaml_export_contains_placeholders_and_kinds() {
        let v = validator();
        let yaml = v.to_yaml();
        assert!(yaml.contains("kind: Deployment"));
        assert!(yaml.contains("replicas: int"));
    }
}
