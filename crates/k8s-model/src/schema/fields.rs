//! Field-schema data structures.

use crate::ResourceKind;

/// Scalar types that appear in Kubernetes specifications. These are also the
/// type placeholders used by KubeFence values schemas and validators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ScalarType {
    String,
    Int,
    Bool,
    Float,
    /// IP address (e.g. `0.0.0.0`).
    Ip,
    /// TCP/UDP port number.
    Port,
    /// Resource quantity (e.g. `500m`, `2Gi`).
    Quantity,
    /// Duration or timestamp string.
    Duration,
}

impl ScalarType {
    /// The placeholder token used in values schemas and validators
    /// (Figure 7 / Figure 8 of the paper).
    pub fn placeholder(&self) -> &'static str {
        match self {
            ScalarType::String => "string",
            ScalarType::Int => "int",
            ScalarType::Bool => "bool",
            ScalarType::Float => "float",
            ScalarType::Ip => "IP",
            ScalarType::Port => "port",
            ScalarType::Quantity => "quantity",
            ScalarType::Duration => "duration",
        }
    }
}

/// The structural kind of a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// A scalar leaf of the given type.
    Scalar(ScalarType),
    /// A nested object whose children are further fields.
    Object,
    /// An array whose items are objects with the given children.
    ArrayOfObjects,
    /// An array of scalars of the given type.
    ArrayOfScalars(ScalarType),
    /// A free-form `string → string` map (labels, annotations, nodeSelector,
    /// ConfigMap data, …).
    StringMap,
}

/// One configurable field of a resource specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldNode {
    name: String,
    kind: FieldKind,
    children: Vec<FieldNode>,
    security_sensitive: bool,
}

impl FieldNode {
    /// A scalar leaf field.
    pub fn scalar(name: &str, scalar: ScalarType) -> Self {
        FieldNode {
            name: name.to_owned(),
            kind: FieldKind::Scalar(scalar),
            children: Vec::new(),
            security_sensitive: false,
        }
    }

    /// A nested object field with the given children.
    pub fn object(name: &str, children: Vec<FieldNode>) -> Self {
        FieldNode {
            name: name.to_owned(),
            kind: FieldKind::Object,
            children,
            security_sensitive: false,
        }
    }

    /// An array-of-objects field with the given item children.
    pub fn array(name: &str, children: Vec<FieldNode>) -> Self {
        FieldNode {
            name: name.to_owned(),
            kind: FieldKind::ArrayOfObjects,
            children,
            security_sensitive: false,
        }
    }

    /// An array-of-scalars field.
    pub fn scalar_array(name: &str, scalar: ScalarType) -> Self {
        FieldNode {
            name: name.to_owned(),
            kind: FieldKind::ArrayOfScalars(scalar),
            children: Vec::new(),
            security_sensitive: false,
        }
    }

    /// A string→string map field.
    pub fn string_map(name: &str) -> Self {
        FieldNode {
            name: name.to_owned(),
            kind: FieldKind::StringMap,
            children: Vec::new(),
            security_sensitive: false,
        }
    }

    /// Mark the field as security sensitive (subject to best-practice locks).
    pub fn sensitive(mut self) -> Self {
        self.security_sensitive = true;
        self
    }

    /// Field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural kind.
    pub fn kind(&self) -> &FieldKind {
        &self.kind
    }

    /// Child fields (empty for leaves).
    pub fn children(&self) -> &[FieldNode] {
        &self.children
    }

    /// Whether the field is flagged security sensitive.
    pub fn is_security_sensitive(&self) -> bool {
        self.security_sensitive
    }

    /// Number of fields in this subtree (this node plus all descendants).
    pub fn field_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(FieldNode::field_count)
            .sum::<usize>()
    }

    /// Collapsed field-notation paths of this node and all descendants,
    /// given the parent prefix.
    pub fn paths(&self, prefix: &str) -> Vec<String> {
        let own = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}.{}", self.name)
        };
        let child_prefix = match self.kind {
            FieldKind::ArrayOfObjects => format!("{own}[]"),
            _ => own.clone(),
        };
        let mut out = vec![own];
        for child in &self.children {
            out.extend(child.paths(&child_prefix));
        }
        out
    }
}

/// The schema of a single resource kind: its top-level fields.
#[derive(Debug, Clone, PartialEq)]
pub struct KindSchema {
    kind: ResourceKind,
    fields: Vec<FieldNode>,
}

impl KindSchema {
    /// Build a schema from a kind and its top-level fields.
    pub fn new(kind: ResourceKind, fields: Vec<FieldNode>) -> Self {
        KindSchema { kind, fields }
    }

    /// The resource kind described by this schema.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The top-level fields.
    pub fn fields(&self) -> &[FieldNode] {
        &self.fields
    }

    /// Total number of configurable fields (all nodes of all subtrees).
    pub fn field_count(&self) -> usize {
        self.fields.iter().map(FieldNode::field_count).sum()
    }

    /// Collapsed field-notation paths of every field.
    pub fn field_paths(&self) -> Vec<String> {
        self.fields.iter().flat_map(|f| f.paths("")).collect()
    }

    /// Whether the schema contains a field with the given collapsed path.
    pub fn contains_field(&self, path: &str) -> bool {
        self.field_paths().iter().any(|p| p == path)
    }

    /// The security-sensitive field paths of this kind.
    pub fn sensitive_paths(&self) -> Vec<String> {
        fn walk(node: &FieldNode, prefix: &str, out: &mut Vec<String>) {
            let own = if prefix.is_empty() {
                node.name().to_owned()
            } else {
                format!("{prefix}.{}", node.name())
            };
            if node.is_security_sensitive() {
                out.push(own.clone());
            }
            let child_prefix = match node.kind() {
                FieldKind::ArrayOfObjects => format!("{own}[]"),
                _ => own,
            };
            for child in node.children() {
                walk(child, &child_prefix, out);
            }
        }
        let mut out = Vec::new();
        for field in &self.fields {
            walk(field, "", &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KindSchema {
        KindSchema::new(
            ResourceKind::Service,
            vec![FieldNode::object(
                "spec",
                vec![
                    FieldNode::scalar("type", ScalarType::String),
                    FieldNode::array(
                        "ports",
                        vec![
                            FieldNode::scalar("port", ScalarType::Port),
                            FieldNode::scalar("targetPort", ScalarType::Port),
                        ],
                    ),
                    FieldNode::scalar_array("externalIPs", ScalarType::Ip).sensitive(),
                    FieldNode::string_map("selector"),
                ],
            )],
        )
    }

    #[test]
    fn field_count_counts_every_node() {
        // spec + type + ports + port + targetPort + externalIPs + selector = 7
        assert_eq!(sample().field_count(), 7);
    }

    #[test]
    fn paths_use_collapsed_notation_for_arrays() {
        let paths = sample().field_paths();
        assert!(paths.contains(&"spec.ports[].port".to_string()));
        assert!(paths.contains(&"spec.externalIPs".to_string()));
        assert!(!paths.iter().any(|p| p.contains("[0]")));
    }

    #[test]
    fn contains_field_matches_exact_paths() {
        let schema = sample();
        assert!(schema.contains_field("spec.ports[].targetPort"));
        assert!(!schema.contains_field("spec.ports.targetPort"));
    }

    #[test]
    fn sensitive_paths_are_reported() {
        let schema = sample();
        assert_eq!(
            schema.sensitive_paths(),
            vec!["spec.externalIPs".to_string()]
        );
    }

    #[test]
    fn scalar_placeholders_match_paper_notation() {
        assert_eq!(ScalarType::Bool.placeholder(), "bool");
        assert_eq!(ScalarType::Ip.placeholder(), "IP");
        assert_eq!(ScalarType::String.placeholder(), "string");
    }
}
