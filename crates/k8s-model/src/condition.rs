//! Field references and conditions over manifests.
//!
//! The paper's catalog of malicious specifications (Table II) names the
//! *targeted API field* of each exploit or misconfiguration relative to the
//! pod specification (e.g. `containers.volumeMounts.subPath`) or to the
//! resource specification (e.g. `externalIPs` on a Service). This module
//! provides the shared machinery to resolve such references against concrete
//! manifests and to evaluate trigger conditions, used both by the CVE-trigger
//! simulation in the API server and by the attack catalog.

use kf_yaml::Value;

use crate::{K8sObject, ResourceKind};

/// Where a field reference is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldScope {
    /// Relative to the pod specification of the resource (resolved through
    /// `spec`, `spec.template.spec` or `spec.jobTemplate.spec.template.spec`
    /// depending on the kind).
    PodSpec,
    /// Relative to the resource root (e.g. `spec.externalIPs` on a Service).
    Resource,
}

/// A reference to a specification field in collapsed field notation
/// (`containers[].securityContext.privileged`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Anchor of the reference.
    pub scope: FieldScope,
    /// Collapsed field-notation path relative to the anchor.
    pub path: String,
}

impl FieldRef {
    /// A pod-spec-relative reference.
    pub fn pod_spec(path: impl Into<String>) -> Self {
        FieldRef {
            scope: FieldScope::PodSpec,
            path: path.into(),
        }
    }

    /// A resource-root-relative reference.
    pub fn resource(path: impl Into<String>) -> Self {
        FieldRef {
            scope: FieldScope::Resource,
            path: path.into(),
        }
    }

    /// The manifest prefix under which the pod specification lives for a given
    /// resource kind, or `None` if the kind does not carry a pod spec.
    pub fn pod_spec_prefix(kind: ResourceKind) -> Option<&'static str> {
        match kind {
            ResourceKind::Pod => Some("spec"),
            ResourceKind::Deployment | ResourceKind::StatefulSet | ResourceKind::Job => {
                Some("spec.template.spec")
            }
            ResourceKind::CronJob => Some("spec.jobTemplate.spec.template.spec"),
            _ => None,
        }
    }

    /// Resolve the reference against an object, returning every matching value
    /// (sequence markers `[]` fan out over all elements).
    pub fn resolve<'a>(&self, object: &'a K8sObject) -> Vec<&'a Value> {
        let (root, relative) = match self.scope {
            FieldScope::Resource => (Some(object.body()), self.path.as_str()),
            FieldScope::PodSpec => {
                let Some(prefix) = Self::pod_spec_prefix(object.kind()) else {
                    return Vec::new();
                };
                // Prefixes are plain dotted keys: at most one anchor.
                let root = prefix
                    .split('.')
                    .try_fold(object.body(), |value, key| value.get(key));
                (root, self.path.as_str())
            }
        };
        match root {
            Some(root) => lookup_collapsed(root, relative),
            None => Vec::new(),
        }
    }

    /// The absolute collapsed path of this reference on a manifest of `kind`,
    /// or `None` when the kind has no pod spec to anchor a pod-scoped path.
    pub fn absolute_path(&self, kind: ResourceKind) -> Option<String> {
        match self.scope {
            FieldScope::Resource => Some(self.path.clone()),
            FieldScope::PodSpec => Self::pod_spec_prefix(kind).map(|prefix| {
                format!("{prefix}.{}", self.path).replace(".template.spec.", ".template.spec.")
            }),
        }
    }
}

/// Resolve a collapsed field-notation path against a document, fanning out
/// over sequences at `[]` markers.
pub fn lookup_collapsed<'a>(root: &'a Value, notation: &str) -> Vec<&'a Value> {
    let mut found = Vec::new();
    walk_collapsed(root, notation, 0, &mut found);
    found
}

/// One step of [`lookup_collapsed`], depth first: fan out over `value` once
/// per pending `[]` marker, then follow the first segment of `rest`.
/// Whatever the whole path reaches lands in `found`, in document order —
/// the only allocation of a lookup, and none when nothing matches.
fn walk_collapsed<'a>(value: &'a Value, rest: &str, fanouts: usize, found: &mut Vec<&'a Value>) {
    if fanouts > 0 {
        for item in value.as_seq().unwrap_or_default() {
            walk_collapsed(item, rest, fanouts - 1, found);
        }
    } else if rest.is_empty() {
        found.push(value);
    } else {
        let (segment, rest) = rest.split_once('.').unwrap_or((rest, ""));
        let (key, fanouts) = split_segment(segment);
        let next = if key.is_empty() {
            Some(value)
        } else {
            value.get(key)
        };
        if let Some(next) = next {
            walk_collapsed(next, rest, fanouts, found);
        }
    }
}

/// Split a collapsed segment (`containers[]` → (`containers`, 1 fan-out)).
fn split_segment(segment: &str) -> (&str, usize) {
    let mut key = segment;
    let mut fanouts = 0;
    while key.ends_with("[]") {
        key = &key[..key.len() - 2];
        fanouts += 1;
    }
    (key, fanouts)
}

/// The check applied to a referenced field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldCheck {
    /// The field is present (with any value).
    Present,
    /// The field is absent from the manifest.
    Absent,
    /// The field is present and equal to the given value.
    Equals(Value),
    /// The field is present and equal to one of the given values.
    OneOf(Vec<Value>),
    /// The field is a sequence containing the given value.
    Contains(Value),
    /// The field is present and its subtree nests deeper than the given
    /// number of levels (used for payload-shape exploits such as the
    /// "billion laughs" CVE-2019-11253).
    DeeperThan(usize),
}

/// Nesting depth of a value (scalars have depth 0).
fn nesting_depth(value: &Value) -> usize {
    match value {
        Value::Map(map) => 1 + map.values().map(nesting_depth).max().unwrap_or(0),
        Value::Seq(seq) => 1 + seq.iter().map(nesting_depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// A condition over a manifest: a field reference plus a check.
///
/// Conditions describe both *when a CVE's vulnerable code is exercised* and
/// *when a specification is considered misconfigured*.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldCondition {
    /// The referenced field.
    pub field: FieldRef,
    /// The check applied to the field.
    pub check: FieldCheck,
}

impl FieldCondition {
    /// Condition: the referenced pod-spec field is present.
    pub fn pod_field_present(path: &str) -> Self {
        FieldCondition {
            field: FieldRef::pod_spec(path),
            check: FieldCheck::Present,
        }
    }

    /// Condition: the referenced pod-spec field equals `value`.
    pub fn pod_field_equals(path: &str, value: impl Into<Value>) -> Self {
        FieldCondition {
            field: FieldRef::pod_spec(path),
            check: FieldCheck::Equals(value.into()),
        }
    }

    /// Condition: the referenced resource field is present.
    pub fn resource_field_present(path: &str) -> Self {
        FieldCondition {
            field: FieldRef::resource(path),
            check: FieldCheck::Present,
        }
    }

    /// Evaluate the condition against an object.
    ///
    /// For `Absent`, the condition only holds when the object actually carries
    /// a pod specification (or, for resource scope, always) and the field is
    /// missing from every matching location.
    pub fn evaluate(&self, object: &K8sObject) -> bool {
        let matches = self.field.resolve(object);
        match &self.check {
            FieldCheck::Present => !matches.is_empty(),
            FieldCheck::Absent => {
                let anchored = match self.field.scope {
                    FieldScope::Resource => true,
                    FieldScope::PodSpec => FieldRef::pod_spec_prefix(object.kind()).is_some(),
                };
                anchored && matches.is_empty()
            }
            FieldCheck::Equals(expected) => matches.iter().any(|v| v.loosely_equals(expected)),
            FieldCheck::OneOf(options) => matches
                .iter()
                .any(|v| options.iter().any(|o| v.loosely_equals(o))),
            FieldCheck::Contains(needle) => matches.iter().any(|v| {
                v.as_seq()
                    .map(|s| s.iter().any(|item| item.loosely_equals(needle)))
                    .unwrap_or(false)
            }),
            FieldCheck::DeeperThan(depth) => matches.iter().any(|v| nesting_depth(v) > *depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPLOYMENT: &str = r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  template:
    spec:
      hostNetwork: true
      containers:
        - name: a
          image: nginx
          securityContext:
            privileged: false
          volumeMounts:
            - name: data
              mountPath: /data
        - name: b
          image: sidecar
          volumeMounts:
            - name: data
              mountPath: /cache
              subPath: inner
"#;

    const SERVICE: &str = r#"apiVersion: v1
kind: Service
metadata:
  name: svc
spec:
  type: LoadBalancer
  externalIPs:
    - 203.0.113.7
  ports:
    - port: 80
"#;

    fn deployment() -> K8sObject {
        K8sObject::from_yaml(DEPLOYMENT).unwrap()
    }

    #[test]
    fn collapsed_lookup_fans_out_over_sequences() {
        let obj = deployment();
        let hits = lookup_collapsed(obj.body(), "spec.template.spec.containers[].image");
        assert_eq!(hits.len(), 2);
        let sub = lookup_collapsed(
            obj.body(),
            "spec.template.spec.containers[].volumeMounts[].subPath",
        );
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].as_str(), Some("inner"));
        // Hits come back in document order; a scalar under `[]`, a missing
        // key and a path through a scalar all resolve to nothing.
        assert_eq!(hits[0].as_str(), Some("nginx"));
        assert_eq!(hits[1].as_str(), Some("sidecar"));
        for miss in ["kind[]", "spec.nope", "kind.spec", "spec.template[][]"] {
            assert!(lookup_collapsed(obj.body(), miss).is_empty(), "{miss}");
        }
        assert!(std::ptr::eq(
            lookup_collapsed(obj.body(), "")[0],
            obj.body()
        ));
    }

    #[test]
    fn pod_scope_resolves_through_the_template() {
        let obj = deployment();
        let cond = FieldCondition::pod_field_equals("hostNetwork", true);
        assert!(cond.evaluate(&obj));
        let cond = FieldCondition::pod_field_present("containers[].volumeMounts[].subPath");
        assert!(cond.evaluate(&obj));
        let cond =
            FieldCondition::pod_field_equals("containers[].securityContext.privileged", true);
        assert!(!cond.evaluate(&obj));
    }

    #[test]
    fn resource_scope_resolves_from_the_root() {
        let svc = K8sObject::from_yaml(SERVICE).unwrap();
        let cond = FieldCondition::resource_field_present("spec.externalIPs");
        assert!(cond.evaluate(&svc));
        let contains = FieldCondition {
            field: FieldRef::resource("spec.externalIPs"),
            check: FieldCheck::Contains(Value::from("203.0.113.7")),
        };
        assert!(contains.evaluate(&svc));
    }

    #[test]
    fn absent_check_requires_a_pod_spec_anchor() {
        let obj = deployment();
        let absent = FieldCondition {
            field: FieldRef::pod_spec("containers[].resources.limits"),
            check: FieldCheck::Absent,
        };
        assert!(absent.evaluate(&obj));
        // A Service has no pod spec; a pod-scoped Absent check must not fire.
        let svc = K8sObject::from_yaml(SERVICE).unwrap();
        assert!(!absent.evaluate(&svc));
    }

    #[test]
    fn pod_spec_prefix_matches_kind_shape() {
        assert_eq!(FieldRef::pod_spec_prefix(ResourceKind::Pod), Some("spec"));
        assert_eq!(
            FieldRef::pod_spec_prefix(ResourceKind::CronJob),
            Some("spec.jobTemplate.spec.template.spec")
        );
        assert_eq!(FieldRef::pod_spec_prefix(ResourceKind::Secret), None);
    }

    #[test]
    fn one_of_check_matches_any_listed_value() {
        let obj = deployment();
        let cond = FieldCondition {
            field: FieldRef::pod_spec("containers[].image"),
            check: FieldCheck::OneOf(vec![Value::from("sidecar"), Value::from("other")]),
        };
        assert!(cond.evaluate(&obj));
    }
}
