//! Security best-practice locks.
//!
//! The paper's schema-generation phase "locks predefined safe constants to
//! fields critical to security, according to best practices for K8s resource
//! specifications" (e.g. `securityContext.runAsNonRoot: true`), and adds
//! missing critical fields explicitly. The lock table below follows the
//! NSA/CISA Kubernetes Hardening Guide and the Pod Security Standards the
//! paper cites, and covers every misconfiguration of the catalog (M1–M7).

use kf_yaml::Value;

/// One security lock: a pod-spec-relative field (collapsed notation) pinned to
/// a safe constant.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityLock {
    /// Pod-spec-relative field path in collapsed notation
    /// (e.g. `containers[].securityContext.runAsNonRoot`).
    pub field: String,
    /// The only allowed value for the field.
    pub locked_value: Value,
    /// Whether the field should be added to the schema even when the chart
    /// never mentions it ("any missing critical field is explicitly added").
    pub add_if_missing: bool,
    /// Which catalog entry or guideline motivates the lock (documentation
    /// only).
    pub rationale: String,
}

impl SecurityLock {
    fn new(field: &str, locked_value: Value, add_if_missing: bool, rationale: &str) -> Self {
        SecurityLock {
            field: field.to_owned(),
            locked_value,
            add_if_missing,
            rationale: rationale.to_owned(),
        }
    }
}

/// The set of security locks applied during policy generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityLocks {
    locks: Vec<SecurityLock>,
}

impl Default for SecurityLocks {
    fn default() -> Self {
        SecurityLocks::best_practices()
    }
}

impl SecurityLocks {
    /// An empty lock set (used by the ablation example).
    pub fn none() -> Self {
        SecurityLocks { locks: Vec::new() }
    }

    /// The built-in best-practice lock table.
    pub fn best_practices() -> Self {
        let locks = vec![
            SecurityLock::new(
                "hostNetwork",
                Value::Bool(false),
                false,
                "M1/E1: sharing the host network namespace exposes node services (CVE-2020-15257)",
            ),
            SecurityLock::new(
                "hostPID",
                Value::Bool(false),
                false,
                "M2: sharing the host PID namespace allows process inspection and signaling",
            ),
            SecurityLock::new(
                "hostIPC",
                Value::Bool(false),
                false,
                "M1: sharing the host IPC namespace leaks shared memory",
            ),
            SecurityLock::new(
                "containers[].securityContext.runAsNonRoot",
                Value::Bool(true),
                true,
                "M4: containers must not run as root (Pod Security Standards, restricted)",
            ),
            SecurityLock::new(
                "containers[].securityContext.privileged",
                Value::Bool(false),
                false,
                "E8: privileged containers disable isolation (CVE-2021-21334)",
            ),
            SecurityLock::new(
                "containers[].securityContext.allowPrivilegeEscalation",
                Value::Bool(false),
                true,
                "M6: child processes must not gain more privileges than their parent",
            ),
            SecurityLock::new(
                "containers[].securityContext.readOnlyRootFilesystem",
                Value::Bool(true),
                false,
                "M3: writable root filesystems enable persistence after compromise",
            ),
            SecurityLock::new(
                "initContainers[].securityContext.runAsNonRoot",
                Value::Bool(true),
                false,
                "M4 applied to init containers",
            ),
            SecurityLock::new(
                "initContainers[].securityContext.privileged",
                Value::Bool(false),
                false,
                "E8 applied to init containers",
            ),
            SecurityLock::new(
                "shareProcessNamespace",
                Value::Bool(false),
                false,
                "process namespace sharing weakens container isolation",
            ),
            SecurityLock::new(
                "automountServiceAccountToken",
                Value::Bool(false),
                false,
                "default service-account tokens grant API access in every namespace",
            ),
        ];
        SecurityLocks { locks }
    }

    /// All locks.
    pub fn locks(&self) -> &[SecurityLock] {
        &self.locks
    }

    /// Number of locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Add a custom lock.
    pub fn with_lock(mut self, lock: SecurityLock) -> Self {
        self.locks.push(lock);
        self
    }

    /// The lock for a given pod-spec-relative field, if any.
    pub fn lock_for(&self, field: &str) -> Option<&SecurityLock> {
        self.locks.iter().find(|l| l.field == field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_practices_cover_the_catalog_misconfigurations() {
        let locks = SecurityLocks::best_practices();
        for field in [
            "hostNetwork",
            "hostPID",
            "hostIPC",
            "containers[].securityContext.runAsNonRoot",
            "containers[].securityContext.privileged",
            "containers[].securityContext.allowPrivilegeEscalation",
            "containers[].securityContext.readOnlyRootFilesystem",
        ] {
            assert!(locks.lock_for(field).is_some(), "missing lock for {field}");
        }
    }

    #[test]
    fn locked_values_are_the_safe_ones() {
        let locks = SecurityLocks::best_practices();
        assert_eq!(
            locks
                .lock_for("containers[].securityContext.runAsNonRoot")
                .unwrap()
                .locked_value,
            Value::Bool(true)
        );
        assert_eq!(
            locks.lock_for("hostNetwork").unwrap().locked_value,
            Value::Bool(false)
        );
    }

    #[test]
    fn run_as_non_root_is_added_even_when_absent_from_the_chart() {
        let locks = SecurityLocks::best_practices();
        assert!(
            locks
                .lock_for("containers[].securityContext.runAsNonRoot")
                .unwrap()
                .add_if_missing
        );
    }

    #[test]
    fn custom_locks_can_be_appended() {
        let locks = SecurityLocks::none().with_lock(SecurityLock {
            field: "priorityClassName".into(),
            locked_value: Value::from("standard"),
            add_if_missing: false,
            rationale: "test".into(),
        });
        assert_eq!(locks.len(), 1);
        assert!(locks.lock_for("priorityClassName").is_some());
    }
}
