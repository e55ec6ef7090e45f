//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! Each benchmark target under `benches/` prints the rows/series of the
//! corresponding table or figure and, where meaningful, measures the
//! underlying operation with Criterion. See `EXPERIMENTS.md` for the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use k8s_apiserver::ApiServer;
use k8s_rbac::{audit2rbac, Audit2RbacOptions, RbacPolicySet};
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{GeneratorConfig, PolicyGenerator, Validator};

/// Generate the KubeFence validator for an operator, exactly as the
/// experiments do (release name = the operator's release).
pub fn validator_for(operator: Operator) -> Validator {
    PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .expect("built-in charts generate valid policies")
}

/// Learn the per-operator least-privilege RBAC policy from an attack-free
/// deployment, as the paper does with audit logging + audit2rbac.
pub fn learned_rbac_policy(operator: Operator) -> RbacPolicySet {
    let learning_server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&learning_server);
    audit2rbac(
        learning_server.audit_log().events(),
        &operator.user(),
        &Audit2RbacOptions::default(),
    )
}

/// Mean and standard deviation of a sample set.
pub fn mean_and_stddev(samples: &[f64]) -> (f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_usable_artifacts() {
        let validator = validator_for(Operator::Nginx);
        assert!(!validator.kinds().is_empty());
        let policy = learned_rbac_policy(Operator::Nginx);
        assert!(policy.object_count() > 0);
        let (mean, std) = mean_and_stddev(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-9);
        assert!(std > 0.0);
    }
}
