//! Reproduce the effectiveness experiment interactively (Tables II and III):
//! replay the 15-entry catalog of malicious specifications against every
//! operator, once under the audit2rbac-learned RBAC policy and once under
//! KubeFence, and print the per-operator mitigation counts.
//!
//! ```bash
//! cargo run --example attack_mitigation
//! ```

use k8s_apiserver::ApiServer;
use k8s_rbac::{audit2rbac, Audit2RbacOptions};
use kf_attacks::{catalog, AttackExecutor};
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Catalog of malicious specifications (Table II) ==\n");
    println!("{}", kf_attacks::catalog::to_table());
    println!("total entries: {}\n", catalog().len());

    println!("== Mitigated CVEs and misconfigurations (Table III) ==\n");
    println!(
        "{:<12} {:>10} {:>16} {:>14} {:>20}",
        "Workload", "CVEs/RBAC", "CVEs/KubeFence", "Misconf/RBAC", "Misconf/KubeFence"
    );

    for operator in Operator::ALL {
        let executor = AttackExecutor::new(
            &operator.user(),
            operator.namespace(),
            operator.workload().default_objects(),
        );

        // RBAC baseline: learn the least-privilege policy from an attack-free
        // run, then attack.
        let learning = ApiServer::new().with_admin(&operator.user());
        DeploymentDriver::new(operator).deploy(&learning);
        assert_eq!(
            learning.audit_dropped(),
            0,
            "{operator}: the replay outgrew the audit log"
        );
        let policy = audit2rbac(
            learning.audit_log().events(),
            &operator.user(),
            &Audit2RbacOptions::default(),
        );
        let rbac_server = ApiServer::new();
        rbac_server.set_rbac_policy(Some(policy));
        let rbac = AttackExecutor::summarize(&executor.execute(&rbac_server));

        // KubeFence: generate the workload validator and attack through the
        // proxy.
        let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
            .generate(&operator.chart())?;
        let proxy = EnforcementProxy::new(ApiServer::new(), validator);
        let kubefence = AttackExecutor::summarize(&executor.execute(&proxy));

        println!(
            "{:<12} {:>10} {:>16} {:>14} {:>20}",
            operator.name(),
            format!("{}/{}", rbac.cve_mitigated, rbac.cve_attempted),
            format!("{}/{}", kubefence.cve_mitigated, kubefence.cve_attempted),
            format!("{}/{}", rbac.misconfig_mitigated, rbac.misconfig_attempted),
            format!(
                "{}/{}",
                kubefence.misconfig_mitigated, kubefence.misconfig_attempted
            ),
        );
    }
    println!("\n(The paper reports 0/8 and 0/7 for RBAC, 8/8 and 7/7 for KubeFence, for every workload.)");
    Ok(())
}
