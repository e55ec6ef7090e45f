//! Quickstart: generate a KubeFence policy for an operator chart, put the
//! enforcement proxy in front of the (simulated) API server, deploy the
//! operator, then watch an attack bounce off.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler, StoreBackend};
use kf_attacks::catalog;
use kf_workloads::{DeploymentDriver, Operator};
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let operator = Operator::Nginx;
    println!("== KubeFence quickstart: protecting the {operator} operator ==\n");

    // 1. Offline phase: analyze the operator's Helm chart and generate the
    //    workload-specific validator.
    let generator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()));
    let validator = generator.generate(&operator.chart())?;
    println!(
        "generated a validator covering {} resource kinds from {} values variants",
        validator.kinds().len(),
        generator.variant_count(&operator.chart()),
    );

    // 2. Runtime phase: interpose the proxy between clients and the API
    //    server (complete mediation).
    let server = ApiServer::new().with_admin(&operator.user());
    let proxy = EnforcementProxy::new(server, validator);

    // 3. The legitimate deployment sails through.
    let outcomes = DeploymentDriver::new(operator).deploy(&proxy);
    println!(
        "legitimate deployment: {}/{} requests accepted",
        outcomes.iter().filter(|o| o.response.is_success()).count(),
        outcomes.len()
    );

    // 4. An insider with the operator's credentials tries to enable
    //    hostNetwork (CVE-2020-15257, entry E1 of the catalog).
    let exploit = catalog()
        .into_iter()
        .find(|spec| spec.id == "E1")
        .expect("catalog contains E1");
    let deployment = outcomes
        .iter()
        .find(|o| o.kind == k8s_model::ResourceKind::Deployment)
        .expect("nginx deploys a Deployment");
    let base = proxy
        .upstream()
        .store()
        .get(
            deployment.kind,
            operator.namespace(),
            &deployment.object_name,
        )
        .expect("deployment stored")
        .object
        .clone();
    let malicious = exploit
        .inject(&base)
        .expect("deployment carries a pod spec");
    let response = proxy.handle(&ApiRequest::update(&operator.user(), &malicious));

    println!(
        "\nattack E1 (hostNetwork) response: HTTP {}",
        response.status.code()
    );
    println!("  {}", response.message);
    println!("\nproxy statistics: {:?}", proxy.stats());
    assert!(response.is_denied());
    Ok(())
}
