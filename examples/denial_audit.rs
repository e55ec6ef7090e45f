//! Denial auditing under the contention-free proxy: what the ring buffer
//! retains, what the atomic statistics count, and how unparsable bodies are
//! accounted.
//!
//! ```sh
//! cargo run --release --example denial_audit
//! ```

use k8s_apiserver::{ApiRequest, ApiServer, RequestBody, RequestHandler};
use k8s_model::{K8sObject, ResourceKind, Verb};
use kf_workloads::{DeploymentDriver, Operator};
use kf_yaml::BodyFormat;
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator, ValidatorSet};

fn main() {
    let operator = Operator::Nginx;
    let validator = PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
        .generate(&operator.chart())
        .expect("built-in chart generates a policy");

    // A deliberately tiny ring (8 records) so eviction is visible.
    let proxy = EnforcementProxy::with_denial_capacity(
        ApiServer::new().with_admin(&operator.user()),
        ValidatorSet::single(validator),
        8,
    );

    // 1. Legitimate traffic is forwarded.
    for request in DeploymentDriver::new(operator).requests() {
        let response = proxy.handle(&request);
        assert!(response.is_success(), "{}", response.message);
    }

    // 2. A burst of policy violations overflows the ring.
    for i in 0..20 {
        let secret = K8sObject::minimal(ResourceKind::Secret, &format!("stolen-{i}"), "web");
        proxy.handle(&ApiRequest::create("mallory", &secret));
    }

    // 3. An unparsable body is denied, timed and audited too.
    let garbage = ApiRequest {
        user: "mallory".to_owned(),
        verb: Verb::Create,
        kind: ResourceKind::Deployment,
        namespace: "web".to_owned(),
        name: "mystery".to_owned(),
        content_type: None,
        resource_version: None,
        body: RequestBody::Raw(
            "kind: Deployment\nmetadata:\n  name: mystery\n   badly: indented\n".into(),
            BodyFormat::Yaml,
        ),
    };
    let response = proxy.handle(&garbage);
    println!(
        "unparsable body -> {:?}: {}\n",
        response.status, response.message
    );

    let stats = proxy.stats();
    println!(
        "stats: {} forwarded, {} denied, {} passthrough, {} µs validating",
        stats.forwarded, stats.denied, stats.passthrough, stats.validation_time_us
    );
    let denials = proxy.denials();
    println!(
        "denial ring: {} retained of {} denied ({} evicted)\n",
        denials.len(),
        stats.denied,
        proxy.dropped_denials()
    );
    println!("newest retained denials:");
    for denial in denials.iter().rev().take(3) {
        let at = match denial.location {
            Some(location) => match location.offset {
                Some(offset) => format!("line {}, byte {offset}", location.line),
                None => format!("line {}", location.line),
            },
            None => "no position".to_owned(),
        };
        println!(
            "  {} {} `{}` ({at}): {}",
            denial.user,
            denial.kind,
            denial.object_name,
            denial
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}
