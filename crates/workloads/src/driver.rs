//! The deployment driver: what `kubectl apply` does for an operator release.

use k8s_apiserver::{ApiRequest, ApiResponse, RequestHandler};
use k8s_model::K8sObject;

use crate::operator::Operator;

/// The outcome of applying one manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentOutcome {
    /// The object that was applied.
    pub object_name: String,
    /// Kind of the object.
    pub kind: k8s_model::ResourceKind,
    /// The response from the API server (or proxy).
    pub response: ApiResponse,
}

/// The JSON twin of a YAML create `request` for `object`: the same user
/// and target namespace, with `object` sent as JSON — the deployment or
/// attack a JSON-speaking client issues.
pub fn json_twin(request: &ApiRequest, object: &K8sObject) -> ApiRequest {
    ApiRequest {
        namespace: request.namespace.clone(),
        ..ApiRequest::create_json(&request.user, object)
    }
}

/// Drives an operator deployment against any request handler (the bare API
/// server, an RBAC-enforcing API server, or the KubeFence proxy).
#[derive(Debug, Clone)]
pub struct DeploymentDriver {
    operator: Operator,
    objects: Vec<K8sObject>,
}

impl DeploymentDriver {
    /// A driver for an operator's default (attack-free) deployment.
    pub fn new(operator: Operator) -> Self {
        DeploymentDriver {
            operator,
            objects: operator.workload().default_objects(),
        }
    }

    /// The operator being deployed.
    pub fn operator(&self) -> Operator {
        self.operator
    }

    /// The objects applied by the deployment, in apply order.
    pub fn objects(&self) -> &[K8sObject] {
        &self.objects
    }

    /// The API requests issued by the deployment (`kubectl apply` issues one
    /// create per rendered manifest, as the operator's user, against the
    /// operator's namespace).
    pub fn requests(&self) -> Vec<ApiRequest> {
        let user = self.operator.user();
        self.objects
            .iter()
            .map(|object| {
                let mut request = ApiRequest::create(&user, object);
                if object.kind().is_namespaced() {
                    request.namespace = self.operator.namespace().to_owned();
                }
                request
            })
            .collect()
    }

    /// Apply the full deployment through a handler, returning one outcome per
    /// object.
    pub fn deploy<H: RequestHandler>(&self, handler: &H) -> Vec<DeploymentOutcome> {
        self.requests()
            .iter()
            .zip(self.objects.iter())
            .map(|(request, object)| DeploymentOutcome {
                object_name: object.name().to_owned(),
                kind: object.kind(),
                response: handler.handle(request),
            })
            .collect()
    }

    /// Whether every request of a deployment run succeeded.
    pub fn all_succeeded(outcomes: &[DeploymentOutcome]) -> bool {
        outcomes.iter().all(|o| o.response.is_success())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::{ApiServer, StoreBackend};

    #[test]
    fn deploying_against_a_permissive_server_succeeds() {
        for operator in Operator::ALL {
            let driver = DeploymentDriver::new(operator);
            let server = ApiServer::new().with_admin(&operator.user());
            let outcomes = driver.deploy(&server);
            assert!(
                DeploymentDriver::all_succeeded(&outcomes),
                "{operator}: {:?}",
                outcomes
                    .iter()
                    .filter(|o| !o.response.is_success())
                    .map(|o| (&o.object_name, &o.response.message))
                    .collect::<Vec<_>>()
            );
            assert_eq!(server.store().len(), driver.objects().len());
        }
    }

    #[test]
    fn requests_carry_the_operator_identity_and_namespace() {
        let driver = DeploymentDriver::new(Operator::Postgresql);
        for request in driver.requests() {
            assert_eq!(request.user, "operator:postgresql");
            if request.kind.is_namespaced() {
                assert_eq!(request.namespace, "data");
            }
        }
    }

    #[test]
    fn json_twins_keep_the_identity_and_namespace_in_json() {
        let driver = DeploymentDriver::new(Operator::Postgresql);
        for (yaml, object) in driver.requests().iter().zip(driver.objects()) {
            let json = json_twin(yaml, object);
            assert_eq!((&json.user, &json.namespace), (&yaml.user, &yaml.namespace));
            assert_eq!(json.wire_format(), Some(kf_yaml::BodyFormat::Json));
            let sent = json.materialize_body().unwrap().unwrap();
            assert!(sent.loosely_equals(object.body()));
        }
    }

    #[test]
    fn attack_free_deployments_trigger_no_cves() {
        for operator in Operator::ALL {
            let server = ApiServer::new().with_admin(&operator.user());
            DeploymentDriver::new(operator).deploy(&server);
            assert!(
                server.exploits().is_empty(),
                "{operator} legitimate deployment must not exercise vulnerable code: {:?}",
                server.exploits()
            );
        }
    }
}
