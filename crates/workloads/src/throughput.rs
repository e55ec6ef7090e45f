//! Reproducible request pools and traffic shapes.
//!
//! [`ThroughputDriver`] builds a fixed pool of mixed legitimate and attack
//! requests — the corpus the validator-routing differential test checks
//! dispatch parity over — and [`MixRatio`] names the create : get : list
//! shapes the end-to-end benchmark (`benchmark/`) schedules its traffic by.
//! Replay, timing and percentiles live in `benchmark/`, the one performance
//! harness.

use k8s_apiserver::ApiRequest;
use kf_attacks::AttackExecutor;

use crate::operator::Operator;
use crate::DeploymentDriver;

/// A reproducible pool of mixed legitimate/attack traffic for one or more
/// operators.
#[derive(Debug, Clone)]
pub struct ThroughputDriver {
    requests: Vec<ApiRequest>,
    attack_count: usize,
}

/// The create : get : list shape of mixed read/write traffic. The ratios
/// are request counts per mix cycle, so `{1, 8, 1}` issues one create and
/// one list for every eight gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixRatio {
    /// Create (apply) requests per cycle.
    pub create: usize,
    /// Get requests per cycle.
    pub get: usize,
    /// List requests per cycle.
    pub list: usize,
}

impl MixRatio {
    /// The steady-state traffic of a reconciling operator: mostly reads of
    /// the objects it manages, an occasional re-apply, a periodic list —
    /// 1 create : 8 gets : 1 list.
    pub const OPERATOR_RECONCILE: MixRatio = MixRatio {
        create: 1,
        get: 8,
        list: 1,
    };

    /// Deployment-churn traffic: mostly writes with a sanity read and list —
    /// 8 creates : 1 get : 1 list.
    pub const WRITE_HEAVY: MixRatio = MixRatio {
        create: 8,
        get: 1,
        list: 1,
    };

    /// Requests per cycle.
    pub fn cycle_len(&self) -> usize {
        self.create + self.get + self.list
    }
}

impl ThroughputDriver {
    /// A pool for one operator: the operator's legitimate deployment
    /// requests interleaved with the attack catalog's malicious requests
    /// (roughly one attack per three legitimate requests, the interleaving
    /// fixed so every run replays identical traffic).
    pub fn for_operator(operator: Operator) -> Self {
        Self::for_operators(&[operator])
    }

    /// A pool mixing several operators' traffic.
    pub fn for_operators(operators: &[Operator]) -> Self {
        let mut legitimate = Vec::new();
        let mut attacks = Vec::new();
        for operator in operators {
            let driver = DeploymentDriver::new(*operator);
            legitimate.extend(driver.requests());
            let executor = AttackExecutor::new(
                &operator.user(),
                operator.namespace(),
                driver.objects().to_vec(),
            );
            attacks.extend(
                executor
                    .requests()
                    .into_iter()
                    .map(|(_spec, request)| request),
            );
        }
        // Deterministic interleave at a fixed 3:1 legitimate:attack ratio —
        // the legitimate list cycles (replayed traffic re-applies the same
        // manifests, which the server treats as `kubectl apply`) so the pool
        // is always 25% attacks regardless of list lengths.
        let attack_count = attacks.len();
        let mut requests = Vec::with_capacity(4 * attacks.len().max(1));
        let mut legit_cycle = 0usize;
        for attack in attacks {
            for _ in 0..3 {
                requests.push(legitimate[legit_cycle % legitimate.len()].clone());
                legit_cycle += 1;
            }
            requests.push(attack);
        }
        if requests.is_empty() {
            requests = legitimate;
        }
        ThroughputDriver {
            requests,
            attack_count,
        }
    }

    /// The request pool, in its fixed order.
    pub fn requests(&self) -> &[ApiRequest] {
        &self.requests
    }

    /// Number of attack requests in the pool.
    pub fn attack_count(&self) -> usize {
        self.attack_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_mixes_legitimate_and_attack_traffic() {
        let driver = ThroughputDriver::for_operator(Operator::Nginx);
        assert!(driver.attack_count() > 0);
        assert!(driver.requests().len() > driver.attack_count());
    }

    #[test]
    fn write_heavy_mix_is_mostly_creates() {
        let mix = MixRatio::WRITE_HEAVY;
        assert_eq!(mix.cycle_len(), 10);
        assert!(mix.create * 10 >= mix.cycle_len() * 7);
    }

    #[test]
    fn single_threaded_replay_is_deterministic_traffic() {
        let driver = ThroughputDriver::for_operator(Operator::Postgresql);
        let a: Vec<String> = driver.requests().iter().map(|r| r.path()).collect();
        let b: Vec<String> = ThroughputDriver::for_operator(Operator::Postgresql)
            .requests()
            .iter()
            .map(|r| r.path())
            .collect();
        assert_eq!(a, b);
    }
}
