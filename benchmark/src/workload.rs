//! The four workloads. Names, mixes and client counts are normative
//! (`BENCHMARK.json` and `README.md` repeat them); the per-segment request
//! counts are frozen here so a segment is the same work on every commit.

use kf_workloads::MixRatio;

use crate::pool::Traffic;

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` carries it too).
    pub why: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Traffic shape.
    pub traffic: Traffic,
    /// Replicas of every chart object in the seeded store.
    pub replicas: usize,
    /// Push subscribers attached.
    pub subscribers: usize,
    /// `true`: one dedicated thread drains the subscribers through a
    /// `WatchDispatcher`; `false`: each client pumps its share of the
    /// subscribers itself every [`Workload::pump_every`] requests.
    pub drain_thread: bool,
    /// Requests between a client's non-blocking pumps (0: never).
    pub pump_every: usize,
    /// Durable store (`ApiServer::durable` semantics) instead of in-memory;
    /// client 0 then runs one inline `Persistence::checkpoint` halfway
    /// through each segment.
    pub durable: bool,
    /// Operators are admins, so only the proxy stands in the way.
    pub admins: bool,
    /// Requests per measured segment, all clients together.
    pub segment_requests: usize,
    /// The same under `--smoke`.
    pub smoke_segment_requests: usize,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "deploy_churn",
        why: "write-heavy applies (8:1:1, half YAML half JSON, 1 in 16 an attack), in-memory store, 2 clients: accept-path admission dominates",
        clients: 2,
        traffic: Traffic::Mix {
            mix: MixRatio::WRITE_HEAVY,
            attack_every: 16,
        },
        replicas: 1,
        subscribers: 0,
        drain_thread: false,
        pump_every: 0,
        durable: false,
        admins: false,
        segment_requests: 24_000,
        smoke_segment_requests: 600,
    },
    Workload {
        name: "reconcile_watch",
        why: "operator steady state (1:8:1) over a 16x-replicated store with 256 push subscribers, 1 client + 1 drain thread: reads, to_wire and watch fan-out dominate; the proxy only passes through",
        clients: 1,
        traffic: Traffic::Mix {
            mix: MixRatio::OPERATOR_RECONCILE,
            attack_every: 0,
        },
        replicas: 16,
        subscribers: 256,
        drain_thread: true,
        pump_every: 0,
        durable: false,
        admins: false,
        segment_requests: 60_000,
        smoke_segment_requests: 600,
    },
    Workload {
        name: "attack_storm",
        why: "all hostile (3 attack manifests : 1 malformed body), operators are admins, 2 clients: the deny path of the same admission layer; server, store and WAL stay idle",
        clients: 2,
        traffic: Traffic::Hostile,
        replicas: 1,
        subscribers: 0,
        drain_thread: false,
        pump_every: 0,
        durable: false,
        admins: true,
        segment_requests: 24_000,
        smoke_segment_requests: 600,
    },
    Workload {
        name: "durable_churn",
        why: "deploy_churn traffic into a durable store under group commit with 16 subscribers and one inline checkpoint per segment, 1 client: fsync wait, WAL append and group commit dominate",
        clients: 1,
        traffic: Traffic::Mix {
            mix: MixRatio::WRITE_HEAVY,
            attack_every: 16,
        },
        replicas: 1,
        subscribers: 16,
        drain_thread: false,
        pump_every: 64,
        durable: true,
        admins: false,
        segment_requests: 6_000,
        smoke_segment_requests: 400,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
