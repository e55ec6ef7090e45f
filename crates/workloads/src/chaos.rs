//! The chaos workload: seeded fault schedules driven through a durable API
//! server, with recovery invariants asserted after every crash.
//!
//! A [`ChaosDriver`] run is one experiment: open a WAL-backed server over a
//! [`FaultyIo`] carrying a seed-derived [`FaultSchedule`], drive a
//! create/update/delete mix through the *front door*
//! ([`RequestHandler::handle`], so the degradation policy and health
//! surface are exercised, not bypassed), keep a transcript of every
//! **acknowledged** write (key, resource version, body handle — read back
//! via get-after-write), then crash and reopen over clean I/O. The
//! invariants checked against the transcript are the robustness plane's
//! contract (`docs/robustness.md`):
//!
//! 1. **Durability never overstates.** The `durable_revision` claimed
//!    before the crash is `<=` the revision actually recovered from disk.
//! 2. **Byte-identical recovery.** Replaying the transcript up to the
//!    recovered revision reproduces the recovered store exactly — same
//!    object count, same resource versions, same document trees.
//! 3. **Losses are observed losses.** If any acknowledged write did not
//!    survive (possible under `fail-open`), the health surface must have
//!    shown it: a degraded/fail-stop state, a latched error, or a recorded
//!    transition. Silent loss is a violation.
//! 4. **Fail-stop is structured.** A run ending in `FailStop` must carry a
//!    structured latched error.
//! 5. **The server comes back.** A write against the recovered store is
//!    accepted at a fresh revision.
//!
//! Under [`DegradePolicy::FailClosed`] the run additionally proves the
//! serving contract mid-degradation: mutating requests answer `503` while
//! a list keeps answering `200`.
//!
//! [`ChaosDriver::sweep`] fans one base seed into N schedules × both
//! policies — the CI parity job runs it at a fixed `KF_CHAOS_SEED` and
//! prints [`ChaosReport::summary`] to the step summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use k8s_apiserver::persist::{PersistConfig, Persistence, RetryPolicy};
use k8s_apiserver::storage_io::{FaultSchedule, FaultyIo};
use k8s_apiserver::{
    ApiRequest, ApiServer, DegradePolicy, DurabilityState, FsyncPolicy, RequestHandler,
    ResponseStatus, StoreBackend,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::Value;

/// The namespace every chaos object lives in.
const NAMESPACE: &str = "chaos";
/// Write operations driven per run.
const OPS: u64 = 24;
/// Distinct object names cycled through (small enough that updates and
/// deletes hit existing keys).
const NAMES: u64 = 10;
/// Consecutive failures before the WAL fail-stops in a chaos run (small
/// and deterministic: with [`RetryPolicy::immediate`] transitions are a
/// pure function of the fault schedule).
const FAIL_STOP_AFTER: u32 = 4;

/// One transcript entry: what the server acknowledged, read back through
/// the store so the recorded body is the exact stored tree.
#[derive(Debug, Clone)]
struct LogEntry {
    revision: u64,
    name: String,
    /// `None` records a deletion.
    body: Option<Arc<Value>>,
    resource_version: u64,
}

/// The verdict of one seeded chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed the fault schedule was derived from.
    pub seed: u64,
    /// The schedule, in its parseable spec form (empty: no faults drawn).
    pub schedule: String,
    /// The degradation policy the server ran under.
    pub policy: DegradePolicy,
    /// The fsync policy the run used (derived from the seed's parity).
    pub fsync: FsyncPolicy,
    /// Write operations attempted through the front door.
    pub ops_attempted: u64,
    /// Writes the server acknowledged (2xx).
    pub ops_acknowledged: u64,
    /// Mutating requests rejected with `503` (fail-closed under
    /// degradation).
    pub rejected_writes: u64,
    /// Faults the schedule actually injected.
    pub injected_faults: u64,
    /// The durability state when the run crashed.
    pub final_state: DurabilityState,
    /// State-machine transitions recorded before the crash.
    pub transitions: usize,
    /// The latched error at crash time, rendered (`None` when healthy).
    pub latched: Option<String>,
    /// `durable_revision` claimed immediately before the crash.
    pub durable_claimed: u64,
    /// Highest revision the server acknowledged to a client.
    pub acked_revision: u64,
    /// The revision recovery actually rebuilt from disk.
    pub recovered_revision: u64,
    /// Objects in the recovered store.
    pub recovered_objects: usize,
    /// Shared group-commit fsyncs the run issued (0 off `group`).
    pub fsync_batches: u64,
    /// Mean records per shared fsync (0.0 off `group`).
    pub avg_group_size: f64,
    /// Store shards the mid-run checkpoint claimed (0 when it never ran
    /// or failed).
    pub checkpoint_dirty_shards: usize,
    /// Invariant violations (empty: the run is green).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    pub fn green(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A full sweep's outcomes.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// One outcome per (seed, policy) run.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Whether every run in the sweep was green.
    pub fn all_green(&self) -> bool {
        self.outcomes.iter().all(ChaosOutcome::green)
    }

    /// A fixed-width table of every run — what the CI parity job prints to
    /// the step summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:<11} {:<9} {:>5} {:>5} {:>4} {:>4} {:<9} {:>7} {:>7} {:>6} {:>6} {:>5} {:>9}  schedule",
            "seed",
            "policy",
            "fsync",
            "acked",
            "503s",
            "inj",
            "trans",
            "state",
            "durable",
            "recov",
            "fsyncB",
            "avgGrp",
            "dirty",
            "verdict"
        );
        for o in &self.outcomes {
            let fsync = match o.fsync {
                FsyncPolicy::Always => "always".to_owned(),
                FsyncPolicy::Os => "os".to_owned(),
                FsyncPolicy::Group {
                    max_wait_us,
                    max_batch,
                } => format!("group:{max_wait_us}:{max_batch}"),
            };
            let _ = writeln!(
                out,
                "{:>6} {:<11} {:<9} {:>5} {:>5} {:>4} {:>4} {:<9} {:>7} {:>7} {:>6} {:>6.1} {:>5} {:>9}  {}",
                o.seed,
                o.policy.to_string(),
                fsync,
                o.ops_acknowledged,
                o.rejected_writes,
                o.injected_faults,
                o.transitions,
                o.final_state.to_string(),
                o.durable_claimed,
                o.recovered_revision,
                o.fsync_batches,
                o.avg_group_size,
                o.checkpoint_dirty_shards,
                if o.green() { "green" } else { "VIOLATED" },
                if o.schedule.is_empty() {
                    "-"
                } else {
                    &o.schedule
                },
            );
            for violation in &o.violations {
                let _ = writeln!(out, "       !! {violation}");
            }
        }
        let green = self.outcomes.iter().filter(|o| o.green()).count();
        let _ = writeln!(out, "{green}/{} runs green", self.outcomes.len());
        out
    }
}

/// Drives seeded fault schedules through a durable [`ApiServer`] and
/// asserts the recovery invariants after each crash.
#[derive(Debug, Clone)]
pub struct ChaosDriver {
    base_dir: PathBuf,
}

impl ChaosDriver {
    /// A driver keeping each run's persistence directory under `base_dir`.
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        ChaosDriver {
            base_dir: base_dir.into(),
        }
    }

    fn pod(name: &str, image: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: {NAMESPACE}\nspec:\n  containers:\n    - name: app\n      image: {image}\n"
        ))
        .expect("chaos pod parses")
    }

    /// Run one seeded schedule under one policy: populate through the front
    /// door over faulty I/O, crash, reopen clean, check every invariant.
    ///
    /// # Errors
    ///
    /// Filesystem errors preparing the run directory or reopening after the
    /// crash (fault-induced failures are *outcomes*, not errors).
    pub fn run(&self, seed: u64, policy: DegradePolicy) -> io::Result<ChaosOutcome> {
        let dir = self.base_dir.join(format!("seed-{seed}-{policy}"));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        let schedule = FaultSchedule::from_seed(seed);
        // Two-way policy rotation by seed. Group runs with a zero window
        // (`group:0:4`): single-threaded drivers close every window
        // immediately, so transitions stay a pure function of the schedule
        // while the shared-fsync failure path is still the one exercised.
        let fsync = match seed % 2 {
            0 => FsyncPolicy::Always,
            _ => FsyncPolicy::Group {
                max_wait_us: 0,
                max_batch: 4,
            },
        };
        let faulty = Arc::new(FaultyIo::over_real(schedule.clone()));
        let config = PersistConfig::new(&dir)
            .with_fsync(fsync)
            .with_retry(RetryPolicy::immediate(FAIL_STOP_AFTER));
        let (store, persistence, _boot) = Persistence::open_with_io(config, faulty.clone())?;
        let server = ApiServer::with_store(store).with_degrade_policy(policy);

        let mut log: Vec<LogEntry> = Vec::new();
        let mut live: BTreeMap<String, ()> = BTreeMap::new();
        let mut acknowledged = 0u64;
        let mut rejected = 0u64;
        let mut violations = Vec::new();

        for op in 1..=OPS {
            let name = format!("pod-{}", op % NAMES);
            if op % 7 == 0 && live.contains_key(&name) {
                let request = ApiRequest::delete("admin", ResourceKind::Pod, NAMESPACE, &name);
                let response = server.handle(&request);
                if response.is_success() {
                    acknowledged += 1;
                    live.remove(&name);
                    log.push(LogEntry {
                        revision: server.store().revision(),
                        name,
                        body: None,
                        resource_version: 0,
                    });
                } else if response.status == ResponseStatus::ServiceUnavailable {
                    rejected += 1;
                }
                continue;
            }
            let pod = Self::pod(&name, &format!("nginx:1.{op}"));
            let response = server.handle(&ApiRequest::create("admin", &pod));
            if response.is_success() {
                acknowledged += 1;
                // Get-after-write: the transcript records the *stored* tree
                // and version, not what we think we sent.
                let stored = server
                    .store()
                    .get(ResourceKind::Pod, NAMESPACE, &name)
                    .expect("acknowledged write is readable");
                live.insert(name.clone(), ());
                log.push(LogEntry {
                    revision: stored.resource_version,
                    name,
                    body: Some(Arc::clone(stored.object.shared_body())),
                    resource_version: stored.resource_version,
                });
            } else if response.status == ResponseStatus::ServiceUnavailable {
                rejected += 1;
            } else {
                violations.push(format!(
                    "op {op}: unexpected rejection {:?}: {}",
                    response.status, response.message
                ));
            }
            if op == OPS / 2 {
                // A mid-run checkpoint attempt: under faults it may fail or
                // retry — both are legitimate outcomes the boot path must
                // absorb; what matters is the invariants after the crash.
                let _ = persistence.checkpoint(server.store());
            }
        }

        // The fail-closed serving contract, proven while actually degraded:
        // writes answer 503, reads keep answering 200.
        let state_before_crash = server.store().durability_state();
        if policy == DegradePolicy::FailClosed && state_before_crash != DurabilityState::Healthy {
            let probe = server.handle(&ApiRequest::create("admin", &Self::pod("probe", "nginx")));
            if probe.status == ResponseStatus::ServiceUnavailable {
                rejected += 1;
            } else {
                violations.push(format!(
                    "fail-closed degraded write answered {:?}, want 503",
                    probe.status
                ));
            }
            let read = server.handle(&ApiRequest::list("admin", ResourceKind::Pod, NAMESPACE));
            if !read.is_success() {
                violations.push(format!(
                    "read while degraded answered {:?}, want success",
                    read.status
                ));
            }
        }

        let health = server.health_report();
        let durable_claimed = persistence.wal().durable_revision();
        let acked_revision = log.last().map(|e| e.revision).unwrap_or(0);
        if health.rejected_writes != rejected {
            violations.push(format!(
                "health reports {} rejected writes, driver counted {rejected}",
                health.rejected_writes
            ));
        }
        if health.durability.state == DurabilityState::FailStop
            && health.durability.latched.is_none()
        {
            violations.push("fail-stop without a structured latched error".to_owned());
        }

        // Crash: no shutdown hook, no final sync.
        drop(server);
        drop(persistence);

        // Reopen over clean I/O — the disk is what the faults left behind.
        let (recovered, _persistence, report) = Persistence::open(PersistConfig::new(&dir))?;
        if report.recovered_revision < durable_claimed {
            violations.push(format!(
                "durable_revision overstated storage: claimed {durable_claimed}, recovered {}",
                report.recovered_revision
            ));
        }
        // Replay the transcript up to the recovered revision and demand a
        // byte-identical store.
        let mut expected: BTreeMap<String, (u64, Arc<Value>)> = BTreeMap::new();
        for entry in log
            .iter()
            .filter(|e| e.revision <= report.recovered_revision)
        {
            match &entry.body {
                Some(body) => {
                    expected.insert(
                        entry.name.clone(),
                        (entry.resource_version, Arc::clone(body)),
                    );
                }
                None => {
                    expected.remove(&entry.name);
                }
            }
        }
        if StoreBackend::len(&recovered) != expected.len() {
            violations.push(format!(
                "recovered {} objects, transcript expects {}",
                StoreBackend::len(&recovered),
                expected.len()
            ));
        }
        for (name, (resource_version, body)) in &expected {
            match recovered.get(ResourceKind::Pod, NAMESPACE, name) {
                None => violations.push(format!("{name} lost: acknowledged but not recovered")),
                Some(stored) => {
                    if stored.resource_version != *resource_version {
                        violations.push(format!(
                            "{name}: recovered at rv {}, transcript says {resource_version}",
                            stored.resource_version
                        ));
                    }
                    if stored.object.body() != &**body {
                        violations.push(format!("{name}: recovered tree differs from transcript"));
                    }
                }
            }
        }
        // Acknowledged-but-unrecovered writes are only legitimate when the
        // health surface showed the degradation.
        if report.recovered_revision < acked_revision {
            let observed = health.durability.state != DurabilityState::Healthy
                || health.durability.latched.is_some()
                || health.durability.transitions > 0;
            if !observed {
                violations.push(format!(
                    "silent loss: acked to {acked_revision}, recovered {}, health showed nothing",
                    report.recovered_revision
                ));
            }
        }
        // The server must come back: a fresh write lands at a new revision.
        let reborn = ApiServer::with_store(recovered);
        let response = reborn.handle(&ApiRequest::create("admin", &Self::pod("reborn", "nginx")));
        if !response.is_success() {
            violations.push(format!(
                "post-recovery write rejected: {:?}: {}",
                response.status, response.message
            ));
        } else {
            let stored = reborn
                .store()
                .get(ResourceKind::Pod, NAMESPACE, "reborn")
                .expect("post-recovery write readable");
            if stored.resource_version <= report.recovered_revision {
                violations.push("post-recovery write did not advance the revision".to_owned());
            }
        }

        Ok(ChaosOutcome {
            seed,
            schedule: schedule.spec(),
            policy,
            fsync,
            ops_attempted: OPS,
            ops_acknowledged: acknowledged,
            rejected_writes: rejected,
            injected_faults: faulty.injected(),
            final_state: health.durability.state,
            transitions: health.durability.transitions,
            latched: health.durability.latched.map(|l| l.to_string()),
            durable_claimed,
            acked_revision,
            recovered_revision: report.recovered_revision,
            recovered_objects: report.live_objects,
            fsync_batches: health.fsync_batches,
            avg_group_size: health.avg_group_size,
            checkpoint_dirty_shards: health.checkpoint_dirty_shards,
            violations,
        })
    }

    /// Sweep `schedules` consecutive seeds starting at `base_seed`, each
    /// under **both** degradation policies.
    ///
    /// # Errors
    ///
    /// Those of [`ChaosDriver::run`].
    pub fn sweep(&self, base_seed: u64, schedules: u64) -> io::Result<ChaosReport> {
        let mut report = ChaosReport::default();
        for offset in 0..schedules {
            let seed = base_seed.wrapping_add(offset);
            for policy in [DegradePolicy::FailOpen, DegradePolicy::FailClosed] {
                report.outcomes.push(self.run(seed, policy)?);
            }
        }
        Ok(report)
    }
}
