//! The server's graceful-degradation surface: serving policy under storage
//! failure, bounded-admission overload protection, and the aggregated
//! health report.
//!
//! The durability state machine lives in [`crate::persist`]; this module is
//! what the *serving path* does about it. Two knobs:
//!
//! * [`DegradePolicy`] — whether a degraded store keeps accepting writes
//!   from memory (`FailOpen`, the availability default) or rejects mutating
//!   verbs with `503` until durability is re-proven (`FailClosed`, the
//!   etcd-like consistency stance). Reads, lists and watches are served in
//!   either policy and in every durability state — they come from memory
//!   and are correct regardless of what the disk is doing.
//! * [`AdmissionGate`] — a bounded in-flight counter with a deadline
//!   budget. A request that cannot be admitted before its deadline is shed
//!   with `429`, which is the same backpressure contract the watch plane
//!   applies to slow consumers (evict → `Gone` → re-list) moved to the
//!   front door (bound the stampede, don't queue it unboundedly). The
//!   informer fleet's `RelistGate` is one with no deadline.
//!
//! [`HealthReport`] aggregates both with the store's
//! [`DurabilityStatus`](crate::persist::DurabilityStatus) so an operator —
//! or the chaos workload asserting recovery invariants — observes every
//! transition from one surface. See `docs/robustness.md`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::persist::DurabilityStatus;
use crate::sync::{Condvar, Mutex};

/// What the serving path does with mutating requests while the store's
/// durability is degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Keep serving writes from memory; durability is demoted to
    /// best-effort until the WAL recovers (availability over durability).
    /// The health surface still reports the gap — the policy changes the
    /// serving behaviour, never the bookkeeping.
    #[default]
    FailOpen,
    /// Reject mutating verbs with `503 Service Unavailable` while the
    /// durability state is not `Healthy`; reads, lists and watches keep
    /// serving (durability over availability).
    FailClosed,
}

impl std::fmt::Display for DegradePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradePolicy::FailOpen => "fail-open",
            DegradePolicy::FailClosed => "fail-closed",
        })
    }
}

#[derive(Debug, Default)]
struct GateState {
    in_flight: usize,
    waiting: usize,
}

/// A bounded-admission gate: at most `max_in_flight` requests execute at
/// once, and a request unable to start within its deadline budget is shed.
///
/// A mutex-guarded counter plus a condvar, permits released by RAII drop;
/// the informer fleet's `RelistGate` counts its permits with one of these.
/// Poisoning is recovered through `crate::sync` (a panicking request must
/// not wedge admission for everyone else).
#[derive(Debug)]
pub struct AdmissionGate {
    max_in_flight: usize,
    deadline: Duration,
    state: Mutex<GateState>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    peak: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting at most `max_in_flight` concurrent requests
    /// (clamped to at least 1), each willing to wait up to `deadline` for a
    /// slot before being shed.
    pub fn new(max_in_flight: usize, deadline: Duration) -> AdmissionGate {
        AdmissionGate {
            max_in_flight: max_in_flight.max(1),
            deadline,
            state: Mutex::new(GateState::default()),
            freed: Condvar::default(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Try to enter the gate, blocking up to the deadline budget for a free
    /// slot. `Ok` carries the RAII permit whose drop frees the slot; `Err`
    /// means the request was shed (the caller answers `429`).
    ///
    /// # Errors
    ///
    /// [`ShedError`] when no slot freed within the deadline.
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, ShedError> {
        let mut state = self.state.lock();
        state.waiting += 1;
        let (mut state, timed_out) = self
            .freed
            .wait_timeout_while(state, self.deadline, |state| {
                state.in_flight >= self.max_in_flight
            });
        state.waiting -= 1;
        if timed_out {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ShedError {
                in_flight: state.in_flight,
                waited: self.deadline,
            });
        }
        state.in_flight += 1;
        self.peak.fetch_max(state.in_flight, Ordering::Relaxed);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { gate: self })
    }

    /// The concurrency bound.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Requests admitted since construction.
    pub fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed (deadline expired waiting) since construction.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests currently executing.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// Requests currently blocked waiting for a slot.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// High-water mark of concurrent in-flight requests.
    pub fn peak_in_flight(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// RAII admission permit — dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedError {
    /// In-flight count observed when the deadline expired.
    pub in_flight: usize,
    /// The deadline budget that elapsed.
    pub waited: Duration,
}

impl std::fmt::Display for ShedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shed after {:?} waiting on {} in-flight requests",
            self.waited, self.in_flight
        )
    }
}

/// A point-in-time health summary of the server: the store's durability
/// status, the serving policy reacting to it, the admission gate's load
/// counters and what the bounded audit log dropped.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// The store's durability status (state, gap, latched error,
    /// transition count, lost records).
    pub durability: DurabilityStatus,
    /// The degradation policy the serving path applies.
    pub policy: DegradePolicy,
    /// Mutating requests rejected with `503` under `FailClosed`.
    pub rejected_writes: u64,
    /// Requests admitted through the gate (0 when no gate is configured).
    pub admitted_total: u64,
    /// Requests shed with `429` (0 when no gate is configured).
    pub shed_total: u64,
    /// Requests currently executing (0 when no gate is configured).
    pub in_flight: usize,
    /// Requests currently queued at the gate (0 when no gate is
    /// configured).
    pub waiting: usize,
    /// High-water mark of concurrent requests (0 when no gate is
    /// configured).
    pub peak_in_flight: usize,
    /// The gate's concurrency bound, `None` when admission is unbounded.
    pub max_in_flight: Option<usize>,
    /// Shared fsyncs issued by group-commit leaders (0 when the WAL runs
    /// `FsyncPolicy::Os`).
    pub fsync_batches: u64,
    /// Mean records proven per shared fsync — the group-commit
    /// amortization factor (0.0 before the first batch).
    pub avg_group_size: f64,
    /// Store shards the most recent checkpoint claimed and rewrote (0
    /// before the first checkpoint, and for backends without incremental
    /// checkpoints).
    pub checkpoint_dirty_shards: usize,
    /// Audit events overwritten by newer ones since the audit log was last
    /// cleared (see [`crate::AUDIT_LOG_CAPACITY`]).
    pub audit_dropped: u64,
}

impl HealthReport {
    /// Whether the server is fully healthy: durability proven (or
    /// explicitly not configured) and nothing latched.
    pub fn healthy(&self) -> bool {
        self.durability.latched.is_none()
            && self.durability.state == crate::persist::DurabilityState::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn gate_admits_up_to_the_bound_and_sheds_past_the_deadline() {
        let gate = AdmissionGate::new(2, Duration::from_millis(5));
        let a = gate.admit().expect("first");
        let b = gate.admit().expect("second");
        assert_eq!(gate.in_flight(), 2);
        let shed = gate.admit().expect_err("third sheds");
        assert_eq!(shed.in_flight, 2);
        assert_eq!(gate.shed_total(), 1);
        drop(a);
        let c = gate.admit().expect("slot freed");
        drop(b);
        drop(c);
        assert_eq!(gate.in_flight(), 0);
        assert_eq!(gate.admitted_total(), 3);
        assert_eq!(gate.peak_in_flight(), 2);
    }

    #[test]
    fn waiters_are_woken_when_a_permit_drops() {
        let gate = Arc::new(AdmissionGate::new(1, Duration::from_secs(5)));
        let held = gate.admit().expect("holder");
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit().map(|_| ()).is_ok())
        };
        // Give the waiter time to park, then free the slot.
        while gate.waiting() == 0 {
            crate::sync::yield_now();
        }
        drop(held);
        assert!(waiter.join().expect("waiter thread"), "waiter admitted");
    }

    #[test]
    fn degrade_policy_displays_its_knob_spellings() {
        assert_eq!(DegradePolicy::FailOpen.to_string(), "fail-open");
        assert_eq!(DegradePolicy::FailClosed.to_string(), "fail-closed");
        assert_eq!(DegradePolicy::default(), DegradePolicy::FailOpen);
    }
}
