//! Tracing must not change what the program does: with one client and a
//! fixed seed, the traced and the untraced stack answer every request with
//! the identical (status, message, wire bytes) and leave the identical
//! store behind. The same holds for two runs with the same seed, and a
//! different seed gives a different sequence.

use kf_benchmark::bench::{transcript, Options};
use kf_benchmark::workload::{Workload, WORKLOADS};

fn options(workload: &'static Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 1.0,
        smoke: true,
        out: kf_benchmark::out_dir().join(format!("test-equivalence-{}", std::process::id())),
    }
}

#[test]
fn traced_and_untraced_runs_behave_identically() {
    for workload in &WORKLOADS {
        let name = workload.name;
        let plain = transcript(&options(workload, 11), false, 2);
        let traced = transcript(&options(workload, 11), true, 2);
        assert_eq!(
            plain.replies.len(),
            2 * workload.smoke_segment_requests,
            "{name}"
        );
        assert_eq!(plain.replies, traced.replies, "{name}: replies diverged");
        assert_eq!(
            plain.snapshot, traced.snapshot,
            "{name}: final store diverged"
        );

        let again = transcript(&options(workload, 11), false, 2);
        assert_eq!(plain, again, "{name}: same seed, different behaviour");

        let other = transcript(&options(workload, 12), false, 2);
        assert_ne!(
            plain.replies, other.replies,
            "{name}: another seed replayed the same sequence"
        );
    }
    let _ = std::fs::remove_dir_all(options(&WORKLOADS[0], 0).out);
}
