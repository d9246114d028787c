//! End-to-end determinism: a simulation is a pure function of its
//! configuration and seed.

use asman::prelude::*;

/// A class-S LU guest beside dom0, run to completion.
fn finished_run(seed: u64, policy: Policy) -> Machine {
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(seed ^ 7);
    let dom0 = BackgroundService::new(BackgroundConfig::default(), 8, seed ^ 0xD0);
    let mut m = SimulationBuilder::new()
        .seed(seed)
        .policy(policy)
        .vm(VmSpec::new("dom0", 8, Box::new(dom0)))
        .vm(VmSpec::new("guest", 4, Box::new(lu))
            .weight(64)
            .cap(CapMode::NonWorkConserving))
        .build();
    m.run_to_completion(Clock::default().secs(600));
    m
}

fn fingerprint(seed: u64, policy: Policy) -> (u64, u64, u64, u64) {
    let m = finished_run(seed, policy);
    let s = m.vm_kernel(1).stats();
    (
        s.finished_at.expect("finished").as_u64(),
        s.lock_acquisitions,
        s.wait_hist.count_at_least_pow2(10),
        m.events_processed(),
    )
}

#[test]
fn same_seed_same_everything_credit() {
    assert_eq!(
        fingerprint(11, Policy::Credit),
        fingerprint(11, Policy::Credit)
    );
}

#[test]
fn same_seed_same_everything_asman() {
    assert_eq!(
        fingerprint(11, Policy::Asman),
        fingerprint(11, Policy::Asman)
    );
}

#[test]
fn different_seeds_diverge() {
    // Wake jitter and workload jitter differ, so at least the event count
    // or the finish time must differ.
    let a = fingerprint(1, Policy::Credit);
    let b = fingerprint(2, Policy::Credit);
    assert_ne!(a, b, "distinct seeds should not produce identical runs");
}

#[test]
fn policies_share_workload_but_not_schedule() {
    let credit = fingerprint(5, Policy::Credit);
    let asman = fingerprint(5, Policy::Asman);
    // Different schedulers, same workload: event streams diverge.
    assert_ne!(credit.3, asman.3);
}

#[test]
fn repeated_construction_is_stable_across_policies() {
    for policy in [Policy::Credit, Policy::Con, Policy::Asman] {
        assert_eq!(
            fingerprint(33, policy),
            fingerprint(33, policy),
            "{policy:?} must be reproducible"
        );
    }
}

/// Literal `state_fingerprint` pins. The fingerprint folds every piece
/// of simulation state, including each guest's over-2^10 wait count, so
/// a refactor of the measurement plumbing that shifts any folded field
/// fails here, not only in the benchmark's pins.
#[test]
fn state_fingerprint_is_pinned() {
    let credit = finished_run(11, Policy::Credit).state_fingerprint();
    let asman = finished_run(11, Policy::Asman).state_fingerprint();
    assert_eq!(
        (credit, asman),
        (0x0f30_a06b_96ab_cf37, 0x739c_751a_feae_4e2b),
        "state_fingerprint drifted: credit {credit:#018x}, asman {asman:#018x}"
    );
}
