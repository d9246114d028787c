//! Wait-time quantiles via the P² estimator, cross-checked against the
//! full trace — demonstrating the streaming statistics on real data.

use asman::prelude::*;
use asman::report::{Sched, SingleVmScenario};
use asman::sim::{CatMask, P2Quantile, TraceCat};

/// Run LU at `weight` for 3 s with VM 1's flight `lock` stream armed and
/// return its spinlock waits of at least 2^10 cycles, in order.
fn traced_waits(weight: u32) -> Vec<u64> {
    let clk = Clock::default();
    let sc = SingleVmScenario::new(Sched::Credit, weight, 42);
    let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
    let mut m = sc.build(Box::new(lu));
    m.vm_kernel_mut(1).enable_flight(CatMask::only(TraceCat::Lock), 1 << 20);
    m.run_until(clk.secs(3));
    let flight = m.vm_kernel(1).flight();
    assert_eq!(flight.dropped(TraceCat::Lock), 0, "lock stream overflowed");
    flight
        .events(TraceCat::Lock)
        .iter()
        .filter_map(|e| e.ev.lock_wait())
        .filter(|&w| w >= 1 << 10)
        .collect()
}

#[test]
fn p2_median_matches_trace_median_on_real_waits() {
    let waits = traced_waits(64);
    assert!(waits.len() > 200, "need wait data, got {}", waits.len());
    let mut est = P2Quantile::new(0.5);
    for &w in &waits {
        est.observe(w as f64);
    }
    let mut sorted = waits.clone();
    sorted.sort_unstable();
    let exact = sorted[sorted.len() / 2] as f64;
    let approx = est.estimate().unwrap();
    // P² is approximate; on heavy-tailed data allow a factor-two band.
    assert!(
        approx > exact * 0.5 && approx < exact * 2.0,
        "P² median {approx:.0} vs exact {exact:.0}"
    );
}

#[test]
fn tail_quantile_reflects_over_threshold_population() {
    // At a low online rate the p999 of the traced waits reaches the
    // over-threshold region; at 100% it does not.
    let run = |weight: u32| {
        let mut est = P2Quantile::new(0.999);
        for w in traced_waits(weight) {
            est.observe(w as f64);
        }
        est.estimate().unwrap_or(0.0)
    };
    let full = run(256);
    let capped = run(32);
    assert!(
        capped > full * 4.0,
        "p999 must inflate at low rates: {capped:.0} vs {full:.0}"
    );
}
