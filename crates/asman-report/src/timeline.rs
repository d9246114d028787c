//! Schedule-timeline reconstruction and rendering.
//!
//! Turns a machine's flight-recorded scheduling transitions into
//! per-VCPU online intervals and an ASCII Gantt chart — the tool that
//! made the duty-cycle geometry of the calibration visible (aligned vs
//! staggered windows, park/unpark quantization, gang formation under
//! coscheduling).

use asman_hypervisor::Machine;
use asman_sim::{merge_streams, Cycles, FlightEv, FlightEvent, TraceCat};
use serde::Serialize;

/// The VCPU transitions a timeline reads, as `(time, vcpu, event)` in
/// time order: the hypervisor recorder's dispatches, preemptions, blocks
/// and wakes (`sched` category; steals and gang migrations are skipped)
/// merged with its parks (`credit` category). At equal timestamps the
/// merge puts `sched` events first; that cannot reorder a VCPU's own
/// park and dispatch, because a parked VCPU is not dispatched before its
/// unpark. The machine must record both categories, e.g. with
/// `enable_flight(CatMask::only(TraceCat::Sched).with(TraceCat::Credit), ..)`.
fn transitions(m: &Machine) -> impl Iterator<Item = (Cycles, usize, FlightEv)> {
    let flight = m.flight();
    let parks = flight
        .events(TraceCat::Credit)
        .iter()
        .filter(|e| matches!(e.ev, FlightEv::Park { .. }))
        .copied()
        .collect();
    merge_streams(vec![flight.events(TraceCat::Sched).to_vec(), parks])
        .into_iter()
        .filter_map(|FlightEvent { t, ev }| match ev {
            FlightEv::Dispatch { vcpu, .. }
            | FlightEv::Preempt { vcpu, .. }
            | FlightEv::Block { vcpu, .. }
            | FlightEv::Wake { vcpu, .. }
            | FlightEv::Park { vcpu, .. } => Some((t, vcpu as usize, ev)),
            _ => None,
        })
}

/// A contiguous online interval of one VCPU.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OnlineSpan {
    /// Global VCPU index.
    pub vcpu: usize,
    /// Owning VM.
    pub vm: usize,
    /// PCPU it ran on.
    pub pcpu: usize,
    /// Dispatch time.
    pub start: Cycles,
    /// Preempt/block time.
    pub end: Cycles,
}

/// Per-VCPU online spans reconstructed from the flight recorder.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Timeline {
    /// All completed spans, in start order.
    pub spans: Vec<OnlineSpan>,
    /// Number of VCPUs observed.
    pub vcpus: usize,
}

impl Timeline {
    /// Reconstruct from a machine whose hypervisor flight recorder
    /// records the `sched` and `credit` categories.
    pub fn from_machine(m: &Machine) -> Timeline {
        let mut open: Vec<Option<(Cycles, usize, usize)>> = Vec::new();
        let mut spans = Vec::new();
        let mut max_vcpu = 0;
        for (t, vcpu, ev) in transitions(m) {
            max_vcpu = max_vcpu.max(vcpu);
            if open.len() <= vcpu {
                open.resize(vcpu + 1, None);
            }
            match ev {
                FlightEv::Dispatch { vm, pcpu, .. } => {
                    open[vcpu] = Some((t, pcpu as usize, vm as usize));
                }
                FlightEv::Preempt { .. } | FlightEv::Block { .. } | FlightEv::Park { .. } => {
                    if let Some((start, pcpu, vm)) = open[vcpu].take() {
                        spans.push(OnlineSpan {
                            vcpu,
                            vm,
                            pcpu,
                            start,
                            end: t,
                        });
                    }
                }
                _ => {}
            }
        }
        Timeline {
            spans,
            vcpus: max_vcpu + 1,
        }
    }

    /// Total online time of `vcpu` within `[from, to]`.
    pub fn online_in(&self, vcpu: usize, from: Cycles, to: Cycles) -> Cycles {
        self.spans
            .iter()
            .filter(|s| s.vcpu == vcpu)
            .map(|s| {
                let a = s.start.max(from);
                let b = s.end.min(to);
                b.saturating_sub(a)
            })
            .sum()
    }

    /// Wake-to-dispatch latencies per VCPU (the metric behind Xen's
    /// BOOST mechanism), from the same flight categories as
    /// [`Timeline::from_machine`].
    pub fn wake_latencies(m: &Machine) -> Vec<(usize, Cycles)> {
        let mut pending: Vec<Option<Cycles>> = Vec::new();
        let mut out = Vec::new();
        for (t, vcpu, ev) in transitions(m) {
            if pending.len() <= vcpu {
                pending.resize(vcpu + 1, None);
            }
            match ev {
                FlightEv::Wake { .. } => pending[vcpu] = Some(t),
                FlightEv::Dispatch { .. } => {
                    if let Some(w) = pending[vcpu].take() {
                        out.push((vcpu, t.saturating_sub(w)));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// ASCII Gantt chart of the window `[from, to]` with `cols` columns:
    /// one row per VCPU, `#` where online, `.` where not.
    pub fn gantt(&self, from: Cycles, to: Cycles, cols: usize) -> String {
        assert!(to > from && cols > 0);
        let step = (to - from) / cols as u64;
        let step = step.max(Cycles(1));
        let mut out = String::new();
        for v in 0..self.vcpus {
            out.push_str(&format!("vcpu{v:<3} "));
            for c in 0..cols {
                let a = from + step * c as u64;
                let b = a + step;
                let on = self.online_in(v, a, b);
                out.push(if on.as_u64() * 2 >= step.as_u64() {
                    '#'
                } else if on > Cycles::ZERO {
                    '+'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Sched, SingleVmScenario};
    use asman_sim::{CatMask, Clock};
    use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};

    fn traced_machine(sched: Sched) -> Machine {
        let sc = SingleVmScenario::new(sched, 32, 42);
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(7);
        let mut m = sc.build(Box::new(lu));
        m.enable_flight(CatMask::only(TraceCat::Sched).with(TraceCat::Credit), 200_000);
        m.run_until(Clock::default().secs(2));
        m
    }

    #[test]
    fn spans_reconstruct_and_render() {
        let clk = Clock::default();
        let m = traced_machine(Sched::Credit);
        let tl = Timeline::from_machine(&m);
        assert!(!tl.spans.is_empty());
        // Spans are well-formed.
        for s in &tl.spans {
            assert!(s.end >= s.start, "span {s:?}");
        }
        let g = tl.gantt(clk.secs(1), clk.ms(1_500), 50);
        assert!(g.lines().count() >= 12, "dom0 8 + guest 4 vcpus");
        assert!(g.contains('#') || g.contains('+'));
    }

    #[test]
    fn online_time_matches_accounting_roughly() {
        let clk = Clock::default();
        let m = traced_machine(Sched::Credit);
        let tl = Timeline::from_machine(&m);
        // VM 1's vcpus are global 8..12 (after dom0's 8).
        let from = Cycles::ZERO;
        let to = m.now();
        let tl_online: u64 = (8..12).map(|v| tl.online_in(v, from, to).as_u64()).sum();
        let acct = m.vm_accounting(1).total_online().as_u64();
        let diff = (tl_online as i64 - acct as i64).unsigned_abs();
        // A final open span may be missing from the trace.
        assert!(
            diff < clk.ms(50).as_u64(),
            "timeline {tl_online} vs accounting {acct}"
        );
    }

    #[test]
    fn asman_gantt_shows_more_simultaneity() {
        let clk = Clock::default();
        let credit = Timeline::from_machine(&traced_machine(Sched::Credit));
        let asman = Timeline::from_machine(&traced_machine(Sched::Asman));
        // Count window steps where all four guest VCPUs are mostly online.
        let count_aligned = |tl: &Timeline| {
            let from = clk.ms(500);
            let step = clk.ms(1);
            (0..1_000)
                .filter(|&i| {
                    let a = from + step * i as u64;
                    let b = a + step;
                    (8..12).all(|v| tl.online_in(v, a, b).as_u64() * 2 >= step.as_u64())
                })
                .count()
        };
        let ca = count_aligned(&credit);
        let aa = count_aligned(&asman);
        assert!(
            aa > ca,
            "ASMan must show more fully-aligned milliseconds: {aa} vs {ca}"
        );
    }
}
