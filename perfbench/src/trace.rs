//! In-memory span recording for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end and the span that caused
//! it. They stay in memory and are written out once, when the run ends.
//! An untraced run records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent": the root of every span tree.
pub const ROOT: u32 = 0;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u32,
    /// Id of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer call or operation name.
    pub name: &'static str,
    /// Start, ns since the tracer started.
    pub start: u64,
    /// End, ns since the tracer started.
    pub end: u64,
}

/// Span recorder shared by the benchmark's threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Time spent in spans of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the time child spans cover), ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans ([`ROOT`] when tracing is off).
    pub fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start: ns(start),
            end: ns(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-name duration and self time. Children may run in parallel on
/// several threads, so a parent's covered time is the union of its
/// children's intervals, clipped to the parent.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Render spans as JSON lines (`{"id":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 80);
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.parent, sp.name, sp.start, sp.end
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of a [0, 100) parent.
        let spans = [
            sp(1, ROOT, "pass", 0, 100),
            sp(2, 1, "cell", 10, 30),
            sp(3, 1, "cell", 20, 40),
        ];
        let t = totals(&spans);
        assert_eq!(t["pass"].self_ns, 70);
        assert_eq!(t["cell"].count, 2);
        assert_eq!(t["cell"].total_ns, 40);
        assert_eq!(t["cell"].self_ns, 40);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", ROOT, |id| id), ROOT);
        assert!(t.spans().is_empty());
    }
}
