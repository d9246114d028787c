//! Deterministic calendar queue.
//!
//! Simulation correctness (and test reproducibility) requires a total order
//! on events: two events with the same timestamp are popped in the order
//! they were scheduled. The queue therefore keys on `(time, seq)` where
//! `seq` is a monotonically increasing insertion counter.
//!
//! The heap is a hand-rolled 4-ary min-heap over a single packed
//! `u128` key (`time << 64 | seq`). The packed key makes every ordering
//! probe one integer compare, and the wider fan-out halves the tree depth
//! versus a binary heap — the queue sits on the hot path of the event
//! loop, where pop/push cost is a double-digit share of total run time.
//! Because keys are unique, *any* correct min-queue pops in the same
//! order, so the layout is free to change without affecting simulation
//! results.

use crate::time::Cycles;

/// Receipt for a scheduled event: the time it will fire and its unique
/// sequence number. The sequence number can be stored by callers that need
/// to recognise (and logically cancel) a stale event via epoch checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledAt {
    /// Absolute simulation time at which the event fires.
    pub time: Cycles,
    /// Unique, monotonically increasing insertion number.
    pub seq: u64,
}

#[inline(always)]
pub(crate) fn pack(time: Cycles, seq: u64) -> u128 {
    ((time.as_u64() as u128) << 64) | seq as u128
}

/// A deterministic min-priority event queue over an arbitrary payload type.
///
/// ```
/// use asman_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(10), "b");
/// q.schedule(Cycles(5), "a");
/// q.schedule(Cycles(10), "c");
/// assert_eq!(q.pop().unwrap().2, "a");
/// assert_eq!(q.pop().unwrap().2, "b"); // FIFO among equal timestamps
/// assert_eq!(q.pop().unwrap().2, "c");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    /// 4-ary min-heap keys: children of node `i` are `4i + 1 ..= 4i + 4`.
    /// Kept separate from the payloads so ordering probes scan a dense
    /// array of 16-byte keys (four children per cache-line pair) without
    /// dragging payload bytes through the cache.
    keys: Vec<u128>,
    /// Payloads, parallel to `keys`.
    vals: Vec<T>,
    /// One-slot insertion buffer holding the most recently scheduled
    /// event. Handlers usually re-arm the event that just fired (a VCPU
    /// completing a work segment schedules its next one), and that event
    /// is often the global minimum — keeping it out of the heap turns the
    /// push-then-pop round trip into two key compares.
    pending: Option<(u128, T)>,
    next_seq: u64,
    popped: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

const ARITY: usize = 4;

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            vals: Vec::new(),
            pending: None,
            next_seq: 0,
            popped: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            pending: None,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: Cycles, payload: T) -> ScheduledAt {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(time, seq);
        // The newest event takes the insertion buffer; whatever held it
        // goes into the heap proper.
        if let Some((k, v)) = self.pending.replace((key, payload)) {
            self.heap_push(k, v);
        }
        ScheduledAt { time, seq }
    }

    fn heap_push(&mut self, key: u128, val: T) {
        self.keys.push(key);
        self.vals.push(val);
        // Sift up: swap with the parent until the new key fits.
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys.swap(i, parent);
            self.vals.swap(i, parent);
            i = parent;
        }
    }

    /// Remove and return the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(Cycles, u64, T)> {
        let n = self.keys.len();
        // The buffered event pops directly when it beats the heap root
        // (keys are unique, so `<` is a total tie-free order).
        if let Some(&(k, _)) = self.pending.as_ref() {
            if n == 0 || k < self.keys[0] {
                let (key, payload) = self.pending.take().expect("checked");
                self.popped += 1;
                return Some((Cycles((key >> 64) as u64), key as u64, payload));
            }
        }
        if n == 0 {
            return None;
        }
        let key = self.keys.swap_remove(0);
        let payload = self.vals.swap_remove(0);
        // Sift the displaced tail element down: probe on the key array
        // alone, descending into the smallest of up to four children.
        let n = n - 1;
        if n > 1 {
            let tail = self.keys[0];
            let mut i = 0;
            loop {
                let first = i * ARITY + 1;
                if first >= n {
                    break;
                }
                let last = (first + ARITY).min(n);
                let mut min = first;
                let mut min_key = self.keys[first];
                for c in first + 1..last {
                    let k = self.keys[c];
                    if k < min_key {
                        min = c;
                        min_key = k;
                    }
                }
                if tail <= min_key {
                    break;
                }
                self.keys.swap(i, min);
                self.vals.swap(i, min);
                i = min;
            }
        }
        self.popped += 1;
        Some((Cycles((key >> 64) as u64), key as u64, payload))
    }

    /// Remove and return the earliest event, but only if it fires at or
    /// before `deadline`. One fused min-probe instead of a separate
    /// peek-then-pop — the event loop calls this once per event.
    #[inline]
    pub fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, u64, T)> {
        let heap = self.keys.first().copied();
        let buf = self.pending.as_ref().map(|&(k, _)| k);
        let min = match (heap, buf) {
            (Some(h), Some(b)) => h.min(b),
            (Some(k), None) | (None, Some(k)) => k,
            (None, None) => return None,
        };
        // All events at `deadline` itself still qualify, so compare the
        // packed key against the largest key with that timestamp.
        if min > pack(deadline, u64::MAX) {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        let heap = self.keys.first().copied();
        let buf = self.pending.as_ref().map(|&(k, _)| k);
        match (heap, buf) {
            (Some(h), Some(b)) => Some(h.min(b)),
            (k, None) | (None, k) => k,
        }
        .map(|k| Cycles((k >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len() + usize::from(self.pending.is_some())
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.pending.is_none()
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events popped over the queue's lifetime.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Fold the queue's full logical state into a fingerprint: lifetime
    /// counters plus every pending event (including the one in the
    /// insertion buffer) in key order, each payload encoded by `enc`.
    /// Key order — not heap-array order — so the fingerprint depends
    /// only on *what* is pending, never on the layout history that got
    /// it there.
    pub fn fold_state(&self, h: &mut crate::fnv::Fnv, enc: &mut dyn FnMut(&T, &mut crate::fnv::Fnv)) {
        h.write_u64(self.next_seq);
        h.write_u64(self.popped);
        h.write_usize(self.len());
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&i| self.keys[i]);
        let mut emit = |key: u128, val: &T, h: &mut crate::fnv::Fnv| {
            h.write_u128(key);
            enc(val, h);
        };
        // Merge the insertion buffer into its key-ordered position.
        let buf = self.pending.as_ref();
        let mut buf_done = buf.is_none();
        for i in order {
            if let Some((bk, bv)) = buf {
                if !buf_done && *bk < self.keys[i] {
                    emit(*bk, bv, h);
                    buf_done = true;
                }
            }
            emit(self.keys[i], &self.vals[i], h);
        }
        if !buf_done {
            let (bk, bv) = buf.expect("pending present when not yet emitted");
            emit(*bk, bv, h);
        }
    }

    /// Panic unless the internal heap invariants hold: every parent key
    /// is strictly below its children (keys are unique), the key and
    /// payload arrays stay parallel, and the lifetime counters conserve
    /// events (`scheduled == popped + pending`).
    pub fn audit_check(&self) {
        assert_eq!(
            self.keys.len(),
            self.vals.len(),
            "event queue: key/payload arrays diverged"
        );
        for i in 1..self.keys.len() {
            let parent = (i - 1) / ARITY;
            assert!(
                self.keys[parent] < self.keys[i],
                "event queue: heap property violated at node {i} (parent {parent})"
            );
        }
        assert_eq!(
            self.next_seq,
            self.popped + self.len() as u64,
            "event queue: scheduled != popped + pending"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.schedule(Cycles(t), t);
        }
        let mut out = Vec::new();
        while let Some((t, _, p)) = q.pop() {
            assert_eq!(t.as_u64(), p);
            out.push(p);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().2, i);
        }
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 'a');
        q.schedule(Cycles(20), 'b');
        assert_eq!(q.pop().unwrap().2, 'a');
        // An event scheduled "in the past" relative to others still pops
        // strictly by time.
        q.schedule(Cycles(15), 'c');
        assert_eq!(q.pop().unwrap().2, 'c');
        assert_eq!(q.pop().unwrap().2, 'b');
    }

    #[test]
    fn counters_track_lifetime() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(1), ());
        q.schedule(Cycles(2), ());
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn receipt_reports_seq_and_time() {
        let mut q = EventQueue::new();
        let r0 = q.schedule(Cycles(7), ());
        let r1 = q.schedule(Cycles(7), ());
        assert_eq!(r0.time, Cycles(7));
        assert!(r1.seq > r0.seq);
    }

    /// A queue whose only event sits in the insertion buffer.
    fn buffered(t: u64, payload: u32) -> EventQueue<u32> {
        let mut q = EventQueue::new();
        q.schedule(Cycles(t), payload);
        assert_eq!(q.keys.len(), 0, "the newest event stays buffered");
        q
    }

    /// A queue whose only event sits in the heap, the buffer emptied.
    fn heaped(t: u64, payload: u32) -> EventQueue<u32> {
        let mut q = EventQueue::new();
        q.schedule(Cycles(t), payload);
        q.schedule(Cycles(0), u32::MAX);
        assert_eq!(q.pop().map(|e| e.2), Some(u32::MAX));
        assert_eq!((q.keys.len(), q.pending.is_none()), (1, true));
        q
    }

    #[test]
    fn pop_before_includes_a_buffered_event_at_the_deadline() {
        let mut q = buffered(100, 7);
        assert!(q.pop_before(Cycles(99)).is_none());
        assert_eq!(q.len(), 1, "a refused pop leaves the event pending");
        assert_eq!(q.pop_before(Cycles(100)), Some((Cycles(100), 0, 7)));
        assert!(q.is_empty());
        q.audit_check();
    }

    #[test]
    fn pop_before_includes_a_heap_root_at_the_deadline() {
        let mut q = heaped(100, 7);
        assert!(q.pop_before(Cycles(99)).is_none());
        assert_eq!(q.pop_before(Cycles(100)).map(|e| e.2), Some(7));
        assert!(q.is_empty());
        q.audit_check();
    }

    #[test]
    fn time_tie_between_buffer_and_root_pops_lower_seq_first() {
        // The buffer always holds the newest event, so on a time tie
        // with the heap root the root has the lower seq and pops first.
        let tied = || {
            let mut q = EventQueue::new();
            q.schedule(Cycles(50), 'r');
            q.schedule(Cycles(50), 'b');
            assert_eq!((q.keys.len(), q.pending.is_some()), (1, true));
            q
        };
        let mut q = tied();
        assert_eq!(q.pop_before(Cycles(50)), Some((Cycles(50), 0, 'r')));
        assert_eq!(q.pop_before(Cycles(50)), Some((Cycles(50), 1, 'b')));
        let mut q = tied();
        assert_eq!(q.pop(), Some((Cycles(50), 0, 'r')));
        assert_eq!(q.pop(), Some((Cycles(50), 1, 'b')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_buffer_only_and_heap_only_queues() {
        let mut empty: EventQueue<u32> = EventQueue::new();
        assert_eq!((empty.len(), empty.is_empty()), (0, true));
        assert_eq!(empty.peek_time(), None);
        assert!(empty.pop_before(Cycles(u64::MAX)).is_none());
        assert!(empty.pop().is_none());
        empty.audit_check();
        for mut q in [buffered(30, 1), heaped(30, 1)] {
            assert_eq!((q.len(), q.is_empty()), (1, false));
            assert_eq!(q.peek_time(), Some(Cycles(30)));
            q.audit_check();
            let popped = q.pop_before(Cycles(u64::MAX));
            assert_eq!(popped.map(|e| (e.0, e.2)), Some((Cycles(30), 1)));
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            assert!(q.pop().is_none());
            q.audit_check();
        }
    }

    #[test]
    fn fold_state_ignores_where_the_minimum_sits() {
        let fold = |q: &EventQueue<u64>| {
            let mut h = crate::fnv::Fnv::new();
            q.fold_state(&mut h, &mut |v, h| h.write_u64(*v));
            h.finish()
        };
        let three = || {
            let mut q = EventQueue::new();
            q.schedule(Cycles(9), 9);
            q.schedule(Cycles(3), 3);
            q.schedule(Cycles(5), 5);
            assert_eq!(q.pop().map(|e| e.2), Some(3));
            q
        };
        let mut a = three();
        let mut b = three();
        // Move `b`'s buffered minimum into the heap: the same pending set
        // and counters in the other layout.
        let (key, val) = b.pending.take().expect("5 is buffered");
        b.heap_push(key, val);
        b.audit_check();
        assert_eq!(a.pending.map(|(k, _)| k >> 64), Some(5), "a's minimum is buffered");
        assert_eq!(b.keys[0] >> 64, 5, "b's minimum is the heap root");
        assert_eq!(fold(&a), fold(&b));
        while let Some(e) = a.pop() {
            assert_eq!(b.pop(), Some(e));
        }
        assert!(b.is_empty());
    }

    /// Randomized agreement with a naive reference model: every pop must
    /// return the minimum (time, seq) among the currently pending events,
    /// whatever the heap layout does internally.
    #[test]
    fn matches_reference_model_under_churn() {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..50 {
            for _ in 0..40 {
                let t = rnd() % 1000;
                let at = q.schedule(Cycles(t), t);
                model.push((t, at.seq));
            }
            // Pop a churning prefix each round, everything at the end.
            let k = if round == 49 { usize::MAX } else { 15 };
            for _ in 0..k {
                let Some((t, seq, _)) = q.pop() else { break };
                let min = model.iter().copied().min().expect("model not empty");
                assert_eq!((t.as_u64(), seq), min);
                model.retain(|&e| e != min);
            }
        }
        assert!(model.is_empty());
        assert!(q.is_empty());
    }
}
