//! The pre-timing-wheel event queue: a `BinaryHeap` with a `HashSet` of
//! cancelled tokens.
//!
//! Test-only: it is the reference the timing wheel is differential-tested
//! against. Its ordering contract is the obvious one — pop the least
//! `(time, seq)`, with `seq` a push counter — so a wheel that replays its
//! pop stream bit-for-bit under random churn has the same semantics.
//!
//! Known deficiency, by design left unfixed here: cancelling a token
//! *after* its event was delivered inserts into `cancelled` a token id
//! that no pop will ever remove. The timing wheel's generation-stamped
//! slots fix this.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::event::EventToken;
use crate::Time;

struct Entry<P> {
    time: Time,
    seq: u64,
    token: u64, // 0 = not cancellable
    payload: P,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, seq) first. `seq` is a monotone counter, so two events scheduled
// for the same instant pop in the order they were pushed (FIFO). That
// tie-break is what makes simulations deterministic.
impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for Entry<P> {}

/// The legacy binary-heap future-event list (see the module docs).
///
/// Mirrors the subset of [`crate::EventQueue`]'s API the differential
/// tests drive; events at equal timestamps are delivered in push order.
pub struct HeapQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    seq: u64,
    next_token: u64,
    cancelled: HashSet<u64>,
    now: Time,
    popped: u64,
}

impl<P> HeapQueue<P> {
    /// An empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            next_token: 1,
            cancelled: HashSet::new(),
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The timestamp of the most recently popped event (the simulation
    /// clock).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            token: 0,
            payload,
        });
    }

    /// Schedule `payload` at `at` with a caller-supplied FIFO sequence
    /// number (see [`crate::EventQueue::push_with_seq`]): the sharded
    /// engine stamps one global sequence across every shard queue so a
    /// cross-queue merge by `(time, seq)` reproduces serial order.
    pub fn push_with_seq(&mut self, at: Time, seq: u64, payload: P) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.seq = self.seq.max(seq + 1);
        self.heap.push(Entry {
            time: at,
            seq,
            token: 0,
            payload,
        });
    }

    /// Schedule a cancellable event; keep the token to [`cancel`] it.
    ///
    /// [`cancel`]: HeapQueue::cancel
    pub fn push_cancellable(&mut self, at: Time, payload: P) -> EventToken {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            token,
            payload,
        });
        EventToken(token)
    }

    /// Cancel a previously scheduled cancellable event. Cancelling an
    /// already-delivered or already-cancelled event is a no-op (but see
    /// the module docs: it leaks a set entry).
    pub fn cancel(&mut self, token: EventToken) {
        self.cancelled.insert(token.0);
    }

    /// Deliver the next event, advancing the clock. Cancelled events are
    /// skipped silently.
    pub fn pop(&mut self) -> Option<(Time, P)> {
        while let Some(e) = self.heap.pop() {
            if e.token != 0 && self.cancelled.remove(&e.token) {
                continue;
            }
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            self.popped += 1;
            return Some((e.time, e.payload));
        }
        None
    }

    /// Timestamp of the next (non-cancelled) pending event without
    /// delivering it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event, without
    /// delivering it (see [`crate::EventQueue::peek_key`]; the heap is
    /// keyed by exactly this pair, so the head is the answer).
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        // Drain cancelled entries off the top so the answer is accurate.
        while let Some(e) = self.heap.peek() {
            if e.token != 0 && self.cancelled.contains(&e.token) {
                let e = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&e.token);
            } else {
                return Some((e.time, e.seq));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimRng, WheelQueue};

    #[test]
    fn pops_in_time_order_fifo_at_ties() {
        let mut q = HeapQueue::new();
        q.push(Time::from_nanos(30), 3);
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(10), 2);
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_nanos(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = HeapQueue::new();
        let tok = q.push_cancellable(Time::from_nanos(10), "cancelled");
        q.push(Time::from_nanos(20), "kept");
        q.cancel(tok);
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "kept")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_with_seq_and_peek_key_mirror_the_wheel() {
        let mut q = HeapQueue::new();
        let t = Time::from_nanos(100);
        q.push_with_seq(t, 5, 5u64);
        q.push_with_seq(t, 1, 1);
        q.push_with_seq(Time::from_nanos(90), 7, 7);
        assert_eq!(q.peek_key(), Some((Time::from_nanos(90), 7)));
        assert_eq!(q.pop(), Some((Time::from_nanos(90), 7)));
        assert_eq!(q.peek_key(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 5)));
        // Internal stamping resumes past the largest supplied seq.
        q.push(t, 99);
        assert_eq!(q.peek_key(), Some((t, 8)));
        assert_eq!(q.pop(), Some((t, 99)));
        assert_eq!(q.pop(), None);
    }

    // Differential test: the timing wheel must replay this queue's
    // delivery order bit-for-bit — same operation sequence ⇒ identical
    // `(time, payload)` pop streams, including FIFO tie-breaks at equal
    // timestamps, cancellations in every region of the wheel (level 0,
    // upper levels, the far-future overflow, and the staged ready batch),
    // and cancel-after-fire no-ops.

    /// One randomized scenario: interleaved pushes (with a heavy-tailed time
    /// spread so every wheel level and the overflow heap get traffic),
    /// cancellations of a random subset, and batched pops.
    fn churn_scenario(seed: u64, ops: usize, peek: bool) {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
        let mut payload = 0u64;

        for _ in 0..ops {
            match rng.below(10) {
                // 0-5: push (sometimes cancellable) at a spread-out future time.
                0..=5 => {
                    let base = wheel.now();
                    // Heavy tail: mostly near, occasionally deep into upper
                    // levels or past the 2^36 ns wheel horizon.
                    let gap = match rng.below(12) {
                        0..=5 => rng.below(512) as u64,                // level 0/1
                        6..=8 => rng.below(1 << 18) as u64,            // mid levels
                        9..=10 => rng.below(1 << 30) as u64,           // high levels
                        _ => (1u64 << 36) + rng.below(1 << 30) as u64, // overflow
                    };
                    let at = base + Time::from_nanos(gap);
                    payload += 1;
                    if rng.below(3) == 0 {
                        let tw = wheel.push_cancellable(at, payload);
                        let th = heap.push_cancellable(at, payload);
                        tokens.push((tw, th));
                    } else {
                        wheel.push(at, payload);
                        heap.push(at, payload);
                    }
                    // A burst of same-timestamp events now and then, to
                    // exercise the FIFO tie-break hard.
                    if rng.below(8) == 0 {
                        for _ in 0..rng.below(6) {
                            payload += 1;
                            wheel.push(at, payload);
                            heap.push(at, payload);
                        }
                    }
                }
                // 6: cancel a random outstanding token (possibly already
                // fired — both sides must treat that as a no-op).
                6 => {
                    if !tokens.is_empty() {
                        let i = rng.below(tokens.len());
                        let (tw, th) = tokens.swap_remove(i);
                        wheel.cancel(tw);
                        heap.cancel(th);
                    }
                }
                // 7-9: pop a small batch and compare the streams.
                _ => {
                    for _ in 0..=rng.below(4) {
                        if peek {
                            assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
                        }
                        let w = wheel.pop();
                        let h = heap.pop();
                        assert_eq!(w, h, "pop stream diverged (seed {seed})");
                        assert_eq!(wheel.now(), heap.now());
                        if w.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        // Drain both to the end.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain diverged (seed {seed})");
            if w.is_none() {
                break;
            }
        }
        assert_eq!(wheel.events_processed(), heap.events_processed());
        assert!(wheel.is_empty());
    }

    #[test]
    fn replays_heap_order_across_seeds() {
        for seed in 0..20 {
            churn_scenario(seed, 4_000, false);
        }
    }

    #[test]
    fn replays_heap_order_with_interleaved_peeks() {
        for seed in 100..110 {
            churn_scenario(seed, 2_000, true);
        }
    }

    #[test]
    fn len_tracks_live_events_only() {
        let mut wheel: WheelQueue<u32> = WheelQueue::new();
        let toks: Vec<_> = (0..100)
            .map(|i| wheel.push_cancellable(Time::from_nanos(10 + i), 0))
            .collect();
        assert_eq!(wheel.len(), 100);
        for t in &toks[..40] {
            wheel.cancel(*t);
        }
        assert_eq!(wheel.len(), 60, "cancel is reflected immediately");
        let mut n = 0;
        while wheel.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 60);
    }
}
