//! The discrete-event scheduler.
//!
//! A 4-ary min-heap ordered by `(time, seq)`, where `seq` is a monotonically
//! increasing sequence number: events scheduled for the same instant are
//! delivered in the order they were scheduled. No two events share a key, so
//! the pop order is fixed by the keys alone and runs are deterministic
//! regardless of heap internals. Four children a node make the heap half as
//! deep as a binary one, and a node's children sit next to each other.

use crate::time::SimTime;

/// Children per heap node.
const ARITY: usize = 4;

/// An entry in the scheduler.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Scheduled<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic future-event list.
///
/// ```
/// use simnet::event::Scheduler;
/// use simnet::time::SimTime;
///
/// let mut s = Scheduler::new();
/// s.schedule(SimTime::from_secs(2), "later");
/// s.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(s.pop().unwrap().1, "sooner");
/// assert_eq!(s.pop().unwrap().1, "later");
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<T> {
    /// The heap: every entry's key is below its children's, the children
    /// of entry `i` being `ARITY * i + 1 ..= ARITY * i + ARITY`.
    heap: Vec<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<T> Scheduler<T> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`. Events at equal times are
    /// delivered in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// The time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|s| s.time)
    }

    /// Removes and returns the next `(time, payload)` pair.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let last = self.heap.pop()?;
        let next = match self.heap.first_mut() {
            Some(root) => {
                let next = std::mem::replace(root, last);
                self.sift_down(0);
                next
            }
            None => last,
        };
        Some((next.time, next.payload))
    }

    /// Removes and returns the next event only if it is due at or before
    /// `deadline`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Moves entry `i` up until its parent's key is below its own.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i].key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() < key {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Moves entry `i` down until its key is below all its children's.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i].key();
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut least = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.heap[child].key() < self.heap[least].key() {
                    least = child;
                }
            }
            if key < self.heap[least].key() {
                break;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(5), 5);
        s.schedule(SimTime::from_secs(1), 1);
        s.schedule(SimTime::from_secs(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_preserve_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            s.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(10), "late");
        s.schedule(SimTime::from_secs(1), "early");
        assert_eq!(s.pop_due(SimTime::from_secs(5)).unwrap().1, "early");
        assert!(s.pop_due(SimTime::from_secs(5)).is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_due(SimTime::from_secs(10)).unwrap().1, "late");
    }

    #[test]
    fn peek_and_clear() {
        let mut s = Scheduler::new();
        assert!(s.peek_time().is_none());
        s.schedule(SimTime::from_secs(2), ());
        s.schedule(SimTime::from_secs(2) + SimDuration::from_millis(1), ());
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_secs(4), 4);
        s.schedule(SimTime::from_secs(2), 2);
        assert_eq!(s.pop().unwrap().1, 2);
        s.schedule(SimTime::from_secs(1), 1);
        s.schedule(SimTime::from_secs(3), 3);
        assert_eq!(s.pop().unwrap().1, 1);
        assert_eq!(s.pop().unwrap().1, 3);
        assert_eq!(s.pop().unwrap().1, 4);
    }

    #[test]
    fn the_heap_pops_what_a_sorted_list_pops() {
        for seed in 0..8 {
            let mut rng = SimRng::new(0xE4E4 + seed);
            let mut heap = Scheduler::new();
            // The model: (time, seq) pairs kept sorted, the first one next.
            let (mut model, mut next_seq) = (Vec::<(SimTime, u64)>::new(), 0u64);
            let (mut used, mut deepest, mut ties) = (Vec::new(), 0, 0);
            for op in 0..20_000 {
                match rng.range(0..1_000u32) {
                    0..=599 => {
                        // About 30 % of schedules land on an instant already used.
                        let time = if !used.is_empty() && rng.chance(0.3) {
                            ties += 1;
                            used[rng.index(used.len())]
                        } else {
                            SimTime::from_micros(rng.range(0..5_000_000u64))
                        };
                        used.push(time);
                        heap.schedule(time, next_seq);
                        let at = model.partition_point(|&key| key < (time, next_seq));
                        model.insert(at, (time, next_seq));
                        next_seq += 1;
                    }
                    600..=749 => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(heap.pop(), want, "seed {seed}, op {op}: pop");
                    }
                    750..=997 => {
                        let deadline = SimTime::from_micros(rng.range(0..5_000_000u64));
                        let due = model.first().is_some_and(|&(time, _)| time <= deadline);
                        let want = due.then(|| model.remove(0));
                        assert_eq!(
                            heap.pop_due(deadline),
                            want,
                            "seed {seed}, op {op}: pop_due({deadline})"
                        );
                    }
                    _ => {
                        heap.clear();
                        model.clear();
                    }
                }
                assert_eq!(heap.len(), model.len(), "seed {seed}, op {op}: len");
                assert_eq!(
                    heap.peek_time(),
                    model.first().map(|&(time, _)| time),
                    "seed {seed}, op {op}: peek"
                );
                deepest = deepest.max(model.len());
            }
            // Deep enough for five levels of four children, with many ties.
            assert!(
                deepest > 400 && ties > 3_000,
                "seed {seed}: {deepest} deep, {ties} ties"
            );
        }
    }
}
