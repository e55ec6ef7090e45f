//! The one bounded log: a fixed-capacity ring of reused slots.
//!
//! The server's audit and exploit trails and the enforcement proxy's denial
//! trail are each a [`SlotRing`]. Recording a value overwrites a slot in
//! place under one shard's lock, so a full ring records without allocating
//! and concurrent writers contend on one shard in eight; a clear drops what
//! the slots hold, so a cleared ring pins nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::Mutex;

/// The most independently locked shards a ring has (the store's
/// write-parallelism scale); a ring of fewer slots has one shard a slot.
const MAX_SHARDS: usize = 8;

/// One shard of a [`SlotRing`].
#[derive(Debug)]
struct RingShard<T> {
    /// The retained values with their global order stamps; grows to
    /// `capacity` once and then is overwritten in place.
    slots: Vec<(u64, T)>,
    /// The shard's bound on retained values.
    capacity: usize,
    /// The slot the next value is written to.
    next: usize,
}

/// A fixed-capacity ring of reused slots, spread over up to eight
/// independently locked shards by a global sequence number.
///
/// The capacity is split exactly across the shards: `min(8, capacity)`
/// shards (a capacity of 0 is taken as 1), the remainder going one each to
/// the first ones, so the ring never retains more than it was asked to. A
/// slot is made once, from `blank`, and every later value `fill`s it in
/// place, so in steady state recording allocates nothing; overwriting a
/// retained value counts it as dropped. [`SlotRing::snapshot`] reads the
/// slots back in sequence order.
#[derive(Debug)]
pub struct SlotRing<T> {
    shards: Vec<Mutex<RingShard<T>>>,
    /// What a slot holds before its first value.
    blank: fn() -> T,
    /// Global order stamp; also selects the shard.
    seq: AtomicU64,
    /// Values overwritten since the last clear.
    dropped: AtomicU64,
}

impl<T> SlotRing<T> {
    /// A ring retaining the newest `capacity` values; `blank` makes a slot
    /// the first time one is needed.
    pub fn new(capacity: usize, blank: fn() -> T) -> Self {
        let capacity = capacity.max(1);
        let shard_count = MAX_SHARDS.min(capacity);
        SlotRing {
            shards: (0..shard_count)
                .map(|i| {
                    Mutex::new(RingShard {
                        slots: Vec::new(),
                        capacity: capacity / shard_count + usize::from(i < capacity % shard_count),
                        next: 0,
                    })
                })
                .collect(),
            blank,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Stamp the next sequence number and `fill` the slot it selects with
    /// the value to record; the slot holds whatever value it held last.
    pub fn record(&self, fill: impl FnOnce(&mut T, u64)) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.shards[(seq % self.shards.len() as u64) as usize].lock();
        let shard = &mut *guard;
        if shard.slots.len() < shard.capacity {
            shard.slots.push((seq, (self.blank)()));
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let (stamp, value) = &mut shard.slots[shard.next];
        *stamp = seq;
        fill(value, seq);
        shard.next = (shard.next + 1) % shard.capacity;
    }

    /// The retained values as `read` sees them, in sequence order.
    pub fn snapshot<R>(&self, read: impl Fn(&T) -> R) -> Vec<R> {
        let mut stamped: Vec<(u64, R)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            stamped.extend(shard.slots.iter().map(|(seq, value)| (*seq, read(value))));
        }
        stamped.sort_unstable_by_key(|(seq, _)| *seq);
        stamped.into_iter().map(|(_, value)| value).collect()
    }

    /// Drop every retained value, and with it whatever it holds, and reset
    /// the dropped count: the ring refills from empty.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.slots.clear();
            shard.next = 0;
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Values overwritten by newer ones since the last [`SlotRing::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Weak};

    /// A ring whose slots hold the sequence number they were filled with.
    fn stamps(capacity: usize) -> SlotRing<u64> {
        SlotRing::new(capacity, || u64::MAX)
    }

    #[test]
    fn every_capacity_retains_exactly_its_bound_in_sequence_order() {
        for capacity in [1usize, 3, 7, 8, 12, 17, 4_096] {
            for n in [0, capacity - 1, capacity, 3 * capacity + 1] {
                let ring = stamps(capacity);
                for _ in 0..n {
                    ring.record(|slot, seq| *slot = seq);
                }
                let retained = ring.snapshot(|seq| *seq);
                let case = format!("capacity {capacity}, {n} records");
                assert_eq!(retained.len(), n.min(capacity), "{case}");
                assert_eq!(retained.len() as u64 + ring.dropped(), n as u64, "{case}");
                assert!(retained.windows(2).all(|w| w[0] < w[1]), "{case}");
                assert_eq!(
                    retained.last().copied(),
                    n.checked_sub(1).map(|last| last as u64)
                );
            }
        }
    }

    #[test]
    fn a_zero_capacity_is_one_slot() {
        let ring = stamps(0);
        for _ in 0..5 {
            ring.record(|slot, seq| *slot = seq);
        }
        assert_eq!((ring.snapshot(|seq| *seq), ring.dropped()), (vec![4], 4));
    }

    #[test]
    fn a_cleared_ring_lets_go_of_its_values_and_refills_from_empty() {
        let ring: SlotRing<Arc<u64>> = SlotRing::new(12, || Arc::new(u64::MAX));
        let mut held: Vec<Weak<u64>> = Vec::new();
        for _ in 0..30 {
            ring.record(|slot, seq| {
                *slot = Arc::new(seq);
                held.push(Arc::downgrade(slot));
            });
        }
        assert_eq!(
            held.iter().filter(|weak| weak.upgrade().is_some()).count(),
            12
        );
        ring.clear();
        assert!(held.iter().all(|weak| weak.upgrade().is_none()));
        assert!(ring.snapshot(|value| **value).is_empty());
        assert_eq!(ring.dropped(), 0);
        for _ in 0..5 {
            ring.record(|slot, seq| *slot = Arc::new(seq));
        }
        assert_eq!(ring.snapshot(|value| **value), [30, 31, 32, 33, 34]);
        assert_eq!(ring.dropped(), 0);
    }
}
