//! The processor resource pool: slot accounting for the Application
//! Scheduler ("selects the compute nodes, marks them as unavailable in the
//! resource pool").
//!
//! Slots may carry per-slot *speed factors* (paper §5 future work:
//! "support for heterogeneous clusters ... as individual plug-ins"): a
//! homogeneous pool has every factor at 1.0. Allocation can be speed-aware
//! (fastest free slots first — synchronous SPMD applications run at the
//! pace of their slowest processor, so concentrating fast slots matters)
//! or id-ordered (the homogeneous default, which keeps co-scheduled jobs
//! packed onto adjacent nodes).
//!
//! The free set is a bitmap, one bit per slot id ever minted, because every
//! job start and finish goes through it: id-ordered allocation pops the
//! lowest set bits in one walk and a release sets one bit per slot. The
//! lent and borrowed sets change only when a lease does and stay ordered
//! sets.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// How `allocate` picks among free slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocOrder {
    /// Lowest-numbered free slots first (packs adjacent nodes).
    LowestId,
    /// Fastest free slots first (heterogeneity-aware; ties by id).
    FastestFirst,
}

/// A set of slot ids as a bitmap of 64-slot words.
#[derive(Clone, Debug)]
struct SlotSet {
    words: Vec<u64>,
    /// Members.
    len: usize,
    /// Every word below this index is zero, so a walk for the lowest
    /// members starts here: on a pool whose low slots are all held, it does
    /// not re-scan them on every allocation. Only a lower bound — removing
    /// single members never raises it.
    low: usize,
}

/// Membership equality: `len` follows from `words`, and `low` is a hint that
/// depends on the route taken to a state.
impl PartialEq for SlotSet {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl SlotSet {
    /// The set `0..n`.
    fn first(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n > 0") = (1 << (n % 64)) - 1;
        }
        SlotSet {
            words,
            len: n,
            low: 0,
        }
    }

    /// Make room for ids below `n`.
    fn grow_to(&mut self, n: usize) {
        let words = n.div_ceil(64).max(self.words.len());
        self.words.resize(words, 0);
    }

    /// Whether `slot` was absent. The id must be below what the set has
    /// room for.
    fn insert(&mut self, slot: usize) -> bool {
        let (w, bit) = (slot / 64, 1 << (slot % 64));
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += absent as usize;
        self.low = self.low.min(w);
        absent
    }

    /// Whether `slot` was present.
    fn remove(&mut self, slot: usize) -> bool {
        let (w, bit) = (slot / 64, 1 << (slot % 64));
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= present as usize;
        present
    }

    /// Members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate().skip(self.low);
        words.flat_map(|(w, &word)| {
            // Clearing the lowest set bit steps to the next member.
            std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// Remove and return the `n <= len` lowest members, ascending.
    fn take_lowest(&mut self, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let mut w = self.low;
        while out.len() < n {
            let word = &mut self.words[w];
            while *word != 0 && out.len() < n {
                out.push(w * 64 + word.trailing_zeros() as usize);
                *word &= *word - 1;
            }
            if *word == 0 {
                w += 1;
            }
        }
        // Words passed over were zero or have just been emptied.
        self.low = w;
        self.len -= n;
        out
    }
}

/// A pool of processor slots. Native slots are identified `0..total`; slot
/// `s` lives on cluster node `s / slots_per_node` (the paper's nodes host 2
/// CPUs each).
///
/// Federated scheduling adds two cross-pool accounting states on top of
/// free/busy:
///
/// * **lent** — a native slot handed to another pool under a lease
///   ([`ResourcePool::lend`]). It counts neither free nor busy here until
///   [`ResourcePool::reattach`] brings it home.
/// * **borrowed** — a foreign processor attached under a lease
///   ([`ResourcePool::attach_foreign`]). Borrowed slots get fresh local ids
///   at a high-water mark `>= total` (ids are never reused, so a stale
///   reference can never alias a later lease) and count toward
///   [`ResourcePool::owned`] until detached.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourcePool {
    total: usize,
    free: SlotSet,
    /// Relative speed of each slot (1.0 = nominal).
    speeds: Vec<f64>,
    order: AllocOrder,
    /// Native slots currently lent to another pool.
    lent: BTreeSet<usize>,
    /// Local ids of borrowed (foreign) slots currently attached.
    foreign: BTreeSet<usize>,
    /// Next local id minted for a borrowed slot; monotone, starts at
    /// `total`.
    next_foreign: usize,
}

impl ResourcePool {
    /// Homogeneous pool (every slot at speed 1.0, id-ordered allocation).
    pub fn new(total: usize) -> Self {
        ResourcePool {
            total,
            free: SlotSet::first(total),
            speeds: vec![1.0; total],
            order: AllocOrder::LowestId,
            lent: BTreeSet::new(),
            foreign: BTreeSet::new(),
            next_foreign: total,
        }
    }

    /// Heterogeneous pool with per-slot speed factors; allocation hands out
    /// the fastest free slots first.
    pub fn new_heterogeneous(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "empty pool");
        assert!(
            speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
            "speed factors must be positive and finite"
        );
        let total = speeds.len();
        ResourcePool {
            total,
            free: SlotSet::first(total),
            speeds,
            order: AllocOrder::FastestFirst,
            lent: BTreeSet::new(),
            foreign: BTreeSet::new(),
            next_foreign: total,
        }
    }

    /// Override the allocation order (for placement ablations).
    pub fn with_order(mut self, order: AllocOrder) -> Self {
        self.order = order;
        self
    }

    /// Native capacity (slots this pool was created with), regardless of
    /// lending state.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Capacity this pool currently schedules over: native minus lent plus
    /// borrowed. Equal to [`ResourcePool::total`] when no leases are live.
    pub fn owned(&self) -> usize {
        self.total - self.lent.len() + self.foreign.len()
    }

    pub fn idle(&self) -> usize {
        self.free.len
    }

    pub fn busy(&self) -> usize {
        self.owned() - self.free.len
    }

    /// Native slots currently lent away, ascending.
    pub fn lent_slots(&self) -> Vec<usize> {
        self.lent.iter().copied().collect()
    }

    /// Local ids of borrowed slots currently attached, ascending.
    pub fn borrowed_slots(&self) -> Vec<usize> {
        self.foreign.iter().copied().collect()
    }

    /// How many foreign-slot local ids have ever been minted (the
    /// high-water mark minus `total`). Part of behavioral state: a
    /// recovered pool must mint the same ids the original would have.
    pub fn foreign_minted(&self) -> usize {
        self.next_foreign - self.total
    }

    /// Whether `slot` is currently owned by this pool (native and not
    /// lent, or an attached borrowed slot).
    pub fn is_owned(&self, slot: usize) -> bool {
        if slot < self.total {
            !self.lent.contains(&slot)
        } else {
            self.foreign.contains(&slot)
        }
    }

    /// Speed factor of a slot.
    pub fn speed(&self, slot: usize) -> f64 {
        self.speeds[slot]
    }

    /// All per-slot speed factors (1.0 everywhere on homogeneous pools).
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The pool's allocation order.
    pub fn order(&self) -> AllocOrder {
        self.order
    }

    /// The currently free slot ids, ascending.
    pub fn free_slots(&self) -> Vec<usize> {
        self.free_iter().collect()
    }

    /// [`ResourcePool::free_slots`] without the `Vec`.
    pub(crate) fn free_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.free.iter()
    }

    /// Allocate `n` slots according to the pool's order. Returns `None`
    /// without side effects if fewer than `n` are free.
    pub fn allocate(&mut self, n: usize) -> Option<Vec<usize>> {
        if self.free.len < n {
            return None;
        }
        Some(match self.order {
            AllocOrder::LowestId => self.free.take_lowest(n),
            AllocOrder::FastestFirst => {
                let mut all: Vec<usize> = self.free.iter().collect();
                // Stable by id already; sort by descending speed, ties keep
                // id order.
                all.sort_by(|&a, &b| {
                    self.speeds[b]
                        .partial_cmp(&self.speeds[a])
                        .expect("finite speeds")
                        .then(a.cmp(&b))
                });
                all.truncate(n);
                for &s in &all {
                    self.free.remove(s);
                }
                all
            }
        })
    }

    /// Return slots to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double release or a slot the pool does not currently own
    /// (out of range, lent away, or a detached borrow) — all indicate
    /// scheduler bookkeeping bugs that must not be masked.
    pub fn release(&mut self, slots: &[usize]) {
        for &s in slots {
            assert!(self.is_owned(s), "slot {s} not owned by this pool");
            assert!(self.free.insert(s), "slot {s} double-released");
        }
    }

    /// Lend `n` idle slots to another pool: they are picked exactly like an
    /// allocation but marked *lent* instead of busy, so they count neither
    /// free nor busy until [`ResourcePool::reattach`]. Returns `None`
    /// without side effects if fewer than `n` are free.
    pub fn lend(&mut self, n: usize) -> Option<Vec<usize>> {
        let slots = self.allocate(n)?;
        for &s in &slots {
            self.lent.insert(s);
        }
        Some(slots)
    }

    /// Bring lent native slots home; they rejoin the free set.
    ///
    /// # Panics
    ///
    /// Panics if a slot is not currently lent — reclaiming a slot twice
    /// (or one never lent) is a lease-protocol bug.
    pub fn reattach(&mut self, slots: &[usize]) {
        for &s in slots {
            assert!(self.lent.remove(&s), "slot {s} not lent");
            assert!(self.free.insert(s), "slot {s} double-released");
        }
    }

    /// Attach `n` borrowed foreign slots, minting fresh local ids at the
    /// high-water mark (speed 1.0 — the federation's lease protocol is
    /// speed-agnostic). The new slots start free.
    pub fn attach_foreign(&mut self, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        self.free.grow_to(self.next_foreign + n);
        for _ in 0..n {
            let id = self.next_foreign;
            self.next_foreign += 1;
            if self.speeds.len() <= id {
                self.speeds.resize(id + 1, 1.0);
            }
            self.foreign.insert(id);
            self.free.insert(id);
            out.push(id);
        }
        out
    }

    /// Put the pool where a checkpoint left it: `free` slots free, `lent`
    /// native slots away, `foreign` borrowed ids attached and `minted`
    /// foreign ids ever minted; every other owned slot is held. The caller
    /// has checked that the sets are disjoint and in range.
    pub(crate) fn restore(
        &mut self,
        free: &[usize],
        lent: BTreeSet<usize>,
        foreign: BTreeSet<usize>,
        minted: usize,
    ) {
        self.next_foreign = self.total + minted;
        self.speeds
            .resize(self.speeds.len().max(self.next_foreign), 1.0);
        // The bitmap has room for every id minted, as `attach_foreign`
        // leaves it.
        self.free = SlotSet {
            words: vec![0; self.total.max(self.next_foreign).div_ceil(64)],
            len: 0,
            low: 0,
        };
        for &s in free {
            self.free.insert(s);
        }
        self.lent = lent;
        self.foreign = foreign;
    }

    /// Detach one borrowed slot (lease expiry / release). The slot may be
    /// free (graceful detach) or held by a job the caller just evicted —
    /// either way it leaves the pool entirely. Returns whether it was free.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not an attached borrowed slot.
    pub fn detach_foreign_slot(&mut self, slot: usize) -> bool {
        assert!(self.foreign.remove(&slot), "slot {slot} not borrowed");
        self.free.remove(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut p = ResourcePool::new(8);
        assert_eq!(p.idle(), 8);
        let a = p.allocate(3).unwrap();
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!((p.idle(), p.busy()), (5, 3));
        let b = p.allocate(5).unwrap();
        assert_eq!(b, vec![3, 4, 5, 6, 7]);
        assert!(p.allocate(1).is_none());
        p.release(&a);
        assert_eq!(p.idle(), 3);
        // Freed slots are handed out again, lowest first.
        assert_eq!(p.allocate(2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn failed_allocation_has_no_side_effects() {
        let mut p = ResourcePool::new(4);
        p.allocate(3).unwrap();
        assert!(p.allocate(2).is_none());
        assert_eq!(p.idle(), 1);
    }

    #[test]
    #[should_panic(expected = "double-released")]
    fn double_release_panics() {
        let mut p = ResourcePool::new(4);
        let a = p.allocate(1).unwrap();
        p.release(&a);
        p.release(&a);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn out_of_range_release_panics() {
        let mut p = ResourcePool::new(4);
        p.release(&[9]);
    }

    #[test]
    fn lend_removes_slots_from_both_free_and_busy() {
        let mut p = ResourcePool::new(8);
        let lent = p.lend(3).unwrap();
        assert_eq!(lent, vec![0, 1, 2]);
        assert_eq!((p.total(), p.owned(), p.idle(), p.busy()), (8, 5, 5, 0));
        assert!(!p.is_owned(0) && p.is_owned(3));
        // A lent slot cannot be released back while away.
        let a = p.allocate(5).unwrap();
        assert_eq!(a, vec![3, 4, 5, 6, 7]);
        assert!(p.allocate(1).is_none(), "lent slots are not allocatable");
        p.reattach(&lent);
        assert_eq!((p.owned(), p.idle(), p.busy()), (8, 3, 5));
        assert_eq!(p.allocate(3).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn releasing_a_lent_slot_panics() {
        let mut p = ResourcePool::new(4);
        p.lend(1).unwrap();
        p.release(&[0]);
    }

    #[test]
    #[should_panic(expected = "not lent")]
    fn double_reattach_panics() {
        let mut p = ResourcePool::new(4);
        let lent = p.lend(1).unwrap();
        p.reattach(&lent);
        p.reattach(&lent);
    }

    #[test]
    fn borrowed_slots_mint_monotone_ids() {
        let mut p = ResourcePool::new(4);
        let b1 = p.attach_foreign(2);
        assert_eq!(b1, vec![4, 5]);
        assert_eq!((p.total(), p.owned(), p.idle()), (4, 6, 6));
        assert!(p.is_owned(4));
        assert_eq!(p.speed(5), 1.0);
        // Detach one free, allocate across the native/borrowed boundary.
        assert!(p.detach_foreign_slot(4), "slot was free");
        assert_eq!(p.owned(), 5);
        let a = p.allocate(5).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3, 5]);
        // Detaching a held slot reports it was not free.
        assert!(!p.detach_foreign_slot(5));
        assert_eq!((p.owned(), p.busy()), (4, 4));
        // Ids are never reused: the next attach mints fresh ones.
        assert_eq!(p.attach_foreign(1), vec![6]);
        assert_eq!(p.foreign_minted(), 3);
    }

    #[test]
    #[should_panic(expected = "not borrowed")]
    fn detaching_a_native_slot_panics() {
        let mut p = ResourcePool::new(4);
        p.detach_foreign_slot(2);
    }

    #[test]
    fn heterogeneous_allocation_prefers_fast_slots() {
        // Slots 2 and 5 are fast; they must be handed out first.
        let mut p = ResourcePool::new_heterogeneous(vec![1.0, 1.0, 2.0, 1.0, 0.5, 2.0]);
        let a = p.allocate(2).unwrap();
        assert_eq!(a, vec![2, 5]);
        // Next best: the 1.0 slots in id order.
        let b = p.allocate(3).unwrap();
        assert_eq!(b, vec![0, 1, 3]);
        // The slow slot is last.
        assert_eq!(p.allocate(1).unwrap(), vec![4]);
    }

    #[test]
    fn heterogeneous_release_and_reallocate() {
        let mut p = ResourcePool::new_heterogeneous(vec![0.5, 2.0, 1.0]);
        let a = p.allocate(3).unwrap();
        assert_eq!(a, vec![1, 2, 0]);
        p.release(&[1]);
        assert_eq!(p.allocate(1).unwrap(), vec![1], "fast slot reused first");
    }

    #[test]
    fn naive_order_ignores_speeds() {
        let mut p =
            ResourcePool::new_heterogeneous(vec![0.5, 2.0, 1.0]).with_order(AllocOrder::LowestId);
        assert_eq!(p.allocate(2).unwrap(), vec![0, 1]);
        assert_eq!(p.speed(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn invalid_speed_rejected() {
        ResourcePool::new_heterogeneous(vec![1.0, 0.0]);
    }
}
