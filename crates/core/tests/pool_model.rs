//! Model-based differential test for the processor pool.
//!
//! The reference model keeps one state per slot id in a `Vec` — free, busy,
//! lent, or absent (a detached borrow) — with foreign ids minted at the end
//! of the vector, and picks slots the plainest way there is: collect the
//! free ids, sort them by the pool's order, take the first `n`. Seeded op
//! sequences drive it beside the real [`ResourcePool`] through the public
//! API only; after every op the returned slots and every accessor must
//! agree. Pools run past one and two machine words and are drained and
//! refilled, so whatever sits behind the free set has its word boundaries,
//! its empty state and its full state crossed.

use reshape_core::{AllocOrder, ResourcePool};
use reshape_mpisim::SplitMix64;

trait Below {
    fn below(&mut self, n: usize) -> usize;
}

impl Below for SplitMix64 {
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    Free,
    Busy,
    Lent,
    /// A borrowed slot that was detached; its id is never reused.
    Absent,
}

/// The reference: one state and one speed per id ever minted.
struct Model {
    total: usize,
    order: AllocOrder,
    slots: Vec<Slot>,
    speeds: Vec<f64>,
}

impl Model {
    fn ids(&self, state: Slot) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&s| self.slots[s] == state)
            .collect()
    }

    fn foreign(&self) -> Vec<usize> {
        (self.total..self.slots.len())
            .filter(|&s| self.slots[s] != Slot::Absent)
            .collect()
    }

    fn owned(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Free | Slot::Busy))
            .count()
    }

    /// The `n` free slots the pool's order hands out next.
    fn pick(&self, n: usize) -> Option<Vec<usize>> {
        let mut free = self.ids(Slot::Free);
        if free.len() < n {
            return None;
        }
        if self.order == AllocOrder::FastestFirst {
            // Stable sort of an ascending list: ties keep id order.
            free.sort_by(|&a, &b| self.speeds[b].partial_cmp(&self.speeds[a]).unwrap());
        }
        free.truncate(n);
        Some(free)
    }
}

/// `k` distinct members of `from`, in a seeded order.
fn some_of(rng: &mut SplitMix64, from: &[usize], k: usize) -> Vec<usize> {
    let mut pool = from.to_vec();
    (0..k.min(pool.len()))
        .map(|_| pool.swap_remove(rng.below(pool.len())))
        .collect()
}

#[derive(Default)]
struct Coverage {
    /// Largest pool driven, and whether one was neither word-sized nor a
    /// multiple of a word.
    peak_total: usize,
    ragged_total: bool,
    /// Allocations whose slots lie in more than one 64-slot word.
    spanning: usize,
    /// Pools that went fully busy and later fully free again.
    drained_and_refilled: usize,
    speed_ties: usize,
    failed_allocations: usize,
    busy_detaches: usize,
}

fn run(seed: u64, order: AllocOrder, cov: &mut Coverage) {
    let mut rng = SplitMix64::new(seed ^ 0x9001_5EED);
    let total = match seed % 4 {
        0 => 1 + rng.below(63),
        1 => 64 * (1 + rng.below(3)),
        _ => 65 + rng.below(190),
    };
    cov.peak_total = cov.peak_total.max(total);
    cov.ragged_total |= total > 64 && !total.is_multiple_of(64);
    // Three speed classes, so every pool of a few slots has ties.
    let speeds: Vec<f64> = (0..total).map(|_| [0.5, 1.0, 2.0][rng.below(3)]).collect();
    let mut pool = ResourcePool::new_heterogeneous(speeds.clone()).with_order(order);
    assert_eq!(pool.order(), order);
    let mut m = Model {
        total,
        order,
        slots: vec![Slot::Free; total],
        speeds,
    };
    let mut was_drained = false;
    let mut refilled = false;
    // Phases lean towards taking, then towards giving back, so the pool
    // reaches both ends.
    for op in 0..400 {
        let taking = (op / 50) % 2 == 0;
        let ctx = format!("seed {seed} {order:?} total {total} op {op}");
        match rng.below(100) {
            0..=39 => {
                let free = m.ids(Slot::Free).len();
                // Mostly small, sometimes everything, sometimes too much.
                let n = match rng.below(10) {
                    0 => free,
                    1 => free + 1 + rng.below(3),
                    _ => rng.below(free.min(2 * 64 + 8) + 1),
                };
                if !taking && rng.below(3) != 0 {
                    continue;
                }
                let want = m.pick(n);
                // Only native slots are lent: `lend` is the lender half of a
                // lease and the federation never re-lends a borrow.
                let lend = rng.below(6) == 0
                    && want.as_ref().is_some_and(|w| w.iter().all(|&s| s < total));
                let got = if lend { pool.lend(n) } else { pool.allocate(n) };
                assert_eq!(got, want, "picked slots diverged: {ctx}");
                for &s in want.iter().flatten() {
                    m.slots[s] = if lend { Slot::Lent } else { Slot::Busy };
                }
                match &got {
                    None => cov.failed_allocations += 1,
                    Some(slots) => {
                        let words: Vec<usize> = slots.iter().map(|s| s / 64).collect();
                        cov.spanning += words.iter().any(|&w| w != words[0]) as usize;
                        if order == AllocOrder::FastestFirst {
                            cov.speed_ties +=
                                slots.windows(2).any(|w| m.speeds[w[0]] == m.speeds[w[1]]) as usize;
                        }
                    }
                }
            }
            40..=69 => {
                let busy = m.ids(Slot::Busy);
                let k = if taking {
                    rng.below(4)
                } else {
                    1 + rng.below(busy.len().max(1))
                };
                let slots = some_of(&mut rng, &busy, k);
                pool.release(&slots);
                for &s in &slots {
                    m.slots[s] = Slot::Free;
                }
            }
            70..=79 => {
                let lent = m.ids(Slot::Lent);
                let k = 1 + rng.below(lent.len().max(1));
                let slots = some_of(&mut rng, &lent, k);
                pool.reattach(&slots);
                for &s in &slots {
                    m.slots[s] = Slot::Free;
                }
            }
            80..=89 => {
                let n = rng.below(5);
                let got = pool.attach_foreign(n);
                let want: Vec<usize> = (m.slots.len()..m.slots.len() + n).collect();
                assert_eq!(got, want, "minted ids diverged: {ctx}");
                m.slots.extend(std::iter::repeat_n(Slot::Free, n));
                m.speeds.extend(std::iter::repeat_n(1.0, n));
                for &s in &got {
                    assert_eq!(pool.speed(s), 1.0, "{ctx}");
                }
            }
            _ => {
                let foreign = m.foreign();
                if foreign.is_empty() {
                    continue;
                }
                let s = foreign[rng.below(foreign.len())];
                let was_free = m.slots[s] == Slot::Free;
                cov.busy_detaches += !was_free as usize;
                assert_eq!(pool.detach_foreign_slot(s), was_free, "{ctx}");
                m.slots[s] = Slot::Absent;
            }
        }

        let free = m.ids(Slot::Free);
        assert_eq!(pool.free_slots(), free, "free set diverged: {ctx}");
        assert_eq!(pool.idle(), free.len(), "{ctx}");
        assert_eq!(pool.busy(), m.ids(Slot::Busy).len(), "{ctx}");
        assert_eq!(pool.owned(), m.owned(), "{ctx}");
        assert_eq!(pool.total(), total, "{ctx}");
        assert_eq!(pool.lent_slots(), m.ids(Slot::Lent), "{ctx}");
        assert_eq!(pool.borrowed_slots(), m.foreign(), "{ctx}");
        assert_eq!(pool.foreign_minted(), m.slots.len() - total, "{ctx}");
        // Every id ever minted, and a few past the high-water mark.
        for s in 0..m.slots.len() + 70 {
            let owned = matches!(m.slots.get(s), Some(Slot::Free | Slot::Busy));
            assert_eq!(pool.is_owned(s), owned, "slot {s}: {ctx}");
        }
        // Equality is membership: a copy that took a detour through the
        // same state compares equal.
        if op % 40 == 0 && !free.is_empty() {
            let mut detour = pool.clone();
            let n = 1 + rng.below(free.len());
            let taken = detour.allocate(n).expect("n free slots");
            assert_ne!(detour, pool, "{ctx}");
            detour.release(&taken);
            assert_eq!(detour, pool, "{ctx}");
        }
        was_drained |= free.is_empty() && m.owned() > 0;
        refilled |= was_drained && free.len() == m.owned() && !free.is_empty();
    }
    cov.drained_and_refilled += refilled as usize;
}

/// 256 seeds per allocation order.
fn sweep(order: AllocOrder) {
    let mut cov = Coverage::default();
    for seed in 0..256u64 {
        run(seed, order, &mut cov);
    }
    assert!(cov.peak_total > 128, "largest pool {}", cov.peak_total);
    assert!(cov.ragged_total, "no pool past a word and off its multiple");
    assert!(cov.spanning > 0, "no allocation spanned two words");
    assert!(
        cov.drained_and_refilled > 0,
        "no pool was drained and refilled"
    );
    assert!(cov.failed_allocations > 0, "no allocation was refused");
    assert!(cov.busy_detaches > 0, "no held borrowed slot was detached");
    if order == AllocOrder::FastestFirst {
        assert!(cov.speed_ties > 0, "no allocation had a speed tie");
    }
}

#[test]
fn lowest_id_pool_matches_the_reference_model() {
    sweep(AllocOrder::LowestId);
}

#[test]
fn fastest_first_pool_matches_the_reference_model() {
    sweep(AllocOrder::FastestFirst);
}

/// A 150-slot pool with slots held, lent and borrowed in its third word.
fn three_words() -> ResourcePool {
    let mut p = ResourcePool::new(150);
    p.allocate(140).unwrap();
    assert_eq!(p.lend(2).unwrap(), vec![140, 141]);
    assert_eq!(p.attach_foreign(2), vec![150, 151]);
    p
}

#[test]
#[should_panic(expected = "slot 139 double-released")]
fn double_release_past_the_first_word_panics() {
    let mut p = three_words();
    p.release(&[139]);
    p.release(&[139]);
}

#[test]
#[should_panic(expected = "slot 141 not owned by this pool")]
fn releasing_a_lent_slot_past_the_first_word_panics() {
    three_words().release(&[141]);
}

#[test]
#[should_panic(expected = "slot 152 not owned by this pool")]
fn releasing_an_unminted_id_panics() {
    three_words().release(&[152]);
}

#[test]
#[should_panic(expected = "slot 142 not lent")]
fn reattaching_a_free_slot_panics() {
    three_words().reattach(&[142]);
}

#[test]
#[should_panic(expected = "slot 149 not borrowed")]
fn detaching_a_native_slot_past_the_first_word_panics() {
    three_words().detach_foreign_slot(149);
}

#[test]
#[should_panic(expected = "slot 150 not borrowed")]
fn detaching_a_borrowed_slot_twice_panics() {
    let mut p = three_words();
    assert!(p.detach_foreign_slot(150));
    p.detach_foreign_slot(150);
}
