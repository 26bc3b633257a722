//! Indexes over the federation's shard view, so that routing a job and
//! looking for a lender cost `O(log S)` instead of a scan of all `S`
//! shards.
//!
//! Each index is a pure function of the view ([`ShardIndex::build`]) and
//! is re-keyed only where the view changes ([`ShardIndex::update`]):
//!
//! * **Route tree** — a min tournament tree over the keys `(queue_len,
//!   u32::MAX − idle, id)` packed into one `u128`; a down shard's key is
//!   `u128::MAX`. Its root is `route`'s pick, in the same total order as a
//!   `min_by_key` over the shards.
//! * **Starved set** — a bitset of the shards with `deficit > 0`, walked in
//!   id order.
//! * **Donor tree** — a max tournament tree over each shard's `spare`. The
//!   next shard in id order whose spare covers a deficit is one climb and
//!   one descent, and so is the answer that none is left.
//!
//! Both trees are flat arrays: node `i` has children `2i` and `2i + 1`,
//! shard `id`'s leaf is node `cap + id` with `cap = S.next_power_of_two()`,
//! and padding leaves hold a key no shard can lose to (route) or use
//! (spare 0 covers no deficit).

use super::ShardSummary;

#[derive(Debug, PartialEq, Eq)]
pub(super) struct ShardIndex {
    /// Leaves per tree: the shard count rounded up to a power of two.
    cap: usize,
    route: Vec<u128>,
    spare: Vec<usize>,
    starved: Vec<u64>,
}

fn route_key(id: usize, s: &ShardSummary) -> u128 {
    if !s.live {
        return u128::MAX;
    }
    let idle = u32::try_from(s.idle).expect("a shard's idle count fits in u32");
    let id = u32::try_from(id).expect("a shard id fits in u32");
    ((s.queue_len as u128) << 64) | (u128::from(u32::MAX - idle) << 32) | u128::from(id)
}

/// Write `key` at leaf node `i`, then re-pick each ancestor until one
/// keeps its value: every node above it keeps its value too.
fn set_leaf<K: Copy + Eq>(tree: &mut [K], mut i: usize, key: K, pick: fn(K, K) -> K) {
    if tree[i] == key {
        return;
    }
    tree[i] = key;
    while i > 1 {
        i /= 2;
        let v = pick(tree[2 * i], tree[2 * i + 1]);
        if tree[i] == v {
            return;
        }
        tree[i] = v;
    }
}

impl ShardIndex {
    pub(super) fn build(view: &[ShardSummary]) -> Self {
        let cap = view.len().next_power_of_two();
        let mut route = vec![u128::MAX; 2 * cap];
        let mut spare = vec![0; 2 * cap];
        let mut starved = vec![0; view.len().div_ceil(64)];
        for (id, s) in view.iter().enumerate() {
            route[cap + id] = route_key(id, s);
            spare[cap + id] = s.spare;
            starved[id / 64] |= u64::from(s.deficit > 0) << (id % 64);
        }
        for i in (1..cap).rev() {
            route[i] = route[2 * i].min(route[2 * i + 1]);
            spare[i] = spare[2 * i].max(spare[2 * i + 1]);
        }
        ShardIndex {
            cap,
            route,
            spare,
            starved,
        }
    }

    /// Re-key shard `id`, whose summary is now `s`.
    pub(super) fn update(&mut self, id: usize, s: &ShardSummary) {
        set_leaf(&mut self.route, self.cap + id, route_key(id, s), u128::min);
        set_leaf(&mut self.spare, self.cap + id, s.spare, usize::max);
        let bit = 1 << (id % 64);
        if s.deficit > 0 {
            self.starved[id / 64] |= bit;
        } else {
            self.starved[id / 64] &= !bit;
        }
    }

    /// The live shard with the shortest queue, then the most idle
    /// processors, then the lowest id; `None` when every shard is down.
    pub(super) fn route(&self) -> Option<usize> {
        let top = self.route[1];
        // The key's low 32 bits are the shard id.
        (top != u128::MAX).then_some(top as u32 as usize)
    }

    /// The lowest-id starved shard at or after `from`.
    pub(super) fn starved_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.starved.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.starved.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The lowest-id shard at or after `from`, other than `b`, with
    /// `spare >= need`. `need` is a deficit, so it is positive.
    pub(super) fn donor_from(&self, from: usize, need: usize, b: usize) -> Option<usize> {
        match self.first_spare(from, need)? {
            d if d == b => self.first_spare(b + 1, need),
            d => Some(d),
        }
    }

    fn first_spare(&self, from: usize, need: usize) -> Option<usize> {
        debug_assert!(need > 0, "padding leaves have spare 0");
        if from >= self.cap {
            return None;
        }
        let mut i = self.cap + from;
        while self.spare[i] < need {
            // Step to the subtree just right of `i`'s: climb out of right
            // children, then cross to the sibling. Past the root, none is left.
            while i % 2 == 1 {
                i /= 2;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
        while i < self.cap {
            i *= 2;
            if self.spare[i] < need {
                i += 1;
            }
        }
        Some(i - self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::ctrl::SplitMix64;

    /// A random summary with small ranges, so queue and idle ties are
    /// common; a down shard reads as all zeros, as `ShardSummary::of` has it.
    fn random_summary(rng: &mut SplitMix64) -> ShardSummary {
        if rng.chance(0.125) {
            return ShardSummary::default();
        }
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        ShardSummary {
            live: true,
            queue_len: pick(3),
            idle: pick(4),
            deficit: pick(6).saturating_sub(3),
            spare: pick(5),
        }
    }

    fn linear_route(view: &[ShardSummary]) -> Option<usize> {
        (0..view.len())
            .filter(|&id| view[id].live)
            .min_by_key(|&id| (view[id].queue_len, usize::MAX - view[id].idle, id))
    }

    fn linear_donors(view: &[ShardSummary], b: usize, need: usize) -> Vec<usize> {
        (0..view.len())
            .filter(|&d| d != b && view[d].spare >= need)
            .collect()
    }

    fn indexed_donors(index: &ShardIndex, b: usize, need: usize) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(d) = index.donor_from(out.last().map_or(0, |&d| d + 1), need, b) {
            out.push(d);
        }
        out
    }

    fn check(index: &ShardIndex, view: &[ShardSummary], rng: &mut SplitMix64) {
        assert_eq!(*index, ShardIndex::build(view), "upkeep left a node stale");
        assert_eq!(index.route(), linear_route(view));
        let mut starved = Vec::new();
        while let Some(b) = index.starved_from(starved.last().map_or(0, |&b| b + 1)) {
            starved.push(b);
        }
        let want: Vec<usize> = (0..view.len()).filter(|&b| view[b].deficit > 0).collect();
        assert_eq!(starved, want);
        // The borrowers `maybe_lend` would test, then one arbitrary pair.
        let b = (rng.next_u64() % view.len() as u64) as usize;
        let need = 1 + (rng.next_u64() % 5) as usize;
        for (b, need) in starved
            .iter()
            .take(8)
            .map(|&b| (b, view[b].deficit))
            .chain([(b, need)])
        {
            let donors = linear_donors(view, b, need);
            assert_eq!(indexed_donors(index, b, need), donors, "b={b} need={need}");
        }
    }

    #[test]
    fn indexes_match_their_linear_definitions() {
        for shards in [1, 2, 3, 5, 17, 64, 100, 1024] {
            let mut rng = SplitMix64::new(shards as u64);
            let mut view: Vec<ShardSummary> =
                (0..shards).map(|_| random_summary(&mut rng)).collect();
            let mut index = ShardIndex::build(&view);
            check(&index, &view, &mut rng);
            for _ in 0..(4 * shards).max(400) {
                let id = (rng.next_u64() % shards as u64) as usize;
                view[id] = random_summary(&mut rng);
                index.update(id, &view[id]);
                check(&index, &view, &mut rng);
            }
        }
    }
}
