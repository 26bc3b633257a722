//! In-memory buddy redundancy for block-cyclic panels.
//!
//! Checkpoint/restart (the `reshape-redist` baseline) funnels the whole
//! matrix through rank 0's disk — exactly the serial bottleneck the paper
//! measures at 4.5–14.5× the cost of message-based redistribution. For
//! *surviving* a node loss we only ever need one rank's panel back, so a
//! much cheaper scheme suffices: every rank replicates its local panel to
//! the next rank on a ring (its **buddy**) and holds the previous rank's
//! panel (its **ward**). The copies are refreshed at resize points, where
//! the data is quiescent anyway; when rank `r` dies, rank `(r+1) % P` can
//! reconstruct `r`'s panel from memory and the survivors redistribute to a
//! shrunk grid without touching a disk or a central node.
//!
//! Redundancy is lost only when a rank *and* its buddy die in the same
//! epoch — the caller detects that case up front ([`recover_matrix`]
//! returns the unrecoverable rank) and falls back to failing the job.

use reshape_mpisim::{Comm, Pod};

use crate::{Descriptor, DistMatrix};

/// Tag range for the replication ring (`base + matrix index`).
const TAG_BUDDY_BASE: u32 = 8_600_000;
/// Tag range for recovery traffic (`base + matrix index`).
const TAG_RECOVER_BASE: u32 = 8_650_000;

/// One rank's redundancy state: a deep copy of its ward's panels — plus a
/// snapshot of its *own* panels from the same instant — refreshed at every
/// resize point.
///
/// The own-panel snapshot is what makes recovery *consistent*: a dead
/// rank's panel is only available as of the last replication, so every
/// survivor must roll back to that same epoch (and the driver replays the
/// iterations since) or the rebuilt matrix would mix old and new data.
pub struct BuddyStore<T> {
    /// Old-grid rank we replicate *to*.
    buddy: usize,
    /// Old-grid rank whose panels we hold.
    ward: usize,
    /// The ward's panels, one per protected matrix, with their layouts.
    entries: Vec<(Descriptor, usize, usize, Vec<T>)>,
    /// This rank's own panels at replication time, same order as `entries`.
    own: Vec<(Descriptor, usize, usize, Vec<T>)>,
}

impl<T: Pod + Default> BuddyStore<T> {
    /// Collectively replicate every rank's panels around the ring.
    /// `mats` must be grid-consistent across ranks (same descriptors in the
    /// same order); the ring covers the grid's `P` ranks, and callers on a
    /// larger communicator (ranks `>= P`) get an empty store.
    ///
    /// All ranks must be alive: replication happens at resize points and at
    /// job start, never during recovery.
    pub fn replicate(comm: &Comm, mats: &[DistMatrix<T>]) -> BuddyStore<T> {
        let me = comm.rank();
        let p = mats
            .first()
            .map(|m| m.desc.nprow * m.desc.npcol)
            .unwrap_or(0);
        if p == 0 || me >= p {
            return BuddyStore {
                buddy: me,
                ward: me,
                entries: Vec::new(),
                own: Vec::new(),
            };
        }
        assert!(
            comm.size() >= p,
            "communicator smaller than the protected grid"
        );
        let buddy = (me + 1) % p;
        let ward = (me + p - 1) % p;
        let (wr0, wc0) = (ward / mats[0].desc.npcol, ward % mats[0].desc.npcol);
        let mut entries = Vec::with_capacity(mats.len());
        let mut own = Vec::with_capacity(mats.len());
        let mut bytes = 0u64;
        for (idx, m) in mats.iter().enumerate() {
            assert_eq!(
                m.desc.nprow * m.desc.npcol,
                p,
                "all protected matrices must share one grid"
            );
            let tag = TAG_BUDDY_BASE + idx as u32;
            let panel = comm.sendrecv(buddy, ward, tag, m.local_data());
            bytes += std::mem::size_of_val(m.local_data()) as u64;
            let (wr, wc) = (ward / m.desc.npcol, ward % m.desc.npcol);
            debug_assert_eq!((wr, wc), (wr0, wc0));
            entries.push((m.desc, wr, wc, panel));
            own.push((m.desc, m.myrow, m.mycol, m.local_data().to_vec()));
        }
        reshape_telemetry::incr("buddy.replications", 1);
        reshape_telemetry::incr("buddy.bytes_replicated", bytes);
        BuddyStore {
            buddy,
            ward,
            entries,
            own,
        }
    }

    /// The rank this store's owner replicates to.
    pub fn buddy(&self) -> usize {
        self.buddy
    }

    /// The rank whose panels this store holds.
    pub fn ward(&self) -> usize {
        self.ward
    }

    /// Number of protected matrices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reconstruct the ward's panel for matrix `idx` as a full
    /// [`DistMatrix`] at the ward's grid position.
    pub fn restore(&self, idx: usize) -> DistMatrix<T> {
        let (desc, wr, wc, ref panel) = self.entries[idx];
        let mut m = DistMatrix::new(desc, wr, wc);
        m.set_local_data(panel.clone());
        reshape_telemetry::incr("buddy.restores", 1);
        m
    }

    /// This rank's own panel for matrix `idx` as it was at replication time.
    /// Recovery feeds these — not the live matrices — into
    /// [`recover_matrix`], rolling every survivor back to the epoch the
    /// dead rank's buddy copy belongs to; the driver then replays the
    /// iterations executed since.
    pub fn own_snapshot(&self, idx: usize) -> DistMatrix<T> {
        let (desc, r, c, ref panel) = self.own[idx];
        let mut m = DistMatrix::new(desc, r, c);
        m.set_local_data(panel.clone());
        m
    }
}

/// Rebuild one protected matrix on the survivor grid after a rank death.
///
/// Collective over the *old* communicator's surviving ranks. `survivors`
/// is the agreed, strictly ascending list of old ranks still alive (the
/// caller establishes agreement — e.g. the driver's recovery fence); every
/// old rank not in it is treated as dead regardless of transient router
/// state, so all survivors compute identical holder/destination maps.
///
/// Each element of the matrix is fetched from its *holder* — the old owner
/// if it survived, otherwise the owner's buddy, who carries the panel in
/// `store` — and delivered to its owner under `dst`, the descriptor of the
/// shrunk survivor grid (new rank `k` is old rank `survivors[k]`).
///
/// Returns `Err(rank)` — before any data moves — when some dead `rank` has
/// a dead buddy too: redundancy is lost and the caller must fall back to
/// failing the job. Transport failures during recovery (a *second* death
/// mid-flight) also return `Err` with the implicated rank.
pub fn recover_matrix<T: Pod + Default>(
    comm: &Comm,
    survivors: &[usize],
    mine: &DistMatrix<T>,
    store: &BuddyStore<T>,
    idx: usize,
    dst: Descriptor,
) -> Result<Option<DistMatrix<T>>, usize> {
    let s = mine.desc;
    let p = s.nprow * s.npcol;
    let me = comm.rank();
    assert!(
        survivors.windows(2).all(|w| w[0] < w[1]),
        "survivor list must be strictly ascending"
    );
    assert!(
        survivors.contains(&me),
        "recover_matrix is collective over survivors"
    );
    assert_eq!(
        dst.nprow * dst.npcol,
        survivors.len(),
        "destination grid must cover exactly the survivors"
    );
    let alive = |r: usize| survivors.binary_search(&r).is_ok();

    // Up-front redundancy audit, identical on every survivor: a dead rank
    // whose buddy is also dead is unrecoverable, and we bail before moving
    // anything so the old layout (and the buddy copies) stay intact.
    for o in 0..p {
        if !alive(o) && !alive((o + 1) % p) {
            reshape_telemetry::incr("buddy.unrecoverable", 1);
            return Err(o);
        }
    }

    // The ward's panel, reconstructed once if we are standing in for a dead
    // neighbor.
    let ward_matrix = (!alive(store.ward()) && store.ward() != me && !store.is_empty())
        .then(|| store.restore(idx));

    let holder_of = |o: usize| if alive(o) { o } else { (o + 1) % p };

    // Pass 1 (pure index math): route every element, building the outgoing
    // per-destination buffers this rank holds and counting what it expects
    // from each holder. Senders and receivers walk the same global
    // row-major order, so per-(holder, destination) streams line up.
    let mut out_bufs: Vec<Vec<T>> = vec![Vec::new(); survivors.len()];
    let mut expect: Vec<usize> = vec![0; survivors.len()];
    for i in 0..s.m {
        for j in 0..s.n {
            let (pr, pc) = s.owner_of(i, j);
            let o = pr * s.npcol + pc;
            let h = holder_of(o);
            let (qr, qc) = dst.owner_of(i, j);
            let k = qr * dst.npcol + qc;
            if h == me {
                let v = if o == me {
                    mine.get_global(i, j).expect("owner holds its element")
                } else {
                    ward_matrix
                        .as_ref()
                        .expect("holder for a dead rank carries its ward panel")
                        .get_global(i, j)
                        .expect("ward panel holds the dead rank's element")
                };
                out_bufs[k].push(v);
            }
            if survivors[k] == me {
                let hk = survivors.binary_search(&h).expect("holder is a survivor");
                expect[hk] += 1;
            }
        }
    }

    // Transport: send each non-local stream, then collect what we expect.
    let tag = TAG_RECOVER_BASE + idx as u32;
    let my_new = survivors.binary_search(&me).expect("checked above");
    for (k, buf) in out_bufs.iter().enumerate() {
        if survivors[k] != me && !buf.is_empty() && comm.try_send(survivors[k], tag, buf).is_err() {
            return Err(survivors[k]);
        }
    }
    let mut in_bufs: Vec<Vec<T>> = vec![Vec::new(); survivors.len()];
    for (hk, &n) in expect.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if survivors[hk] == me {
            in_bufs[hk] = std::mem::take(&mut out_bufs[my_new]);
        } else {
            match comm.recv_or_failed::<T>(survivors[hk], tag) {
                Ok(buf) => {
                    if buf.len() != n {
                        return Err(survivors[hk]);
                    }
                    in_bufs[hk] = buf;
                }
                Err(()) => return Err(survivors[hk]),
            }
        }
    }

    // Pass 2: same walk, consuming each holder's stream in order.
    let (dr, dc) = (my_new / dst.npcol, my_new % dst.npcol);
    let mut out = DistMatrix::<T>::new(dst, dr, dc);
    let mut cursor: Vec<usize> = vec![0; survivors.len()];
    for i in 0..s.m {
        for j in 0..s.n {
            let (qr, qc) = dst.owner_of(i, j);
            let k = qr * dst.npcol + qc;
            if survivors[k] != me {
                continue;
            }
            let (pr, pc) = s.owner_of(i, j);
            let h = holder_of(pr * s.npcol + pc);
            let hk = survivors.binary_search(&h).expect("holder is a survivor");
            let v = in_bufs[hk][cursor[hk]];
            cursor[hk] += 1;
            assert!(out.set_global(i, j, v), "element routed to its new owner");
        }
    }
    reshape_telemetry::incr("buddy.recoveries", 1);
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_mpisim::{NetModel, Universe};

    fn survivor_sync(comm: &Comm, survivors: &[usize]) {
        const TAG_SYNC: u32 = 7_700_000;
        let me = comm.rank();
        let root = survivors[0];
        let mut buf: Vec<u64> = Vec::new();
        if me == root {
            for &r in &survivors[1..] {
                comm.recv_into(r, TAG_SYNC, &mut buf);
            }
            for &r in &survivors[1..] {
                comm.send(r, TAG_SYNC, &[1u64]);
            }
        } else {
            comm.send(root, TAG_SYNC, &[me as u64]);
            comm.recv_into(root, TAG_SYNC, &mut buf);
        }
    }

    #[test]
    fn replicate_stores_the_wards_panel() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "buddy-rep", |comm| {
            let desc = Descriptor::square(8, 2, 2, 2);
            let me = comm.rank();
            let mut m = DistMatrix::from_fn(desc, me / 2, me % 2, |i, j| (i * 100 + j) as f64);
            let store = BuddyStore::replicate(&comm, std::slice::from_ref(&m));
            // The own-panel snapshot is a deep copy frozen at replication:
            // mutating the live matrix afterwards must not leak into it.
            let frozen = m.local_data().to_vec();
            for v in m.local_data_mut() {
                *v += 1000.0;
            }
            let snap = store.own_snapshot(0);
            assert_eq!(snap.local_data(), &frozen[..]);
            assert_eq!((snap.myrow, snap.mycol), (m.myrow, m.mycol));
            let ward = (me + 3) % 4;
            assert_eq!(store.ward(), ward);
            assert_eq!(store.buddy(), (me + 1) % 4);
            let restored = store.restore(0);
            let expect = DistMatrix::from_fn(desc, ward / 2, ward % 2, |i, j| (i * 100 + j) as f64);
            assert_eq!(restored.local_data(), expect.local_data());
            assert_eq!(
                (restored.myrow, restored.mycol),
                (expect.myrow, expect.mycol)
            );
        })
        .join_ok();
    }

    #[test]
    fn recover_rebuilds_dead_ranks_elements() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "buddy-rec", |comm| {
            let s = Descriptor::square(10, 3, 2, 2); // ragged blocks on purpose
            let me = comm.rank();
            let m = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 1009 + j) as f64);
            let store = BuddyStore::replicate(&comm, std::slice::from_ref(&m));
            if me == 2 {
                return; // dies after replication; its buddy (rank 3) holds its panel
            }
            while comm.rank_alive(2) {
                std::thread::yield_now();
            }
            let survivors = [0usize, 1, 3];
            let d = Descriptor::new(10, 10, 3, 3, 1, 3);
            let out = recover_matrix(&comm, &survivors, &m, &store, 0, d)
                .expect("one dead rank with a live buddy is recoverable")
                .expect("every survivor is in the new grid");
            for i in 0..10 {
                for j in 0..10 {
                    if let Some(v) = out.get_global(i, j) {
                        assert_eq!(v, (i * 1009 + j) as f64, "element ({i},{j})");
                    }
                }
            }
            survivor_sync(&comm, &survivors);
        })
        .join_ok();
    }

    #[test]
    fn dead_buddy_pair_is_unrecoverable() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "buddy-lost", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let me = comm.rank();
            let m = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i + j) as f64);
            let store = BuddyStore::replicate(&comm, std::slice::from_ref(&m));
            if me == 2 || me == 3 {
                return; // rank 2 and its buddy rank 3 both die
            }
            while comm.rank_alive(2) || comm.rank_alive(3) {
                std::thread::yield_now();
            }
            let survivors = [0usize, 1];
            let d = Descriptor::new(8, 8, 2, 2, 1, 2);
            let err = recover_matrix(&comm, &survivors, &m, &store, 0, d)
                .expect_err("rank 2's panel is gone with both holders dead");
            assert_eq!(err, 2);
            survivor_sync(&comm, &survivors);
        })
        .join_ok();
    }
}
