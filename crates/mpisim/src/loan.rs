//! Scoped loans: messages whose payload borrows the sender's memory.
//!
//! [`Comm::lending`] opens a scope, shaped like [`std::thread::scope`],
//! inside which [`Loans::lend`] sends a message that carries no copy of its
//! data: the payload is a view of a slice the lender borrowed for the whole
//! scope. The receiver reads that view (through [`Comm::recv_with`]) and the
//! loan comes back when it drops the payload. The scope returns only once
//! every loan is back.
//!
//! A loan is charged exactly like a [`Comm::send`] of the elements it names:
//! the same `send_cost` / `recv_cost` length, [`CommStats`](crate::CommStats),
//! `mpisim.*` counters and arrival time. Returning it is host-side
//! bookkeeping, not a simulated message: it adds no traffic and no virtual
//! time.
//!
//! Why this is sound. The payload owner ([`Lent`]) holds a raw pointer to
//! the lent slice, so its bytes must stay borrowed and unchanged until the
//! owner drops, on whichever thread that is.
//! * *Scope.* `lend` takes `&'scope [T]`, a shared borrow that outlives the
//!   scope closure, so the lender can neither free nor write the slice while
//!   the scope runs; `lending` does not return until every owner it handed
//!   out has dropped.
//! * *Unwinding.* A panic inside the scope, the lender's node crash among
//!   them, is caught, the loans are awaited as on a normal exit, and only
//!   then does the panic resume; the slice's borrow ends after the last
//!   reader is done.
//! * *Teardown.* A borrower whose thread ends without receiving a loan
//!   drops it with its mailbox: its exit takes its queue, in the step that
//!   refuses later sends, and drops the queued envelopes outside the lock.
//!   A lend that fails, because the borrower's node crashed or its process
//!   ended, drops its envelope on the spot.
//! * *Timeout.* A loan still out after [`deadlock_timeout`] aborts the
//!   process. Unwinding past it would free memory a live borrower may still
//!   read; abort never does.
//! * *Bytes.* `T: Pod` has no padding, so every byte of the slice is
//!   initialized. Receivers see bytes only and copy them out byte-wise, so
//!   the view needs no alignment.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bytes::Bytes;

use crate::comm::Comm;
use crate::datum::Pod;
use crate::endpoint::deadlock_timeout;

/// How many of a scope's loans are out.
#[derive(Default)]
struct Outstanding {
    count: Mutex<usize>,
    back: Condvar,
}

impl Outstanding {
    fn count(&self) -> MutexGuard<'_, usize> {
        // Every update is one increment or decrement, so even a count whose
        // lock a panicking thread poisoned is exact.
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The owner of a loan's payload: a view of the lent bytes that returns the
/// loan when the last view of the message drops.
struct Lent {
    ptr: *const u8,
    len: usize,
    out: Arc<Outstanding>,
}

// SAFETY: `ptr` and `len` are a read-only view of a `&[T]` with `T: Pod`
// (`Pod: Sync`), which the lending scope keeps borrowed and unchanged until
// this owner drops, so reading it from another thread is as sound as
// sending that `&[T]` there; `out` is an `Arc` of a `Mutex` and a `Condvar`,
// both `Send` and `Sync`. Dropping the owner on another thread only updates
// `out`.
unsafe impl Send for Lent {}
// SAFETY: as for `Send`: shared access only ever reads the bytes through
// `as_ref`.
unsafe impl Sync for Lent {}

impl AsRef<[u8]> for Lent {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` are the bytes of a `&'scope [T: Pod]`.
        // `Comm::lending` does not return, nor unwind, until this owner has
        // dropped, so the borrow is live and nothing writes through it; every
        // byte is initialized because `Pod` has no padding.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        let mut n = self.out.count();
        *n -= 1;
        if *n == 0 {
            self.out.back.notify_all();
        }
    }
}

/// The handle of a lending scope, given to the closure of [`Comm::lending`].
///
/// `'scope` is the scope's own lifetime, and `'env` that of everything it
/// borrows, as in [`std::thread::Scope`].
pub struct Loans<'scope, 'env: 'scope> {
    comm: Comm,
    out: Arc<Outstanding>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Loans<'scope, '_> {
    /// Send `data` to `dst` with a user tag, charged as a [`Comm::send`] of
    /// `elems` elements, without copying it: the receiver's payload is a
    /// view of `data` itself, all of it, whatever `elems` says. The receiver
    /// reads it with [`Comm::recv_with`] or [`Comm::recv_with_or_failed`].
    ///
    /// Fails as [`Comm::try_send`] does: with `Err(())` when `dst`'s node
    /// crashes before the message would arrive, or its process has ended. A
    /// failed lend is charged all the same, and its loan is back at once.
    #[allow(clippy::result_unit_err)]
    pub fn lend<T: Pod>(
        &'scope self,
        dst: usize,
        tag: u32,
        data: &'scope [T],
        elems: usize,
    ) -> Result<(), ()> {
        *self.out.count() += 1;
        let lent = Lent {
            ptr: data.as_ptr().cast(),
            len: std::mem::size_of_val(data),
            out: Arc::clone(&self.out),
        };
        let charged = elems * std::mem::size_of::<T>();
        self.comm
            .try_send_raw(dst, tag, Bytes::from_owner(lent), charged)
    }

    /// Block until every loan is back. Aborts the process, with a message,
    /// if one is still out after [`deadlock_timeout`].
    fn await_returns(&self) {
        let timeout = deadlock_timeout();
        let deadline = Instant::now() + timeout;
        let mut n = self.out.count();
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                eprintln!(
                    "rank {} of comm {}: {} loan(s) not returned within {timeout:?}; \
                     aborting, because unwinding would free memory a borrower may still read",
                    self.comm.rank(),
                    self.comm.id(),
                    *n
                );
                std::process::abort();
            }
            n = self
                .out
                .back
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl Comm {
    /// Run `f` with a handle that lends slices as messages
    /// ([`Loans::lend`]), and return what it returns once every loan is
    /// back: each borrower has received its message and dropped the payload,
    /// or its process has ended.
    ///
    /// If `f` panics, the scope still waits for its loans before the panic
    /// goes on. A loan that is not back within the deadlock timeout (120 s,
    /// or `RESHAPE_MPISIM_TIMEOUT_SECS`) **aborts the process** with a
    /// message, on a normal exit and on unwinding alike: the lent memory may
    /// not be freed while a borrower can still read it. A scope whose loans
    /// wait on a borrower that waits on the lender's scope exit therefore
    /// aborts; receive every loan before leaving the scopes that lent it.
    ///
    /// ```
    /// use reshape_mpisim::{NetModel, Universe};
    ///
    /// Universe::new(2, 1, NetModel::ideal())
    ///     .launch(2, None, "loan", |comm| {
    ///         let panel = [1.0f64, 2.0, 3.0];
    ///         if comm.rank() == 0 {
    ///             comm.lending(|loans| loans.lend(1, 5, &panel, 3)).unwrap();
    ///         } else {
    ///             let first = comm.recv_with(0, 5, |b| f64::from_ne_bytes(b[..8].try_into().unwrap()));
    ///             assert_eq!(first, 1.0);
    ///         }
    ///     })
    ///     .join_ok();
    /// ```
    pub fn lending<'env, R>(
        &self,
        f: impl for<'scope> FnOnce(&'scope Loans<'scope, 'env>) -> R,
    ) -> R {
        let loans = Loans {
            comm: self.clone(),
            out: Arc::default(),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&loans)));
        loans.await_returns();
        result.unwrap_or_else(|panic| resume_unwind(panic))
    }
}
