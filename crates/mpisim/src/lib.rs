//! # reshape-mpisim — a simulated MPI-2 substrate with dynamic process management
//!
//! The ReSHAPE paper (Sudarsan & Ribbens, ICPP 2007) resizes running MPI
//! applications with `MPI_Comm_spawn_multiple` and intercommunicator merges.
//! No mature Rust MPI binding supports dynamic process management, and the
//! paper's 50-node cluster is unavailable, so this crate provides an
//! in-process substitute that exercises the same code paths:
//!
//! * **Ranks are OS threads.** A [`Universe`] models a homogeneous cluster of
//!   compute nodes; process groups are launched onto (virtual) nodes and
//!   communicate through communicators ([`Comm`]).
//! * **MPI semantics.** Point-to-point messages are matched by
//!   `(communicator, source, tag)` with non-overtaking FIFO order per source,
//!   exactly like MPI. Collectives (barrier, broadcast, reduce, allreduce,
//!   gather, scatter, all-to-all) are built from point-to-point trees.
//! * **Dynamic process management.** [`Comm::spawn`] launches new ranks and
//!   returns an [`InterComm`]; [`InterComm::merge`] produces the expanded
//!   intracommunicator — the exact mechanism ReSHAPE's resizing library uses
//!   to grow an application. Shrinking is the reverse: ranks outside the
//!   retained subset simply leave the computation and terminate.
//! * **Virtual time.** Every process carries a virtual clock advanced by a
//!   configurable network cost model ([`NetModel`]: per-message latency +
//!   bytes/bandwidth) and by explicit [`Comm::advance`] calls for modeled
//!   computation. Message causality (a receive cannot complete before the
//!   matching send) makes virtual timestamps deterministic, which the
//!   ReSHAPE scheduler tests rely on.
//!
//! The crate is deliberately synchronous and single-machine: it is a
//! *substrate for reproducing scheduling research*, not a production MPI.
//!
//! ## Quick example
//!
//! ```
//! use reshape_mpisim::{Universe, NetModel};
//!
//! let uni = Universe::new(4, 2, NetModel::ideal());
//! let h = uni.launch(4, None, "ring", |comm| {
//!     let next = (comm.rank() + 1) % comm.size();
//!     let prev = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(next, 7, &[comm.rank() as u64]);
//!     let got: Vec<u64> = comm.recv(prev, 7);
//!     assert_eq!(got, vec![prev as u64]);
//! });
//! h.join_ok();
//! ```

mod collectives;
mod comm;
mod datum;
mod endpoint;
mod fault;
mod loan;
mod net;
mod rng;
mod spawn;
mod universe;

pub use collectives::ReduceOp;
pub use comm::{Comm, CommStats, Group, NodeId};
pub use datum::{from_bytes, to_bytes, Pod, Reducible};
pub use endpoint::ProcId;
pub use loan::Loans;
pub use net::NetModel;
pub use rng::SplitMix64;
pub use spawn::{InterComm, SpawnCtx};
pub use universe::{GroupHandle, ProcEvent, ProcStatus, Universe};
