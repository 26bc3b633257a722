//! # reshape-core — the ReSHAPE framework
//!
//! A Rust reproduction of the scheduling framework of *ReSHAPE: A Framework
//! for Dynamic Resizing and Scheduling of Homogeneous Applications in a
//! Parallel Environment* (Sudarsan & Ribbens, ICPP 2007). It contains the
//! two components of the paper's Figure 1(a):
//!
//! 1. **Application scheduling and monitoring** — [`SchedulerCore`] (queue +
//!    FCFS/backfill allocation + Remap Scheduler policy + Performance
//!    Profiler) and, in real-execution mode, the [`runtime`] module, which
//!    applies each transition on the reporting thread, runs Job Startup
//!    after it, and installs the System Monitor as the universe's exit
//!    hook.
//! 2. **The resizing library and API** — the [`driver`] module: the
//!    [`driver::ResizeContext`] API (`log`, `resize`, plus the advanced
//!    `contact_scheduler` / `expand_processors` / `shrink_processors` /
//!    `redistribute` entry points) and [`driver::run_resizable`], which
//!    turns an iterate closure over distributed matrices into a fully
//!    resizable application.
//!
//! The scheduler state machine is synchronous and time-stamped, so the same
//! policy code drives both the real runtime here, whose applications are
//! rank threads, and the discrete-event simulator in `reshape-clustersim`.

pub mod backoff;
mod core;
pub mod ctrl;
pub mod driver;
mod job;
mod policy;
mod pool;
mod profiler;
pub mod runtime;
mod topology;
pub mod wal;

pub use crate::core::{
    BorrowedLease, CoreSnapshot, Directive, EventKind, EvictOutcome, JobRecord, QueuePolicy,
    Reservation, ReservationId, SchedEvent, SchedulerCore, StartAction,
};
pub use backoff::Backoff;
pub use job::{IdHasher, JobId, JobSpec, JobState};
pub use policy::{decide, decide_with, RemapDecision, RemapPolicy, SystemSnapshot};
pub use pool::{AllocOrder, ResourcePool};
pub use profiler::{JobProfile, PerfRecord, Profiler, Resize, ShrinkPoint};
pub use topology::{ProcessorConfig, TopologyPref};
pub use wal::{HealAction, Wal, WalError, WalRecord, WalSalvage};
