//! Job model: what the scheduler knows about an application.
//!
//! Also home to [`IdHasher`], the hash behind every map the scheduler keys
//! by something it minted itself — [`JobId`]s, and the handful of
//! [`ProcessorConfig`]s in one job's profile.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::topology::{ProcessorConfig, TopologyPref};

/// Scheduler-assigned job identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Hasher for keys the scheduler mints: each word written is multiplied in,
/// and `finish` folds the high half of the state into the low. `hashbrown`
/// takes a bucket from the low bits of a hash and its control byte from the
/// top seven; the multiply mixes upwards only, so the fold is what lets the
/// high bits of a key reach the bucket index.
///
/// Unkeyed, so it is for maps whose keys come from the program — job ids are
/// a counter and per-job configuration maps hold a few entries. A map keyed
/// by anything a client chooses keeps `std`'s default hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Everything submitted with a job (the command line + configuration file of
/// the paper's submission process).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name ("LU", "Jacobi", ...).
    pub name: String,
    /// Topology preference / legal-configuration generator.
    pub topology: TopologyPref,
    /// Requested initial configuration (the paper's jobs start at the
    /// smallest configuration that fits the data).
    pub initial: ProcessorConfig,
    /// Number of outer iterations (all paper experiments use 10).
    pub iterations: usize,
    /// Whether the job is resizable. Statically scheduled jobs keep their
    /// initial allocation for their whole lifetime.
    pub resizable: bool,
    /// Scheduling priority; higher values queue ahead of lower ones and
    /// their processor needs drive the shrink-for-queue rule first (the
    /// paper's future-work "quality of service" knob).
    #[serde(default)]
    pub priority: u8,
    /// Whether the application runs with buddy redundancy and can survive a
    /// node loss by force-shrinking onto its surviving ranks. For such jobs
    /// the System Monitor leaves crash handling to the driver's recovery
    /// path instead of failing the job on the first dead process.
    #[serde(default)]
    pub survivable: bool,
}

impl JobSpec {
    pub fn new(
        name: impl Into<String>,
        topology: TopologyPref,
        initial: ProcessorConfig,
        iterations: usize,
    ) -> Self {
        let spec = JobSpec {
            name: name.into(),
            topology,
            initial,
            iterations,
            resizable: true,
            priority: 0,
            survivable: false,
        };
        assert!(
            spec.topology.is_legal(spec.initial),
            "initial configuration {} is not legal for {}",
            spec.initial,
            spec.name
        );
        spec
    }

    /// Mark the job as statically scheduled (baseline runs).
    pub fn static_job(mut self) -> Self {
        self.resizable = false;
        self
    }

    /// Set the scheduling priority (higher queues first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Opt the job into shrink-to-survivors recovery: the driver maintains
    /// buddy copies of its panels and a node loss force-shrinks the job
    /// instead of failing it (as long as redundancy holds).
    pub fn survivable(mut self) -> Self {
        self.survivable = true;
        self
    }
}

/// Lifecycle state of a job inside the scheduler.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for its initial allocation.
    Queued,
    /// Running on the given configuration.
    Running { config: ProcessorConfig },
    /// Completed normally at the given virtual/wall time.
    Finished { at: f64 },
    /// Terminated by an application error.
    Failed { at: f64, reason: String },
    /// Cancelled by the user (queued jobs leave immediately; running jobs
    /// acknowledge at their next resize point).
    Cancelled { at: f64 },
}

impl JobState {
    pub fn is_active(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running { .. })
    }

    /// Terminal states (finished, failed or cancelled).
    pub fn is_terminal(&self) -> bool {
        !self.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates_initial_config() {
        let spec = JobSpec::new(
            "LU",
            TopologyPref::Grid { problem_size: 8000 },
            ProcessorConfig::new(2, 2),
            10,
        );
        assert!(spec.resizable);
        assert_eq!(spec.initial.procs(), 4);
    }

    #[test]
    #[should_panic(expected = "not legal")]
    fn spec_rejects_illegal_initial() {
        JobSpec::new(
            "LU",
            TopologyPref::Grid { problem_size: 8000 },
            ProcessorConfig::new(3, 3),
            10,
        );
    }

    #[test]
    fn static_marker() {
        let spec = JobSpec::new(
            "FFT",
            TopologyPref::Linear {
                problem_size: 8192,
                even_only: true,
            },
            ProcessorConfig::linear(2),
            10,
        )
        .static_job();
        assert!(!spec.resizable);
    }

    #[test]
    fn state_activity() {
        assert!(JobState::Queued.is_active());
        assert!(JobState::Running {
            config: ProcessorConfig::linear(4)
        }
        .is_active());
        assert!(!JobState::Finished { at: 1.0 }.is_active());
        assert!(!JobState::Failed {
            at: 1.0,
            reason: "x".into()
        }
        .is_active());
    }
}
