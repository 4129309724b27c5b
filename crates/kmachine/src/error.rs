//! Engine errors.

use std::fmt;

/// Failure modes of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No machine progressed, nothing was in flight, and not everyone was
    /// done — the protocol deadlocked (it is waiting for a message that will
    /// never arrive).
    Stalled {
        /// Round at which the stall was detected.
        round: u64,
    },
    /// The run exceeded [`crate::NetConfig::max_rounds`].
    MaxRounds {
        /// The configured limit.
        limit: u64,
    },
    /// A machine's protocol panicked. Every engine catches the panic and
    /// fails the run with this, never unwinding into the caller.
    WorkerPanic {
        /// Machine whose protocol panicked.
        machine: usize,
    },
    /// Under relaxed delivery, a machine sent a message inside a round it
    /// had promised to stay silent for (see
    /// [`crate::Protocol::quiet_until`]). Promises are load-bearing —
    /// peers already executed rounds on the strength of this one — so the
    /// run aborts instead of delivering the contradicting message.
    PromiseViolated {
        /// Machine that broke its own promise.
        machine: usize,
        /// Round in which the forbidden send happened.
        round: u64,
        /// The silent horizon the machine had promised.
        promised_until: u64,
    },
    /// A machine crashed (fail-stop, injected via
    /// [`crate::config::FaultPlan`]) and the run could not complete
    /// without it: either the protocol's [`crate::Protocol::on_crash`]
    /// salvage hook declined to produce an output for it, or surviving
    /// machines deadlocked waiting for its messages. Callers recover by
    /// retrying over the surviving machines.
    Crashed {
        /// The crashed machine (lowest id when several crashed).
        machine: usize,
        /// The round it was scheduled to crash at (its first unexecuted
        /// round).
        round: u64,
    },
    /// A lossy link dropped one message more than
    /// [`crate::config::FaultPlan::max_retries`] times; the link is
    /// declared down and the run aborts instead of hanging on traffic that
    /// will never arrive.
    LinkDown {
        /// Sending machine of the dead link.
        src: usize,
        /// Receiving machine of the dead link.
        dst: usize,
        /// Round in which the retry budget ran out.
        round: u64,
        /// The exhausted retry budget.
        retries: u32,
    },
    /// The run's [`crate::config::FaultPlan`] / [`crate::config::
    /// RecoveryPlan`] pair is self-contradictory (a loss rate above 100%,
    /// duplicate crash entries for one machine, a rejoin scheduled
    /// at-or-before its crash round, a machine both fail-stopped and
    /// scheduled to rejoin, …). Rejected by every engine before any
    /// protocol executes.
    InvalidPlan {
        /// Human-readable description of the contradiction.
        reason: String,
    },
    /// A scheduled rejoin needs to replay more rounds than the
    /// [`crate::config::RecoveryPlan::retention`] window keeps: the gap
    /// between the machine's last (possible) checkpoint and its rejoin
    /// round exceeds the retained per-link transports.
    CheckpointTooOld {
        /// The rejoining machine.
        machine: usize,
        /// Round of the newest checkpoint the replay could start from.
        checkpoint_round: u64,
        /// The scheduled rejoin round.
        rejoin_round: u64,
        /// The configured retention window the gap exceeds.
        retention: u64,
    },
    /// A message arrived whose chained link-layer integrity digest did not
    /// match the receiver's chain: the payload was corrupted in flight
    /// (injected via [`crate::config::AdversaryPlan::corrupt_links`]).
    /// The run aborts at the first mismatch instead of delivering poisoned
    /// data; callers recover by quarantining the sending machine and
    /// retrying over the survivors.
    IntegrityViolation {
        /// Sending machine of the corrupted link.
        src: usize,
        /// Receiving machine of the corrupted link.
        dst: usize,
        /// Round in which the mismatch was detected at delivery.
        round: u64,
    },
    /// A checkpoint blob failed its integrity seal on restore: the snapshot
    /// was truncated or corrupted between [`crate::Protocol::checkpoint`]
    /// and the rejoin's [`crate::Protocol::restore`]. Surfaced as a typed
    /// error — never a panic, never a silent wrong restore.
    SnapshotCorrupt {
        /// The machine whose rejoin found the bad blob.
        machine: usize,
        /// Round of the checkpoint the blob claimed to be.
        round: u64,
    },
    /// A `KNN_ENGINE` / `KNN_DELIVERY` environment override did not parse.
    /// Surfaced as an error (not a panic) so long-running serving binaries
    /// report a typo instead of aborting.
    BadEnvOverride {
        /// The offending environment variable.
        var: &'static str,
        /// Why its value was rejected.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stalled { round } => {
                write!(
                    f,
                    "protocol stalled at round {round}: no progress and no messages in flight"
                )
            }
            EngineError::MaxRounds { limit } => {
                write!(f, "exceeded the configured round limit ({limit})")
            }
            EngineError::WorkerPanic { machine } => {
                write!(f, "protocol on machine {machine} panicked")
            }
            EngineError::PromiseViolated { machine, round, promised_until } => {
                write!(
                    f,
                    "machine {machine} sent in round {round} after promising silence until \
                     round {promised_until}"
                )
            }
            EngineError::Crashed { machine, round } => {
                write!(f, "machine {machine} crashed at round {round} and the run cannot complete without it")
            }
            EngineError::LinkDown { src, dst, round, retries } => {
                write!(
                    f,
                    "link {src} -> {dst} went down at round {round} after exhausting {retries} \
                     retransmissions"
                )
            }
            EngineError::InvalidPlan { reason } => {
                write!(f, "invalid fault/recovery plan: {reason}")
            }
            EngineError::CheckpointTooOld {
                machine,
                checkpoint_round,
                rejoin_round,
                retention,
            } => {
                write!(
                    f,
                    "machine {machine} cannot rejoin at round {rejoin_round}: its last \
                     checkpoint (round {checkpoint_round}) is outside the {retention}-round \
                     retention window"
                )
            }
            EngineError::IntegrityViolation { src, dst, round } => {
                write!(
                    f,
                    "integrity violation on link {src} -> {dst}: digest mismatch detected at \
                     delivery in round {round}"
                )
            }
            EngineError::SnapshotCorrupt { machine, round } => {
                write!(
                    f,
                    "machine {machine} cannot restore from its round-{round} checkpoint: the \
                     blob failed its integrity seal (truncated or corrupted)"
                )
            }
            EngineError::BadEnvOverride { var, reason } => {
                write!(f, "invalid {var} environment override: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let s = EngineError::Stalled { round: 5 }.to_string();
        assert!(s.contains("round 5"));
        let s = EngineError::MaxRounds { limit: 10 }.to_string();
        assert!(s.contains("10"));
        let s = EngineError::WorkerPanic { machine: 3 }.to_string();
        assert!(s.contains("3"));
        let s =
            EngineError::PromiseViolated { machine: 2, round: 7, promised_until: 12 }.to_string();
        assert!(s.contains("machine 2") && s.contains("round 7") && s.contains("12"));
        let s = EngineError::Crashed { machine: 1, round: 4 }.to_string();
        assert!(s.contains("machine 1") && s.contains("round 4"));
        let s = EngineError::LinkDown { src: 0, dst: 2, round: 9, retries: 3 }.to_string();
        assert!(s.contains("0 -> 2") && s.contains("round 9") && s.contains("3"));
        let s =
            EngineError::BadEnvOverride { var: "KNN_ENGINE", reason: "nope".into() }.to_string();
        assert!(s.contains("KNN_ENGINE") && s.contains("nope"));
        let s = EngineError::InvalidPlan { reason: "duplicate crash".into() }.to_string();
        assert!(s.contains("duplicate crash"));
        let s = EngineError::CheckpointTooOld {
            machine: 2,
            checkpoint_round: 4,
            rejoin_round: 90,
            retention: 64,
        }
        .to_string();
        assert!(s.contains("machine 2") && s.contains("round 90") && s.contains("64"));
        let s = EngineError::IntegrityViolation { src: 1, dst: 3, round: 6 }.to_string();
        assert!(s.contains("1 -> 3") && s.contains("round 6"));
        let s = EngineError::SnapshotCorrupt { machine: 4, round: 8 }.to_string();
        assert!(s.contains("machine 4") && s.contains("round-8"));
    }
}
