//! Execution engines.
//!
//! All engines drive the *same* [`Protocol`](crate::Protocol) code and — for
//! protocols whose behavior is a deterministic function of state, inbox, and
//! the private RNG — produce identical outputs, round counts, and message
//! counts. [`run_sync`] is sequential and scales to thousands of simulated
//! machines; [`run_event`] drops the global round barrier for per-link
//! dependency scheduling on a small worker pool, letting fast machines run
//! rounds ahead of slow ones — the engine to use for wall-clock
//! measurements of batched serving. Both are schedulers over one
//! per-machine step driver, so a machine-round means the same thing in
//! each.

mod driver;
mod event;
mod sync;
#[cfg(test)]
mod testkit;

pub use event::run_event;
pub use sync::run_sync;

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::config::{DeliveryMode, NetConfig};
use crate::error::EngineError;
use crate::metrics::{AuditMetrics, FaultMetrics, RecoveryMetrics, RunMetrics, SkewMetrics};
use crate::protocol::Protocol;

/// Environment variable that, when set, overrides every [`Engine::run`]
/// call's engine choice — `sync`, `event`, or `auto`. Used by CI
/// to force the whole test suite through one engine.
pub const ENGINE_ENV: &str = "KNN_ENGINE";

/// Environment variable that, when set, overrides every [`Engine::run`]
/// call's delivery mode — `exact` or `relaxed`. Used by CI to force the
/// whole test suite through relaxed delivery (answers and metrics are
/// identical by contract; only wall-clock overlap changes).
pub const DELIVERY_ENV: &str = "KNN_DELIVERY";

/// Below this much potential per-round work (`k × per-link budget bits`),
/// [`Engine::Auto`] keeps the sequential engine: rounds are too cheap for
/// cross-thread scheduling to pay for itself.
const AUTO_MIN_ROUND_BITS: u64 = 2048;

/// Result of a completed run.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Per-machine outputs, indexed by machine id.
    pub outputs: Vec<T>,
    /// Exact communication accounting. Identical across engines and
    /// delivery modes for deterministic protocols.
    pub metrics: RunMetrics,
    /// Pipelining evidence of a relaxed event run (max machine skew,
    /// promise counters); empty — [`SkewMetrics::tracked`] is false — for
    /// the sync engine and exact event runs.
    pub skew: SkewMetrics,
    /// Wall-clock time of the run. Physically meaningful for the event
    /// engine; for the sync engine it is simulation CPU time (plus the
    /// slept [`NetConfig::round_latency`], if any).
    pub wall: Duration,
    /// Realized faults of the run (crashed machines, dropped and
    /// retransmitted traffic from the [`crate::config::FaultPlan`]). Like
    /// [`RunOutcome::skew`], this lives outside [`RunMetrics`] — the
    /// engine-equivalence contract covers it separately (same plan, same
    /// faults on every engine), and fault-free runs report it empty.
    pub faults: FaultMetrics,
    /// Realized crash-recoveries of the run (checkpoints taken, rounds
    /// replayed, machines rejoined — from the
    /// [`crate::config::RecoveryPlan`]). Lives outside [`RunMetrics`] like
    /// [`RunOutcome::faults`]: same plan, same recoveries on every engine,
    /// and recovery-free runs report it empty.
    pub recovery: RecoveryMetrics,
    /// Byzantine-audit accounting of the run (link digests verified under an
    /// armed [`crate::config::AdversaryPlan`]; the query layer above adds
    /// its semantic-audit counters on top). Lives outside [`RunMetrics`]
    /// like [`RunOutcome::faults`]: same plan, same counts on every engine,
    /// and adversary-free runs report it empty.
    pub audit: AuditMetrics,
}

/// Which engine to run a protocol on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Deterministic sequential lockstep simulation.
    Sync,
    /// Per-link dependency scheduling on a worker pool — no global barrier;
    /// machines may run up to [`NetConfig::event_window`] rounds apart.
    Event,
    /// Pick sync or event per run from the cluster size, the
    /// per-round payload budget, and the ambient pool size (see
    /// [`Engine::resolve`]).
    Auto,
}

impl Engine {
    /// Resolve [`Engine::Auto`] to a concrete engine for `cfg`; concrete
    /// engines resolve to themselves.
    ///
    /// The policy, in order:
    /// 1. more machines than the event engine supports (65 535) → `Sync`;
    /// 2. an effective pool of one worker (`min(rayon pool, k)`) cannot
    ///    parallelize → `Sync`;
    /// 3. rounds with little potential work — fewer than
    ///    `AUTO_MIN_ROUND_BITS` of `k × per-link budget` payload bits — are
    ///    cheaper to simulate than to schedule → `Sync`;
    /// 4. otherwise → `Event`, the fastest engine wherever parallelism
    ///    exists (it pipelines instead of barriering).
    pub fn resolve(self, cfg: &NetConfig) -> Engine {
        match self {
            Engine::Auto => {
                if cfg.k > event::EVENT_MAX_MACHINES {
                    return Engine::Sync;
                }
                let pool =
                    cfg.event_workers.unwrap_or_else(rayon::current_num_threads).min(cfg.k.max(1));
                if pool <= 1 {
                    return Engine::Sync;
                }
                let per_link = match cfg.bandwidth {
                    crate::config::BandwidthMode::Unlimited => AUTO_MIN_ROUND_BITS,
                    crate::config::BandwidthMode::Enforce { bits_per_round } => bits_per_round,
                };
                if (cfg.k as u64).saturating_mul(per_link) < AUTO_MIN_ROUND_BITS {
                    Engine::Sync
                } else {
                    Engine::Event
                }
            }
            concrete => concrete,
        }
    }

    /// Short stable name for tables, CSV output, and [`ENGINE_ENV`].
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sync => "sync",
            Engine::Event => "event",
            Engine::Auto => "auto",
        }
    }

    /// Run `protocols` (one per machine) under `cfg`.
    ///
    /// The [`ENGINE_ENV`] environment variable, when set, overrides `self`;
    /// [`Engine::Auto`] (from either source) is resolved per run via
    /// [`Engine::resolve`]. The delivery mode is
    /// [`NetConfig::delivery`] unless [`DELIVERY_ENV`] overrides it, with
    /// one guard: an **Auto** engine downgrades relaxed delivery to exact
    /// for protocols that do not opt in ([`Protocol::QUIET_AWARE`]) —
    /// without declared quiet phases, relaxed mode is bookkeeping with no
    /// pipelining to buy. Explicitly chosen engines honor the requested
    /// mode as-is.
    ///
    /// A set-but-unparseable override fails the run with
    /// [`EngineError::BadEnvOverride`] before any protocol executes.
    pub fn run<P: Protocol>(
        self,
        cfg: &NetConfig,
        protocols: Vec<P>,
    ) -> Result<RunOutcome<P::Output>, EngineError> {
        let engine = env_engine()?.unwrap_or(self);
        let delivery =
            effective_delivery(engine, env_delivery()?.unwrap_or(cfg.delivery), P::QUIET_AWARE);
        let relaxed_cfg;
        let cfg = if delivery == cfg.delivery {
            cfg
        } else {
            relaxed_cfg = cfg.clone().with_delivery(delivery);
            &relaxed_cfg
        };
        match engine.resolve(cfg) {
            Engine::Sync => run_sync(cfg, protocols),
            Engine::Event => run_event(cfg, protocols),
            Engine::Auto => unreachable!("resolve() always returns a concrete engine"),
        }
    }
}

/// The delivery mode a run actually uses: `requested`, except that an
/// [`Engine::Auto`] choice keeps exact delivery for protocols that never
/// declare quiet phases (`quiet_aware == false`). Pure so the policy is
/// testable without touching process environment.
fn effective_delivery(engine: Engine, requested: DeliveryMode, quiet_aware: bool) -> DeliveryMode {
    if engine == Engine::Auto && !quiet_aware {
        DeliveryMode::Exact
    } else {
        requested
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sync" => Ok(Engine::Sync),
            "event" => Ok(Engine::Event),
            "auto" => Ok(Engine::Auto),
            "" => Err("empty engine name: expected sync|event|auto".to_string()),
            other => Err(format!("unknown engine {other:?}: expected sync|event|auto")),
        }
    }
}

/// Shared normalization for the [`ENGINE_ENV`] / [`DELIVERY_ENV`]
/// overrides: an unset or whitespace-only variable means "no override"
/// (`Ok(None)`), and anything else must parse — a forced-engine CI run with
/// a typo must fail loudly (with the variants listed), not silently fall
/// back. The failure is a typed [`EngineError::BadEnvOverride`] surfaced
/// through [`Engine::run`], never a panic: library callers embed the engine
/// in long-lived services, and a typo in a deploy environment should be an
/// error they can report, not a process abort (the bench binaries turn it
/// back into a loud exit via `unwrap`/`expect`). Pure in the raw value so
/// the policy is testable without mutating process environment; both
/// FromStr impls trim and lowercase, so `" Event "` and `"RELAXED"` are
/// accepted.
fn parse_env_override<T: std::str::FromStr<Err = String>>(
    var: &'static str,
    raw: &str,
) -> Result<Option<T>, EngineError> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    raw.parse().map(Some).map_err(|reason| EngineError::BadEnvOverride { var, reason })
}

/// The [`ENGINE_ENV`] override, if set (see [`parse_env_override`]).
fn env_engine() -> Result<Option<Engine>, EngineError> {
    match std::env::var(ENGINE_ENV) {
        Ok(raw) => parse_env_override(ENGINE_ENV, &raw),
        Err(_) => Ok(None),
    }
}

/// The [`DELIVERY_ENV`] override, if set (see [`parse_env_override`]).
fn env_delivery() -> Result<Option<DeliveryMode>, EngineError> {
    match std::env::var(DELIVERY_ENV) {
        Ok(raw) => parse_env_override(DELIVERY_ENV, &raw),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthMode;
    use crate::engine::event::EVENT_MAX_MACHINES;

    #[test]
    fn names_round_trip_through_fromstr() {
        for e in [Engine::Sync, Engine::Event, Engine::Auto] {
            assert_eq!(e.name().parse::<Engine>().unwrap(), e);
        }
        let err = "threaded".parse::<Engine>().unwrap_err();
        assert!(err.contains("sync|event|auto"), "threaded is no engine name: {err}");
        assert_eq!(" Event ".parse::<Engine>().unwrap(), Engine::Event);
        assert_eq!("SYNC\n".parse::<Engine>().unwrap(), Engine::Sync);
        let err = "barrier".parse::<Engine>().unwrap_err();
        assert!(err.contains("sync|event|auto"), "error must list the variants: {err}");
        let err = "  ".parse::<Engine>().unwrap_err();
        assert!(err.contains("sync|event|auto"), "empty input lists variants too: {err}");
    }

    #[test]
    fn env_override_parsing_is_normalized() {
        // Unset-like values mean "no override"...
        assert_eq!(parse_env_override::<Engine>(ENGINE_ENV, "").unwrap(), None);
        assert_eq!(parse_env_override::<Engine>(ENGINE_ENV, "  \t").unwrap(), None);
        assert_eq!(parse_env_override::<DeliveryMode>(DELIVERY_ENV, "").unwrap(), None);
        // ...valid values parse case/whitespace-insensitively...
        assert_eq!(parse_env_override(ENGINE_ENV, " Event ").unwrap(), Some(Engine::Event));
        assert_eq!(
            parse_env_override(DELIVERY_ENV, "RELAXED").unwrap(),
            Some(DeliveryMode::Relaxed)
        );
        assert_eq!(parse_env_override(DELIVERY_ENV, "exact\n").unwrap(), Some(DeliveryMode::Exact));
    }

    #[test]
    fn invalid_engine_env_is_a_typed_error() {
        for raw in ["barrier", "threaded"] {
            let err = parse_env_override::<Engine>(ENGINE_ENV, raw).unwrap_err();
            match &err {
                EngineError::BadEnvOverride { var, reason } => {
                    assert_eq!(*var, ENGINE_ENV);
                    assert!(reason.contains("sync|event|auto"), "{reason}");
                }
                other => panic!("expected BadEnvOverride, got {other:?}"),
            }
            assert!(err.to_string().contains("KNN_ENGINE"), "{err}");
        }
    }

    #[test]
    fn invalid_delivery_env_is_a_typed_error() {
        let err = parse_env_override::<DeliveryMode>(DELIVERY_ENV, "lossy").unwrap_err();
        match &err {
            EngineError::BadEnvOverride { var, reason } => {
                assert_eq!(*var, DELIVERY_ENV);
                assert!(reason.contains("exact|relaxed"), "{reason}");
            }
            other => panic!("expected BadEnvOverride, got {other:?}"),
        }
    }

    #[test]
    fn auto_downgrades_relaxed_without_protocol_opt_in() {
        // Auto + a protocol that never declares quiet phases: exact.
        assert_eq!(
            effective_delivery(Engine::Auto, DeliveryMode::Relaxed, false),
            DeliveryMode::Exact
        );
        // Auto + an opted-in protocol keeps the requested mode.
        assert_eq!(
            effective_delivery(Engine::Auto, DeliveryMode::Relaxed, true),
            DeliveryMode::Relaxed
        );
        // Explicit engines honor the request regardless of opt-in.
        for engine in [Engine::Sync, Engine::Event] {
            assert_eq!(
                effective_delivery(engine, DeliveryMode::Relaxed, false),
                DeliveryMode::Relaxed
            );
        }
        // Exact stays exact everywhere.
        assert_eq!(
            effective_delivery(Engine::Auto, DeliveryMode::Exact, true),
            DeliveryMode::Exact
        );
    }

    #[test]
    fn concrete_engines_resolve_to_themselves() {
        let cfg = NetConfig::new(8);
        for e in [Engine::Sync, Engine::Event] {
            assert_eq!(e.resolve(&cfg), e);
        }
    }

    #[test]
    fn auto_policy_picks_by_latency_pool_and_payload() {
        // Latency modeling runs on either engine; it does not steer Auto.
        let latency =
            NetConfig::new(8).with_round_latency(Duration::from_millis(1)).with_event_workers(8);
        assert_eq!(Engine::Auto.resolve(&latency), Engine::Event);
        // Past the event engine's machine limit, Auto stays sequential
        // (resolving is pure: nothing is allocated for the 65 536 machines).
        let huge = NetConfig::new(EVENT_MAX_MACHINES + 1).with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&huge), Engine::Sync);
        let largest = NetConfig::new(EVENT_MAX_MACHINES).with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&largest), Engine::Event);
        // One effective worker cannot parallelize.
        let solo = NetConfig::new(8).with_event_workers(1);
        assert_eq!(Engine::Auto.resolve(&solo), Engine::Sync);
        // Tiny rounds (k × budget below the threshold) stay sequential.
        let tiny = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 })
            .with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&tiny), Engine::Sync);
        // Real per-round work with a real pool goes event-driven.
        let wide = NetConfig::new(8)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 })
            .with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&wide), Engine::Event);
        let unlimited =
            NetConfig::new(8).with_bandwidth(BandwidthMode::Unlimited).with_event_workers(4);
        assert_eq!(Engine::Auto.resolve(&unlimited), Engine::Event);
    }
}
