//! The protocol trait: distributed algorithms as per-machine state machines.

use crate::ctx::Ctx;
use crate::payload::Payload;

/// Result of one round of execution on one machine.
#[derive(Debug)]
pub enum Step<T> {
    /// Keep running; the engine will call `on_round` again next round.
    Continue,
    /// This machine is finished and yields its local output. The engine
    /// stops scheduling it; late messages addressed to it are discarded
    /// (and counted in [`crate::RunMetrics::delivered_after_done`]).
    Done(T),
}

/// A distributed algorithm written from the point of view of one machine.
///
/// The engines call [`Protocol::on_round`] once per synchronous round, with
/// round 0 having an empty inbox (the "initial" round in which first sends
/// happen). Protocol code must be a deterministic function of its own state,
/// the inbox contents, and the private RNG — both engines then produce
/// bit-identical executions.
pub trait Protocol: Send {
    /// Message type exchanged by this protocol.
    type Msg: Payload;
    /// Per-machine output.
    type Output: Send;

    /// Whether this protocol declares meaningful silent horizons through
    /// [`Protocol::quiet_until`]. [`crate::Engine::Auto`] upgrades to
    /// relaxed delivery only for opted-in protocols — without the hook,
    /// relaxed mode adds promise bookkeeping that only pays off in narrow
    /// end-of-run windows. Explicitly requested engines honor
    /// [`crate::config::NetConfig::delivery`] regardless of this flag.
    const QUIET_AWARE: bool = false;

    /// Execute one round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Step<Self::Output>;

    /// Declare a silent horizon: `Some(q)` promises that this machine will
    /// not hand **any** message to the network in any round `< q`, *no
    /// matter what it receives in the meantime* (`u64::MAX`: never again).
    ///
    /// The relaxed-delivery event engine ([`crate::config::DeliveryMode::
    /// Relaxed`]) consults this after every non-final round; once the
    /// machine's outbound backlog drains, the promise lets peers execute
    /// rounds up to `q` without waiting for this machine's (empty)
    /// transports. Promises are monotone — they can be extended, never
    /// revoked — and a send inside a promised window aborts the run with
    /// [`crate::EngineError::PromiseViolated`]. The default declares
    /// nothing; the sync engine never calls this.
    fn quiet_until(&self) -> Option<u64> {
        None
    }

    /// Salvage hook for fail-stop crash injection (see
    /// [`crate::config::FaultPlan::crashes`]): called exactly once, in
    /// place of the `on_round` the machine was scheduled to crash at.
    /// Returning `Some(output)` lets the run complete with whatever the
    /// machine can still account for (e.g. "my shard contributes
    /// nothing"); the machine then behaves like a done machine — its
    /// earlier sends keep draining, late arrivals are discarded. Returning
    /// `None` (the default) means the run cannot produce this machine's
    /// output, and collection fails with [`crate::EngineError::Crashed`]
    /// so callers can retry over the survivors.
    fn on_crash(&mut self) -> Option<Self::Output> {
        None
    }

    /// Serialize this machine's protocol state for crash-recovery (see
    /// [`crate::config::RecoveryPlan`]). Called at the top of a round,
    /// before that round executes; the blob must capture everything
    /// [`Protocol::restore`] needs to resume from exactly that point.
    ///
    /// Returning `None` (the default) means the state is not serializable
    /// right now — a scheduled rejoin that finds no usable checkpoint fails
    /// loudly with [`crate::EngineError::Crashed`] rather than silently
    /// degrading to a permanent fail-stop (the one exception: a machine
    /// that crashes at round 0 never executed, so its untouched instance
    /// rejoins from the implicit pristine snapshot even without this hook).
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Rebuild this instance's state from a blob produced by
    /// [`Protocol::checkpoint`], discarding whatever state it currently
    /// holds. Returns whether the restore succeeded; `false` (the default)
    /// marks the rejoin unsupported and the run fails with
    /// [`crate::EngineError::Crashed`].
    fn restore(&mut self, _blob: &[u8]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Protocol for Nop {
        type Msg = ();
        type Output = u8;
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<u8> {
            Step::Done(9)
        }
    }

    #[test]
    fn trait_is_object_safe_enough_for_generics() {
        // Compile-time check that a trivial protocol satisfies the bounds.
        fn assert_protocol<P: Protocol>(_p: P) {}
        assert_protocol(Nop);
    }

    #[test]
    fn quiet_hook_defaults_to_no_promise() {
        assert_eq!(Nop.quiet_until(), None);
        const _: () = assert!(!Nop::QUIET_AWARE, "default is opted out");
    }

    #[test]
    fn crash_hook_defaults_to_unsalvageable() {
        assert_eq!(Nop.on_crash(), None);
    }

    #[test]
    fn checkpoint_hooks_default_to_unsupported() {
        assert_eq!(Nop.checkpoint(), None);
        assert!(!Nop.restore(&[1, 2, 3]));
    }
}
