//! The per-machine step driver both engines share.
//!
//! An engine is a *scheduler*: it decides when each machine executes which
//! round and how a transport reaches its destination. Everything a machine
//! does inside a round is engine-independent and lives here, once:
//!
//! * the run entry — plan validation, the crash-recovery wrapper, the
//!   dense link lattice with one row per sending machine, and the
//!   recovered-run finish ([`run`]);
//! * one machine-round — the crash horizon and its salvage hook, the
//!   [`Ctx`] build, and the protocol step with its panic caught
//!   ([`Machine::step`]);
//! * send accounting, per tag included ([`Machine::send`]);
//! * one link's drain with its integrity and liveness checks
//!   ([`Machine::drain`]);
//! * collection — the link counters folded into [`FaultMetrics`] and
//!   [`AuditMetrics`], and the outputs or the crash report.
//!
//! Because both engines step machines through the same code, the outcome
//! contract (identical outputs, [`RunMetrics`], faults, and errors) only
//! has to hold for the schedulers' ordering, not for duplicated logic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;

use crate::config::NetConfig;
use crate::ctx::{AdversaryCtx, Ctx};
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::link::{IntegrityConfig, LinkFifo, LossConfig};
use crate::message::{Envelope, MachineId};
use crate::metrics::{AuditMetrics, FaultMetrics, RunMetrics, SkewMetrics, TagMetrics};
use crate::payload::Payload;
use crate::protocol::{Protocol, Step};
use crate::recovery::{self, RecoveryShared};
use crate::rng::machine_rng;

/// A scheduler: drives every machine of a run to completion (or to the
/// first error) and reports what only the schedule knows.
pub(crate) trait Schedule {
    /// Run `machines` under `run`.
    fn schedule<'l, P: Protocol>(
        &self,
        run: &Run<'_>,
        machines: Vec<Machine<'l, P>>,
    ) -> Result<Scheduled<'l, P>, EngineError>;
}

/// What a completed schedule hands back for collection.
pub(crate) struct Scheduled<'l, P: Protocol> {
    /// The machines, indexed by id.
    pub(crate) machines: Vec<Machine<'l, P>>,
    /// [`RunMetrics::rounds`]: the last round any machine executed.
    pub(crate) rounds: u64,
    /// [`RunMetrics::delivered_after_done`].
    pub(crate) delivered_after_done: u64,
    /// Pipelining evidence (empty for lockstep schedules).
    pub(crate) skew: SkewMetrics,
}

/// Read-only state of one run, shared by every machine.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a NetConfig,
    pub(crate) k: usize,
    /// Per-link bandwidth budget per round.
    pub(crate) budget: u64,
    /// Per-machine fail-stop horizons from the fault plan (`u64::MAX`:
    /// never crashes).
    crash_rounds: Vec<u64>,
    /// Per-machine rejoin horizons from the recovery plan (`u64::MAX`:
    /// never scheduled).
    rejoin_rounds: Vec<u64>,
    /// Byzantine lying context when the adversary plan has liars or
    /// equivocators (`None` otherwise — the honest hot path pays one
    /// `Option` check per send).
    adversary: Option<AdversaryCtx>,
    /// Shared rejoin state when a recovery plan is active.
    recovering: Option<&'a RecoveryShared>,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a NetConfig, recovering: Option<&'a RecoveryShared>) -> Self {
        let budget = cfg.bandwidth.budget();
        assert!(budget >= 1, "bandwidth must allow at least 1 bit per round");
        Run {
            cfg,
            k: cfg.k,
            budget,
            crash_rounds: (0..cfg.k).map(|i| cfg.faults.crash_round(i)).collect(),
            rejoin_rounds: recovery::rejoin_horizons(cfg),
            adversary: AdversaryCtx::from_plan(&cfg.adversary, cfg.k),
            recovering,
        }
    }

    /// Whether a quiet round is legitimately idle: a scheduled rejoin is
    /// still ahead, so the rejoining machine's deferred sends will arrive
    /// (`max_rounds` still bounds the wait). A *failed* rejoin clears the
    /// pending flag, so its recorded error surfaces through the stall.
    pub(crate) fn rejoin_pending(&self, round: u64) -> bool {
        self.recovering.is_some_and(|rec| rec.pending_at(round))
    }

    /// The error a quiet, unfinished cluster reports at `round`. Survivors
    /// deadlocked waiting for a crashed peer report the crash (the lowest
    /// crashed machine), not the stall, so callers know a retry over the
    /// survivors can succeed.
    pub(crate) fn stalled(&self, lowest_crashed: Option<MachineId>, round: u64) -> EngineError {
        match lowest_crashed {
            Some(machine) => self.crashed(machine),
            None => EngineError::Stalled { round },
        }
    }

    fn crashed(&self, machine: MachineId) -> EngineError {
        EngineError::Crashed { machine, round: self.crash_rounds[machine] }
    }
}

/// Validate the plans, wrap the protocols when a recovery plan is active,
/// schedule, and collect the outcome.
pub(crate) fn run<P: Protocol, S: Schedule>(
    cfg: &NetConfig,
    protocols: Vec<P>,
    scheduler: &S,
) -> Result<RunOutcome<P::Output>, EngineError> {
    recovery::validate(cfg)?;
    if cfg.recovery.is_empty() {
        return execute(cfg, protocols, scheduler, None);
    }
    let (wrapped, state) = recovery::wrap(cfg, protocols);
    recovery::finish(execute(cfg, wrapped, scheduler, Some(&state)), &state)
}

fn execute<P: Protocol, S: Schedule>(
    cfg: &NetConfig,
    protocols: Vec<P>,
    scheduler: &S,
    recovering: Option<&RecoveryShared>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    let k = protocols.len();
    assert_eq!(k, cfg.k, "protocol count {} != cfg.k {}", k, cfg.k);
    let run = Run::new(cfg, recovering);
    // Dense link lattice, allocated once per run: row `src` holds the
    // FIFOs of the ordered links `src → dst`, and each machine owns its
    // row. Memory is O(k²) FIFO headers.
    let mut links: Vec<LinkFifo<P::Msg>> =
        (0..k * k).map(|idx| build_link(cfg, idx / k, idx % k)).collect();
    let machines = protocols
        .into_iter()
        .zip(links.chunks_mut(k.max(1)))
        .enumerate()
        .map(|(id, (proto, row))| Machine::new(cfg, id, proto, row))
        .collect();
    let start = Instant::now();
    let scheduled = scheduler.schedule(&run, machines)?;
    let wall = start.elapsed();
    collect(&run, scheduled, wall)
}

/// Fold the machines' accounts into the outcome.
fn collect<P: Protocol>(
    run: &Run<'_>,
    scheduled: Scheduled<'_, P>,
    wall: std::time::Duration,
) -> Result<RunOutcome<P::Output>, EngineError> {
    let mut metrics = RunMetrics::new(run.k);
    metrics.rounds = scheduled.rounds;
    metrics.delivered_after_done = scheduled.delivered_after_done;
    let mut faults = FaultMetrics::default();
    let mut audit = AuditMetrics::default();
    let mut hole = None;
    for (i, m) in scheduled.machines.iter().enumerate() {
        for link in m.links.iter() {
            faults.dropped_messages += link.dropped();
            faults.retransmitted_bits += link.retransmitted_bits();
            audit.digests_verified += link.digests_verified();
        }
        let mine = &m.account;
        metrics.messages += mine.messages;
        metrics.bits += mine.bits;
        metrics.sends_per_machine[i] = mine.messages;
        metrics.max_link_backlog_bits =
            metrics.max_link_backlog_bits.max(mine.max_link_backlog_bits);
        if metrics.per_tag.len() < mine.per_tag.len() {
            metrics.per_tag.resize(mine.per_tag.len(), TagMetrics::default());
        }
        for (total, tag) in metrics.per_tag.iter_mut().zip(&mine.per_tag) {
            total.messages += tag.messages;
            total.bits += tag.bits;
        }
        if m.status == Status::Crashed {
            faults.crashed.push(i);
        }
        if m.output.is_none() {
            hole = hole.or(Some(i));
        }
    }
    // A crashed machine whose salvage hook declined leaves a hole no output
    // can fill: collection fails with the (deterministic) crash report.
    if let Some(hole) = hole {
        return Err(match faults.crashed.first() {
            Some(&machine) => run.crashed(machine),
            None => EngineError::WorkerPanic { machine: hole },
        });
    }
    Ok(RunOutcome {
        outputs: scheduled.machines.into_iter().filter_map(|m| m.output).collect(),
        metrics,
        skew: scheduled.skew,
        wall,
        faults,
        recovery: crate::metrics::RecoveryMetrics::default(),
        audit,
    })
}

/// One link `src → dst`, lossy when the fault plan says so and
/// integrity-armed when an [`crate::config::AdversaryPlan`] is active, so
/// the loss and corruption processes are keyed identically in every engine.
fn build_link<M>(cfg: &NetConfig, src: usize, dst: usize) -> LinkFifo<M> {
    let link = if cfg.faults.loss_per_mille == 0 {
        LinkFifo::default()
    } else {
        LinkFifo::lossy(LossConfig {
            per_mille: cfg.faults.loss_per_mille,
            max_retries: cfg.faults.max_retries,
            seed: cfg.faults.fault_seed,
            src,
            dst,
        })
    };
    if cfg.adversary.is_empty() {
        link
    } else {
        link.with_integrity(IntegrityConfig {
            corrupt_per_mille: cfg.adversary.corrupt_per_mille(src, dst),
            seed: cfg.adversary.adversary_seed,
            src,
            dst,
        })
    }
}

/// Where a machine stands; [`Machine::step`] returns the new status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Still scheduled.
    Running,
    /// The protocol produced its output.
    Done,
    /// The machine reached its crash horizon and did not execute.
    Crashed,
    /// The protocol panicked; the run must fail with
    /// [`EngineError::WorkerPanic`].
    Panicked,
}

/// One machine: its protocol, determinism state, outbound link row, and
/// send accounts (folded once at collection — the hot path touches no
/// shared counters).
pub(crate) struct Machine<'l, P: Protocol> {
    proto: P,
    rng: StdRng,
    seq: u64,
    /// Outbound FIFO toward each destination (`links[id]` stays empty —
    /// the model has no self-loops): this machine's row of the lattice.
    links: &'l mut [LinkFifo<P::Msg>],
    status: Status,
    output: Option<P::Output>,
    /// This machine's messages, bits, per-tag totals, and largest link
    /// backlog (`sends_per_machine` stays empty).
    account: RunMetrics,
}

impl<'l, P: Protocol> Machine<'l, P> {
    fn new(cfg: &NetConfig, id: MachineId, proto: P, links: &'l mut [LinkFifo<P::Msg>]) -> Self {
        Machine {
            proto,
            rng: machine_rng(cfg.seed, id),
            seq: 0,
            links,
            status: Status::Running,
            output: None,
            account: RunMetrics::default(),
        }
    }

    /// Whether the machine is still scheduled. A done, crashed, or
    /// panicked machine only cycles: its backlog keeps draining and its
    /// late arrivals are discarded.
    pub(crate) fn running(&self) -> bool {
        self.status == Status::Running
    }

    /// Whether the machine fail-stopped at its crash horizon.
    pub(crate) fn crashed(&self) -> bool {
        self.status == Status::Crashed
    }

    /// The protocol's declared silent horizon (see
    /// [`Protocol::quiet_until`]).
    pub(crate) fn quiet_until(&self) -> Option<u64> {
        self.proto.quiet_until()
    }

    /// Execute round `round` of running machine `id` on `inbox`, the
    /// messages delivered to it this round; its sends collect in the empty
    /// `outbox` for [`Machine::send`]. A machine at its crash horizon
    /// fail-stops instead: it never executes the round, its salvage hook
    /// may still account for its output, and `inbox` is left for the
    /// caller to bill as late. A protocol panic is caught here and halts
    /// the machine; its partial sends are dropped.
    pub(crate) fn step(
        &mut self,
        id: MachineId,
        round: u64,
        inbox: &mut Vec<Envelope<P::Msg>>,
        outbox: &mut Vec<Envelope<P::Msg>>,
        run: &Run<'_>,
    ) -> Status {
        debug_assert!(self.running(), "only running machines step");
        if round >= run.crash_rounds[id] {
            self.output = self.proto.on_crash();
            self.status = Status::Crashed;
            return self.status;
        }
        // Keys (src, seq) are unique per delivery, so stability buys
        // nothing — unstable sort avoids the temp-buffer allocation.
        inbox.sort_unstable_by_key(|e| (e.src, e.seq));
        let mut ctx = Ctx {
            id,
            k: run.k,
            round,
            inbox,
            outbox,
            rng: &mut self.rng,
            next_seq: &mut self.seq,
            crash_rounds: &run.crash_rounds,
            rejoin_rounds: &run.rejoin_rounds,
            adversary: run.adversary.as_ref(),
        };
        let step = catch_unwind(AssertUnwindSafe(|| self.proto.on_round(&mut ctx)));
        inbox.clear();
        match step {
            Ok(Step::Continue) => {}
            Ok(Step::Done(out)) => {
                self.output = Some(out);
                self.status = Status::Done;
            }
            Err(_) => {
                outbox.clear();
                self.status = Status::Panicked;
            }
        }
        self.status
    }

    /// Hand the last step's sends, drained from `outbox`, to the outbound
    /// links, billing each to this machine and to its multiplexing tag.
    /// Returns how many were sent.
    pub(crate) fn send(&mut self, outbox: &mut Vec<Envelope<P::Msg>>) -> u64 {
        let sent = outbox.len() as u64;
        for env in outbox.drain(..) {
            let bits = env.msg.size_bits().max(1);
            self.account.messages += 1;
            self.account.bits += bits;
            if let Some(tag) = env.msg.mux_tag() {
                self.account.on_tagged(tag, bits);
            }
            self.links[env.dst].push(env, bits);
        }
        sent
    }

    /// Whether the link toward `dst` has nothing to transmit (an idle link
    /// costs one emptiness check per round).
    pub(crate) fn link_idle(&self, dst: MachineId) -> bool {
        self.links[dst].is_empty()
    }

    /// Drain one round of budget from machine `id`'s link toward `dst`
    /// into `out`, then check the link: a digest mismatch or an exhausted
    /// retry budget fails the run with the typed fault. Returns whether
    /// anything was delivered and the bits still queued on the link.
    pub(crate) fn drain(
        &mut self,
        id: MachineId,
        dst: MachineId,
        round: u64,
        run: &Run<'_>,
        out: &mut Vec<Envelope<P::Msg>>,
    ) -> Result<(bool, u64), EngineError> {
        let link = &mut self.links[dst];
        let before = out.len();
        link.drain_round(run.budget, out);
        if link.integrity_violated() {
            return Err(EngineError::IntegrityViolation { src: id, dst, round });
        }
        if link.is_down() {
            return Err(EngineError::LinkDown {
                src: id,
                dst,
                round,
                retries: run.cfg.faults.max_retries,
            });
        }
        let pending = link.pending_bits();
        let max = &mut self.account.max_link_backlog_bits;
        *max = (*max).max(pending);
        Ok((out.len() > before, pending))
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::{BandwidthMode, FaultPlan};
    use crate::engine::testkit::{streams, PanicsOnRoundOne, WaitForever};
    use crate::engine::{run_event, run_sync};

    /// Every schedule the driver runs under: sync, the event engine's
    /// one-worker path, and its concurrent scheduler.
    fn engines(cfg: &NetConfig) -> [(&'static str, NetConfig); 3] {
        [
            ("sync", cfg.clone()),
            ("event@1", cfg.clone().with_event_workers(1)),
            ("event@2", cfg.clone().with_event_workers(2)),
        ]
    }

    fn run_on<P: Protocol>(
        name: &str,
        cfg: &NetConfig,
        protocols: Vec<P>,
    ) -> Result<RunOutcome<P::Output>, EngineError> {
        if name == "sync" {
            run_sync(cfg, protocols)
        } else {
            run_event(cfg, protocols)
        }
    }

    #[test]
    fn worker_panic_is_reported_not_hung() {
        for (name, cfg) in engines(&NetConfig::new(2)) {
            let err = run_on(name, &cfg, vec![PanicsOnRoundOne, PanicsOnRoundOne]).unwrap_err();
            assert_eq!(err, EngineError::WorkerPanic { machine: 1 }, "{name}");
        }
    }

    #[test]
    fn unsalvageable_crash_reported_identically_to_sync() {
        let cfg = NetConfig::new(2).with_faults(FaultPlan::default().with_crash(1, 0));
        for (name, cfg) in engines(&cfg) {
            let err = run_on(name, &cfg, streams(4)).unwrap_err();
            assert_eq!(err, EngineError::Crashed { machine: 1, round: 0 }, "{name}");
        }
    }

    #[test]
    fn round_latency_slows_wall_clock() {
        let latency = Duration::from_millis(2);
        let base = NetConfig::new(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let want = run_sync(&base, streams(8)).unwrap();
        assert_eq!(want.metrics.rounds, 4, "8 words over a 2-word link");
        for (name, cfg) in engines(&base.with_round_latency(latency)) {
            let got = run_on(name, &cfg, streams(8)).unwrap();
            assert!(
                got.wall >= latency * got.metrics.rounds as u32,
                "{name}: {} rounds in {:?}",
                got.metrics.rounds,
                got.wall
            );
            assert_eq!(got.outputs, want.outputs, "{name}");
            assert_eq!(got.metrics, want.metrics, "{name}");
        }
    }

    #[test]
    fn event_engine_rejects_more_machines_than_it_can_count() {
        // Zero-sized protocols: the vector itself allocates nothing, and
        // the engine must refuse before building any per-machine state.
        let k = crate::engine::event::EVENT_MAX_MACHINES + 1;
        let protocols: Vec<WaitForever> = (0..k).map(|_| WaitForever).collect();
        let err = run_event(&NetConfig::new(k).with_event_workers(2), protocols).unwrap_err();
        assert!(
            matches!(&err, EngineError::InvalidPlan { reason } if reason.contains("65535")),
            "{err:?}"
        );
    }
}
