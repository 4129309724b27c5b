//! Deterministic sequential lockstep engine.

use crate::config::NetConfig;
use crate::engine::driver::{self, Machine, Run, Schedule, Scheduled, Status};
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::message::Envelope;
use crate::metrics::SkewMetrics;
use crate::protocol::Protocol;

/// Execute one protocol instance per machine until every machine has
/// produced its output.
///
/// Each loop iteration is one synchronous round: every still-running machine
/// sees the messages delivered to it this round, performs local computation,
/// and hands new messages to the network; then every link drains at most `B`
/// bits toward the next round. The run is a pure function of
/// `(protocols, cfg.seed)` — useful both for tests and for exact round and
/// message accounting at machine counts far beyond the host's core count.
/// A nonzero [`NetConfig::round_latency`] is slept once per round, so the
/// wall clock models a network with that per-round delay.
///
/// # Panics
/// If `protocols.len() != cfg.k`, or if bandwidth is `Enforce { 0 }`.
pub fn run_sync<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    driver::run(cfg, protocols, &Lockstep)
}

/// The lockstep schedule: machines in id order, then every link, once per
/// round.
pub(crate) struct Lockstep;

impl Schedule for Lockstep {
    fn schedule<'l, P: Protocol>(
        &self,
        run: &Run<'_>,
        mut machines: Vec<Machine<'l, P>>,
    ) -> Result<Scheduled<'l, P>, EngineError> {
        let k = run.k;
        let latency = run.cfg.round_latency;
        // Allocated once per run, so the per-round loop touches no
        // allocator.
        let mut inboxes: Vec<Vec<Envelope<P::Msg>>> =
            (0..k).map(|_| Vec::with_capacity(k)).collect();
        let mut outbox: Vec<Envelope<P::Msg>> = Vec::with_capacity(k);
        let mut late = 0u64;
        let mut done_count = 0usize;
        let mut round: u64 = 0;

        loop {
            if !latency.is_zero() {
                std::thread::sleep(latency);
            }
            let mut sent_any = false;
            let mut progressed = false;
            for (i, (m, inbox)) in machines.iter_mut().zip(&mut inboxes).enumerate() {
                if m.running() {
                    match m.step(i, round, inbox, &mut outbox, run) {
                        Status::Running => {}
                        Status::Done | Status::Crashed => {
                            done_count += 1;
                            progressed = true;
                        }
                        Status::Panicked => return Err(EngineError::WorkerPanic { machine: i }),
                    }
                    sent_any |= m.send(&mut outbox) > 0;
                }
                // What a step did not consume — everything, for a halted or
                // just-crashed machine — arrived after its owner was done.
                late += inbox.len() as u64;
                inbox.clear();
            }

            if done_count == k {
                break;
            }

            // Transport: each busy link drains one round of budget; idle
            // links cost one emptiness check. Destinations outer, sources
            // inner: the first failing link of a round is reported in that
            // order, and each inbox fills in ascending source order.
            let mut delivered_any = false;
            let mut backlog_bits = 0u64;
            for (dst, inbox) in inboxes.iter_mut().enumerate() {
                for (src, m) in machines.iter_mut().enumerate() {
                    if m.link_idle(dst) {
                        continue;
                    }
                    let (delivered, pending) = m.drain(src, dst, round, run, inbox)?;
                    delivered_any |= delivered;
                    backlog_bits += pending;
                }
            }

            if !sent_any
                && !delivered_any
                && !progressed
                && backlog_bits == 0
                && !run.rejoin_pending(round)
            {
                let crashed = machines.iter().position(Machine::crashed);
                return Err(run.stalled(crashed, round));
            }
            round += 1;
            if round > run.cfg.max_rounds {
                return Err(EngineError::MaxRounds { limit: run.cfg.max_rounds });
            }
        }

        Ok(Scheduled {
            machines,
            rounds: round,
            delivered_after_done: late,
            skew: SkewMetrics::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthMode;
    use crate::ctx::Ctx;
    use crate::engine::testkit::{gossip, streams, CrashAwareGossip, WaitForever};
    use crate::protocol::Step;

    #[test]
    fn bandwidth_dictates_round_count() {
        // 64 values of 64 bits over a 128-bit link: 2 values per round,
        // so 32 transport rounds.
        let cfg = NetConfig::new(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let out = run_sync(&cfg, streams(64)).unwrap();
        assert_eq!(out.outputs[1], 64);
        assert_eq!(out.metrics.rounds, 32);
        assert_eq!(out.metrics.messages, 64);
        assert_eq!(out.metrics.bits, 64 * 64);
        assert!(out.metrics.max_link_backlog_bits > 0);
    }

    #[test]
    fn unlimited_bandwidth_is_one_round() {
        let cfg = NetConfig::new(2).with_bandwidth(BandwidthMode::Unlimited);
        let out = run_sync(&cfg, streams(64)).unwrap();
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn stall_is_detected() {
        let cfg = NetConfig::new(3);
        let err = run_sync(&cfg, vec![WaitForever, WaitForever, WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }));
    }

    /// Ping-pong `rounds` times between machines 0 and 1.
    struct PingPong {
        remaining: u64,
    }
    impl Protocol for PingPong {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            let peer = 1 - ctx.id();
            if ctx.id() == 0 && ctx.round() == 0 {
                self.remaining -= 1;
                ctx.send(peer, self.remaining);
                return Step::Continue;
            }
            if let Some(&v) = ctx.first_from(peer) {
                if v == 0 {
                    return Step::Done(ctx.round());
                }
                self.remaining = v - 1;
                ctx.send(peer, self.remaining);
                if self.remaining == 0 {
                    // Sent the final token; it will terminate the peer.
                    return Step::Done(ctx.round());
                }
            }
            Step::Continue
        }
    }

    #[test]
    fn ping_pong_round_count_exact() {
        let cfg = NetConfig::new(2);
        let out =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap();
        // Tokens 5,4,3,2,1,0 are exchanged: 6 messages, each one round apart.
        assert_eq!(out.metrics.messages, 6);
        assert_eq!(out.metrics.rounds, 6);
    }

    #[test]
    fn max_rounds_guard_trips() {
        // Ping-pong needs 6 rounds but we only allow 3.
        let cfg = NetConfig::new(2).with_max_rounds(3);
        let err =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap_err();
        assert_eq!(err, EngineError::MaxRounds { limit: 3 });
    }

    #[test]
    fn all_to_all_broadcast() {
        let k = 8;
        let cfg = NetConfig::new(k);
        let out = run_sync(&cfg, gossip(k)).unwrap();
        let expected: u64 = (0..k as u64).sum();
        for (i, got) in out.outputs.iter().enumerate() {
            assert_eq!(*got + i as u64, expected, "machine {i}");
        }
        assert_eq!(out.metrics.messages, (k * (k - 1)) as u64);
        assert_eq!(out.metrics.rounds, 1);
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let cfg = NetConfig::new(4).with_seed(99);
        let a = run_sync(&cfg, gossip(4)).unwrap();
        let b = run_sync(&cfg, gossip(4)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    use crate::config::FaultPlan;

    #[test]
    fn unsalvageable_crash_fails_collection() {
        // Machine 1 crashes before running at all; Stream has no salvage
        // hook, so the run reports the crash even though machine 0 is done.
        let cfg = NetConfig::new(2).with_faults(FaultPlan::default().with_crash(1, 0));
        let err = run_sync(&cfg, streams(4)).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 1, round: 0 });
    }

    #[test]
    fn deadlock_on_crashed_peer_reports_crashed_not_stalled() {
        // Machine 1 crashes after round 0 and never returns the token;
        // machine 0 waits forever. The stall must be attributed to the
        // crash so callers know retrying over survivors can work.
        let cfg = NetConfig::new(2).with_faults(FaultPlan::default().with_crash(1, 1));
        let err =
            run_sync(&cfg, vec![PingPong { remaining: 6 }, PingPong { remaining: 6 }]).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 1, round: 1 });
    }

    #[test]
    fn salvageable_crash_completes_with_fault_accounting() {
        let k = 3;
        let cfg = NetConfig::new(k).with_faults(FaultPlan::default().with_crash(2, 0));
        let protos = (0..k).map(|_| CrashAwareGossip { acc: 0, heard: vec![false; k] }).collect();
        let out = run_sync(&cfg, protos).unwrap();
        // Machines 0 and 1 heard only each other; machine 2 never ran.
        assert_eq!(out.outputs, vec![1, 0, u64::MAX]);
        assert_eq!(out.faults.crashed, vec![2]);
        assert!(out.faults.any());
    }

    #[test]
    fn lossy_links_retry_to_the_same_answer() {
        let clean_cfg =
            NetConfig::new(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let clean = run_sync(&clean_cfg, streams(64)).unwrap();
        let lossy_cfg = clean_cfg
            .clone()
            .with_faults(FaultPlan::default().with_loss(200, 64).with_fault_seed(5));
        let lossy = run_sync(&lossy_cfg, streams(64)).unwrap();
        assert_eq!(lossy.outputs, clean.outputs, "retries must deliver everything");
        assert!(lossy.faults.dropped_messages > 0, "20% loss over 64 messages drops some");
        assert_eq!(
            lossy.faults.retransmitted_bits,
            lossy.faults.dropped_messages * 64,
            "every drop re-pays the full message"
        );
        // The protocol's bill is unchanged — retransmission is fault-layer
        // bookkeeping — but the retries consume real rounds of bandwidth.
        assert_eq!(lossy.metrics.messages, clean.metrics.messages);
        assert_eq!(lossy.metrics.bits, clean.metrics.bits);
        assert!(lossy.metrics.rounds > clean.metrics.rounds);
    }

    use crate::config::AdversaryPlan;

    #[test]
    fn corrupt_link_surfaces_integrity_violation() {
        let cfg = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_adversary(AdversaryPlan::default().with_corrupt_link(0, 1, 1000));
        let err = run_sync(&cfg, streams(4)).unwrap_err();
        assert!(
            matches!(err, EngineError::IntegrityViolation { src: 0, dst: 1, .. }),
            "guaranteed corruption must be detected at delivery: {err:?}"
        );
    }

    #[test]
    fn armed_but_clean_run_verifies_every_delivery() {
        // A plan with a 0‰ corrupt link still arms the digest machinery:
        // every delivered message is verified, none violate.
        let cfg =
            NetConfig::new(2).with_adversary(AdversaryPlan::default().with_corrupt_link(0, 1, 0));
        let out = run_sync(&cfg, streams(8)).unwrap();
        assert_eq!(out.outputs[1], 8);
        assert_eq!(out.audit.digests_verified, 8);
        assert_eq!(out.audit.integrity_violations, 0);
        // An unarmed run reports an empty audit block.
        let clean = run_sync(&NetConfig::new(2), streams(8)).unwrap();
        assert!(!clean.audit.any());
    }

    #[test]
    fn retry_exhaustion_surfaces_as_link_down() {
        let cfg = NetConfig::new(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(1000, 2));
        let err = run_sync(&cfg, streams(4)).unwrap_err();
        assert_eq!(err, EngineError::LinkDown { src: 0, dst: 1, round: 1, retries: 2 });
    }
}
