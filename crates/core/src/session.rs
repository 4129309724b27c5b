//! Batched query serving: one leader election, one engine run per batch,
//! indexed local candidate generation.
//!
//! [`crate::runner::run_query`] models the paper's *per-query* cost
//! exactly: every call elects a leader, builds k fresh protocol instances,
//! and scans every shard. A serving system answering a stream of queries
//! against one loaded cluster (the paper's own §3 experimental setup, and
//! the PANDA \[14\] amortization argument) should pay none of that per
//! query — which is what [`QuerySession`] provides:
//!
//! * the **leader is elected once per session** and reused by every query;
//! * a batch of m queries runs as **one engine run**: each machine
//!   multiplexes m protocol instances over its links via
//!   [`kmachine::mux::MuxProtocol`], so the per-run fixed rounds (round-0
//!   scheduling, completion broadcasts) are paid once and the instances
//!   pipeline through the shared bandwidth;
//! * local candidate generation goes through the **per-shard indices**
//!   ([`crate::local::ShardIndex`]: exact structures or the approximate NSW
//!   graph, built at load and kept current by
//!   [`crate::cluster::KnnCluster::insert`]) — `O(ℓ log n)` per query
//!   instead of the `O(n)` full scan.
//!
//! Per-query costs stay observable: message/bit totals are attributed by
//! query tag ([`kmachine::RunMetrics::per_tag`]) and each query reports the
//! round in which it completed.
//!
//! The engine is whatever the session's [`QueryOptions`] request — including
//! [`kmachine::Engine::Event`], which runs the batch without any global
//! round barrier (machines synchronize only against their slowest peer's
//! previous round), and [`kmachine::Engine::Auto`], which picks an engine
//! per batch. With [`kmachine::DeliveryMode::Relaxed`] the event engine
//! additionally pipelines machines several rounds past quiet peers
//! (reported via [`BatchOutcome::skew`]). Answers and metrics are engine-
//! and delivery-invariant.

use std::time::Duration;

use kmachine::mux::{MuxOutput, MuxProtocol};
use kmachine::{
    AuditMetrics, EngineError, FaultMetrics, MachineId, Protocol, RecoveryMetrics, RunMetrics,
    SkewMetrics, TagMetrics,
};
use knn_points::{Dataset, DistKey, Metric};

use crate::audit;
use crate::error::CoreError;
use crate::local::{IndexedPoint, ShardIndex};
use crate::protocols::approx::ApproxKnnProtocol;
use crate::protocols::binsearch::BinSearchProtocol;
use crate::protocols::knn::{KeySource, KnnProtocol, KnnStats};
use crate::protocols::saukas_song::SaukasSongProtocol;
use crate::protocols::simple::SimpleProtocol;
use crate::runner::{elect, Algorithm, QueryOptions, RetryState};

/// Per-query result inside a batch, before point resolution.
#[derive(Debug, Clone)]
pub struct BatchQueryOutcome {
    /// Per-machine answer keys (machine `i`'s members of the ℓ-NN set).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Messages attributed to this query's tag.
    pub messages: u64,
    /// Bits attributed to this query's tag (tag framing included).
    pub bits: u64,
    /// Round of the batch run in which this query completed (max over
    /// machines).
    pub done_round: u64,
    /// Algorithm 2 diagnostics (`None` for the baselines and approx).
    pub stats: Option<KnnStats>,
    /// Approx path only: global survivor total.
    pub approx_total: Option<u64>,
    /// Approx path only: whether the survivor set provably contains the
    /// exact ℓ-NN.
    pub contains_exact: Option<bool>,
    /// Which engine run answered this query (1 = the batch's first run).
    /// Greater than 1 marks a query that was lost to a crash and re-run on
    /// the surviving topology.
    pub attempts: u32,
    /// True when this query's answer needed recovery: it was re-planned
    /// onto survivors after a crash took its first answer with it.
    pub recovered: bool,
}

/// Result of one batched run of m queries.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query outcomes, in input order.
    pub queries: Vec<BatchQueryOutcome>,
    /// Aggregate communication costs of the whole batch run (one engine
    /// run; `per_tag` splits messages/bits by query).
    pub metrics: RunMetrics,
    /// Pipelining evidence when the batch ran under relaxed delivery on
    /// the event engine (machine skew, promise counters); empty otherwise.
    pub skew: SkewMetrics,
    /// Wall-clock time of the batch run.
    pub wall: Duration,
    /// The leader that coordinated every query of this batch. Normally the
    /// session leader; differs when the session leader crashed during the
    /// batch and the run re-elected over the survivors.
    pub leader: MachineId,
    /// Cost of the session's one-time election (`None` under
    /// [`crate::runner::ElectionKind::Fixed`]); identical for every batch
    /// of the session — it is *not* re-paid per batch.
    pub election_metrics: Option<RunMetrics>,
    /// True when the batch's answers may be missing candidates: one or
    /// more shards crashed (salvaged in-run or excluded by a retry) and
    /// every query was answered by the survivors.
    pub degraded: bool,
    /// Shards whose candidates actually reached the selection
    /// (`== k` on a healthy batch).
    pub shards_used: usize,
    /// Realized faults of the (final) batch run.
    pub faults: FaultMetrics,
    /// True when the batch needed recovery machinery: a crash retry, a
    /// re-planned subset of lost queries, or a checkpoint-restored rejoin.
    pub recovered: bool,
    /// Engine runs this batch took (1 on a healthy batch). Re-planning
    /// after a partial loss counts like a full retry.
    pub attempts: u32,
    /// Rounds re-executed from checkpoints during rejoins, summed over
    /// every engine run of the batch.
    pub replayed_rounds: u64,
    /// Checkpoint/rejoin accounting of the final engine run.
    pub recovery: RecoveryMetrics,
    /// Byzantine-audit accounting summed over every engine run of the
    /// batch: digests verified, integrity violations caught, per-query
    /// semantic audits executed, and suspects quarantined. Empty on
    /// adversary-free batches; identical on every engine and pool size.
    pub audit: AuditMetrics,
}

/// How one protocol instance is wired into a (possibly degraded) batch
/// run: `id`, `k`, and `leader` are positions in the run's surviving
/// subset; `shard` is the original shard the instance draws candidates
/// from.
#[derive(Clone, Copy)]
struct Wiring {
    id: usize,
    shard: usize,
    k: usize,
    leader: MachineId,
}

/// Extractor for protocols whose per-machine output already *is* the answer
/// key vector (Simple, Saukas–Song, BinSearch). Extractors take the mux
/// outputs by `&mut` so they can move the answer vectors out instead of
/// cloning them; they are only called for queries that completed on every
/// machine (no crash holes), so the `Option` unwraps are guaranteed.
fn plain_keys(
    outs: &mut [MuxOutput<Vec<DistKey>>],
    j: usize,
    _leader: MachineId,
) -> (Vec<Vec<DistKey>>, Option<KnnStats>, Option<u64>, Option<bool>) {
    (
        outs.iter_mut()
            .map(|m| m.outputs[j].take().expect("query completed on every machine"))
            .collect(),
        None,
        None,
        None,
    )
}

/// A serving session over a loaded, indexed cluster: elects the leader once
/// and answers query batches until dropped.
///
/// Borrowing the shards and indices keeps the session zero-copy; create one
/// with [`QuerySession::new`] or through
/// [`crate::cluster::KnnCluster::session`].
#[derive(Debug)]
pub struct QuerySession<'a, P: IndexedPoint> {
    shards: &'a [Dataset<P>],
    indices: &'a [ShardIndex<P>],
    opts: QueryOptions,
    leader: MachineId,
    election_metrics: Option<RunMetrics>,
}

impl<'a, P: IndexedPoint> QuerySession<'a, P> {
    /// Open a session: validate the layout and elect the leader (the only
    /// election this session will ever run). Fails with
    /// [`CoreError::EmptyCluster`] for no shards and
    /// [`CoreError::ShardCount`] unless there is one index per shard.
    pub fn new(
        shards: &'a [Dataset<P>],
        indices: &'a [ShardIndex<P>],
        opts: QueryOptions,
    ) -> Result<Self, CoreError> {
        if shards.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        if indices.len() != shards.len() {
            return Err(CoreError::ShardCount { expected: shards.len(), got: indices.len() });
        }
        let (leader, election_metrics) = elect(shards.len(), &opts)?;
        Ok(QuerySession { shards, indices, opts, leader, election_metrics })
    }

    /// The session leader.
    pub fn leader(&self) -> MachineId {
        self.leader
    }

    /// Cost of the session's one-time election.
    pub fn election_metrics(&self) -> Option<&RunMetrics> {
        self.election_metrics.as_ref()
    }

    /// The options this session runs with.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// This machine's indexed top-ℓ candidate source for one query. Under
    /// an adversary plan, a round-0 liar (or equivocator) perturbs the
    /// candidates it materializes — the same pure seeded lie the sequential
    /// path injects, keyed on the original machine id.
    fn source<'b>(&'b self, machine: usize, query: &'b P, ell: usize) -> KeySource<'b, DistKey> {
        let records = &self.shards[machine].records;
        let index = &self.indices[machine];
        let metric: Metric = self.opts.metric;
        let lying = self.opts.lies_at_source(machine);
        let adv_seed = self.opts.adversary.adversary_seed;
        Box::new(move || {
            let keys = index.top(records, query, ell, metric);
            if lying {
                audit::perturb_input(keys, adv_seed, machine)
            } else {
                keys
            }
        })
    }

    /// This machine's indexed top-ℓ candidate source with no adversarial
    /// perturbation. The approx path uses it: superset answers are not the
    /// exact partition the audit certifies, so no lies are injected there.
    fn source_honest<'b>(
        &'b self,
        machine: usize,
        query: &'b P,
        ell: usize,
    ) -> KeySource<'b, DistKey> {
        let records = &self.shards[machine].records;
        let index = &self.indices[machine];
        let metric: Metric = self.opts.metric;
        Box::new(move || index.top(records, query, ell, metric))
    }

    /// Answer `queries` (all at the same ℓ) in **one engine run** with
    /// `algorithm`, multiplexing one protocol instance per query on every
    /// machine. Answers are exactly what sequential
    /// [`crate::runner::run_query`] calls would return.
    pub fn run_batch(
        &self,
        queries: &[P],
        ell: usize,
        algorithm: Algorithm,
    ) -> Result<BatchOutcome, CoreError> {
        let ell64 = ell as u64;
        match algorithm {
            Algorithm::Knn => self.run_mux(
                queries,
                Some(ell),
                |w: Wiring, q| {
                    KnnProtocol::new(w.id, w.k, w.leader, ell64, self.opts.params, {
                        self.source(w.shard, q, ell)
                    })
                },
                |outs, j, leader| {
                    let stats =
                        outs[leader].outputs[j].as_ref().expect("completed on the leader").stats;
                    let keys = outs
                        .iter_mut()
                        .map(|m| {
                            m.outputs[j].take().expect("query completed on every machine").keys
                        })
                        .collect();
                    (keys, stats, None, None)
                },
            ),
            Algorithm::Simple => {
                let chunk = self.opts.mux_chunk();
                self.run_mux(
                    queries,
                    Some(ell),
                    |w: Wiring, q| {
                        SimpleProtocol::new(w.id, w.leader, ell64, chunk, {
                            self.source(w.shard, q, ell)
                        })
                    },
                    plain_keys,
                )
            }
            Algorithm::SaukasSong => self.run_mux(
                queries,
                Some(ell),
                |w: Wiring, q| {
                    SaukasSongProtocol::new(
                        w.id,
                        w.k,
                        w.leader,
                        ell64,
                        self.source(w.shard, q, ell),
                    )
                },
                plain_keys,
            ),
            Algorithm::BinSearch => self.run_mux(
                queries,
                Some(ell),
                |w: Wiring, q| {
                    BinSearchProtocol::new(w.id, w.k, w.leader, ell64, self.source(w.shard, q, ell))
                },
                plain_keys,
            ),
        }
    }

    /// Answer `queries` approximately (pruning-only supersets, see
    /// [`crate::protocols::approx`]) in one multiplexed engine run.
    ///
    /// The approx path runs **unaudited** (`audit_ell = None`): its answers
    /// are supersets, not the exact partition the semantic audit certifies.
    /// It also injects no source-level lies; corrupt links still surface as
    /// [`kmachine::EngineError::IntegrityViolation`].
    pub fn run_batch_approx(&self, queries: &[P], ell: usize) -> Result<BatchOutcome, CoreError> {
        self.run_mux(
            queries,
            None,
            |w: Wiring, q| {
                ApproxKnnProtocol::new(w.id, w.k, w.leader, ell as u64, self.opts.params, {
                    self.source_honest(w.shard, q, ell)
                })
            },
            |outs, j, leader| {
                let lead = outs[leader].outputs[j].as_ref().expect("completed on the leader");
                let (total, contains) = (lead.total, lead.contains_exact);
                let keys = outs
                    .iter_mut()
                    .map(|m| m.outputs[j].take().expect("query completed on every machine").keys)
                    .collect();
                (keys, None, Some(total), Some(contains))
            },
        )
    }

    /// The shared batched-run skeleton: build one `build(wiring, query)`
    /// protocol instance per (machine, pending query), multiplex each
    /// machine's instances over one engine run, and fold the outcome per
    /// query.
    ///
    /// Crash recovery mirrors [`crate::runner::run_query`] but is
    /// **fault-aware per query**: when a run completes with *holes* (a
    /// crashed machine took some queries' contributions with it — its mux
    /// output is `None` at those tags), only those lost queries are
    /// re-planned onto the surviving topology; queries that completed keep
    /// their full-cluster answers. An unsalvageable
    /// [`EngineError::Crashed`] (the survivors stalled on the dead machine)
    /// re-runs every still-pending query. Either way the dead machine is
    /// excluded, the leader is re-elected over the survivors if it was the
    /// casualty, and the re-run counts against the session's
    /// [`crate::runner::RetryPolicy`]. The outcome is then flagged
    /// [`BatchOutcome::degraded`].
    ///
    /// When `audit_ell` is `Some(ℓ)` and the session has an adversary plan,
    /// every completed query is **audited before it is kept**: its claimed
    /// per-machine contributions are checked against the true ℓ-NN
    /// partition recomputed from the real shards
    /// ([`crate::audit::audit_claims`]). Queries that fail the audit are
    /// treated like lost queries — the named suspects are quarantined
    /// alongside any crashed machines and the queries re-run on the honest
    /// survivors — so a wrong answer is never stored, not even one answered
    /// by a machine only caught lying on a *later* query of the same batch.
    /// [`CoreError::AuditFailed`] surfaces when quarantining would leave no
    /// machine standing. An [`EngineError::IntegrityViolation`] (corrupt
    /// link caught by the digest chain) quarantines the sending machine the
    /// same way.
    fn run_mux<'q, Proto, F, G>(
        &'q self,
        queries: &'q [P],
        audit_ell: Option<usize>,
        build: F,
        extract: G,
    ) -> Result<BatchOutcome, CoreError>
    where
        Proto: Protocol,
        F: Fn(Wiring, &'q P) -> Proto,
        G: Fn(
            &mut [MuxOutput<Proto::Output>],
            usize,
            MachineId,
        ) -> (Vec<Vec<DistKey>>, Option<KnnStats>, Option<u64>, Option<bool>),
    {
        let k = self.shards.len();
        if queries.is_empty() {
            return Ok(self.empty_outcome(k));
        }
        let mut alive: Vec<MachineId> = (0..k).collect();
        let mut leader = self.leader;
        let mut retry = RetryState::new();
        // Finished per-query outcomes by original index, filled across runs.
        let mut done: Vec<Option<BatchQueryOutcome>> = (0..queries.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut replayed_rounds = 0u64;
        let mut audit_total = AuditMetrics::default();
        loop {
            let sub_leader = alive.iter().position(|&m| m == leader).expect("leader is alive");
            let cfg = self.opts.subset_config(&alive);
            let protos: Vec<MuxProtocol<Proto>> = (0..alive.len())
                .map(|i| {
                    let w = Wiring { id: i, shard: alive[i], k: alive.len(), leader: sub_leader };
                    MuxProtocol::new(pending.iter().map(|&j| build(w, &queries[j])).collect())
                })
                .collect();
            match self.opts.engine.run(&cfg, protos) {
                Ok(out) => {
                    let kmachine::RunOutcome {
                        mut outputs,
                        metrics,
                        skew,
                        wall,
                        faults,
                        recovery,
                        audit: run_audit,
                    } = out;
                    replayed_rounds += recovery.replayed_rounds;
                    audit_total.digests_verified += run_audit.digests_verified;
                    // A pending query is LOST when any machine's mux output
                    // has a hole at its tag: a crashed machine died holding
                    // that query's contribution.
                    let lost_at = |p: usize, outs: &[MuxOutput<Proto::Output>]| {
                        outs.iter().any(|mux| mux.outputs[p].is_none())
                    };
                    let mut lost: Vec<usize> = Vec::new();
                    let mut suspects: Vec<MachineId> = Vec::new();
                    for (p, &j) in pending.iter().enumerate() {
                        if lost_at(p, &outputs) {
                            lost.push(j);
                            continue;
                        }
                        let (sub_keys, stats, approx_total, contains_exact) =
                            extract(&mut outputs, p, sub_leader);
                        if let (Some(ell), false) = (audit_ell, self.opts.adversary.is_empty()) {
                            audit_total.audits_run += 1;
                            // Ground truth over the audited topology: every
                            // completed query had every alive machine's
                            // instance finish, so no crash exclusion applies.
                            let truth: Vec<Vec<DistKey>> = alive
                                .iter()
                                .map(|&m| {
                                    self.indices[m].top(
                                        &self.shards[m].records,
                                        &queries[j],
                                        ell,
                                        self.opts.metric,
                                    )
                                })
                                .collect();
                            let report =
                                audit::audit_claims(&truth, &sub_keys, ell, self.opts.seed);
                            if !report.ok {
                                lost.push(j);
                                suspects.extend(report.suspects.iter().map(|&s| alive[s]));
                                continue;
                            }
                        }
                        let mut local_keys = vec![Vec::new(); k];
                        for (i, keys) in sub_keys.into_iter().enumerate() {
                            local_keys[alive[i]] = keys;
                        }
                        let tag: TagMetrics = metrics.tag(p as u32);
                        let done_round =
                            outputs.iter().map(|mux| mux.done_round[p]).max().unwrap_or(0);
                        done[j] = Some(BatchQueryOutcome {
                            local_keys,
                            messages: tag.messages,
                            bits: tag.bits,
                            done_round,
                            stats,
                            approx_total,
                            contains_exact,
                            attempts: retry.attempts,
                            recovered: retry.attempts > 1,
                        });
                    }
                    suspects.sort_unstable();
                    suspects.dedup();
                    audit_total.suspects_quarantined += suspects.len() as u64;
                    if lost.is_empty() {
                        let shards_used = alive.len() - faults.crashed.len();
                        return Ok(BatchOutcome {
                            queries: done
                                .into_iter()
                                .map(|q| q.expect("every query answered"))
                                .collect(),
                            metrics,
                            skew,
                            wall,
                            leader,
                            election_metrics: self.election_metrics.clone(),
                            degraded: shards_used < k,
                            shards_used,
                            faults,
                            recovered: retry.attempts > 1 || recovery.any(),
                            attempts: retry.attempts,
                            replayed_rounds,
                            recovery,
                            audit: audit_total,
                        });
                    }
                    retry.next_attempt(&self.opts.retry, metrics.rounds)?;
                    let mut dead: Vec<MachineId> =
                        faults.crashed.iter().map(|&c| alive[c]).collect();
                    dead.extend(suspects.iter().copied());
                    dead.sort_unstable();
                    dead.dedup();
                    if dead.len() >= alive.len() && !suspects.is_empty() {
                        // Quarantining every suspect (plus the crashed)
                        // leaves nobody to answer from: no certifiable
                        // answer exists.
                        return Err(CoreError::AuditFailed { suspects, alive: alive.len() });
                    }
                    alive.retain(|mid| !dead.contains(mid));
                    if alive.is_empty() || dead.is_empty() {
                        // Holes without a usable survivor topology (or —
                        // impossibly — without a crash or a suspect):
                        // surface the crash instead of looping on an
                        // unanswerable plan.
                        let machine = dead.first().copied().unwrap_or(0);
                        return Err(EngineError::Crashed { machine, round: metrics.rounds }.into());
                    }
                    if !alive.contains(&leader) {
                        let (sub, _) = elect(alive.len(), &self.opts)?;
                        leader = alive[sub];
                    }
                    pending = lost;
                }
                Err(EngineError::Crashed { machine, round }) if alive.len() > 1 => {
                    retry.next_attempt(&self.opts.retry, round)?;
                    // `machine` indexes the failed run's subset.
                    let dead = alive.remove(machine);
                    if dead == leader {
                        let (sub, _) = elect(alive.len(), &self.opts)?;
                        leader = alive[sub];
                    }
                }
                Err(EngineError::IntegrityViolation { src, round, .. }) if alive.len() > 1 => {
                    // The digest chain pins the corruption on the sender:
                    // quarantine it and re-run every still-pending query.
                    audit_total.integrity_violations += 1;
                    audit_total.suspects_quarantined += 1;
                    retry.next_attempt(&self.opts.retry, round)?;
                    let dead = alive.remove(src);
                    if dead == leader {
                        let (sub, _) = elect(alive.len(), &self.opts)?;
                        leader = alive[sub];
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn empty_outcome(&self, k: usize) -> BatchOutcome {
        BatchOutcome {
            queries: Vec::new(),
            metrics: RunMetrics::new(k),
            skew: SkewMetrics::default(),
            wall: Duration::ZERO,
            leader: self.leader,
            election_metrics: self.election_metrics.clone(),
            degraded: false,
            shards_used: k,
            faults: FaultMetrics::default(),
            recovered: false,
            attempts: 1,
            replayed_rounds: 0,
            recovery: RecoveryMetrics::default(),
            audit: AuditMetrics::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{IndexBackend, ShardIndex};
    use crate::runner::{merge_answers, run_query, ElectionKind};
    use knn_points::{IdAssigner, ScalarPoint};
    use knn_workloads::PartitionStrategy;

    fn shards(values: &[u64], k: usize) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_points(values.iter().map(|&v| ScalarPoint(v)).collect(), &mut ids);
        PartitionStrategy::RoundRobin
            .split(data.records, k, 0)
            .into_iter()
            .map(Dataset::new)
            .collect()
    }

    fn indices(sh: &[Dataset<ScalarPoint>]) -> Vec<ShardIndex<ScalarPoint>> {
        sh.iter()
            .map(|d| ShardIndex::build(&d.records, IndexBackend::default(), Metric::Euclidean))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_algorithm() {
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> =
            [3u64, 17_000, 49_999, 25_000].iter().map(|&v| ScalarPoint(v)).collect();
        let opts = QueryOptions::default();
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        for algo in Algorithm::ALL {
            let batch = session.run_batch(&queries, 7, algo).unwrap();
            assert_eq!(batch.queries.len(), queries.len());
            for (j, q) in queries.iter().enumerate() {
                let solo = run_query(&sh, q, 7, algo, &opts).unwrap();
                assert_eq!(
                    merge_answers(&batch.queries[j].local_keys),
                    merge_answers(&solo.local_keys),
                    "{algo:?} query {j}"
                );
            }
        }
    }

    #[test]
    fn session_elects_exactly_once() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let idx = indices(&sh);
        let opts = QueryOptions { election: ElectionKind::Star, ..Default::default() };
        let session = QuerySession::new(&sh, &idx, opts).unwrap();
        let em = session.election_metrics().expect("star election ran");
        assert_eq!(em.messages, 2 * 3);
        // Two batches through the same session: the election cost is
        // reported (not re-paid) on both.
        let a = session.run_batch(&[ScalarPoint(5), ScalarPoint(50)], 3, Algorithm::Knn).unwrap();
        let b = session.run_batch(&[ScalarPoint(9)], 3, Algorithm::Simple).unwrap();
        assert_eq!(a.election_metrics.as_ref().unwrap().messages, 6);
        assert_eq!(b.election_metrics.as_ref().unwrap().messages, 6);
        assert_eq!(a.leader, b.leader);
    }

    #[test]
    fn per_query_attribution_partitions_the_batch() {
        let sh = shards(&(0..500u64).collect::<Vec<_>>(), 4);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let queries: Vec<ScalarPoint> = (0..6).map(|i| ScalarPoint(i * 80)).collect();
        let batch = session.run_batch(&queries, 9, Algorithm::Simple).unwrap();
        let msg_sum: u64 = batch.queries.iter().map(|q| q.messages).sum();
        let bit_sum: u64 = batch.queries.iter().map(|q| q.bits).sum();
        assert_eq!(msg_sum, batch.metrics.messages);
        assert_eq!(bit_sum, batch.metrics.bits);
        for q in &batch.queries {
            assert!(q.messages > 0);
            assert!(q.done_round <= batch.metrics.rounds);
        }
    }

    #[test]
    fn batch_approx_reports_guarantees() {
        let values: Vec<u64> =
            (0..3000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_000).collect();
        let sh = shards(&values, 6);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let queries: Vec<ScalarPoint> = (0..3).map(|i| ScalarPoint(i * 300_000)).collect();
        let batch = session.run_batch_approx(&queries, 40).unwrap();
        for (j, bq) in batch.queries.iter().enumerate() {
            let total = bq.approx_total.expect("approx reports totals");
            let survivors: usize = bq.local_keys.iter().map(Vec::len).sum();
            assert_eq!(survivors as u64, total, "query {j}");
            assert!(bq.contains_exact.unwrap(), "paper constants should not under-prune");
            assert!(total >= 40);
        }
    }

    #[test]
    fn batch_is_engine_invariant_including_event_and_auto() {
        use kmachine::Engine;
        let values: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(48271) % 70_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> = (0..8).map(|i| ScalarPoint(i * 9_000)).collect();
        let reference = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Knn)
            .unwrap();
        for engine in [Engine::Event, Engine::Auto] {
            let opts = QueryOptions { engine, ..Default::default() };
            let session = QuerySession::new(&sh, &idx, opts).unwrap();
            let batch = session.run_batch(&queries, 6, Algorithm::Knn).unwrap();
            assert_eq!(batch.metrics, reference.metrics, "{engine:?}");
            for (j, (got, want)) in batch.queries.iter().zip(&reference.queries).enumerate() {
                assert_eq!(got.local_keys, want.local_keys, "{engine:?} query {j}");
                assert_eq!(got.done_round, want.done_round, "{engine:?} query {j}");
                assert_eq!(got.messages, want.messages, "{engine:?} query {j}");
                assert_eq!(got.bits, want.bits, "{engine:?} query {j}");
            }
        }
    }

    #[test]
    fn batch_recovers_from_a_crashed_leader() {
        use kmachine::FaultPlan;
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        let queries = [ScalarPoint(120), ScalarPoint(44_000)];
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        let batch = session.run_batch(&queries, 6, Algorithm::Knn).unwrap();
        assert!(batch.degraded);
        assert_eq!(batch.shards_used, 4);
        assert_ne!(batch.leader, 0, "a dead leader cannot coordinate");
        for (j, q) in queries.iter().enumerate() {
            let bq = &batch.queries[j];
            assert_eq!(bq.local_keys.len(), 5, "answers keep the full shard layout");
            assert!(bq.local_keys[0].is_empty(), "the dead shard contributes nothing");
            // Per-query answers match the sequential recovery path.
            let solo = run_query(&sh, q, 6, Algorithm::Knn, &opts).unwrap();
            assert_eq!(merge_answers(&bq.local_keys), merge_answers(&solo.local_keys), "{j}");
        }
    }

    #[test]
    fn batch_rejoin_is_invisible_and_reported() {
        use kmachine::{BandwidthMode, RecoveryPlan};
        let values: Vec<u64> = (0..400u64).map(|i| i.wrapping_mul(48271) % 50_000).collect();
        let sh = shards(&values, 4);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> = (0..4).map(|i| ScalarPoint(i * 12_000)).collect();
        // Tight bandwidth stretches the batch over enough rounds for the
        // outage window to land mid-run.
        let bandwidth = BandwidthMode::Enforce { bits_per_round: 256 };
        let clean_opts = QueryOptions { bandwidth, ..Default::default() };
        let clean = QuerySession::new(&sh, &idx, clean_opts)
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Simple)
            .unwrap();
        let opts = QueryOptions {
            bandwidth,
            recovery: RecoveryPlan::default().with_rejoin(1, 2, 5),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Simple)
            .unwrap();
        assert!(!batch.degraded, "a rejoined machine serves: nothing is missing");
        assert_eq!(batch.shards_used, 4);
        assert!(batch.faults.crashed.is_empty(), "a rejoin is a pause, not a fail-stop");
        assert!(batch.recovered);
        assert_eq!(batch.attempts, 1, "recovery happened in-engine, not by retry");
        assert!(batch.replayed_rounds >= 1);
        assert_eq!(batch.recovery.rejoined, vec![1]);
        assert_eq!(batch.metrics.messages, clean.metrics.messages, "byte-identical traffic");
        assert_eq!(batch.metrics.bits, clean.metrics.bits);
        for (j, (got, want)) in batch.queries.iter().zip(&clean.queries).enumerate() {
            assert_eq!(got.local_keys, want.local_keys, "query {j}");
        }
    }

    #[test]
    fn lost_queries_are_replanned_onto_survivors() {
        use kmachine::FaultPlan;
        let values: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(48271) % 70_000).collect();
        let sh = shards(&values, 5);
        let idx = indices(&sh);
        let queries: Vec<ScalarPoint> = (0..6).map(|i| ScalarPoint(i * 11_000)).collect();
        let full = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Knn)
            .unwrap();
        // Survivor reference: the same batch over the shards minus machine 3.
        let sh_sur: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 3).map(|(_, d)| d.clone()).collect();
        let idx_sur = indices(&sh_sur);
        let sur = QuerySession::new(&sh_sur, &idx_sur, QueryOptions::default())
            .unwrap()
            .run_batch(&queries, 6, Algorithm::Knn)
            .unwrap();
        let answer =
            |lk: &[Vec<DistKey>]| merge_answers(lk).iter().map(|&(key, _)| key).collect::<Vec<_>>();
        // Sweep the crash round across the batch's lifetime: wherever it
        // lands, every query's answer must be exact over the topology that
        // answered it — the full cluster (attempts == 1) or the survivors
        // (re-planned after the crash took the first answer with it).
        for crash_round in 1..24 {
            let opts = QueryOptions {
                faults: FaultPlan::default().with_crash(3, crash_round),
                ..Default::default()
            };
            let session = QuerySession::new(&sh, &idx, opts).unwrap();
            let batch = session.run_batch(&queries, 6, Algorithm::Knn).unwrap();
            for (j, bq) in batch.queries.iter().enumerate() {
                let want = if bq.attempts == 1 { &full.queries[j] } else { &sur.queries[j] };
                assert_eq!(
                    answer(&bq.local_keys),
                    answer(&want.local_keys),
                    "crash@{crash_round} query {j} (attempts {})",
                    bq.attempts
                );
                assert_eq!(bq.recovered, bq.attempts > 1);
            }
            assert_eq!(batch.recovered, batch.attempts > 1 || batch.recovery.any());
            if batch.attempts > 1 {
                assert!(batch.degraded, "a re-planned batch lost a shard");
            }
        }
    }

    /// Shards holding contiguous value ranges, so tests can aim queries at
    /// (or away from) a specific machine's points.
    fn range_shards(ranges: &[std::ops::Range<u64>]) -> Vec<Dataset<ScalarPoint>> {
        use knn_points::IdAssigner;
        let mut ids = IdAssigner::new(0);
        ranges
            .iter()
            .map(|r| Dataset::from_points(r.clone().map(ScalarPoint).collect(), &mut ids))
            .collect()
    }

    fn answer_of(local_keys: &[Vec<DistKey>]) -> Vec<DistKey> {
        merge_answers(local_keys).iter().map(|&(key, _)| key).collect()
    }

    #[test]
    fn batch_quarantines_a_liar_and_reruns_only_the_poisoned_queries() {
        use kmachine::AdversaryPlan;
        // Machine 1 lies. Query 0's neighborhood lives entirely on the
        // honest machines — the lie is immaterial there, the audit passes,
        // and the first run's answer is kept *certified*. Query 1's
        // neighborhood lives on the liar — the audit fails it, quarantines
        // machine 1, and re-runs only query 1 on the honest survivors. A
        // query answered by a machine caught lying later in the same batch
        // is thus never kept unaudited.
        let sh = range_shards(&[0..100, 10_000..10_100, 100..200]);
        let idx = indices(&sh);
        let queries = [ScalarPoint(50), ScalarPoint(10_050)];
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&queries, 4, Algorithm::Knn)
            .unwrap();
        assert!(batch.degraded);
        assert_eq!(batch.attempts, 2);
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert_eq!(batch.audit.audits_run, 3, "two audits in run 1, one in the re-run");
        assert!(batch.audit.digests_verified > 0);
        // Query 0: certified on the first run, against the full cluster.
        assert_eq!(batch.queries[0].attempts, 1);
        assert!(!batch.queries[0].recovered);
        let full = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch(&queries[..1], 4, Algorithm::Knn)
            .unwrap();
        assert_eq!(answer_of(&batch.queries[0].local_keys), answer_of(&full.queries[0].local_keys));
        // Query 1: re-run on the honest survivors.
        assert_eq!(batch.queries[1].attempts, 2);
        assert!(batch.queries[1].recovered);
        assert!(batch.queries[1].local_keys[1].is_empty(), "the liar contributes nothing");
        let sh_sur: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        let idx_sur = indices(&sh_sur);
        let sur = QuerySession::new(&sh_sur, &idx_sur, QueryOptions::default())
            .unwrap()
            .run_batch(&queries[1..], 4, Algorithm::Knn)
            .unwrap();
        assert_eq!(answer_of(&batch.queries[1].local_keys), answer_of(&sur.queries[0].local_keys));
    }

    #[test]
    fn batch_audit_failure_is_typed_when_everyone_lies() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..50, 50..100]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(0, 0).with_lie(1, 0),
            ..Default::default()
        };
        let err = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&[ScalarPoint(50)], 6, Algorithm::Knn)
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::AuditFailed { suspects, alive: 2 } if suspects.len() == 2),
            "want AuditFailed naming both liars, got {err:?}"
        );
    }

    #[test]
    fn batch_corrupt_link_quarantines_the_sender() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_corrupt_link(2, 0, 1000),
            ..Default::default()
        };
        let batch = QuerySession::new(&sh, &idx, opts)
            .unwrap()
            .run_batch(&[ScalarPoint(150), ScalarPoint(250)], 4, Algorithm::Simple)
            .unwrap();
        assert_eq!(batch.audit.integrity_violations, 1);
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert!(batch.degraded);
        for bq in &batch.queries {
            assert!(bq.local_keys[2].is_empty(), "the corrupting sender is quarantined");
        }
    }

    #[test]
    fn adversarial_batch_is_engine_invariant_including_audit_metrics() {
        use kmachine::{AdversaryPlan, Engine};
        let sh = range_shards(&[0..100, 100..200, 200..300, 300..400]);
        let idx = indices(&sh);
        let queries = [ScalarPoint(150), ScalarPoint(350)];
        let mk = |engine| QueryOptions {
            engine,
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let reference = QuerySession::new(&sh, &idx, mk(Engine::Sync))
            .unwrap()
            .run_batch(&queries, 5, Algorithm::Knn)
            .unwrap();
        assert_eq!(reference.audit.suspects_quarantined, 1);
        for engine in [Engine::Event, Engine::Auto] {
            let batch = QuerySession::new(&sh, &idx, mk(engine))
                .unwrap()
                .run_batch(&queries, 5, Algorithm::Knn)
                .unwrap();
            assert_eq!(batch.metrics, reference.metrics, "{engine:?}");
            assert_eq!(batch.audit, reference.audit, "{engine:?}");
            for (got, want) in batch.queries.iter().zip(&reference.queries) {
                assert_eq!(got.local_keys, want.local_keys, "{engine:?}");
                assert_eq!(got.attempts, want.attempts, "{engine:?}");
            }
        }
    }

    #[test]
    fn batch_approx_is_unaudited_under_a_lie_plan() {
        use kmachine::AdversaryPlan;
        let sh = range_shards(&[0..200, 200..400, 400..600]);
        let idx = indices(&sh);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let queries = [ScalarPoint(300)];
        let batch =
            QuerySession::new(&sh, &idx, opts).unwrap().run_batch_approx(&queries, 10).unwrap();
        let clean = QuerySession::new(&sh, &idx, QueryOptions::default())
            .unwrap()
            .run_batch_approx(&queries, 10)
            .unwrap();
        assert_eq!(batch.queries[0].local_keys, clean.queries[0].local_keys);
        assert_eq!(batch.audit.audits_run, 0);
        assert_eq!(batch.audit.suspects_quarantined, 0);
        assert!(batch.audit.digests_verified > 0, "armed links still verify digests");
    }

    #[test]
    fn empty_batch_is_free() {
        let sh = shards(&(0..50u64).collect::<Vec<_>>(), 3);
        let idx = indices(&sh);
        let session = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap();
        let batch = session.run_batch(&[], 5, Algorithm::Knn).unwrap();
        assert!(batch.queries.is_empty());
        assert_eq!(batch.metrics.messages, 0);
        assert_eq!(batch.metrics.rounds, 0);
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let sh: Vec<Dataset<ScalarPoint>> = Vec::new();
        let idx: Vec<ShardIndex<ScalarPoint>> = Vec::new();
        let err = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap_err();
        assert_eq!(err, CoreError::EmptyCluster);
    }

    #[test]
    fn index_count_mismatch_is_an_error() {
        let sh = shards(&[1, 2, 3, 4, 5, 6], 3);
        let idx = indices(&sh[..2]);
        let err = QuerySession::new(&sh, &idx, QueryOptions::default()).unwrap_err();
        assert_eq!(err, CoreError::ShardCount { expected: 3, got: 2 });
    }

    #[test]
    fn batched_rounds_per_query_beat_sequential_for_simple() {
        let values: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % (1 << 20)).collect();
        let sh = shards(&values, 6);
        let idx = indices(&sh);
        let opts = QueryOptions::default();
        let session = QuerySession::new(&sh, &idx, opts.clone()).unwrap();
        let queries: Vec<ScalarPoint> = (0..16).map(|i| ScalarPoint(i * 65_536)).collect();
        let batch = session.run_batch(&queries, 64, Algorithm::Simple).unwrap();
        let sequential: u64 = queries
            .iter()
            .map(|q| run_query(&sh, q, 64, Algorithm::Simple, &opts).unwrap().metrics.rounds)
            .sum();
        assert!(
            batch.metrics.rounds < sequential,
            "batched {} vs sequential {}",
            batch.metrics.rounds,
            sequential
        );
    }
}
