//! Query orchestration: pick an algorithm, an engine, and an election; run
//! one distributed ℓ-NN query; collect outputs and exact communication
//! costs.

use std::time::Duration;

use kmachine::leader::{RandRankFlood, RandRankStar};
use kmachine::{
    AdversaryPlan, AuditMetrics, BandwidthMode, DeliveryMode, Engine, EngineError, FaultMetrics,
    FaultPlan, MachineId, NetConfig, RecoveryMetrics, RecoveryPlan, RunMetrics, SkewMetrics,
    ENVELOPE_HEADER_BITS, MUX_TAG_BITS,
};
use knn_points::{Dataset, DistKey, Key, Metric, Point};

use crate::audit;
use crate::error::CoreError;
use crate::local::{dist_keys, IndexBackend};
use crate::protocols::approx::ApproxKnnProtocol;
use crate::protocols::binsearch::BinSearchProtocol;
use crate::protocols::knn::{KnnParams, KnnProtocol, KnnStats};
use crate::protocols::saukas_song::SaukasSongProtocol;
use crate::protocols::simple::SimpleProtocol;

/// Which distributed algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// The paper's Algorithm 2: `O(log ℓ)` rounds whp.
    Knn,
    /// The paper's baseline (§3): gather every machine's local ℓ-NN at the
    /// leader; `Θ(ℓ)` rounds.
    Simple,
    /// Saukas–Song deterministic selection \[16\]: `O(log(kℓ))` rounds.
    SaukasSong,
    /// Value-domain bisection \[3, 18\]: `O(log V)` rounds.
    BinSearch,
}

impl Algorithm {
    /// All algorithms, for comparison sweeps.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Knn, Algorithm::Simple, Algorithm::SaukasSong, Algorithm::BinSearch];

    /// Short stable name for tables and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Knn => "alg2-knn",
            Algorithm::Simple => "simple",
            Algorithm::SaukasSong => "saukas-song",
            Algorithm::BinSearch => "binsearch",
        }
    }
}

/// How the leader is chosen before the main protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ElectionKind {
    /// Machine 0 is the leader by convention (ids are common knowledge in
    /// the k-machine model); zero communication. This matches how the
    /// paper states its bounds, with the election charged separately.
    Fixed,
    /// Random-rank election through machine 0: 2 rounds, `2(k−1)` messages.
    Star,
    /// All-to-all random-rank flood: 1 round, `k(k−1)` messages.
    Flood,
}

/// Deadline-bounded, deterministic retry discipline for fault-aware
/// re-runs. Every budget is counted in **simulated rounds**, never wall
/// clock, so retries stay reproducible across engines and pool sizes.
///
/// The default policy replicates the historical behavior: retry until the
/// cluster is down to one machine, with no backoff and no deadline.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Maximum engine runs per query (the first attempt included). `0` is
    /// treated as `1`.
    pub max_attempts: u32,
    /// Total simulated-round budget across failed runs and backoff waits.
    /// Exceeding it surfaces [`CoreError::DeadlineExceeded`].
    pub deadline_rounds: u64,
    /// Exponential backoff unit: retry `n` (1-based) waits
    /// `backoff_base · 2^(n−1)` simulated rounds plus a deterministic
    /// jitter in `[0, backoff_base)`. `0` disables backoff entirely.
    pub backoff_base: u64,
    /// Seed of the jitter stream (split from the attempt number, so two
    /// policies with the same seed produce the same waits).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: u32::MAX,
            deadline_rounds: u64::MAX,
            backoff_base: 0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Simulated rounds to wait before retry `attempt` (1-based count of
    /// *retries*, i.e. the second engine run is `attempt == 1`).
    pub fn backoff_rounds(&self, attempt: u32) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(32);
        let base = self.backoff_base.saturating_mul(1u64 << shift);
        base.saturating_add(splitmix64(self.jitter_seed ^ u64::from(attempt)) % self.backoff_base)
    }
}

/// SplitMix64 — the standard 64-bit finalizer; one multiply-xor-shift chain
/// per draw keeps jitter deterministic and seed-local.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Running tally of a retry loop: attempts made and simulated rounds spent
/// on failed runs plus backoff waits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryState {
    /// Engine runs started so far (≥ 1 once the loop is entered).
    pub attempts: u32,
    /// Rounds burned by failed runs and backoff waits.
    pub spent_rounds: u64,
}

impl RetryState {
    pub(crate) fn new() -> Self {
        RetryState { attempts: 1, spent_rounds: 0 }
    }

    /// Account a failed (or partial) run that consumed `rounds`, then
    /// either authorize the next attempt — charging its backoff wait — or
    /// surface [`CoreError::DeadlineExceeded`].
    pub(crate) fn next_attempt(
        &mut self,
        policy: &RetryPolicy,
        rounds: u64,
    ) -> Result<(), CoreError> {
        self.spent_rounds = self.spent_rounds.saturating_add(rounds);
        let wait = policy.backoff_rounds(self.attempts);
        self.spent_rounds = self.spent_rounds.saturating_add(wait);
        if self.attempts >= policy.max_attempts.max(1) || self.spent_rounds > policy.deadline_rounds
        {
            return Err(CoreError::DeadlineExceeded {
                attempts: self.attempts,
                spent_rounds: self.spent_rounds,
                max_attempts: policy.max_attempts.max(1),
                deadline_rounds: policy.deadline_rounds,
            });
        }
        self.attempts += 1;
        Ok(())
    }
}

/// Everything configurable about a query run.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Simulation engine: sync for exact accounting, event for
    /// barrier-free parallel wall clock, or [`Engine::Auto`] to pick per run from k, the per-round
    /// payload budget, and the pool size. All engines return bit-identical
    /// answers and metrics; the `KNN_ENGINE` environment variable
    /// overrides this field for every run.
    pub engine: Engine,
    /// Link bandwidth.
    pub bandwidth: BandwidthMode,
    /// Delivery discipline of the event engine: [`DeliveryMode::Relaxed`]
    /// lets machines pipeline past quiet peers (answers and metrics are
    /// identical; [`QueryOutcome::skew`] reports the realized overlap).
    /// Ignored by the sync engine; the `KNN_DELIVERY`
    /// environment variable overrides this field for every run.
    pub delivery: DeliveryMode,
    /// Master seed for all protocol randomness.
    pub seed: u64,
    /// Distance metric.
    pub metric: Metric,
    /// Algorithm 2 tunables.
    pub params: KnnParams,
    /// Leader election.
    pub election: ElectionKind,
    /// Synthetic per-round network latency (zero: none), honored by both
    /// engines: sync sleeps it once per round, event delays each
    /// transport's visibility by it. Wall clock only — answers and metrics
    /// are unchanged.
    pub round_latency: Duration,
    /// Stall safety limit.
    pub max_rounds: u64,
    /// Deterministic fault injection applied to every query run (see
    /// [`FaultPlan`]). Elections run fault-free — leader choice is part of
    /// the control plane, and re-elections after a leader crash must not
    /// themselves crash. When a machine crashes unsalvageably, the runner
    /// retries the query over the surviving shards and flags the answer
    /// [`QueryOutcome::degraded`].
    pub faults: FaultPlan,
    /// Crash-recovery plan (checkpoint cadence plus scheduled machine
    /// rejoins) handed to the engines with every query run. Rejoins are
    /// invisible to the answer: the machine is restored from its last
    /// checkpoint and replays the missed rounds in-engine. The realized
    /// work is reported through [`QueryOutcome::replayed_rounds`].
    pub recovery: RecoveryPlan,
    /// Deadline-bounded retry discipline for crash re-runs.
    pub retry: RetryPolicy,
    /// Deterministic Byzantine adversary (see [`AdversaryPlan`]): lying
    /// machines, equivocators, and corrupt links. Arming any of it turns on
    /// the full defense stack for every query run — chained per-link
    /// integrity digests at the engine layer, plus a semantic audit of each
    /// answer against the shard-local oracles at this layer. A caught liar
    /// or corrupt-link source is **quarantined** and the query re-runs over
    /// the honest survivors (flagged [`QueryOutcome::degraded`], accounted
    /// in [`QueryOutcome::audit`]); a wrong answer is never returned
    /// silently. Elections stay adversary-free, like [`Self::faults`].
    pub adversary: AdversaryPlan,
    /// Which local index each shard builds for the batched serving path
    /// (see [`crate::local::IndexBackend`]): the exact per-type structure
    /// (default) or the approximate NSW graph with its `ef`/`m` recall
    /// knobs. The sequential [`run_query`] path always scans the full shard
    /// — it is the exact oracle the conformance suite checks the index
    /// against — so this field only shapes
    /// [`crate::session::QuerySession`] candidates and audit truth.
    pub backend: IndexBackend,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            engine: Engine::Sync,
            bandwidth: BandwidthMode::Enforce {
                bits_per_round: kmachine::config::DEFAULT_BANDWIDTH_BITS,
            },
            delivery: DeliveryMode::Exact,
            seed: 0,
            metric: Metric::Euclidean,
            params: KnnParams::default(),
            election: ElectionKind::Fixed,
            round_latency: Duration::ZERO,
            max_rounds: 10_000_000,
            faults: FaultPlan::default(),
            recovery: RecoveryPlan::default(),
            retry: RetryPolicy::default(),
            adversary: AdversaryPlan::default(),
            backend: IndexBackend::default(),
        }
    }
}

impl QueryOptions {
    /// Fault-free network config: elections and other control-plane runs
    /// use this so a [`FaultPlan`] never disturbs leader choice.
    pub(crate) fn fault_free_config(&self, k: usize) -> NetConfig {
        NetConfig::new(k)
            .with_seed(self.seed)
            .with_bandwidth(self.bandwidth)
            .with_delivery(self.delivery)
            .with_round_latency(self.round_latency)
            .with_max_rounds(self.max_rounds)
    }

    pub(crate) fn net_config(&self, k: usize) -> NetConfig {
        self.fault_free_config(k)
            .with_faults(self.faults.clone())
            .with_recovery(self.recovery.clone())
            .with_adversary(self.adversary.clone())
    }

    /// Config for a (re)run over the surviving subset `alive` (original
    /// machine ids, ascending): the fault, recovery, and adversary plans
    /// are projected onto the survivors, so the crash (or quarantined liar)
    /// that triggered the retry is gone.
    pub(crate) fn subset_config(&self, alive: &[MachineId]) -> NetConfig {
        self.fault_free_config(alive.len())
            .with_faults(self.faults.project(alive))
            .with_recovery(self.recovery.project(alive))
            .with_adversary(self.adversary.project(alive))
    }

    /// Whether original machine `m` lies at the *source*: a round-0 liar or
    /// an equivocator perturbs its materialized local distances (the wire
    /// tamper alone cannot fake the machine's own self-computed answer
    /// slice, so scheduled-from-round-0 lying is modeled where the claims
    /// are actually born). Keyed on the original machine id, so the lie is
    /// identical across quarantine re-runs and the batched path.
    pub(crate) fn lies_at_source(&self, m: MachineId) -> bool {
        self.adversary.equivocates(m) || self.adversary.lie_round(m) == 0
    }

    /// Keys per batch message such that one batch fills one link-round.
    pub fn simple_chunk(&self) -> usize {
        self.chunk_after_overhead(ENVELOPE_HEADER_BITS)
    }

    /// Keys per batch message on the multiplexed serving path, where every
    /// message additionally carries its query tag.
    pub fn mux_chunk(&self) -> usize {
        self.chunk_after_overhead(ENVELOPE_HEADER_BITS + MUX_TAG_BITS)
    }

    /// Keys per message after `overhead` framing bits, filling one
    /// link-round.
    fn chunk_after_overhead(&self, overhead: u64) -> usize {
        match self.bandwidth {
            BandwidthMode::Unlimited => 64,
            BandwidthMode::Enforce { bits_per_round } => {
                ((bits_per_round.saturating_sub(overhead)) / DistKey::BITS).max(1) as usize
            }
        }
    }
}

/// Result of one distributed query, before point resolution.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Per-machine answer keys (machine `i`'s members of the ℓ-NN set).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Communication costs of the main protocol.
    pub metrics: RunMetrics,
    /// Pipelining evidence when the main protocol ran under relaxed
    /// delivery on the event engine (machine skew, promise counters);
    /// empty otherwise.
    pub skew: SkewMetrics,
    /// Wall-clock time of the main protocol run.
    pub wall: Duration,
    /// The elected leader.
    pub leader: MachineId,
    /// Election costs (`None` under [`ElectionKind::Fixed`]).
    pub election_metrics: Option<RunMetrics>,
    /// Algorithm 2 diagnostics (`None` for the baselines).
    pub stats: Option<KnnStats>,
    /// True when the answer may be missing candidates: one or more shards
    /// crashed (salvaged in-run or excluded by a retry) and the selection
    /// ran over the survivors.
    pub degraded: bool,
    /// Shards whose candidates actually reached the selection
    /// (`== shards.len()` on a healthy run).
    pub shards_used: usize,
    /// Realized faults of the (final) protocol run. Crash retries run over
    /// progressively smaller clusters; this records the run that produced
    /// the answer.
    pub faults: FaultMetrics,
    /// True when the answer needed recovery machinery: a crash retry, a
    /// checkpoint-restored rejoin, or in-engine round replay.
    pub recovered: bool,
    /// Engine runs this query took (1 on a healthy run).
    pub attempts: u32,
    /// Rounds re-executed from checkpoints during rejoins (final run).
    pub replayed_rounds: u64,
    /// Checkpoint/rejoin accounting of the run that produced the answer.
    pub recovery: RecoveryMetrics,
    /// Byzantine-audit accounting across the whole quarantine-and-retry
    /// loop: digests verified by every engine run, integrity violations
    /// caught, semantic audits executed, and suspects quarantined. Empty on
    /// adversary-free queries; identical on every engine.
    pub audit: AuditMetrics,
}

/// Elect a leader (when requested) and account its cost. The serving layer
/// ([`crate::session::QuerySession`]) calls this once per session and then
/// amortizes the elected leader across every query it runs.
pub(crate) fn elect(
    k: usize,
    opts: &QueryOptions,
) -> Result<(MachineId, Option<RunMetrics>), CoreError> {
    let cfg = opts.fault_free_config(k);
    match opts.election {
        ElectionKind::Fixed => Ok((0, None)),
        ElectionKind::Star => {
            let out = opts.engine.run(&cfg, (0..k).map(|_| RandRankStar::new()).collect())?;
            Ok((out.outputs[0], Some(out.metrics)))
        }
        ElectionKind::Flood => {
            let out = opts.engine.run(&cfg, (0..k).map(|_| RandRankFlood::new()).collect())?;
            Ok((out.outputs[0], Some(out.metrics)))
        }
    }
}

/// Run one ℓ-NN query over `shards` with the chosen algorithm.
///
/// Distance computation happens inside each machine's round 0, so under the
/// event engine it runs genuinely in parallel — the effect the paper's
/// Figure 2 attributes its measured speedup to.
///
/// Under a [`QueryOptions::faults`] plan the query **recovers from
/// crashes**: when a run fails with [`EngineError::Crashed`], the dead
/// machine is excluded, the leader is re-elected over the survivors if it
/// was the casualty, and the query re-runs on the surviving shards (with
/// the fault plan projected onto them). The answer is then flagged
/// [`QueryOutcome::degraded`]. Non-crash faults (a lossy link exhausting
/// its retry budget) are not retried — they surface as the typed error.
///
/// Under a [`QueryOptions::adversary`] plan the query additionally
/// **recovers from lies**: every successful run's answer is audited
/// against the shard-local oracles ([`crate::audit::audit_claims`]) before
/// it is returned, and an engine run killed by a corrupt link
/// ([`EngineError::IntegrityViolation`]) is treated like a crash of the
/// corrupting sender. Suspects are quarantined and the query re-runs over
/// the honest survivors, under the same [`RetryPolicy`] budget; when
/// quarantining would empty the cluster the typed
/// [`CoreError::AuditFailed`] surfaces instead of an uncertified answer.
pub fn run_query<P: Point>(
    shards: &[Dataset<P>],
    query: &P,
    ell: usize,
    algorithm: Algorithm,
    opts: &QueryOptions,
) -> Result<QueryOutcome, CoreError> {
    let k = shards.len();
    if k == 0 {
        return Err(CoreError::EmptyCluster);
    }
    let (mut leader, election_metrics) = elect(k, opts)?;
    let mut alive: Vec<MachineId> = (0..k).collect();
    let mut retry = RetryState::new();
    let mut audit_total = AuditMetrics::default();
    loop {
        let sub_leader = alive.iter().position(|&m| m == leader).expect("leader is alive");
        match run_query_over(shards, query, ell, algorithm, opts, &alive, sub_leader) {
            Ok((sub_keys, metrics, skew, wall, faults, recovery, run_audit, stats)) => {
                audit_total.digests_verified += run_audit.digests_verified;
                if !opts.adversary.is_empty() {
                    audit_total.audits_run += 1;
                    let truth = honest_top(shards, query, ell, opts.metric, &alive, &faults);
                    let report = audit::audit_claims(&truth, &sub_keys, ell, opts.seed);
                    if !report.ok {
                        audit_total.suspects_quarantined += report.suspects.len() as u64;
                        let suspects: Vec<MachineId> =
                            report.suspects.iter().map(|&s| alive[s]).collect();
                        if suspects.len() >= alive.len() {
                            return Err(CoreError::AuditFailed { suspects, alive: alive.len() });
                        }
                        retry.next_attempt(&opts.retry, metrics.rounds)?;
                        alive.retain(|m| !suspects.contains(m));
                        if !alive.contains(&leader) {
                            let (sub, _) = elect(alive.len(), opts)?;
                            leader = alive[sub];
                        }
                        continue;
                    }
                }
                let shards_used = alive.len() - faults.crashed.len();
                let mut local_keys = vec![Vec::new(); k];
                for (i, keys) in sub_keys.into_iter().enumerate() {
                    local_keys[alive[i]] = keys;
                }
                return Ok(QueryOutcome {
                    local_keys,
                    metrics,
                    skew,
                    wall,
                    leader,
                    election_metrics,
                    stats,
                    degraded: shards_used < k,
                    shards_used,
                    faults,
                    recovered: retry.attempts > 1 || recovery.any(),
                    attempts: retry.attempts,
                    replayed_rounds: recovery.replayed_rounds,
                    recovery,
                    audit: audit_total,
                });
            }
            Err(CoreError::Engine(EngineError::Crashed { machine, round, .. }))
                if alive.len() > 1 =>
            {
                retry.next_attempt(&opts.retry, round)?;
                // `machine` indexes the failed run's subset.
                let dead = alive.remove(machine);
                if dead == leader {
                    // The coordinator died: re-elect over the survivors
                    // (fault-free, like every election) and report the new
                    // leader under its original id.
                    let (sub, _) = elect(alive.len(), opts)?;
                    leader = alive[sub];
                }
            }
            Err(CoreError::Engine(EngineError::IntegrityViolation { src, round, .. }))
                if alive.len() > 1 =>
            {
                // A corrupt link is pinned on its sender: quarantine the
                // source and retry over the survivors, exactly like a
                // crash. Projection drops every corrupt-link entry touching
                // the quarantined machine, so the loop terminates.
                audit_total.integrity_violations += 1;
                audit_total.suspects_quarantined += 1;
                retry.next_attempt(&opts.retry, round)?;
                let dead = alive.remove(src);
                if dead == leader {
                    let (sub, _) = elect(alive.len(), opts)?;
                    leader = alive[sub];
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The audit's shard-local oracles for one subset run: survivor `i`'s true
/// sorted top-ℓ, recomputed honestly from the real shard — or empty when
/// the machine crashed in-run (it legitimately contributed nothing).
fn honest_top<P: Point>(
    shards: &[Dataset<P>],
    query: &P,
    ell: usize,
    metric: Metric,
    alive: &[MachineId],
    faults: &FaultMetrics,
) -> Vec<Vec<DistKey>> {
    alive
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            if faults.crashed.contains(&i) {
                return Vec::new();
            }
            let mut keys = dist_keys(&shards[m].records, query, metric);
            keys.sort_unstable();
            keys.truncate(ell);
            keys
        })
        .collect()
}

/// Everything one subset run yields: per-survivor answer keys (subset
/// order), costs, and diagnostics.
type SubRun = (
    Vec<Vec<DistKey>>,
    RunMetrics,
    SkewMetrics,
    Duration,
    FaultMetrics,
    RecoveryMetrics,
    AuditMetrics,
    Option<KnnStats>,
);

/// One attempt of [`run_query`] over the surviving subset `alive`; machine
/// `i` of the run works shard `alive[i]`, and `leader` is a subset index.
fn run_query_over<P: Point>(
    shards: &[Dataset<P>],
    query: &P,
    ell: usize,
    algorithm: Algorithm,
    opts: &QueryOptions,
    alive: &[MachineId],
    leader: MachineId,
) -> Result<SubRun, CoreError> {
    let k = alive.len();
    let cfg = opts.subset_config(alive);
    let metric = opts.metric;
    let ell64 = ell as u64;
    let adv_seed = opts.adversary.adversary_seed;

    // A round-0 liar (or equivocator) lies where its claims are born: its
    // materialized local distances are perturbed by the pure seeded stream,
    // identically on every engine and across quarantine re-runs.
    let source = |i: usize| {
        let m = alive[i];
        let records = &shards[m].records;
        let lying = opts.lies_at_source(m);
        Box::new(move || {
            let keys = dist_keys(records, query, metric);
            if lying {
                audit::perturb_input(keys, adv_seed, m)
            } else {
                keys
            }
        }) as Box<dyn FnOnce() -> Vec<DistKey> + Send + '_>
    };

    match algorithm {
        Algorithm::Knn => {
            let protos: Vec<KnnProtocol<'_, DistKey>> = (0..k)
                .map(|i| KnnProtocol::new(i, k, leader, ell64, opts.params, source(i)))
                .collect();
            let out = opts.engine.run(&cfg, protos)?;
            let stats = out.outputs[leader].stats;
            Ok((
                out.outputs.into_iter().map(|o| o.keys).collect(),
                out.metrics,
                out.skew,
                out.wall,
                out.faults,
                out.recovery,
                out.audit,
                stats,
            ))
        }
        Algorithm::Simple => {
            let chunk = opts.simple_chunk();
            let protos: Vec<SimpleProtocol<'_, DistKey>> =
                (0..k).map(|i| SimpleProtocol::new(i, leader, ell64, chunk, source(i))).collect();
            let out = opts.engine.run(&cfg, protos)?;
            Ok((
                out.outputs,
                out.metrics,
                out.skew,
                out.wall,
                out.faults,
                out.recovery,
                out.audit,
                None,
            ))
        }
        Algorithm::SaukasSong => {
            // Mirror the other baselines: operate on the local top-ℓ
            // candidates (a machine can contribute at most ℓ answers).
            let protos: Vec<SaukasSongProtocol<'_, DistKey>> = (0..k)
                .map(|i| {
                    let m = alive[i];
                    let records = &shards[m].records;
                    let lying = opts.lies_at_source(m);
                    let input = Box::new(move || {
                        let mut keys = dist_keys(records, query, metric);
                        if lying {
                            keys = audit::perturb_input(keys, adv_seed, m);
                        }
                        if keys.len() > ell {
                            keys.select_nth_unstable(ell.max(1) - 1);
                            keys.truncate(ell);
                        }
                        keys
                    })
                        as Box<dyn FnOnce() -> Vec<DistKey> + Send + '_>;
                    SaukasSongProtocol::new(i, k, leader, ell64, input)
                })
                .collect();
            let out = opts.engine.run(&cfg, protos)?;
            Ok((
                out.outputs,
                out.metrics,
                out.skew,
                out.wall,
                out.faults,
                out.recovery,
                out.audit,
                None,
            ))
        }
        Algorithm::BinSearch => {
            let protos: Vec<BinSearchProtocol<'_, DistKey>> =
                (0..k).map(|i| BinSearchProtocol::new(i, k, leader, ell64, source(i))).collect();
            let out = opts.engine.run(&cfg, protos)?;
            Ok((
                out.outputs,
                out.metrics,
                out.skew,
                out.wall,
                out.faults,
                out.recovery,
                out.audit,
                None,
            ))
        }
    }
}

/// Result of an approximate (pruning-only) query.
#[derive(Debug)]
pub struct ApproxOutcome {
    /// Per-machine surviving keys (globally: every key ≤ the prune
    /// threshold; a superset of the exact answer when `contains_exact`).
    pub local_keys: Vec<Vec<DistKey>>,
    /// Total survivors across the cluster.
    pub total: u64,
    /// Whether the survivor set provably contains the exact ℓ-NN.
    pub contains_exact: bool,
    /// Communication costs.
    pub metrics: RunMetrics,
    /// Pipelining evidence of a relaxed event run (empty otherwise).
    pub skew: SkewMetrics,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// The elected leader.
    pub leader: MachineId,
    /// Election costs, if an election ran.
    pub election_metrics: Option<RunMetrics>,
    /// Realized faults of the run. The approx path does **not** retry over
    /// survivors — an unsalvageable crash surfaces as
    /// [`EngineError::Crashed`]; use the exact path when you need crash
    /// recovery.
    pub faults: FaultMetrics,
    /// Checkpoint/rejoin accounting of the run (rejoins under a
    /// [`RecoveryPlan`] work on the approx path too).
    pub recovery: RecoveryMetrics,
    /// Integrity-digest accounting when an [`AdversaryPlan`] armed the
    /// links. The approx path runs **unaudited** — it does not inject
    /// source-level lies and does not quarantine; a corrupt link still
    /// surfaces as [`EngineError::IntegrityViolation`]. Use the exact path
    /// when you need the semantic audit.
    pub audit: AuditMetrics,
}

/// Run one *approximate* ℓ-NN query: Algorithm 2's sampling + pruning
/// stages only (see [`crate::protocols::approx`]). Returns ≈1.75ℓ
/// candidates in fewer rounds than the exact protocol.
pub fn run_approx_query<P: Point>(
    shards: &[Dataset<P>],
    query: &P,
    ell: usize,
    opts: &QueryOptions,
) -> Result<ApproxOutcome, CoreError> {
    let k = shards.len();
    if k == 0 {
        return Err(CoreError::EmptyCluster);
    }
    let (leader, election_metrics) = elect(k, opts)?;
    let cfg = opts.net_config(k);
    let metric = opts.metric;
    let protos: Vec<ApproxKnnProtocol<'_, DistKey>> = (0..k)
        .map(|i| {
            let records = &shards[i].records;
            let input = Box::new(move || dist_keys(records, query, metric))
                as Box<dyn FnOnce() -> Vec<DistKey> + Send + '_>;
            ApproxKnnProtocol::new(i, k, leader, ell as u64, opts.params, input)
        })
        .collect();
    let out = opts.engine.run(&cfg, protos)?;
    let total = out.outputs[leader].total;
    let contains_exact = out.outputs[leader].contains_exact;
    Ok(ApproxOutcome {
        local_keys: out.outputs.into_iter().map(|o| o.keys).collect(),
        total,
        contains_exact,
        metrics: out.metrics,
        skew: out.skew,
        wall: out.wall,
        leader,
        election_metrics,
        faults: out.faults,
        recovery: out.recovery,
        audit: out.audit,
    })
}

/// Merge per-machine answer keys into one globally sorted answer,
/// remembering which machine holds each point.
pub fn merge_answers(local_keys: &[Vec<DistKey>]) -> Vec<(DistKey, MachineId)> {
    let mut all: Vec<(DistKey, MachineId)> = local_keys
        .iter()
        .enumerate()
        .flat_map(|(m, keys)| keys.iter().map(move |&key| (key, m)))
        .collect();
    all.sort_unstable_by_key(|&(key, _)| key);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{brute_force_knn, IdAssigner, ScalarPoint};
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

    #[test]
    fn all_algorithms_agree_with_brute_force() {
        let values: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(48271) % 100_000).collect();
        let sh = shards(&values, 6);
        let all_records: Vec<_> = sh.iter().flat_map(|d| d.records.clone()).collect();
        let q = ScalarPoint(33_333);
        let want: Vec<_> = brute_force_knn(&all_records, &q, 9, Metric::Euclidean)
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 9, algo, &QueryOptions::default()).unwrap();
            let got: Vec<DistKey> =
                merge_answers(&out.local_keys).into_iter().map(|(key, _)| key).collect();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn elections_change_cost_not_answer() {
        let values: Vec<u64> = (0..200).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(77);
        let mut answers = Vec::new();
        for election in [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood] {
            let opts = QueryOptions { election, ..Default::default() };
            let out = run_query(&sh, &q, 4, Algorithm::Knn, &opts).unwrap();
            match election {
                ElectionKind::Fixed => assert!(out.election_metrics.is_none()),
                ElectionKind::Star => {
                    assert_eq!(out.election_metrics.as_ref().unwrap().messages, 8)
                }
                ElectionKind::Flood => {
                    assert_eq!(out.election_metrics.as_ref().unwrap().messages, 20)
                }
            }
            answers.push(
                merge_answers(&out.local_keys).into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
            );
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn event_and_auto_engines_answer_identically() {
        let values: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(2654435761) % 80_000).collect();
        let sh = shards(&values, 6);
        let q = ScalarPoint(41_000);
        let reference = run_query(&sh, &q, 8, Algorithm::Knn, &QueryOptions::default()).unwrap();
        for engine in [Engine::Event, Engine::Auto] {
            let opts = QueryOptions { engine, ..Default::default() };
            let out = run_query(&sh, &q, 8, Algorithm::Knn, &opts).unwrap();
            assert_eq!(out.local_keys, reference.local_keys, "{engine:?}");
            assert_eq!(out.metrics, reference.metrics, "{engine:?}");
        }
    }

    #[test]
    fn healthy_run_is_not_degraded() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let out =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.shards_used, 4);
        assert!(!out.faults.any());
    }

    #[test]
    fn leader_crash_recovers_with_reelection() {
        let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(48271) % 40_000).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(9_999);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 6, algo, &opts).unwrap();
            assert!(out.degraded, "{algo:?}");
            assert_eq!(out.shards_used, 4, "{algo:?}");
            assert_ne!(out.leader, 0, "{algo:?}: a dead leader cannot coordinate");
            assert!(out.local_keys[0].is_empty(), "{algo:?}: the dead shard contributes nothing");
            // The degraded answer is exact over the surviving shards.
            let survivors: Vec<_> =
                sh.iter().enumerate().filter(|&(i, _)| i != 0).map(|(_, d)| d.clone()).collect();
            let want = run_query(&survivors, &q, 6, algo, &QueryOptions::default()).unwrap();
            let got: Vec<DistKey> =
                merge_answers(&out.local_keys).into_iter().map(|(key, _)| key).collect();
            let want: Vec<DistKey> =
                merge_answers(&want.local_keys).into_iter().map(|(key, _)| key).collect();
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn worker_crash_under_simple_salvages_in_run() {
        // A crashed worker under the gather baseline does not force a
        // retry: the leader observes the crash horizon and selects over
        // the surviving candidates in the same run.
        let values: Vec<u64> = (0..200).collect();
        let sh = shards(&values, 5);
        let q = ScalarPoint(77);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(2, 0), ..Default::default() };
        let out = run_query(&sh, &q, 8, Algorithm::Simple, &opts).unwrap();
        assert!(out.degraded);
        assert_eq!(out.faults.crashed, vec![2], "salvaged in-run, not excluded by retry");
        assert_eq!(out.shards_used, 4);
        assert_eq!(out.leader, 0, "the leader survived; no re-election");
        assert!(out.local_keys[2].is_empty());
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 2).map(|(_, d)| d.clone()).collect();
        let want =
            run_query(&survivors, &q, 8, Algorithm::Simple, &QueryOptions::default()).unwrap();
        assert_eq!(
            merge_answers(&out.local_keys).iter().map(|&(key, _)| key).collect::<Vec<_>>(),
            merge_answers(&want.local_keys).iter().map(|&(key, _)| key).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn retry_accounting_rides_the_outcome() {
        let sh = shards(&(0..200u64).collect::<Vec<_>>(), 5);
        let healthy =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert!(!healthy.recovered);
        assert_eq!(healthy.attempts, 1);
        assert_eq!(healthy.replayed_rounds, 0);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_crash(0, 0), ..Default::default() };
        let out = run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &opts).unwrap();
        assert!(out.recovered, "a crash retry is a recovery");
        assert_eq!(out.attempts, 2, "one failed run, one successful re-run");
    }

    #[test]
    fn retry_deadline_surfaces_typed_error() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 4);
        let opts = QueryOptions {
            faults: FaultPlan::default().with_crash(0, 0),
            retry: RetryPolicy { max_attempts: 1, ..Default::default() },
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { attempts: 1, .. }),
            "attempt budget of 1 forbids the recovery re-run: {err:?}"
        );
        let opts = QueryOptions {
            faults: FaultPlan::default().with_crash(0, 0),
            retry: RetryPolicy { deadline_rounds: 0, backoff_base: 8, ..Default::default() },
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { spent_rounds, .. } if spent_rounds > 0),
            "backoff waits count against the round deadline: {err:?}"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = RetryPolicy { backoff_base: 16, jitter_seed: 7, ..Default::default() };
        let waits: Vec<u64> = (1..=4).map(|a| policy.backoff_rounds(a)).collect();
        // Deterministic: same policy, same waits.
        assert_eq!(waits, (1..=4).map(|a| policy.backoff_rounds(a)).collect::<Vec<_>>());
        for (i, &w) in waits.iter().enumerate() {
            let base = 16u64 << i;
            assert!(
                w >= base && w < base + 16,
                "retry {}: {w} outside [{base}, {})",
                i + 1,
                base + 16
            );
        }
        assert_eq!(RetryPolicy::default().backoff_rounds(3), 0, "no backoff by default");
    }

    #[test]
    fn link_down_is_not_retried() {
        let sh = shards(&(0..100u64).collect::<Vec<_>>(), 3);
        let opts =
            QueryOptions { faults: FaultPlan::default().with_loss(1000, 2), ..Default::default() };
        let err = run_query(&sh, &ScalarPoint(1), 4, Algorithm::Simple, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::Engine(EngineError::LinkDown { .. })),
            "a dead link is a typed error, not a hang or a retry: {err:?}"
        );
    }

    #[test]
    fn empty_cluster_is_an_error() {
        let sh: Vec<Dataset<ScalarPoint>> = Vec::new();
        let err = run_query(&sh, &ScalarPoint(0), 3, Algorithm::Knn, &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, CoreError::EmptyCluster);
    }

    #[test]
    fn simple_chunk_respects_bandwidth() {
        let opts = QueryOptions {
            bandwidth: BandwidthMode::Enforce { bits_per_round: 512 },
            ..Default::default()
        };
        assert_eq!(opts.simple_chunk(), 3); // (512-33)/128 = 3
        let tiny = QueryOptions {
            bandwidth: BandwidthMode::Enforce { bits_per_round: 64 },
            ..Default::default()
        };
        assert_eq!(tiny.simple_chunk(), 1);
    }

    /// Shards holding contiguous value ranges, so tests can aim queries at
    /// (or away from) a specific machine's points.
    fn range_shards(ranges: &[std::ops::Range<u64>]) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(0);
        ranges
            .iter()
            .map(|r| Dataset::from_points(r.clone().map(ScalarPoint).collect(), &mut ids))
            .collect()
    }

    fn answer_of(local_keys: &[Vec<DistKey>]) -> Vec<DistKey> {
        merge_answers(local_keys).into_iter().map(|(key, _)| key).collect()
    }

    #[test]
    fn liar_is_quarantined_and_answer_matches_survivors_for_every_algorithm() {
        // Machine 1 owns the query's whole neighborhood, so its round-0 lie
        // is always material: the audit must catch it, quarantine it, and
        // certify the re-run over the honest survivors.
        let sh = range_shards(&[0..100, 100..200, 200..300, 300..400]);
        let q = ScalarPoint(150);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        for algo in Algorithm::ALL {
            let out = run_query(&sh, &q, 6, algo, &opts).unwrap();
            assert!(out.degraded, "{algo:?}");
            assert_eq!(out.shards_used, 3, "{algo:?}");
            assert!(out.recovered, "{algo:?}");
            assert_eq!(out.attempts, 2, "{algo:?}: one audited failure, one certified re-run");
            assert_eq!(out.audit.audits_run, 2, "{algo:?}");
            assert_eq!(out.audit.suspects_quarantined, 1, "{algo:?}");
            assert!(out.local_keys[1].is_empty(), "{algo:?}: the liar contributes nothing");
            let want = run_query(&survivors, &q, 6, algo, &QueryOptions::default()).unwrap();
            assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys), "{algo:?}");
        }
    }

    #[test]
    fn equivocator_is_caught_like_a_round_zero_liar() {
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_equivocate(2),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(250), 5, Algorithm::Knn, &opts).unwrap();
        assert!(out.degraded);
        assert_eq!(out.audit.suspects_quarantined, 1);
        assert!(out.local_keys[2].is_empty());
    }

    #[test]
    fn immaterial_lie_passes_the_audit_with_a_certified_answer() {
        // The liar's points are nowhere near the query: inflating them
        // changes nothing the selection sees, the claims equal the honest
        // truth, and the audit certifies the first run.
        let sh = range_shards(&[0..100, 10_000..10_100, 100..200]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &opts).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.audit.audits_run, 1);
        assert_eq!(out.audit.suspects_quarantined, 0);
        let want =
            run_query(&sh, &ScalarPoint(50), 5, Algorithm::Knn, &QueryOptions::default()).unwrap();
        assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys));
    }

    #[test]
    fn everyone_lying_surfaces_audit_failed() {
        // Both machines own part of the answer and both lie: quarantining
        // every suspect would empty the cluster, so no certifiable answer
        // exists — the typed error surfaces instead of a wrong answer.
        let sh = range_shards(&[0..50, 50..100]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(0, 0).with_lie(1, 0),
            ..Default::default()
        };
        let err = run_query(&sh, &ScalarPoint(50), 6, Algorithm::Knn, &opts).unwrap_err();
        assert!(
            matches!(&err, CoreError::AuditFailed { suspects, alive: 2 } if suspects.len() == 2),
            "want AuditFailed naming both liars, got {err:?}"
        );
    }

    #[test]
    fn corrupt_link_quarantines_the_sender() {
        let sh = range_shards(&[0..100, 100..200, 200..300]);
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_corrupt_link(1, 0, 1000),
            ..Default::default()
        };
        let out = run_query(&sh, &ScalarPoint(150), 5, Algorithm::Knn, &opts).unwrap();
        assert_eq!(out.audit.integrity_violations, 1, "the digest chain catches the corruption");
        assert_eq!(out.audit.suspects_quarantined, 1);
        assert!(out.degraded);
        assert!(out.local_keys[1].is_empty(), "the corrupting sender is quarantined");
        let survivors: Vec<_> =
            sh.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, d)| d.clone()).collect();
        let want =
            run_query(&survivors, &ScalarPoint(150), 5, Algorithm::Knn, &QueryOptions::default())
                .unwrap();
        assert_eq!(answer_of(&out.local_keys), answer_of(&want.local_keys));
    }

    #[test]
    fn adversarial_recovery_is_engine_invariant() {
        let sh = range_shards(&[0..100, 100..200, 200..300, 300..400]);
        let q = ScalarPoint(150);
        let mk = |engine| QueryOptions {
            engine,
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let reference = run_query(&sh, &q, 6, Algorithm::Knn, &mk(Engine::Sync)).unwrap();
        assert_eq!(reference.audit.suspects_quarantined, 1);
        for engine in [Engine::Event, Engine::Auto] {
            let out = run_query(&sh, &q, 6, Algorithm::Knn, &mk(engine)).unwrap();
            assert_eq!(out.local_keys, reference.local_keys, "{engine:?}");
            assert_eq!(out.metrics, reference.metrics, "{engine:?}");
            assert_eq!(out.audit, reference.audit, "{engine:?}");
        }
    }

    #[test]
    fn approx_path_is_unaudited_but_integrity_checked() {
        let sh = range_shards(&[0..200, 200..400, 400..600]);
        // A lie plan does not perturb the approx path (its supersets are
        // not the partition the audit certifies), so the answer matches the
        // adversary-free run and no audits are counted.
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_lie(1, 0),
            ..Default::default()
        };
        let out = run_approx_query(&sh, &ScalarPoint(300), 10, &opts).unwrap();
        let clean = run_approx_query(&sh, &ScalarPoint(300), 10, &QueryOptions::default()).unwrap();
        assert_eq!(out.local_keys, clean.local_keys);
        assert_eq!(out.audit.audits_run, 0);
        assert_eq!(out.audit.suspects_quarantined, 0);
        assert!(out.audit.digests_verified > 0, "armed links still verify digests");
        // A corrupt link is still a typed error — never a silent wrong answer.
        let opts = QueryOptions {
            adversary: AdversaryPlan::default().with_corrupt_link(1, 0, 1000),
            ..Default::default()
        };
        let err = run_approx_query(&sh, &ScalarPoint(300), 10, &opts).unwrap_err();
        assert!(
            matches!(err, CoreError::Engine(EngineError::IntegrityViolation { src: 1, .. })),
            "want IntegrityViolation pinned on the sender, got {err:?}"
        );
    }

    #[test]
    fn merge_answers_sorts_globally() {
        use knn_points::{Dist, PointId};
        let a = DistKey::new(Dist::from_u64(5), PointId(1));
        let b = DistKey::new(Dist::from_u64(1), PointId(2));
        let c = DistKey::new(Dist::from_u64(3), PointId(3));
        let merged = merge_answers(&[vec![a], vec![b, c]]);
        assert_eq!(merged.iter().map(|&(_, m)| m).collect::<Vec<_>>(), vec![1, 1, 0]);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
