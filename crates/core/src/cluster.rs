//! The user-facing facade: a simulated k-machine cluster holding a
//! distributed dataset and answering ℓ-NN queries.

use std::collections::HashMap;
use std::time::Duration;

use kmachine::{
    AdversaryPlan, AuditMetrics, BandwidthMode, DeliveryMode, Engine, FaultMetrics, FaultPlan,
    MachineId, RecoveryPlan, RunMetrics, SkewMetrics,
};
use knn_points::{Dataset, Dist, Label, Metric, PointId, Record, ScalarPoint};
use knn_workloads::PartitionStrategy;

use crate::error::CoreError;
use crate::local::nsw::splitmix64;
use crate::local::{IndexBackend, IndexedPoint, ShardIndex};
use crate::protocols::knn::{KnnParams, KnnStats};
use crate::runner::{
    merge_answers, run_approx_query, run_query, Algorithm, ElectionKind, QueryOptions, RetryPolicy,
};
use crate::session::{BatchOutcome, QuerySession};

/// One answer point of an ℓ-NN query.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Neighbor {
    /// The point's unique id.
    pub id: PointId,
    /// Its distance from the query.
    pub dist: Dist,
    /// The machine that holds it (data never leaves its machine — only
    /// ids and distances travel, the paper's privacy motivation).
    pub machine: MachineId,
    /// Its label, when the dataset is labeled.
    pub label: Option<Label>,
}

/// Result of an ℓ-NN query, with full cost accounting.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KnnAnswer {
    /// The ℓ nearest neighbors, ascending by `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
    /// Rounds / messages / bits of the main protocol.
    pub metrics: RunMetrics,
    /// Wall-clock time of the protocol run (meaningful on the event
    /// engine).
    pub wall: Duration,
    /// The leader that coordinated the query.
    pub leader: MachineId,
    /// Election cost, when an election was run.
    pub election_metrics: Option<RunMetrics>,
    /// Algorithm 2 diagnostics (sampling / pruning / iterations).
    pub stats: Option<KnnStats>,
    /// True when the answer may be missing candidates: one or more shards
    /// crashed and the query was answered by the survivors.
    pub degraded: bool,
    /// Shards whose candidates actually reached the selection
    /// (`== k` on a healthy run). In a batch's per-query answers this
    /// mirrors the batch-level value.
    pub shards_used: usize,
    /// Realized faults of the answering run (batch runs report theirs once,
    /// on [`BatchAnswer::faults`]; per-query copies stay empty).
    pub faults: FaultMetrics,
    /// True when answering required recovery work — a fault-aware retry
    /// over the survivors, or an in-run checkpoint-restore rejoin.
    pub recovered: bool,
    /// Engine runs it took to answer (1 on the fault-free fast path).
    pub attempts: u32,
    /// Rounds replayed from checkpoints by rejoining machines.
    pub replayed_rounds: u64,
    /// Byzantine-audit accounting of the answering run(s): digests
    /// verified, integrity violations caught, semantic audits executed,
    /// suspects quarantined. Empty without an [`AdversaryPlan`]. In a
    /// batch's per-query answers this stays empty — the batch reports its
    /// audit once, on [`BatchAnswer::audit`].
    pub audit: AuditMetrics,
}

/// Result of a batched query run: per-query answers plus the aggregate cost
/// of the one engine run that served them all.
///
/// Inside each per-query [`KnnAnswer`]: `metrics.rounds` is the batch round
/// in which that query completed, `metrics.messages`/`metrics.bits` are the
/// traffic attributed to that query's tag, `metrics.sends_per_machine` is
/// **empty** (per-machine sends are accounted only on the aggregate),
/// `wall` is zero (the batch shares one wall clock, reported here), and
/// `election_metrics` is `None` — the batch's single election is reported
/// once, on this struct.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BatchAnswer {
    /// Per-query answers, in input order.
    pub answers: Vec<KnnAnswer>,
    /// Aggregate communication costs of the batch's single engine run
    /// (`per_tag` splits messages/bits by query).
    pub metrics: RunMetrics,
    /// Pipelining evidence when the batch ran under relaxed delivery on
    /// the event engine — per-machine max round skew and promise counters;
    /// empty ([`SkewMetrics::tracked`] is false) otherwise.
    pub skew: SkewMetrics,
    /// Wall-clock time of the batch run.
    pub wall: Duration,
    /// The leader that coordinated every query in the batch.
    pub leader: MachineId,
    /// Cost of the batch's **single** leader election (`None` under
    /// [`ElectionKind::Fixed`]).
    pub election_metrics: Option<RunMetrics>,
    /// True when the batch's answers may be missing candidates (one or
    /// more shards crashed; every query was answered by the survivors).
    pub degraded: bool,
    /// Shards whose candidates actually reached the selection.
    pub shards_used: usize,
    /// Realized faults of the batch's engine run(s).
    pub faults: FaultMetrics,
    /// True when serving the batch required recovery work — lost queries
    /// re-planned onto the survivors, or a checkpoint-restore rejoin.
    pub recovered: bool,
    /// Engine runs it took to serve the batch (1 on the fast path).
    pub attempts: u32,
    /// Rounds replayed from checkpoints by rejoining machines.
    pub replayed_rounds: u64,
    /// Byzantine-audit accounting summed over the batch's engine run(s).
    /// Empty without an [`AdversaryPlan`]; identical on every engine and
    /// pool size.
    pub audit: AuditMetrics,
}

/// Builder for [`KnnCluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    k: usize,
    opts: QueryOptions,
    algorithm: Algorithm,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder { k: 4, opts: QueryOptions::default(), algorithm: Algorithm::Knn }
    }
}

impl ClusterBuilder {
    /// Same as [`KnnCluster::builder`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of machines (k ≥ 1).
    pub fn machines(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Master seed for all randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Link bandwidth in bits per round (the model's `B`).
    pub fn bandwidth_bits(mut self, bits: u64) -> Self {
        self.opts.bandwidth = BandwidthMode::Enforce { bits_per_round: bits };
        self
    }

    /// Remove the bandwidth constraint (messages still counted).
    pub fn unlimited_bandwidth(mut self) -> Self {
        self.opts.bandwidth = BandwidthMode::Unlimited;
        self
    }

    /// Execution engine. [`Engine::Auto`] picks sync or event per
    /// run from the cluster size, per-round payload budget, and pool size;
    /// [`Engine::Event`] is the barrier-free engine batched serving wants
    /// on multi-core hosts. Answers and metrics are identical under every
    /// engine; the `KNN_ENGINE` environment variable overrides this choice.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.opts.engine = engine;
        self
    }

    /// Delivery discipline of the event engine.
    /// [`DeliveryMode::Relaxed`] lets machines pipeline several rounds past
    /// quiet peers (PANDA-style quiescence promises) — answers and metrics
    /// are identical to exact delivery, and the realized overlap is
    /// reported in [`BatchAnswer::skew`]. Ignored by the sync engine; the `KNN_DELIVERY` environment variable overrides this
    /// choice.
    pub fn delivery(mut self, delivery: DeliveryMode) -> Self {
        self.opts.delivery = delivery;
        self
    }

    /// Distance metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.opts.metric = metric;
        self
    }

    /// Default query algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Leader election mode.
    pub fn election(mut self, election: ElectionKind) -> Self {
        self.opts.election = election;
        self
    }

    /// Algorithm 2 tunables.
    pub fn knn_params(mut self, params: KnnParams) -> Self {
        self.opts.params = params;
        self
    }

    /// Synthetic per-round latency (see [`QueryOptions::round_latency`]).
    pub fn round_latency(mut self, latency: Duration) -> Self {
        self.opts.round_latency = latency;
        self
    }

    /// Deterministic fault injection for every query run: stragglers,
    /// fail-stop crashes, lossy links (see [`FaultPlan`]). Elections stay
    /// fault-free, crashes are recovered by retrying over the surviving
    /// shards (answers come back flagged [`KnnAnswer::degraded`]), and a
    /// link exhausting its retry budget surfaces as the typed error
    /// [`kmachine::EngineError::LinkDown`].
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.opts.faults = faults;
        self
    }

    /// Crash-recovery plan: checkpoint cadence, retention window, and
    /// scheduled machine rejoins (see [`RecoveryPlan`]). A rejoining
    /// machine is restored from its last protocol checkpoint, replays the
    /// retained rounds, and serves again — answers stay byte-identical to
    /// the fault-free run and the work is reported on
    /// [`KnnAnswer::recovered`] / [`KnnAnswer::replayed_rounds`].
    pub fn recovery(mut self, recovery: RecoveryPlan) -> Self {
        self.opts.recovery = recovery;
        self
    }

    /// Deadline-bounded retry policy for fault-aware re-runs: attempt and
    /// simulated-round budgets plus deterministic exponential backoff (see
    /// [`RetryPolicy`]). Exhausting the budget surfaces as the typed error
    /// [`CoreError::DeadlineExceeded`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.opts.retry = retry;
        self
    }

    /// Deterministic Byzantine adversary for every query run: machines
    /// that lie about their candidates, equivocate per receiver, or
    /// corrupt link payloads (see [`AdversaryPlan`]). Corruption is caught
    /// by per-link digest chains; lies are caught by the semantic audit
    /// (claims re-checked against the real shards). Caught machines are
    /// quarantined and the query re-runs on the honest survivors under the
    /// [`RetryPolicy`]; the work is reported on [`KnnAnswer::audit`] /
    /// [`BatchAnswer::audit`]. Elections stay adversary-free, like
    /// [`Self::faults`].
    pub fn adversary(mut self, adversary: AdversaryPlan) -> Self {
        self.opts.adversary = adversary;
        self
    }

    /// Which local index each shard builds for the batched serving path:
    /// [`IndexBackend::Exact`] (the default — brute-force parity) or
    /// [`IndexBackend::Nsw`] (the navigable-small-world graph with `ef`/`m`
    /// recall knobs and cheap [`KnnCluster::insert`]). The sequential
    /// [`KnnCluster::query`] path always scans the full shard either way —
    /// it is the oracle the conformance suite checks the backends against.
    pub fn index_backend(mut self, backend: IndexBackend) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Finish building.
    pub fn build<P: IndexedPoint>(self) -> KnnCluster<P> {
        assert!(self.k >= 1, "cluster needs at least one machine");
        KnnCluster {
            shards: Vec::new(),
            index: Vec::new(),
            shard_indices: Vec::new(),
            opts: self.opts,
            algorithm: self.algorithm,
            k: self.k,
            next_id: 0,
        }
    }
}

/// A simulated k-machine cluster with a distributed dataset.
///
/// The default point type is the paper's experimental workload
/// ([`ScalarPoint`]); `KnnCluster::<VecPoint>::builder()` (or type
/// inference from [`KnnCluster::load`]) selects other point types.
#[derive(Debug)]
pub struct KnnCluster<P: IndexedPoint = ScalarPoint> {
    shards: Vec<Dataset<P>>,
    /// Per-shard `id → record index`, for resolving answers to labels and
    /// rejecting duplicate-id inserts.
    index: Vec<HashMap<PointId, usize>>,
    /// Per-shard candidate-generation indices, built at load, kept current
    /// by [`Self::insert`], and reused by every serving-path query (see
    /// [`ShardIndex`]).
    shard_indices: Vec<ShardIndex<P>>,
    opts: QueryOptions,
    algorithm: Algorithm,
    k: usize,
    /// Next id [`Self::insert`] hands out: one past the largest id loaded
    /// or inserted so far, so generated ids never collide with data ids.
    next_id: u64,
}

impl KnnCluster {
    /// Start building a cluster. The builder is point-type-agnostic:
    /// [`ClusterBuilder::build`] (or the dataset you load) fixes `P`.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }
}

impl<P: IndexedPoint> KnnCluster<P> {
    /// Number of machines.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total points loaded.
    pub fn total_points(&self) -> usize {
        self.shards.iter().map(Dataset::len).sum()
    }

    /// Points held by machine `i`.
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards.get(i).map_or(0, Dataset::len)
    }

    /// The query options in effect.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// Switch the execution engine without reloading the data or rebuilding
    /// the indices. Answers and metrics are engine-invariant; only the wall
    /// clock changes — so a serving deployment can move between exact
    /// accounting ([`Engine::Sync`]) and barrier-free parallel execution
    /// ([`Engine::Event`]) on a live cluster.
    pub fn set_engine(&mut self, engine: Engine) {
        self.opts.engine = engine;
    }

    /// Switch the event engine's delivery discipline on a live cluster —
    /// the relaxed-mode counterpart of [`Self::set_engine`]. Answers and
    /// metrics are delivery-invariant; only wall-clock overlap (and the
    /// [`BatchAnswer::skew`] evidence) changes.
    pub fn set_delivery(&mut self, delivery: DeliveryMode) {
        self.opts.delivery = delivery;
    }

    /// Distribute a global dataset across the machines.
    pub fn load(&mut self, data: Dataset<P>, strategy: PartitionStrategy) {
        let shards = strategy
            .split(data.records, self.k, self.opts.seed)
            .into_iter()
            .map(Dataset::new)
            .collect();
        self.load_shards_unchecked(shards);
    }

    /// Install per-machine shards directly (the "data is naturally
    /// distributed at k sites" scenario — hospitals, sensors, …).
    pub fn load_shards(&mut self, shards: Vec<Dataset<P>>) -> Result<(), CoreError> {
        if shards.len() != self.k {
            return Err(CoreError::ShardCount { expected: self.k, got: shards.len() });
        }
        self.load_shards_unchecked(shards);
        Ok(())
    }

    fn load_shards_unchecked(&mut self, shards: Vec<Dataset<P>>) {
        // Index construction is per-shard independent and embarrassingly
        // parallel: the id→position maps and candidate-generation indices
        // (sorted arrays / k-d trees / NSW graphs) build concurrently on
        // the rayon pool. Each shard's build is internally sequential and
        // results are collected in shard order, so loading is deterministic
        // at any pool size.
        use rayon::prelude::*;
        self.index = shards
            .par_iter()
            .map(|d| d.records.iter().enumerate().map(|(i, r)| (r.id, i)).collect())
            .collect();
        self.shard_indices = shards
            .par_iter()
            .map(|d| ShardIndex::build(&d.records, self.opts.backend, self.opts.metric))
            .collect();
        self.next_id = shards
            .iter()
            .filter_map(Dataset::max_id)
            .max()
            .map_or(0, |max| max.0.saturating_add(1));
        self.shards = shards;
    }

    /// Insert one point into the live cluster: assign it a fresh id, route
    /// it to a deterministic shard, and absorb it into that shard's index —
    /// queries see it immediately, **no reload**. Returns the assigned id
    /// and hosting machine.
    ///
    /// Routing is a seeded hash of the id, so a cluster built with the same
    /// seed places the same stream of inserts identically on any engine at
    /// any pool size. Under [`IndexBackend::Nsw`] the insert reuses the
    /// graph's search path (`O(log n)`-ish). The exact backend goes through
    /// [`IndexedPoint::index_insert`]: scalars binary-search the sorted
    /// array and shift its tail (`O(log n)` compares plus an `O(n)`
    /// memmove), vectors rebuild the k-d tree (`O(n log n)` — choose NSW
    /// for insert-heavy vector workloads), bit points have no index to
    /// update.
    pub fn insert(&mut self, point: P) -> Result<(PointId, MachineId), CoreError> {
        self.insert_labeled(point, None)
    }

    /// [`Self::insert`] with a label attached to the new record.
    pub fn insert_labeled(
        &mut self,
        point: P,
        label: Option<Label>,
    ) -> Result<(PointId, MachineId), CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        let id = PointId(self.next_id);
        let machine = (splitmix64(self.opts.seed ^ id.0) % self.k as u64) as MachineId;
        self.insert_record_into(machine, Record { id, point, label })?;
        Ok((id, machine))
    }

    /// Insert a caller-built record into a specific shard — the
    /// "data is naturally distributed" counterpart of [`Self::insert`],
    /// for callers that manage ids and placement themselves (and for
    /// replaying one cluster's insert stream into another verbatim).
    /// Rejects ids already present on any shard.
    pub fn insert_record_into(
        &mut self,
        machine: MachineId,
        record: Record<P>,
    ) -> Result<(), CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        if machine >= self.k {
            return Err(CoreError::NoSuchMachine { machine, machines: self.k });
        }
        if self.index.iter().any(|map| map.contains_key(&record.id)) {
            return Err(CoreError::DuplicateId { id: record.id });
        }
        self.next_id = self.next_id.max(record.id.0.saturating_add(1));
        let records = &mut self.shards[machine].records;
        let pos = records.len();
        self.index[machine].insert(record.id, pos);
        records.push(record);
        // Keep the candidate index — and with it the Byzantine audit's
        // shard-local truth — current with the shard it summarizes.
        self.shard_indices[machine].insert(records, pos);
        Ok(())
    }

    /// Answer an ℓ-NN query with the cluster's default algorithm.
    pub fn query(&self, q: &P, ell: usize) -> Result<KnnAnswer, CoreError> {
        self.query_with(self.algorithm, q, ell)
    }

    /// Answer an *approximate* ℓ-NN query: one pruning pass, no iterated
    /// selection. Returns a superset of the exact ℓ-NN (≈1.75ℓ neighbors,
    /// `contains_exact` tells you the guarantee held) in fewer rounds —
    /// ideal for majority-vote or averaging consumers.
    pub fn query_approx(&self, q: &P, ell: usize) -> Result<KnnAnswer, CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        let out = run_approx_query(&self.shards, q, ell, &self.opts)?;
        let neighbors = self.resolve(&out.local_keys);
        let shards_used = self.k - out.faults.crashed.len();
        Ok(KnnAnswer {
            neighbors,
            metrics: out.metrics,
            wall: out.wall,
            leader: out.leader,
            election_metrics: out.election_metrics,
            stats: None,
            degraded: shards_used < self.k,
            shards_used,
            faults: out.faults,
            recovered: out.recovery.any(),
            attempts: 1,
            replayed_rounds: out.recovery.replayed_rounds,
            audit: out.audit,
        })
    }

    /// Answer an ℓ-NN query with a specific algorithm.
    pub fn query_with(
        &self,
        algorithm: Algorithm,
        q: &P,
        ell: usize,
    ) -> Result<KnnAnswer, CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        let out = run_query(&self.shards, q, ell, algorithm, &self.opts)?;
        let neighbors = self.resolve(&out.local_keys);
        Ok(KnnAnswer {
            neighbors,
            metrics: out.metrics,
            wall: out.wall,
            leader: out.leader,
            election_metrics: out.election_metrics,
            stats: out.stats,
            degraded: out.degraded,
            shards_used: out.shards_used,
            faults: out.faults,
            recovered: out.recovered,
            attempts: out.attempts,
            replayed_rounds: out.replayed_rounds,
            audit: out.audit,
        })
    }

    /// Open a serving session: elect the leader **once** and reuse it for
    /// every batch the session runs. [`Self::query_batch`] opens a
    /// throwaway session per call; hold one of these to amortize the
    /// election across many batches.
    pub fn session(&self) -> Result<QuerySession<'_, P>, CoreError> {
        if self.shards.is_empty() {
            return Err(CoreError::NotLoaded);
        }
        QuerySession::new(&self.shards, &self.shard_indices, self.opts.clone())
    }

    /// Answer a batch of ℓ-NN queries with the cluster's default algorithm
    /// in **one engine run**: one leader election, one protocol instance
    /// per query multiplexed over the shared links, and per-shard indices
    /// (built at load) generating local candidates in `O(ℓ log n)`.
    ///
    /// The per-query answers are exactly what sequential [`Self::query`]
    /// calls would return; the costs are what batching saves.
    pub fn query_batch(&self, queries: &[P], ell: usize) -> Result<BatchAnswer, CoreError> {
        self.query_batch_with(self.algorithm, queries, ell)
    }

    /// Answer a batch of ℓ-NN queries with a specific algorithm.
    pub fn query_batch_with(
        &self,
        algorithm: Algorithm,
        queries: &[P],
        ell: usize,
    ) -> Result<BatchAnswer, CoreError> {
        let session = self.session()?;
        let out = session.run_batch(queries, ell, algorithm)?;
        Ok(self.resolve_batch(out))
    }

    /// Answer a batch of *approximate* ℓ-NN queries (pruning-only
    /// supersets, as [`Self::query_approx`]) in one engine run.
    pub fn query_batch_approx(&self, queries: &[P], ell: usize) -> Result<BatchAnswer, CoreError> {
        let session = self.session()?;
        let out = session.run_batch_approx(queries, ell)?;
        Ok(self.resolve_batch(out))
    }

    /// Resolve a batch outcome's keys into labeled per-query answers.
    fn resolve_batch(&self, out: BatchOutcome) -> BatchAnswer {
        let answers = out
            .queries
            .iter()
            .map(|q| {
                // Per-machine sends are not attributed per query; leave the
                // vector empty rather than pretending k zeros are counts.
                let metrics = RunMetrics {
                    rounds: q.done_round,
                    messages: q.messages,
                    bits: q.bits,
                    ..Default::default()
                };
                KnnAnswer {
                    neighbors: self.resolve(&q.local_keys),
                    metrics,
                    wall: Duration::ZERO,
                    leader: out.leader,
                    election_metrics: None,
                    stats: q.stats,
                    degraded: out.degraded,
                    shards_used: out.shards_used,
                    faults: FaultMetrics::default(),
                    recovered: q.recovered,
                    attempts: q.attempts,
                    replayed_rounds: 0,
                    audit: AuditMetrics::default(),
                }
            })
            .collect();
        BatchAnswer {
            answers,
            metrics: out.metrics,
            skew: out.skew,
            wall: out.wall,
            leader: out.leader,
            election_metrics: out.election_metrics,
            degraded: out.degraded,
            shards_used: out.shards_used,
            faults: out.faults,
            recovered: out.recovered,
            attempts: out.attempts,
            replayed_rounds: out.replayed_rounds,
            audit: out.audit,
        }
    }

    /// Map answer keys back to labeled neighbors via the shard indices.
    fn resolve(&self, local_keys: &[Vec<knn_points::DistKey>]) -> Vec<Neighbor> {
        merge_answers(local_keys)
            .into_iter()
            .map(|(key, machine)| {
                let label = self.index[machine]
                    .get(&key.id)
                    .and_then(|&i| self.shards[machine].records[i].label);
                Neighbor { id: key.id, dist: key.dist, machine, label }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{IdAssigner, ScalarPoint};

    fn loaded_cluster(k: usize, n: u64) -> KnnCluster<ScalarPoint> {
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_labeled(
            (0..n).map(|i| (ScalarPoint(i * 10), Label::Class((i % 3) as u32))).collect(),
            &mut ids,
        );
        let mut cluster: KnnCluster<ScalarPoint> =
            KnnCluster::builder().machines(k).seed(3).build();

        cluster.load(data, PartitionStrategy::Shuffled);
        cluster
    }

    #[test]
    fn query_returns_sorted_labeled_neighbors() {
        let cluster = loaded_cluster(4, 100);
        let ans = cluster.query(&ScalarPoint(501), 5).unwrap();
        assert_eq!(ans.neighbors.len(), 5);
        assert!(ans.neighbors.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
        assert!(ans.neighbors.iter().all(|n| n.label.is_some()));
        // Nearest to 501 among multiples of 10 is 500.
        assert_eq!(ans.neighbors[0].dist.as_u64(), 1);
    }

    #[test]
    fn unloaded_cluster_errors() {
        let cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        assert_eq!(cluster.query(&ScalarPoint(1), 2).unwrap_err(), CoreError::NotLoaded);
    }

    #[test]
    fn shard_count_mismatch_errors() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        let err = cluster.load_shards(vec![Dataset::new(Vec::new())]).unwrap_err();
        assert_eq!(err, CoreError::ShardCount { expected: 3, got: 1 });
    }

    #[test]
    fn algorithms_agree_through_the_facade() {
        let cluster = loaded_cluster(5, 200);
        let q = ScalarPoint(777);
        let reference: Vec<PointId> = cluster
            .query_with(Algorithm::Simple, &q, 7)
            .unwrap()
            .neighbors
            .iter()
            .map(|n| n.id)
            .collect();
        for algo in Algorithm::ALL {
            let got: Vec<PointId> =
                cluster.query_with(algo, &q, 7).unwrap().neighbors.iter().map(|n| n.id).collect();
            assert_eq!(got, reference, "{algo:?}");
        }
    }

    #[test]
    fn approx_query_is_a_cheap_superset() {
        let cluster = loaded_cluster(6, 4000);
        let q = ScalarPoint(20_000);
        let exact = cluster.query(&q, 50).unwrap();
        let approx = cluster.query_approx(&q, 50).unwrap();
        assert!(approx.neighbors.len() >= exact.neighbors.len());
        // The exact answer is a prefix of the approximate superset.
        assert_eq!(
            &approx.neighbors[..50],
            &exact.neighbors[..],
            "approx must contain the exact answer as its prefix"
        );
        assert!(approx.metrics.rounds < exact.metrics.rounds);
        assert!(approx.neighbors.iter().all(|n| n.label.is_some()));
    }

    #[test]
    fn query_batch_can_request_the_event_engine() {
        let mut event_cluster: KnnCluster<ScalarPoint> =
            KnnCluster::builder().machines(4).seed(3).engine(Engine::Event).build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..200u64).map(|i| ScalarPoint(i * 7)).collect(), &mut ids);
        event_cluster.load(data, PartitionStrategy::Shuffled);
        let queries: Vec<ScalarPoint> = (0..5).map(|i| ScalarPoint(i * 250)).collect();
        let batch = event_cluster.query_batch(&queries, 4).unwrap();
        assert_eq!(batch.answers.len(), 5);
        // Same cluster layout through the sync engine gives the same batch.
        let mut sync_cluster: KnnCluster<ScalarPoint> =
            KnnCluster::builder().machines(4).seed(3).engine(Engine::Sync).build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..200u64).map(|i| ScalarPoint(i * 7)).collect(), &mut ids);
        sync_cluster.load(data, PartitionStrategy::Shuffled);
        let want = sync_cluster.query_batch(&queries, 4).unwrap();
        assert_eq!(batch.metrics, want.metrics);
        for (a, b) in batch.answers.iter().zip(&want.answers) {
            assert_eq!(a.neighbors, b.neighbors);
        }
    }

    #[test]
    fn faulty_cluster_degrades_gracefully() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(4)
            .seed(3)
            .faults(FaultPlan::default().with_crash(1, 0))
            .build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
        cluster.load(data, PartitionStrategy::Shuffled);
        let ans = cluster.query(&ScalarPoint(501), 5).unwrap();
        assert!(ans.degraded);
        assert_eq!(ans.shards_used, 3);
        assert_eq!(ans.neighbors.len(), 5);
        assert!(ans.neighbors.iter().all(|n| n.machine != 1), "dead shards contribute nothing");
        // The healthy cluster is not degraded.
        let healthy = loaded_cluster(4, 100).query(&ScalarPoint(501), 5).unwrap();
        assert!(!healthy.degraded);
        assert_eq!(healthy.shards_used, 4);
        assert!(!healthy.faults.any());
    }

    #[test]
    fn rejoined_cluster_is_not_degraded() {
        let build = |recovery: RecoveryPlan| {
            let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
                .machines(4)
                .seed(3)
                .bandwidth_bits(256)
                .recovery(recovery)
                .build();
            let mut ids = IdAssigner::new(0);
            let data =
                Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
            cluster.load(data, PartitionStrategy::Shuffled);
            cluster
        };
        let clean = build(RecoveryPlan::default());
        let healing = build(RecoveryPlan::default().with_rejoin(2, 1, 3));
        let queries: Vec<ScalarPoint> = (0..4).map(|i| ScalarPoint(i * 301)).collect();
        let want = clean.query_batch_with(Algorithm::Simple, &queries, 5).unwrap();
        let got = healing.query_batch_with(Algorithm::Simple, &queries, 5).unwrap();
        // The rejoined machine serves again: answers and aggregate costs are
        // byte-identical to the fault-free batch, and nothing is degraded.
        assert!(!got.degraded);
        assert_eq!(got.shards_used, 4);
        assert!(got.recovered);
        assert_eq!(got.attempts, 1);
        assert!(got.replayed_rounds >= 1);
        assert_eq!(got.metrics, want.metrics);
        for (a, b) in got.answers.iter().zip(&want.answers) {
            assert_eq!(a.neighbors, b.neighbors);
        }
        assert!(!want.recovered);
        assert_eq!(want.replayed_rounds, 0);
    }

    #[test]
    fn byzantine_liar_is_caught_through_the_facade() {
        // Two clusters over the same 3-shard layout: one honest, one with
        // machine 1 lying. The Byzantine cluster must quarantine the liar
        // and return exactly the honest survivors' answer, with the audit
        // work reported.
        let load = |cluster: &mut KnnCluster<ScalarPoint>| {
            let mut ids = IdAssigner::new(0);
            let shards: Vec<Dataset<ScalarPoint>> = (0..3u64)
                .map(|m| {
                    Dataset::from_points(
                        (m * 100..(m + 1) * 100).map(ScalarPoint).collect(),
                        &mut ids,
                    )
                })
                .collect();
            cluster.load_shards(shards).unwrap();
        };
        let mut byz: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(3)
            .seed(3)
            .adversary(AdversaryPlan::default().with_lie(1, 0))
            .build();
        load(&mut byz);
        let ans = byz.query(&ScalarPoint(150), 5).unwrap();
        assert!(ans.degraded);
        assert_eq!(ans.shards_used, 2);
        assert!(ans.recovered);
        assert_eq!(ans.audit.suspects_quarantined, 1);
        assert!(ans.audit.audits_run >= 2);
        assert!(ans.neighbors.iter().all(|n| n.machine != 1), "liars contribute nothing");
        // The certified answer is the exact 5-NN of 150 over the honest
        // survivors' values {0..100} ∪ {200..300}: by (distance, id) that is
        // 200, 99, 201, 98, 202.
        assert_eq!(
            ans.neighbors.iter().map(|n| n.dist.as_u64()).collect::<Vec<_>>(),
            vec![50, 51, 51, 52, 52]
        );
        assert!(ans.neighbors.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
        let batch = byz.query_batch(&[ScalarPoint(150)], 5).unwrap();
        assert_eq!(batch.audit.suspects_quarantined, 1);
        assert_eq!(
            batch.answers[0].neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            ans.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            "sequential and batched Byzantine recovery agree"
        );
        assert_eq!(
            batch.answers[0].audit,
            AuditMetrics::default(),
            "per-query copies stay empty; the batch reports its audit once"
        );
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let mut cluster: KnnCluster<ScalarPoint> = KnnCluster::builder()
            .machines(4)
            .seed(3)
            .faults(FaultPlan::default().with_crash(1, 0))
            .retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() })
            .build();
        let mut ids = IdAssigner::new(0);
        let data =
            Dataset::from_points((0..120u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
        cluster.load(data, PartitionStrategy::Shuffled);
        let err = cluster.query_with(Algorithm::Knn, &ScalarPoint(501), 5).unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { attempts: 1, .. }),
            "want DeadlineExceeded, got {err:?}"
        );
    }

    #[test]
    fn insert_serves_immediately_on_both_backends() {
        for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
            let mut cluster: KnnCluster<ScalarPoint> =
                KnnCluster::builder().machines(4).seed(3).index_backend(backend).build();
            let mut ids = IdAssigner::new(0);
            let data =
                Dataset::from_points((0..100u64).map(|i| ScalarPoint(i * 10)).collect(), &mut ids);
            cluster.load(data, PartitionStrategy::Shuffled);
            // 503 is nearer to the query than any loaded multiple of 10.
            let (id, machine) =
                cluster.insert_labeled(ScalarPoint(503), Some(Label::Class(7))).unwrap();
            assert!(machine < 4);
            let ans = cluster.query_batch(&[ScalarPoint(502)], 3).unwrap();
            let top = &ans.answers[0].neighbors[0];
            assert_eq!(top.id, id, "{backend:?}: the inserted point wins, no reload");
            assert_eq!(top.machine, machine);
            assert_eq!(top.label, Some(Label::Class(7)));
            assert_eq!(top.dist.as_u64(), 1);
            // The sequential oracle path agrees.
            let seq = cluster.query(&ScalarPoint(502), 3).unwrap();
            assert_eq!(seq.neighbors[0].id, id);
            assert_eq!(cluster.total_points(), 101);
        }
    }

    #[test]
    fn insert_ids_are_fresh_and_routing_is_seeded() {
        let mut a = loaded_cluster(4, 50);
        let mut b = loaded_cluster(4, 50);
        for v in 0..20u64 {
            let (id_a, m_a) = a.insert(ScalarPoint(v * 3)).unwrap();
            let (id_b, m_b) = b.insert(ScalarPoint(v * 3)).unwrap();
            assert_eq!((id_a, m_a), (id_b, m_b), "same seed, same placement");
            assert!(a.shards[m_a].records.iter().filter(|r| r.id == id_a).count() == 1);
        }
        assert_eq!(a.total_points(), 70);
    }

    #[test]
    fn insert_validation_is_typed() {
        let mut empty: KnnCluster<ScalarPoint> = KnnCluster::builder().machines(3).build();
        assert_eq!(empty.insert(ScalarPoint(1)).unwrap_err(), CoreError::NotLoaded);
        let mut cluster = loaded_cluster(3, 30);
        let taken = cluster.shards[0].records[0].id;
        let dup = Record { id: taken, point: ScalarPoint(5), label: None };
        assert_eq!(
            cluster.insert_record_into(0, dup).unwrap_err(),
            CoreError::DuplicateId { id: taken }
        );
        let fresh = Record { id: PointId(u64::MAX - 1), point: ScalarPoint(5), label: None };
        assert_eq!(
            cluster.insert_record_into(9, fresh).unwrap_err(),
            CoreError::NoSuchMachine { machine: 9, machines: 3 }
        );
    }

    #[test]
    fn accessors() {
        let cluster = loaded_cluster(4, 100);
        assert_eq!(cluster.k(), 4);
        assert_eq!(cluster.total_points(), 100);
        assert_eq!((0..4).map(|i| cluster.shard_len(i)).sum::<usize>(), 100);
        assert_eq!(cluster.shard_len(99), 0);
    }
}
