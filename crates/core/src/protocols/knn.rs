//! **Algorithm 2** — Distributed ℓ-NN computation.
//!
//! Theorem 2.4: `O(log ℓ)` rounds whp and `O(k log ℓ)` messages,
//! *independent of both n and k*. The stages, per the paper:
//!
//! 1. every machine truncates its local input to its ℓ best candidates
//!    (local computation, free in the model);
//! 2. every machine samples `⌈12·log₂ ℓ⌉` candidates uniformly and ships
//!    them to the leader — over a B-bit link this costs `O(log ℓ)` rounds;
//! 3. the leader sorts the `≤ 12k·log₂ ℓ` samples and broadcasts the sample
//!    of rank `⌈21·log₂ ℓ⌉` as the pruning threshold `r`;
//! 4. machines discard candidates beyond `r` — Lemma 2.3: at most `11ℓ`
//!    survive, with probability `≥ 1 − 2/ℓ²`;
//! 5. Algorithm 1 selects the ℓ smallest among the survivors.
//!
//! **Hardening deviation (documented in DESIGN.md §4.3):** the paper's
//! pruning leaves at least ℓ survivors only with high probability *in ℓ*.
//! With `KnnParams::harden` (default), machines report their survivor
//! counts (+2 rounds, O(k) messages); if fewer than ℓ survive, the leader
//! orders a rollback and Algorithm 1 runs on the unpruned candidates. The
//! result is exact selection with certainty, and the fallback rate is
//! itself measured by the Lemma 2.3 experiment.

use kmachine::{Ctx, MachineId, Payload, Protocol, Step};
use knn_points::Key;
use rand::RngExt;

use super::select_core::{CoreStatus, SelMsg, SelectCore};

/// A closure producing this machine's local keys, run inside round 0 so the
/// distance computation executes on whichever worker thread runs the
/// machine under the event engine — exactly where the paper's experiment
/// spends its local time.
pub type KeySource<'a, K> = Box<dyn FnOnce() -> Vec<K> + Send + 'a>;

/// Tunables of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnParams {
    /// Samples per machine = `max(1, ⌈sample_factor · log₂ ℓ⌉)`; the paper
    /// uses 12.
    pub sample_factor: u32,
    /// Pruning threshold rank = `max(1, ⌈rank_factor · log₂ ℓ⌉)`; the paper
    /// uses 21.
    pub rank_factor: u32,
    /// Verify that pruning kept at least ℓ candidates and roll back if not
    /// (see module docs). Disable to run the paper's algorithm verbatim.
    pub harden: bool,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { sample_factor: 12, rank_factor: 21, harden: true }
    }
}

impl KnnParams {
    /// Samples each machine draws for ℓ requested neighbors.
    pub fn sample_size(&self, ell: u64) -> usize {
        scaled_log(self.sample_factor, ell)
    }

    /// Rank of the pruning threshold within the sorted samples (1-based).
    pub fn prune_rank(&self, ell: u64) -> usize {
        scaled_log(self.rank_factor, ell)
    }
}

/// `max(1, ⌈factor · log₂ ℓ⌉)`.
fn scaled_log(factor: u32, ell: u64) -> usize {
    let lg = (ell.max(1) as f64).log2();
    ((factor as f64 * lg).ceil() as usize).max(1)
}

/// Diagnostics from the leader's point of view, consumed by the
/// experiments (Lemma 2.3, Theorem 2.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct KnnStats {
    /// Samples requested per machine.
    pub sample_size: u64,
    /// Rank used for the pruning threshold.
    pub prune_rank: u64,
    /// Total candidates before pruning (Σ per-machine `min(ℓ, |input|)`).
    pub total_candidates: u64,
    /// Candidates surviving the prune (only known when hardening is on).
    pub survivors: u64,
    /// Whether the hardening check rolled the prune back.
    pub rolled_back: bool,
    /// Pivot iterations of the embedded Algorithm 1.
    pub select_iterations: u64,
}

/// Per-machine output of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnnOutput<K: Key> {
    /// This machine's members of the global ℓ-NN set.
    pub keys: Vec<K>,
    /// Leader-side diagnostics (`None` on non-leaders).
    pub stats: Option<KnnStats>,
}

/// Messages of Algorithm 2.
#[derive(Debug, Clone)]
pub enum KnnMsg<K: Key> {
    /// Machine → leader: its sampled candidate keys (one batch).
    Samples(Vec<K>),
    /// Leader → all: prune to keys `≤ r`.
    Prune {
        /// The pruning threshold (the rank-`⌈21 log₂ ℓ⌉` sample).
        r: K,
    },
    /// Machine → leader (hardening): survivor and total candidate counts.
    PrunedCount {
        /// Candidates with key `≤ r`.
        kept: u64,
        /// Candidates before pruning.
        total: u64,
    },
    /// Leader → all (hardening): whether to roll the prune back.
    PruneDecision {
        /// `true`: run selection on the *unpruned* candidates.
        rollback: bool,
    },
    /// Embedded Algorithm 1 traffic.
    Sel(SelMsg<K>),
}

impl<K: Key> Payload for KnnMsg<K> {
    fn size_bits(&self) -> u64 {
        match self {
            KnnMsg::Samples(v) => 32 + K::BITS * v.len() as u64,
            KnnMsg::Prune { .. } => 3 + K::BITS,
            KnnMsg::PrunedCount { .. } => 3 + 128,
            KnnMsg::PruneDecision { .. } => 4,
            KnnMsg::Sel(inner) => 3 + inner.size_bits(),
        }
    }
}

enum KPhase {
    /// Waiting for round 0.
    Init,
    /// Leader: collecting sample batches.
    CollectSamples,
    /// Worker: waiting for the prune threshold.
    AwaitPrune,
    /// Leader: collecting survivor counts (hardening).
    CollectCounts,
    /// Worker: waiting for the rollback decision (hardening).
    AwaitDecision,
    /// Embedded Algorithm 1 running.
    Selection,
}

/// Per-machine instance of the paper's Algorithm 2.
pub struct KnnProtocol<'a, K: Key> {
    id: MachineId,
    k: usize,
    leader: MachineId,
    ell: u64,
    params: KnnParams,
    input: Option<KeySource<'a, K>>,
    /// Local candidates (ℓ best), sorted ascending.
    candidates: Vec<K>,
    /// Prefix length of `candidates` surviving the prune.
    pruned_len: usize,
    phase: KPhase,
    core: Option<SelectCore<K>>,
    stats: KnnStats,
    // Leader scratch.
    samples: Vec<K>,
    pending: usize,
    kept_sum: u64,
    total_sum: u64,
}

impl<'a, K: Key> KnnProtocol<'a, K> {
    /// Machine `id` of `k`: find the global `ell`-smallest keys among the
    /// keys produced by `input` on each machine.
    pub fn new(
        id: MachineId,
        k: usize,
        leader: MachineId,
        ell: u64,
        params: KnnParams,
        input: KeySource<'a, K>,
    ) -> Self {
        KnnProtocol {
            id,
            k,
            leader,
            ell,
            params,
            input: Some(input),
            candidates: Vec::new(),
            pruned_len: 0,
            phase: KPhase::Init,
            core: None,
            stats: KnnStats::default(),
            samples: Vec::new(),
            pending: 0,
            kept_sum: 0,
            total_sum: 0,
        }
    }

    /// Convenience constructor from materialized keys.
    pub fn from_keys(
        id: MachineId,
        k: usize,
        leader: MachineId,
        ell: u64,
        params: KnnParams,
        keys: Vec<K>,
    ) -> Self {
        Self::new(id, k, leader, ell, params, Box::new(move || keys))
    }

    fn is_leader(&self) -> bool {
        self.id == self.leader
    }

    /// Active candidate set for the selection stage.
    fn active(&self, rollback: bool) -> Vec<K> {
        if rollback {
            self.candidates.clone()
        } else {
            self.candidates[..self.pruned_len].to_vec()
        }
    }

    /// Round 0: materialize keys, keep the local ℓ best, draw samples.
    fn setup(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Option<Vec<K>> {
        let keys = (self.input.take().expect("setup runs once"))();
        self.candidates = knn_selection::smallest_k_sorted(&keys, self.ell as usize, ctx.rng());
        self.stats.sample_size = self.params.sample_size(self.ell) as u64;
        self.stats.prune_rank = self.params.prune_rank(self.ell) as u64;

        if ctx.k() == 1 {
            // The local ℓ best are the global ℓ best.
            self.stats.total_candidates = self.candidates.len() as u64;
            self.stats.survivors = self.candidates.len() as u64;
            return Some(self.candidates.clone());
        }

        // Sample with replacement, as the paper's "randomly and
        // independently" prescribes. When the candidate set is no larger
        // than the sample budget, send it whole — strictly more information
        // for fewer bits (the paper's regime n ≫ kℓ never hits this case).
        let m = self.params.sample_size(self.ell);
        let sample = if self.candidates.len() <= m {
            self.candidates.clone()
        } else {
            let mut sample = Vec::with_capacity(m);
            for _ in 0..m {
                let idx = ctx.rng().random_range(0..self.candidates.len());
                sample.push(self.candidates[idx]);
            }
            sample
        };
        if self.is_leader() {
            self.samples = sample;
            self.pending = self.k - 1;
            self.phase = KPhase::CollectSamples;
        } else {
            ctx.send(self.leader, KnnMsg::Samples(sample));
            self.phase = KPhase::AwaitPrune;
        }
        None
    }

    /// Leader: all samples in — broadcast the prune threshold (or skip
    /// pruning entirely when nobody has any candidates to offer).
    fn leader_after_samples(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) {
        if self.samples.is_empty() {
            // No candidates anywhere: skip straight to (trivial) selection.
            ctx.broadcast(KnnMsg::PruneDecision { rollback: true });
            self.pruned_len = self.candidates.len();
            self.start_selection(true, ctx);
            return;
        }
        self.samples.sort_unstable();
        let rank = self.params.prune_rank(self.ell);
        let r = self.samples[(rank - 1).min(self.samples.len() - 1)];
        ctx.broadcast(KnnMsg::Prune { r });
        self.pruned_len = self.candidates.partition_point(|x| *x <= r);
        if self.params.harden {
            self.kept_sum = self.pruned_len as u64;
            self.total_sum = self.candidates.len() as u64;
            self.pending = self.k - 1;
            self.phase = KPhase::CollectCounts;
        } else {
            self.start_selection(false, ctx);
        }
    }

    /// Construct the embedded Algorithm 1 core (leader also kicks it off).
    fn start_selection(&mut self, rollback: bool, ctx: &mut Ctx<'_, KnnMsg<K>>) {
        self.stats.rolled_back = rollback;
        let active = self.active(rollback);
        let mut core = SelectCore::new(self.id, self.k, self.leader, self.ell, active);
        if self.is_leader() {
            let mut out = Vec::new();
            let status = core.start(ctx.rng(), &mut out);
            for (dst, msg) in out {
                ctx.send(dst, KnnMsg::Sel(msg));
            }
            debug_assert!(
                matches!(status, CoreStatus::Running),
                "k >= 2 selection cannot finish during start"
            );
        }
        self.core = Some(core);
        self.phase = KPhase::Selection;
    }
}

impl<'a, K: Key> Protocol for KnnProtocol<'a, K> {
    type Msg = KnnMsg<K>;
    type Output = KnnOutput<K>;

    /// Algorithm 2 is reply-driven — every round's sends depend on what
    /// just arrived, so no live instance can promise a silent horizon and
    /// [`kmachine::Protocol::quiet_until`] stays `None`. Opting in is
    /// still correct and meaningful: it keeps [`kmachine::Engine::Auto`]
    /// from silently downgrading a requested relaxed delivery to exact,
    /// and *done* instances' drained links still publish quiescence
    /// promises — which is where multiplexed batches pipeline.
    const QUIET_AWARE: bool = true;

    /// A machine that materialized its input and holds no candidates
    /// provably contributes no answer members, so a crash there salvages an
    /// empty output (mirroring the BinSearch baseline). Any other crash —
    /// candidates on board, or dead before round 0 ran — may lose answer
    /// members or the coordinator itself: unsalvageable, and the runner
    /// retries over the survivors.
    fn on_crash(&mut self) -> Option<KnnOutput<K>> {
        (self.input.is_none() && self.candidates.is_empty())
            .then(|| KnnOutput { keys: Vec::new(), stats: None })
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, KnnMsg<K>>) -> Step<KnnOutput<K>> {
        if matches!(self.phase, KPhase::Init) {
            debug_assert_eq!(ctx.round(), 0);
            if let Some(keys) = self.setup(ctx) {
                return Step::Done(KnnOutput { keys, stats: Some(self.stats) });
            }
            return Step::Continue;
        }

        let mut finished: Option<Option<K>> = None;
        for i in 0..ctx.inbox().len() {
            let env = &ctx.inbox()[i];
            let (src, msg) = (env.src, env.msg.clone());
            match msg {
                KnnMsg::Samples(batch) => {
                    debug_assert!(self.is_leader());
                    self.samples.extend_from_slice(&batch);
                    self.pending -= 1;
                    if self.pending == 0 {
                        self.leader_after_samples(ctx);
                    }
                }
                KnnMsg::Prune { r } => {
                    self.pruned_len = self.candidates.partition_point(|x| *x <= r);
                    if self.params.harden {
                        ctx.send(
                            self.leader,
                            KnnMsg::PrunedCount {
                                kept: self.pruned_len as u64,
                                total: self.candidates.len() as u64,
                            },
                        );
                        self.phase = KPhase::AwaitDecision;
                    } else {
                        self.start_selection(false, ctx);
                    }
                }
                KnnMsg::PrunedCount { kept, total } => {
                    debug_assert!(self.is_leader());
                    self.kept_sum += kept;
                    self.total_sum += total;
                    self.pending -= 1;
                    if self.pending == 0 {
                        let needed = self.ell.min(self.total_sum);
                        let rollback = self.kept_sum < needed;
                        self.stats.total_candidates = self.total_sum;
                        self.stats.survivors = self.kept_sum;
                        ctx.broadcast(KnnMsg::PruneDecision { rollback });
                        self.start_selection(rollback, ctx);
                    }
                }
                KnnMsg::PruneDecision { rollback } => {
                    if self.core.is_none() {
                        // `rollback = true` can also mean "pruning skipped":
                        // make sure the full candidate set is active.
                        if rollback {
                            self.pruned_len = self.candidates.len();
                        }
                        self.start_selection(rollback, ctx);
                    }
                }
                KnnMsg::Sel(sel) => {
                    let core = self.core.as_mut().expect("selection traffic before setup");
                    let mut out = Vec::new();
                    let status = core.handle(src, &sel, ctx.rng(), &mut out);
                    for (dst, m) in out {
                        ctx.send(dst, KnnMsg::Sel(m));
                    }
                    if let CoreStatus::Finished { boundary } = status {
                        finished = Some(boundary);
                    }
                }
            }
        }

        if let Some(boundary) = finished {
            let core = self.core.as_ref().expect("finished implies core");
            self.stats.select_iterations = core.iterations();
            let keys = core.output_for(boundary);
            let stats = self.is_leader().then_some(self.stats);
            return Step::Done(KnnOutput { keys, stats });
        }
        Step::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmachine::engine::{run_event, run_sync};
    use kmachine::NetConfig;
    use knn_workloads::partition::{PartitionStrategy, ALL_STRATEGIES};
    use proptest::prelude::*;

    fn run_knn(
        shards: Vec<Vec<u64>>,
        ell: u64,
        seed: u64,
        params: KnnParams,
    ) -> (Vec<u64>, kmachine::RunMetrics, KnnStats) {
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(seed);
        let protos: Vec<KnnProtocol<'_, u64>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, local)| KnnProtocol::from_keys(i, k, 0, ell, params, local))
            .collect();
        let out = run_sync(&cfg, protos).expect("knn run");
        let stats = out.outputs[0].stats.expect("leader stats");
        let mut merged: Vec<u64> = out.outputs.into_iter().flat_map(|o| o.keys).collect();
        merged.sort_unstable();
        (merged, out.metrics, stats)
    }

    fn expected(shards: &[Vec<u64>], ell: usize) -> Vec<u64> {
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.truncate(ell);
        all
    }

    #[test]
    fn finds_global_smallest() {
        let shards = vec![vec![100, 5, 200], vec![7, 300, 2], vec![50, 60, 1]];
        let (got, _, _) = run_knn(shards.clone(), 4, 1, KnnParams::default());
        assert_eq!(got, expected(&shards, 4));
    }

    #[test]
    fn large_uniform_instance_exact() {
        let all: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 1_000_000).collect();
        let want = expected(std::slice::from_ref(&all), 64);
        for (i, strat) in ALL_STRATEGIES.into_iter().enumerate() {
            let shards = strat.split(all.clone(), 10, i as u64);
            let (got, _, _) = run_knn(shards, 64, 100 + i as u64, KnnParams::default());
            assert_eq!(got, want, "{strat:?}");
        }
    }

    #[test]
    fn crash_salvage_only_for_materialized_empty_machines() {
        let mut p = KnnProtocol::<u64>::from_keys(1, 3, 0, 4, KnnParams::default(), vec![]);
        assert!(
            p.on_crash().is_none(),
            "dead before round 0: the input closure never ran, so the loss is unknowable"
        );
        p.input = None;
        assert_eq!(
            p.on_crash(),
            Some(KnnOutput { keys: Vec::new(), stats: None }),
            "materialized and empty: provably contributes nothing"
        );
        p.candidates = vec![3, 7];
        assert!(p.on_crash().is_none(), "candidates on board may be answer members");
    }

    #[test]
    fn crashed_empty_shard_is_written_off_by_retry() {
        // An empty shard's machine crashing costs nothing: the runner-level
        // retry (or in-run salvage) must still produce the exact answer.
        use crate::runner::{run_query, Algorithm, QueryOptions};
        use knn_points::{Dataset, IdAssigner, ScalarPoint};
        let mut ids = IdAssigner::new(0);
        let data = Dataset::from_points((0..60u64).map(ScalarPoint).collect::<Vec<_>>(), &mut ids);
        let mut shards: Vec<Dataset<ScalarPoint>> =
            data.records.chunks(30).map(|c| Dataset::new(c.to_vec())).collect();
        shards.push(Dataset::new(Vec::new())); // machine 2: empty shard
        let opts = QueryOptions {
            faults: kmachine::FaultPlan::default().with_crash(2, 1),
            ..Default::default()
        };
        let out = run_query(&shards, &ScalarPoint(10), 5, Algorithm::Knn, &opts).unwrap();
        let want =
            run_query(&shards, &ScalarPoint(10), 5, Algorithm::Knn, &QueryOptions::default())
                .unwrap();
        let keys = |o: &crate::runner::QueryOutcome| {
            crate::runner::merge_answers(&o.local_keys)
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&out), keys(&want), "losing an empty shard loses nothing");
        assert!(out.recovered);
    }

    #[test]
    fn single_machine_finishes_locally() {
        let (got, m, _) = run_knn(vec![vec![9, 1, 5]], 2, 3, KnnParams::default());
        assert_eq!(got, vec![1, 5]);
        assert_eq!(m.messages, 0);
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn ell_one_works() {
        let shards = vec![vec![10, 20], vec![5, 30], vec![40]];
        let (got, _, _) = run_knn(shards, 1, 4, KnnParams::default());
        assert_eq!(got, vec![5]);
    }

    #[test]
    fn ell_exceeding_population_returns_everything() {
        let shards = vec![vec![3, 1], vec![2], vec![]];
        let (got, _, _) = run_knn(shards, 50, 5, KnnParams::default());
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_cluster_returns_empty() {
        let shards = vec![vec![], vec![], vec![]];
        let (got, _, stats) = run_knn(shards, 5, 6, KnnParams::default());
        assert!(got.is_empty());
        assert_eq!(stats.total_candidates, 0);
    }

    #[test]
    fn hardening_never_wrong_even_with_tiny_factors() {
        // Absurdly aggressive pruning (factor 1/1) would often under-prune
        // without the rollback; with hardening the answer stays exact.
        let params = KnnParams { sample_factor: 1, rank_factor: 1, harden: true };
        let all: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(2654435761) % 100_000).collect();
        let want = expected(std::slice::from_ref(&all), 100);
        let mut rollbacks = 0;
        for seed in 0..10 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 8, seed);
            let (got, _, stats) = run_knn(shards, 100, seed, params);
            assert_eq!(got, want, "seed {seed}");
            rollbacks += u32::from(stats.rolled_back);
        }
        // With rank 1 the threshold is the smallest sample: almost always
        // fewer than ℓ survivors, so rollbacks must actually trigger.
        assert!(rollbacks > 0, "hardening path was never exercised");
    }

    #[test]
    fn paper_factors_rarely_roll_back() {
        let all: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
        let mut rollbacks = 0;
        for seed in 0..10 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 16, seed);
            let (_, _, stats) = run_knn(shards, 256, seed, KnnParams::default());
            rollbacks += u32::from(stats.rolled_back);
        }
        assert_eq!(rollbacks, 0, "paper constants should essentially never roll back");
    }

    #[test]
    fn lemma_2_3_survivors_bounded_by_11_ell() {
        let all: Vec<u64> = (0..1 << 14).map(|i: u64| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let ell = 256u64;
        for seed in 0..5 {
            let shards = PartitionStrategy::Shuffled.split(all.clone(), 32, seed);
            let (_, _, stats) = run_knn(shards, ell, seed, KnnParams::default());
            assert!(!stats.rolled_back);
            assert!(
                stats.survivors <= 11 * ell,
                "survivors {} > 11ℓ at seed {seed}",
                stats.survivors
            );
            assert!(stats.survivors >= ell);
        }
    }

    #[test]
    fn rounds_do_not_scale_with_k() {
        // Theorem 2.4: round complexity independent of k. Compare k = 4 and
        // k = 64 on the same global data.
        let all: Vec<u64> = (0..1 << 13).map(|i: u64| i.wrapping_mul(0xD1B54A32D192ED03)).collect();
        let ell = 128;
        let r4: Vec<u64> = (0..4)
            .map(|s| {
                let shards = PartitionStrategy::Shuffled.split(all.clone(), 4, s);
                run_knn(shards, ell, s, KnnParams::default()).1.rounds
            })
            .collect();
        let r64: Vec<u64> = (0..4)
            .map(|s| {
                let shards = PartitionStrategy::Shuffled.split(all.clone(), 64, s);
                run_knn(shards, ell, s, KnnParams::default()).1.rounds
            })
            .collect();
        let a4 = r4.iter().sum::<u64>() as f64 / 4.0;
        let a64 = r64.iter().sum::<u64>() as f64 / 4.0;
        assert!(a64 < a4 * 2.5, "rounds grew with k: avg(k=4) = {a4}, avg(k=64) = {a64}");
    }

    #[test]
    fn engines_agree() {
        let shards = vec![vec![100u64, 5, 200, 42], vec![7, 300, 2], vec![50, 60, 1, 99]];
        let k = shards.len();
        let cfg = NetConfig::new(k).with_seed(17);
        let mk = |shards: &[Vec<u64>]| {
            shards
                .iter()
                .enumerate()
                .map(|(i, local)| {
                    KnnProtocol::from_keys(i, k, 0, 3, KnnParams::default(), local.clone())
                })
                .collect::<Vec<_>>()
        };
        let a = run_sync(&cfg, mk(&shards)).unwrap();
        let b = run_event(&cfg.clone().with_event_workers(2), mk(&shards)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn param_helpers_match_paper_formulas() {
        let p = KnnParams::default();
        assert_eq!(p.sample_size(1), 1);
        assert_eq!(p.sample_size(2), 12);
        assert_eq!(p.sample_size(1024), 120);
        assert_eq!(p.prune_rank(1024), 210);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// The verbatim (non-hardened) paper algorithm: when the prune
        /// keeps at least ℓ candidates the answer is exact; when it
        /// under-prunes (the event the paper bounds whp), the output is
        /// still the globally smallest `survivors` keys — a prefix of the
        /// sorted global key set, never garbage.
        #[test]
        fn prop_unhardened_output_is_sorted_prefix(
            values in proptest::collection::hash_set(any::<u64>(), 0..150),
            k in 1usize..7,
            ell in 0u64..40,
            seed in 0u64..300,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let params = KnnParams { harden: false, ..KnnParams::default() };
            let shards = PartitionStrategy::RoundRobin.split(values, k, seed);
            let (got, _, _) = run_knn(shards, ell, seed, params);
            prop_assert!(got.len() <= sorted.len());
            prop_assert_eq!(&got[..], &sorted[..got.len()], "must be a sorted-global prefix");
            // Never more than requested, and exact whenever enough survived.
            prop_assert!(got.len() as u64 <= ell || ell as usize >= sorted.len());
        }

        #[test]
        fn prop_knn_equals_sequential_selection(
            values in proptest::collection::hash_set(any::<u64>(), 0..200),
            k in 1usize..8,
            ell in 0u64..40,
            strat_idx in 0usize..5,
            seed in 0u64..300,
        ) {
            let values: Vec<u64> = values.into_iter().collect();
            let want = expected(std::slice::from_ref(&values), ell as usize);
            let shards = ALL_STRATEGIES[strat_idx].split(values, k, seed);
            let (got, _, _) = run_knn(shards, ell, seed, KnnParams::default());
            prop_assert_eq!(got, want);
        }
    }
}
