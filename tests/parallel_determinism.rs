//! Determinism under real parallelism.
//!
//! The rayon shim runs pipelines on a genuine work-stealing pool, the
//! workload generators / cluster load path ride on it, and the event engine
//! additionally schedules machines on a worker pool sized from it. These
//! tests pin the contract that makes all of that safe: **pool size is a
//! pure wall-clock knob** — every generated dataset, every query answer,
//! and every engine `RunOutcome` (outputs *and* metrics) is bit-identical
//! at pool sizes 1, 2, and 8, on the sync and event engines.

use kmachine::engine::{run_event, run_sync};
use kmachine::{
    BandwidthMode, Ctx, MuxOutput, MuxProtocol, NetConfig, Payload, Protocol, RunMetrics,
    RunOutcome, Step,
};
use knn_core::cluster::{KnnCluster, Neighbor};
use knn_core::runner::Algorithm;
use knn_points::{ScalarPoint, VecPoint};
use knn_workloads::{GaussianMixture, ScalarWorkload};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

const POOLS: [usize; 3] = [1, 2, 8];
const ENGINES: [kmachine::Engine; 2] = [kmachine::Engine::Sync, kmachine::Engine::Event];

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// Build a scalar cluster and answer one batch + one single query; returns
/// everything observable (answers and aggregate metrics).
#[allow(clippy::type_complexity)]
fn scalar_pipeline(
    engine: kmachine::Engine,
    seed: u64,
    k: usize,
    ell: usize,
    algo: Algorithm,
) -> (Vec<Vec<Neighbor>>, RunMetrics, Vec<Neighbor>, RunMetrics) {
    let shards = ScalarWorkload::small(512).generate(k, seed);
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(k).seed(seed).engine(engine).build();
    cluster.load_shards(shards).expect("shard count");
    let queries: Vec<ScalarPoint> =
        (0..6u64).map(|i| ScalarPoint(seed.wrapping_mul(31).wrapping_add(i * 977))).collect();
    let batch = cluster.query_batch_with(algo, &queries, ell).expect("batch");
    let single = cluster.query_with(algo, &queries[0], ell).expect("single");
    (
        batch.answers.into_iter().map(|a| a.neighbors).collect(),
        batch.metrics,
        single.neighbors,
        single.metrics,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full serving pipeline — parallel generation, parallel index
    /// build, mux'd batch run — is bit-identical across pool sizes on both
    /// engines.
    #[test]
    fn prop_pipeline_identical_across_pool_sizes(
        seed in 0u64..1000,
        k in 2usize..6,
        ell in 1usize..24,
    ) {
        for algo in [Algorithm::Simple, Algorithm::Knn] {
            let reference = with_pool(1, || {
                scalar_pipeline(kmachine::Engine::Sync, seed, k, ell, algo)
            });
            for engine in ENGINES {
                for pool in POOLS {
                    let got = with_pool(pool, || scalar_pipeline(engine, seed, k, ell, algo));
                    prop_assert_eq!(
                        &got.0, &reference.0,
                        "batch answers diverged: pool {}, {:?}, {:?}", pool, engine, algo
                    );
                    prop_assert_eq!(
                        &got.1, &reference.1,
                        "batch metrics diverged: pool {}, {:?}, {:?}", pool, engine, algo
                    );
                    prop_assert_eq!(
                        &got.2, &reference.2,
                        "single answer diverged: pool {}, {:?}, {:?}", pool, engine, algo
                    );
                    prop_assert_eq!(
                        &got.3, &reference.3,
                        "single metrics diverged: pool {}, {:?}, {:?}", pool, engine, algo
                    );
                }
            }
        }
    }
}

/// Worker i streams `payload` tagged values toward a rotating target while
/// drawing from its RNG — enough nondeterminism bait (bandwidth contention,
/// multiple instances, random draws) to catch any scheduling leak.
#[derive(Clone)]
struct StreamSum {
    payload: u64,
    acc: u64,
    finished: usize,
}

#[derive(Debug, Clone)]
enum SsMsg {
    Val(u64),
    Last,
    Ack(u64),
}

impl Payload for SsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SsMsg::Val(_) | SsMsg::Ack(_) => 64,
            SsMsg::Last => 1,
        }
    }
}

impl Protocol for StreamSum {
    type Msg = SsMsg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SsMsg>) -> Step<u64> {
        use rand::RngExt;
        if ctx.id() != 0 {
            if ctx.round() == 0 {
                for _ in 0..self.payload {
                    let v: u64 = ctx.rng().random_range(0..1_000_000);
                    ctx.send(0, SsMsg::Val(v));
                }
                ctx.send(0, SsMsg::Last);
                return Step::Continue;
            }
            if let Some(&SsMsg::Ack(total)) = ctx.first_from(0) {
                return Step::Done(total);
            }
            return Step::Continue;
        }
        for env in ctx.inbox() {
            match env.msg {
                SsMsg::Val(v) => self.acc += v,
                SsMsg::Last => self.finished += 1,
                SsMsg::Ack(_) => unreachable!("leader never receives an ack"),
            }
        }
        if self.finished == ctx.k() - 1 {
            ctx.broadcast(SsMsg::Ack(self.acc));
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
}

fn mux_run(engine: kmachine::Engine, seed: u64) -> RunOutcome<MuxOutput<u64>> {
    let k = 4;
    let cfg = NetConfig::new(k)
        .with_seed(seed)
        .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
    let protos: Vec<MuxProtocol<StreamSum>> = (0..k)
        .map(|_| {
            MuxProtocol::new(
                [3u64, 9, 1, 6]
                    .iter()
                    .map(|&p| StreamSum { payload: p, acc: 0, finished: 0 })
                    .collect(),
            )
        })
        .collect();
    engine.run(&cfg, protos).expect("mux run")
}

/// Raw engine-level `RunOutcome` (outputs + metrics) is bit-identical
/// across pool sizes on both engines, including per-tag attribution.
/// For the event engine the pool size additionally sizes its scheduler's
/// worker pool, so this is the 2-engine × pool {1, 2, 8} matrix of the
/// barrier-removal contract.
#[test]
fn mux_run_outcome_identical_across_pool_sizes() {
    for seed in [1u64, 42, 977] {
        let reference = with_pool(1, || mux_run(kmachine::Engine::Sync, seed));
        for engine in ENGINES {
            for pool in POOLS {
                let got = with_pool(pool, || mux_run(engine, seed));
                assert_eq!(got.outputs, reference.outputs, "pool {pool}, {engine:?}");
                assert_eq!(got.metrics, reference.metrics, "pool {pool}, {engine:?}");
            }
        }
    }
}

/// The raw engine runs above go through `Engine::run`; pin the free
/// functions too, since the bench bins call them directly.
#[test]
fn free_function_engines_agree() {
    let cfg = NetConfig::new(3)
        .with_seed(5)
        .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
    let mk = || (0..3).map(|_| StreamSum { payload: 7, acc: 0, finished: 0 }).collect::<Vec<_>>();
    let a = run_sync(&cfg, mk()).expect("sync");
    let b = run_event(&cfg.clone().with_event_workers(2), mk()).expect("event@2");
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.metrics, b.metrics);
    let c = run_event(&cfg, mk()).expect("event");
    assert_eq!(a.outputs, c.outputs);
    assert_eq!(a.metrics, c.metrics);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Metrics conservation under the event engine: with machines running
    /// rounds ahead of each other (skewed payloads over enforced bandwidth,
    /// multi-worker scheduling), the per-tag message/bit totals of a mux'd
    /// run still partition the aggregate `RunMetrics` exactly, and the
    /// whole metrics struct matches `run_sync` byte for byte.
    #[test]
    fn prop_event_mux_metrics_conserve_and_match_sync(
        seed in any::<u64>(),
        k in 2usize..6,
        payloads in proptest::collection::vec(0u64..32, 1..6),
    ) {
        let cfg = NetConfig::new(k)
            .with_seed(seed)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 256 });
        let mk = || {
            (0..k)
                .map(|_| {
                    MuxProtocol::new(
                        payloads
                            .iter()
                            .map(|&p| StreamSum { payload: p, acc: 0, finished: 0 })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let want = run_sync(&cfg, mk()).expect("sync mux run");
        for pool in POOLS {
            let got = with_pool(pool, || run_event(&cfg, mk())).expect("event mux run");
            prop_assert_eq!(&got.outputs, &want.outputs, "outputs diverged at pool {}", pool);
            prop_assert_eq!(&got.metrics, &want.metrics, "metrics diverged at pool {}", pool);
            // Every message of a mux'd run carries a tag, so the per-tag
            // table is a partition of the aggregate, not just a subset.
            prop_assert_eq!(got.metrics.per_tag.len(), payloads.len());
            let tag_msgs: u64 = got.metrics.per_tag.iter().map(|t| t.messages).sum();
            let tag_bits: u64 = got.metrics.per_tag.iter().map(|t| t.bits).sum();
            prop_assert_eq!(tag_msgs, got.metrics.messages, "per-tag messages must partition");
            prop_assert_eq!(tag_bits, got.metrics.bits, "per-tag bits must partition");
        }
    }
}

/// Vector pipeline (chunked parallel Gaussian generation + parallel k-d
/// tree index build) is pool-size-invariant end to end.
#[test]
fn vector_pipeline_identical_across_pool_sizes() {
    let run = || {
        let gm = GaussianMixture { dims: 3, clusters: 4, spread: 0.4, range: 8.0 };
        let data = gm.generate(600, 11);
        let mut cluster: KnnCluster<VecPoint> = KnnCluster::builder().machines(4).seed(11).build();
        let mut ids = knn_points::IdAssigner::new(11);
        let dataset = knn_points::Dataset::from_labeled(data, &mut ids);
        cluster.load(dataset, knn_workloads::PartitionStrategy::Shuffled);
        let q = VecPoint::new(vec![0.5, -0.25, 1.0]);
        let ans = cluster.query(&q, 9).expect("query");
        (ans.neighbors, ans.metrics)
    };
    let reference = with_pool(1, run);
    for pool in POOLS {
        assert_eq!(with_pool(pool, run), reference, "pool {pool}");
    }
}
