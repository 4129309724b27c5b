//! Index conformance suite: every claim the shard indices make, checked
//! against exact oracles.
//!
//! Two oracles pin the NSW graph backend down:
//!
//! * the **brute-force `(distance, id)` scan** ([`knn_core::local::brute_top`])
//!   at the index level — recall at the default `ef`, *exact parity* once
//!   `ef` covers the shard (the knob saturates at exact by construction),
//!   genuineness of every claim, and deterministic tie-breaks;
//! * the **exact protocols** at the cluster level — the sequential
//!   [`KnnCluster::query`] path never uses an index (it scans every shard
//!   inside the protocol run), so it is the end-to-end reference the
//!   NSW-backed batched path is measured against, including after live
//!   [`KnnCluster::insert`]s.
//!
//! The insert-as-query equivalence tests pin the other tentpole property:
//! bulk load and empty-then-insert produce byte-identical serving behavior,
//! on every engine at every pool size.

use kmachine::Engine;
use knn_core::cluster::KnnCluster;
use knn_core::local::{brute_top, dist_keys, recall};
use knn_core::runner::Algorithm;
use knn_core::{CoreError, IndexBackend, NswIndex, NswParams, ShardIndex};
use knn_points::{BitsPoint, Dataset, DistKey, IdAssigner, Metric, Record, ScalarPoint, VecPoint};
use knn_workloads::vector::uniform_cube;
use knn_workloads::{GaussianMixture, PartitionStrategy, ScalarWorkload};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(f)
}

/// The seeded vector workload of the acceptance criterion: a labeled
/// Gaussian mixture, round-robin sharded so every machine sees every class.
fn vector_shards(k: usize, per_shard: usize, dims: usize, seed: u64) -> Vec<Dataset<VecPoint>> {
    let mixture = GaussianMixture { dims, clusters: 10, spread: 1.5, range: 20.0 };
    let mut ids = IdAssigner::new(seed);
    let data = Dataset::from_labeled(mixture.generate(k * per_shard, seed), &mut ids);
    PartitionStrategy::RoundRobin
        .split(data.records, k, seed)
        .into_iter()
        .map(Dataset::new)
        .collect()
}

/// Queries from the *same* mixture distribution as [`vector_shards`] (same
/// centers, fresh noise) — near-neighbor-rich, the regime recall matters in.
fn vector_queries(n: usize, dims: usize, seed: u64) -> Vec<VecPoint> {
    let mixture = GaussianMixture { dims, clusters: 10, spread: 1.5, range: 20.0 };
    mixture.generate_with(n, seed, seed ^ 0xABCD).into_iter().map(|(p, _)| p).collect()
}

fn vec_cluster(
    k: usize,
    seed: u64,
    backend: IndexBackend,
    engine: Engine,
    shards: Vec<Dataset<VecPoint>>,
) -> KnnCluster<VecPoint> {
    let mut cluster: KnnCluster<VecPoint> =
        KnnCluster::builder().machines(k).seed(seed).engine(engine).index_backend(backend).build();
    cluster.load_shards(shards).expect("shard count");
    cluster
}

fn answer_keys(answer: &knn_core::cluster::KnnAnswer) -> Vec<DistKey> {
    answer.neighbors.iter().map(|n| DistKey::new(n.dist, n.id)).collect()
}

/// **Acceptance criterion.** On the seeded vector workload, the NSW-backed
/// batched path reaches mean recall ≥ 0.95 at the default `ef` against the
/// exact-protocol oracle — the sequential query path of the *same* cluster,
/// which scans every shard inside the protocol run and never touches the
/// graph.
#[test]
fn nsw_recall_beats_095_at_default_ef_on_the_seeded_vector_workload() {
    let (k, per_shard, dims, ell, seed) = (4usize, 1024usize, 8usize, 10usize, 42u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    let cluster = vec_cluster(k, seed, IndexBackend::nsw(), Engine::Sync, shards);
    let queries = vector_queries(32, dims, seed);
    let batch = cluster.query_batch(&queries, ell).expect("nsw batch");
    let mut total = 0.0;
    for (q, got) in queries.iter().zip(&batch.answers) {
        let oracle = cluster.query(q, ell).expect("exact oracle");
        let r = recall(&answer_keys(got), &answer_keys(&oracle));
        assert!(r >= 0.5, "catastrophic recall {r} on one query");
        total += r;
    }
    let mean = total / queries.len() as f64;
    assert!(
        mean >= 0.95,
        "mean recall {mean} < 0.95 at default ef (params {:?})",
        NswParams::default()
    );
}

/// With the default `ef` saturating every shard (per-shard n ≤ ef), the
/// NSW-backed cluster is exact end-to-end: byte-identical answers *and*
/// byte-identical protocol costs to the exact-backend cluster, for every
/// algorithm.
#[test]
fn saturated_nsw_cluster_equals_the_exact_backend_end_to_end() {
    let (k, per_shard, dims, ell, seed) = (3usize, 60usize, 5usize, 7usize, 7u64);
    assert!(per_shard <= NswParams::default().ef_search);
    let shards = vector_shards(k, per_shard, dims, seed);
    let exact = vec_cluster(k, seed, IndexBackend::Exact, Engine::Sync, shards.clone());
    let nsw = vec_cluster(k, seed, IndexBackend::nsw(), Engine::Sync, shards);
    let queries = vector_queries(6, dims, seed);
    for algo in Algorithm::ALL {
        let want = exact.query_batch_with(algo, &queries, ell).expect("exact batch");
        let got = nsw.query_batch_with(algo, &queries, ell).expect("nsw batch");
        assert_eq!(got.metrics, want.metrics, "{algo:?}: protocol costs diverged");
        for (g, w) in got.answers.iter().zip(&want.answers) {
            assert_eq!(g.neighbors, w.neighbors, "{algo:?}: answers diverged");
        }
    }
}

/// **Insert-as-query equivalence.** A cluster bulk-loaded with P and a
/// cluster loaded empty then fed every record of P through
/// `insert_record_into` serve byte-identical batches — answers and
/// per-batch costs — across both engines and RAYON pool sizes
/// {1, 2, 8}, on both backends.
#[test]
fn bulk_load_equals_empty_then_insert_across_engines_and_pools() {
    let (k, per_shard, dims, ell, seed) = (3usize, 150usize, 6usize, 9usize, 11u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    let queries = vector_queries(5, dims, seed);
    for backend in [IndexBackend::Exact, IndexBackend::nsw()] {
        let mut reference: Option<knn_core::cluster::BatchAnswer> = None;
        for engine in [Engine::Sync, Engine::Event] {
            for pool in [1usize, 2, 8] {
                let (bulk, grown) = with_pool(pool, || {
                    let bulk = vec_cluster(k, seed, backend, engine, shards.clone());
                    let empty = vec![Dataset::new(Vec::new()); k];
                    let mut grown = vec_cluster(k, seed, backend, engine, empty);
                    for (m, shard) in shards.iter().enumerate() {
                        for record in &shard.records {
                            grown.insert_record_into(m, record.clone()).expect("insert");
                        }
                    }
                    let bulk = bulk.query_batch(&queries, ell).expect("bulk batch");
                    let grown = grown.query_batch(&queries, ell).expect("grown batch");
                    (bulk, grown)
                });
                let label = format!("{:?}/{engine:?}/pool {pool}", backend.name());
                assert_eq!(bulk.metrics, grown.metrics, "costs diverged: {label}");
                for (b, g) in bulk.answers.iter().zip(&grown.answers) {
                    assert_eq!(b.neighbors, g.neighbors, "answers diverged: {label}");
                }
                let want = reference.get_or_insert(bulk.clone());
                assert_eq!(bulk.metrics, want.metrics, "engine/pool variance: {label}");
                for (b, w) in bulk.answers.iter().zip(&want.answers) {
                    assert_eq!(b.neighbors, w.neighbors, "engine/pool variance: {label}");
                }
            }
        }
    }
}

/// The scalar twin of the insert-as-query equivalence, on the exact backend
/// whose sorted array absorbs each insert in place rather than rebuilding:
/// bulk load and empty-then-`insert_record_into` serve byte-identical
/// answers and costs on both engines at pool sizes {1, 2, 8}. Values come
/// from a 64-wide range, so duplicates are dense, and every shard is fed in
/// descending id order, so each insert lands below every id already there.
#[test]
fn scalar_exact_bulk_load_equals_empty_then_insert() {
    let (k, ell, seed) = (3usize, 9usize, 17u64);
    let workload = ScalarWorkload { per_machine: 200, lo: 0, hi: 64 };
    let mut shards = workload.generate(k, seed);
    for shard in &mut shards {
        shard.records.reverse();
    }
    let queries: Vec<ScalarPoint> = [0u64, 7, 31, 63, 90].map(ScalarPoint).to_vec();
    let cluster = |shards: Vec<Dataset<ScalarPoint>>, engine: Engine| {
        let mut cluster: KnnCluster<ScalarPoint> =
            KnnCluster::builder().machines(k).seed(seed).engine(engine).build();
        cluster.load_shards(shards).expect("shard count");
        cluster
    };
    let mut reference: Option<knn_core::cluster::BatchAnswer> = None;
    for engine in [Engine::Sync, Engine::Event] {
        for pool in [1usize, 2, 8] {
            let (bulk, grown) = with_pool(pool, || {
                let bulk = cluster(shards.clone(), engine);
                let mut grown = cluster(vec![Dataset::new(Vec::new()); k], engine);
                for (m, shard) in shards.iter().enumerate() {
                    for record in &shard.records {
                        grown.insert_record_into(m, record.clone()).expect("insert");
                    }
                }
                let repeat = shards[1].records[0].clone();
                assert_eq!(
                    grown.insert_record_into(2, repeat.clone()).unwrap_err(),
                    CoreError::DuplicateId { id: repeat.id }
                );
                let bulk = bulk.query_batch(&queries, ell).expect("bulk batch");
                let grown = grown.query_batch(&queries, ell).expect("grown batch");
                (bulk, grown)
            });
            let label = format!("{engine:?}/pool {pool}");
            assert_eq!(bulk.metrics, grown.metrics, "costs diverged: {label}");
            for (b, g) in bulk.answers.iter().zip(&grown.answers) {
                assert_eq!(b.neighbors, g.neighbors, "answers diverged: {label}");
            }
            let want = reference.get_or_insert(bulk.clone());
            assert_eq!(bulk.metrics, want.metrics, "engine/pool variance: {label}");
            for (b, w) in bulk.answers.iter().zip(&want.answers) {
                assert_eq!(b.neighbors, w.neighbors, "engine/pool variance: {label}");
            }
        }
    }
}

/// **Acceptance criterion.** `KnnCluster::insert` serves queries over new
/// points without a reload: points inserted into a live NSW cluster in a
/// region the loaded data never touched are found by the very next batch,
/// identically across engines × pools, and in exact agreement with the
/// sequential full-scan oracle.
#[test]
fn live_inserts_serve_without_reload_deterministically() {
    let (k, per_shard, dims, ell, seed) = (3usize, 150usize, 6usize, 5usize, 13u64);
    let shards = vector_shards(k, per_shard, dims, seed);
    // The mixture lives in roughly [-25, 25]^d; the probe region is far out.
    let probe = VecPoint::new(vec![60.0; 6]);
    let mut reference: Option<Vec<knn_core::cluster::Neighbor>> = None;
    for engine in [Engine::Sync, Engine::Event] {
        for pool in [1usize, 2, 8] {
            let neighbors = with_pool(pool, || {
                let mut cluster = vec_cluster(k, seed, IndexBackend::nsw(), engine, shards.clone());
                let mut inserted = Vec::new();
                for i in 0..ell {
                    let p = VecPoint::new(vec![60.0 + i as f64 * 0.25; 6]);
                    inserted.push(cluster.insert(p).expect("insert"));
                }
                let batch = cluster.query_batch(std::slice::from_ref(&probe), ell).expect("batch");
                let got = batch.answers[0].neighbors.clone();
                // Every answer is an inserted point — nothing loaded is
                // within 35 units of the probe region.
                for n in &got {
                    assert!(
                        inserted.iter().any(|&(id, m)| id == n.id && m == n.machine),
                        "answer {n:?} is not one of the live inserts"
                    );
                }
                // The sequential path scans the mutated shards directly:
                // the exact oracle agrees over the inserted points.
                let oracle = cluster.query(&probe, ell).expect("oracle");
                assert_eq!(answer_keys(&batch.answers[0]), answer_keys(&oracle));
                got
            });
            let want = reference.get_or_insert(neighbors.clone());
            assert_eq!(&neighbors, want, "{engine:?}/pool {pool} diverged");
        }
    }
}

/// Every NSW claim is genuine at *any* `ef`: a real `(distance, id)` pair
/// of an indexed record, strictly ascending, never more than requested.
#[test]
fn nsw_claims_are_genuine_sorted_and_bounded_at_every_ef() {
    let records = indexed_vec_records(220, 7, 17);
    let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
    let truth: Vec<DistKey> = {
        let q = VecPoint::new(vec![5.0; 7]);
        let mut keys = dist_keys(&records, &q, Metric::Euclidean);
        keys.sort_unstable();
        keys
    };
    let q = VecPoint::new(vec![5.0; 7]);
    for ef in [1usize, 4, 16, 64, 220, 1000] {
        let got = index.search(&records, &q, 12, ef);
        assert!(got.len() <= 12);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ef {ef}: not strictly ascending");
        for key in &got {
            assert!(truth.binary_search(key).is_ok(), "ef {ef}: fabricated claim {key:?}");
        }
    }
}

/// Deterministic tie-breaks under heavy duplication: many records at the
/// same coordinates, NSW at saturating `ef` returns exactly the oracle's
/// `(distance, id)` order — ties broken by id, stable across repeated calls.
#[test]
fn duplicate_points_break_ties_by_id_exactly() {
    let mut ids = IdAssigner::new(23);
    let records: Vec<Record<VecPoint>> = (0..90)
        .map(|i| Record {
            id: ids.next_id(),
            // 30 distinct locations, each held by 3 records.
            point: VecPoint::new(vec![(i % 30) as f64, ((i % 30) * 2) as f64]),
            label: None,
        })
        .collect();
    let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
    let q = VecPoint::new(vec![7.3, 14.1]);
    for ell in [1usize, 3, 9, 90] {
        let got = index.search(&records, &q, ell, records.len());
        let want = brute_top(&records, &q, ell, Metric::Euclidean);
        assert_eq!(got, want, "ell {ell}");
        assert_eq!(got, index.search(&records, &q, ell, records.len()), "unstable repeat");
    }
}

/// The NSW graph carries [`BitsPoint`] under Hamming distance — the type
/// whose *exact* index is a brute scan — with exact parity at saturating
/// `ef` and useful recall at the default.
#[test]
fn nsw_serves_bits_points_under_hamming() {
    let mut ids = IdAssigner::new(29);
    let records: Vec<Record<BitsPoint>> = (0..200u64)
        .map(|i| Record {
            id: ids.next_id(),
            point: BitsPoint::new(vec![i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i / 7]),
            label: None,
        })
        .collect();
    let index = NswIndex::build(&records, NswParams::default(), Metric::Hamming);
    let mut total = 0.0;
    let queries = 12u64;
    for s in 0..queries {
        let q = BitsPoint::new(vec![s.wrapping_mul(0xD134_2543_DE82_EF95), s]);
        let want = brute_top(&records, &q, 8, Metric::Hamming);
        assert_eq!(index.search(&records, &q, 8, records.len()), want, "ef = n parity");
        total += recall(&index.search(&records, &q, 8, 64), &want);
    }
    let mean = total / queries as f64;
    assert!(mean >= 0.8, "bits mean recall {mean} too low at default ef");
}

/// A [`ShardIndex`] asked for a metric other than its NSW build metric must
/// not use the graph (its geometry is wrong) — it falls back to the exact
/// scan, byte-identical to the oracle.
#[test]
fn metric_mismatch_falls_back_to_the_exact_scan() {
    let records = indexed_vec_records(80, 4, 31);
    let shard: ShardIndex<VecPoint> =
        ShardIndex::build(&records, IndexBackend::nsw(), Metric::Euclidean);
    let q = VecPoint::new(vec![12.0; 4]);
    for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Hamming] {
        let got = shard.top(&records, &q, 6, metric);
        assert_eq!(got, brute_top(&records, &q, 6, metric), "{metric:?}");
    }
}

fn indexed_vec_records(n: usize, dims: usize, seed: u64) -> Vec<Record<VecPoint>> {
    let mut ids = IdAssigner::new(seed);
    uniform_cube(n, dims, -40.0, 40.0, seed)
        .into_iter()
        .map(|point| Record { id: ids.next_id(), point, label: None })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oracle recall property suite over dims {1..8} × seeds: at the
    /// default `ef` the NSW top-ℓ keeps its recall floor against the
    /// brute-force oracle, at `ef = n` it *equals* the oracle, and both
    /// searches are deterministic and strictly `(distance, id)`-ordered.
    #[test]
    fn prop_nsw_recall_and_exact_parity(
        dims in 1usize..=8,
        n in 1usize..260,
        ell in 1usize..14,
        seed in any::<u32>(),
    ) {
        let records = indexed_vec_records(n, dims, u64::from(seed));
        let params = NswParams::default();
        let index = NswIndex::build(&records, params, Metric::Euclidean);
        prop_assert_eq!(index.len(), n);
        let q = VecPoint::new(
            (0..dims).map(|d| ((seed as usize + d * 17) % 80) as f64 - 40.0).collect::<Vec<f64>>(),
        );
        let want = brute_top(&records, &q, ell, Metric::Euclidean);

        // ef = n: structural exactness.
        let exact = index.search(&records, &q, ell, n);
        prop_assert_eq!(&exact, &want, "ef = n must be oracle parity");

        // Default ef: genuine, sorted, deterministic, recall-floored.
        let got = index.search(&records, &q, ell, params.ef_search);
        prop_assert_eq!(&got, &index.search(&records, &q, ell, params.ef_search));
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        let r = recall(&got, &want);
        // ef_search = 64 covers shards up to n = 64 exactly; beyond that
        // the graph search keeps a high floor on uniform data.
        if n <= params.ef_search {
            prop_assert!((r - 1.0).abs() < f64::EPSILON, "saturated ef must be exact, recall {}", r);
        } else {
            prop_assert!(r >= 0.6, "recall {} collapsed at default ef (n {}, dims {})", r, n, dims);
        }
    }

    /// Bulk-build vs incremental insert is graph-identical for every point
    /// type shape — the insert-as-query property at the index level.
    #[test]
    fn prop_bulk_equals_incremental(
        n in 1usize..160,
        dims in 1usize..6,
        seed in any::<u32>(),
    ) {
        let records = indexed_vec_records(n, dims, u64::from(seed) ^ 0x5ca1ab1e);
        let bulk = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let mut grown = NswIndex::new(NswParams::default(), Metric::Euclidean);
        for pos in 0..records.len() {
            grown.insert(&records, pos);
        }
        prop_assert_eq!(bulk, grown);
    }

    /// The scalar NSW graph against the scalar exact oracle — the 1-d
    /// specialization whose exact index (sorted array) is the sharpest
    /// available cross-check.
    #[test]
    fn prop_scalar_nsw_matches_sorted_array_at_saturating_ef(
        values in proptest::collection::vec(any::<u32>(), 1..120),
        q in any::<u32>(),
        ell in 1usize..20,
        seed in 0u64..50,
    ) {
        let mut ids = IdAssigner::new(seed);
        let records: Vec<Record<ScalarPoint>> = values
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(u64::from(v)), label: None })
            .collect();
        let index = NswIndex::build(&records, NswParams::default(), Metric::Euclidean);
        let got = index.search(&records, &ScalarPoint(u64::from(q)), ell, records.len());
        let shard: ShardIndex<ScalarPoint> =
            ShardIndex::build(&records, IndexBackend::Exact, Metric::Euclidean);
        let want = shard.top(&records, &ScalarPoint(u64::from(q)), ell, Metric::Euclidean);
        prop_assert_eq!(got, want);
    }
}
