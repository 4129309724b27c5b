//! The batched serving layer end to end: `query_batch` must return exactly
//! what sequential `query` calls return — for every algorithm and every
//! election mode — while paying one election and one engine run per batch.

use knn_repro::prelude::*;
use proptest::prelude::*;

fn loaded_cluster(k: usize, n: usize, election: ElectionKind, seed: u64) -> KnnCluster {
    let shards = ScalarWorkload { per_machine: n, lo: 0, hi: 1 << 20 }.generate(k, seed);
    let mut cluster: KnnCluster =
        KnnCluster::builder().machines(k).seed(seed).election(election).build();
    cluster.load_shards(shards).unwrap();
    cluster
}

fn neighbor_ids(ans: &KnnAnswer) -> Vec<PointId> {
    ans.neighbors.iter().map(|n| n.id).collect()
}

#[test]
fn batch_equals_sequential_for_every_algorithm_and_election() {
    for election in [ElectionKind::Fixed, ElectionKind::Star, ElectionKind::Flood] {
        let cluster = loaded_cluster(5, 600, election, 3);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(6, 6, 0, 1 << 20, 11).next().unwrap();
        for algo in Algorithm::ALL {
            let batch = cluster.query_batch_with(algo, &queries, 9).unwrap();
            assert_eq!(batch.answers.len(), queries.len());
            for (j, q) in queries.iter().enumerate() {
                let solo = cluster.query_with(algo, q, 9).unwrap();
                assert_eq!(
                    batch.answers[j].neighbors, solo.neighbors,
                    "{algo:?} / {election:?} query {j}"
                );
                // Batched per-query answers report no private election: the
                // batch's single election is on the BatchAnswer.
                assert!(batch.answers[j].election_metrics.is_none());
            }
        }
    }
}

#[test]
fn sixty_four_queries_pay_exactly_one_election() {
    // The acceptance bar: 64 queries, one election, answers identical to
    // sequential serving.
    for (election, expected_messages) in [(ElectionKind::Star, 2 * 7), (ElectionKind::Flood, 8 * 7)]
    {
        let cluster = loaded_cluster(8, 512, election, 5);
        let queries: Vec<ScalarPoint> = QueryStream::scalar(64, 64, 0, 1 << 20, 21).next().unwrap();
        let batch = cluster.query_batch(&queries, 8).unwrap();
        let em = batch.election_metrics.as_ref().expect("an election ran");
        assert_eq!(
            em.messages, expected_messages,
            "{election:?}: exactly one election's worth of messages"
        );
        for (j, q) in queries.iter().enumerate() {
            assert_eq!(
                neighbor_ids(&batch.answers[j]),
                neighbor_ids(&cluster.query(q, 8).unwrap()),
                "{election:?} query {j}"
            );
        }
    }
}

#[test]
fn batched_rounds_per_query_strictly_below_sequential_for_simple() {
    let cluster = loaded_cluster(6, 2048, ElectionKind::Star, 9);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(64, 64, 0, 1 << 20, 2).next().unwrap();
    let batch = cluster.query_batch_with(Algorithm::Simple, &queries, 64).unwrap();
    let batched_rounds =
        batch.metrics.rounds + batch.election_metrics.as_ref().map_or(0, |em| em.rounds);
    let sequential_rounds: u64 = queries
        .iter()
        .map(|q| {
            let ans = cluster.query_with(Algorithm::Simple, q, 64).unwrap();
            ans.metrics.rounds + ans.election_metrics.as_ref().map_or(0, |em| em.rounds)
        })
        .sum();
    assert!(
        batched_rounds < sequential_rounds,
        "batched {batched_rounds} rounds for 64 queries vs sequential {sequential_rounds}"
    );
}

#[test]
fn batch_metrics_attribute_traffic_per_query() {
    let cluster = loaded_cluster(4, 800, ElectionKind::Fixed, 1);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(5, 5, 0, 1 << 20, 4).next().unwrap();
    let batch = cluster.query_batch_with(Algorithm::Simple, &queries, 16).unwrap();
    // Every message of the batch run belongs to exactly one query tag.
    assert_eq!(batch.metrics.per_tag.len(), queries.len());
    let tag_messages: u64 = batch.metrics.per_tag.iter().map(|t| t.messages).sum();
    let tag_bits: u64 = batch.metrics.per_tag.iter().map(|t| t.bits).sum();
    assert_eq!(tag_messages, batch.metrics.messages);
    assert_eq!(tag_bits, batch.metrics.bits);
    for ans in &batch.answers {
        assert!(ans.metrics.messages > 0);
        assert!(ans.metrics.bits > 0);
        assert!(ans.metrics.rounds <= batch.metrics.rounds);
    }
}

#[test]
fn batch_on_both_engines_agrees() {
    let shards = ScalarWorkload { per_machine: 700, lo: 0, hi: 1 << 18 }.generate(4, 13);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(4, 4, 0, 1 << 18, 6).next().unwrap();
    let run = |engine| {
        let mut cluster: KnnCluster =
            KnnCluster::builder().machines(4).seed(2).engine(engine).build();
        cluster.load_shards(shards.clone()).unwrap();
        cluster.query_batch_with(Algorithm::Knn, &queries, 12).unwrap()
    };
    let a = run(Engine::Sync);
    // A two-thread pool, so the event engine's machines genuinely run
    // concurrently whatever the host's default pool size.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
    let b = pool.install(|| run(Engine::Event));
    for j in 0..queries.len() {
        assert_eq!(a.answers[j].neighbors, b.answers[j].neighbors, "query {j}");
    }
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.metrics.per_tag, b.metrics.per_tag);
}

#[test]
fn batch_approx_contains_the_exact_batch() {
    let cluster = loaded_cluster(6, 3000, ElectionKind::Fixed, 8);
    let queries: Vec<ScalarPoint> = QueryStream::scalar(3, 3, 0, 1 << 20, 5).next().unwrap();
    let exact = cluster.query_batch(&queries, 50).unwrap();
    let approx = cluster.query_batch_approx(&queries, 50).unwrap();
    for j in 0..queries.len() {
        let sup = &approx.answers[j].neighbors;
        let sub = &exact.answers[j].neighbors;
        assert!(sup.len() >= sub.len(), "query {j}");
        assert_eq!(&sup[..sub.len()], &sub[..], "exact answer must be a prefix of approx");
    }
}

#[test]
fn empty_batch_and_unloaded_cluster() {
    let cluster = loaded_cluster(3, 50, ElectionKind::Fixed, 0);
    let empty = cluster.query_batch(&[], 5).unwrap();
    assert!(empty.answers.is_empty());
    assert_eq!(empty.metrics.messages, 0);

    let unloaded: KnnCluster = KnnCluster::builder().machines(3).build();
    assert!(unloaded.query_batch(&[ScalarPoint(1)], 2).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Randomized parity: any cluster shape, any ℓ, any batch, every
    /// algorithm — batch answers equal sequential answers key for key.
    #[test]
    fn prop_query_batch_matches_sequential_queries(
        k in 1usize..5,
        n in 1usize..200,
        ell in 0usize..12,
        m in 1usize..5,
        algo_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let cluster = loaded_cluster(k, n, ElectionKind::Star, seed);
        let queries: Vec<ScalarPoint> =
            QueryStream::scalar(m, m, 0, 1 << 20, seed ^ 0xAB).next().unwrap();
        let batch = cluster.query_batch_with(algo, &queries, ell).unwrap();
        prop_assert!(batch.election_metrics.is_some());
        for (j, q) in queries.iter().enumerate() {
            let solo = cluster.query_with(algo, q, ell).unwrap();
            prop_assert_eq!(
                &batch.answers[j].neighbors, &solo.neighbors,
                "{:?} query {}", algo, j
            );
        }
    }
}
