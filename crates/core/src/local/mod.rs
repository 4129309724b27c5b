//! Local (per-machine) computation helpers and shard indices.
//!
//! The model charges nothing for local computation, but the wall-clock
//! experiments do: these run inside each machine's round 0 — in parallel
//! across machines under the event engine — matching where the paper's
//! cluster spends its local time.
//!
//! Three candidate-generation paths exist:
//!
//! * [`dist_keys`] — the paper's reduction verbatim: compute the distance of
//!   the query to *all* local points, `O(n)` per query. Used by the one-shot
//!   [`crate::runner::run_query`] path.
//! * [`IndexedPoint`] — a per-shard **exact** index built at load time and
//!   updated on every [`crate::cluster::KnnCluster::insert`] (the dataset is
//!   *not* frozen after load), so the serving path
//!   ([`crate::session::QuerySession`]) generates the local top-ℓ
//!   candidates in `O(ℓ log n)` instead of `O(n)` per query. Since a
//!   machine can contribute at most ℓ answers, the local top-ℓ is a
//!   sufficient input for every protocol in this crate: the answer is
//!   provably identical (any global top-ℓ member is in its machine's local
//!   top-ℓ, and per-machine counts clamp without crossing the ℓ decision
//!   boundary). Note that only Algorithm 2, Simple, and the approx path
//!   truncate to the local top-ℓ themselves on the sequential path —
//!   BinSearch sequentially bisects over the *full* local key set, so its
//!   batched rounds improve both from amortization and from the index
//!   shrinking its value interval; cost comparisons across the two paths
//!   should say which effect they measure.
//! * [`nsw::NswIndex`] — an **approximate** navigable-small-world graph with
//!   insert-as-query construction, selected per cluster via
//!   [`IndexBackend::Nsw`]. It trades exactness for an `ef`/`m` recall ↔
//!   latency dial (saturating at exact when `ef` covers the shard) and gives
//!   every point type — including high-dimensional [`VecPoint`] and
//!   [`BitsPoint`], which the exact path serves by brute scan — a sublinear
//!   serving path plus cheap online inserts.
//!
//! [`ShardIndex`] is the dispatch between the last two: clusters store one
//! per shard and route every local top-ℓ request through it.

use knn_points::{BitsPoint, DistKey, Metric, Point, PointId, Record, ScalarPoint, VecPoint};
use knn_selection::TopK;

pub mod nsw;

pub use nsw::{recall, NswIndex, NswParams};

/// Distance keys of all records with respect to `query`: the reduction of
/// ℓ-NN to selection (§1.2 — "compute the distance of the query point to
/// all the points, then find the ℓ-smallest distance values").
pub fn dist_keys<P: Point>(records: &[Record<P>], query: &P, metric: Metric) -> Vec<DistKey> {
    records.iter().map(|r| DistKey::new(r.point.distance(query, metric), r.id)).collect()
}

/// The ℓ smallest distance keys by full scan, ascending by `(distance, id)`
/// — the index-free fallback, `O(n)` per query but `O(ℓ)` memory.
pub fn brute_top<P: Point>(
    records: &[Record<P>],
    query: &P,
    ell: usize,
    metric: Metric,
) -> Vec<DistKey> {
    knn_selection::smallest_k(
        records.iter().map(|r| DistKey::new(r.point.distance(query, metric), r.id)),
        ell,
    )
}

/// A point type with a per-shard **exact** index for repeated-query serving.
///
/// `build_index` runs per shard at [`crate::cluster::KnnCluster::load`] time;
/// `index_insert` absorbs each record a [`ShardIndex::insert`] appends
/// afterwards; `index_top` answers "this shard's ℓ best candidates" per
/// query. The default `index_insert` rebuilds, so an implementation only
/// overrides it when it can update in place: the scalar sorted array does
/// (a binary search plus a shift of the tail), the vector k-d tree and the
/// bit-point scan keep the default (a full tree rebuild, and nothing).
/// The contract is **exact parity with the brute-force scan**: `index_top`
/// must return precisely the ℓ smallest `(distance, id)` keys the full
/// [`dist_keys`] scan would yield, in ascending order — the batched and
/// sequential serving paths rely on this to give identical answers.
///
/// Custom point types can opt out of real indexing the way [`BitsPoint`]
/// does: `type Index = ()`, an empty `build_index`, and an `index_top` that
/// delegates to [`brute_top`] — three lines, always correct.
pub trait IndexedPoint: Point {
    /// The index structure held per shard.
    type Index: Send + Sync + std::fmt::Debug;

    /// Build the shard's index from the full record set.
    fn build_index(records: &[Record<Self>]) -> Self::Index;

    /// Absorb `records[pos]`, just appended to the shard `index` was built
    /// over. The result must answer exactly as `build_index(records)` would;
    /// the default is that rebuild.
    fn index_insert(index: &mut Self::Index, records: &[Record<Self>], pos: usize) {
        let _ = pos;
        *index = Self::build_index(records);
    }

    /// The shard's ℓ best candidates for `query`, ascending by
    /// `(distance, id)` and identical to the brute-force top-ℓ.
    fn index_top(
        index: &Self::Index,
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey>;
}

/// Sorted-array index over the integer line: the 1-d specialization where a
/// binary search plus two-pointer expansion beats a k-d tree (and stays in
/// the exact `u64` distance domain, which an `f64` tree would not).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarIndex {
    /// `(value, id)` pairs sorted ascending. Duplicate-value correctness in
    /// the expansion below does *not* come from visit order (the leftward
    /// walk sees equal values in descending id order): it comes from the
    /// strictly-greater break condition plus `TopK`'s exact `(dist, id)`
    /// eviction, which together admit every distance-tied candidate.
    sorted: Vec<(u64, PointId)>,
}

impl IndexedPoint for ScalarPoint {
    type Index = ScalarIndex;

    fn build_index(records: &[Record<Self>]) -> ScalarIndex {
        let mut sorted: Vec<(u64, PointId)> = records.iter().map(|r| (r.point.0, r.id)).collect();
        sorted.sort_unstable();
        ScalarIndex { sorted }
    }

    /// Ids are unique, so the `(value, id)` slot is unique too and the
    /// array stays byte-identical to a rebuild over the grown shard.
    fn index_insert(index: &mut ScalarIndex, records: &[Record<Self>], pos: usize) {
        let entry = (records[pos].point.0, records[pos].id);
        let at = index.sorted.partition_point(|&e| e < entry);
        index.sorted.insert(at, entry);
    }

    fn index_top(
        index: &ScalarIndex,
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        if matches!(metric, Metric::Hamming) {
            // Hamming distance on the line is 0/1 — not monotone in
            // |value − query|, so the ordered expansion does not apply.
            return brute_top(records, query, ell, metric);
        }
        if ell == 0 || index.sorted.is_empty() {
            return Vec::new();
        }
        let sorted = &index.sorted;
        let n = sorted.len();
        // All non-Hamming scalar metrics encode monotonically in
        // |value − query| (see ScalarPoint::distance), so expanding outward
        // from the query's insertion point enumerates candidates in
        // non-decreasing distance order: O(log n + ℓ) per query.
        let mut right = sorted.partition_point(|&(v, _)| v < query.0);
        let mut left = right;
        let mut best = TopK::<DistKey>::new(ell);
        loop {
            let left_gap = (left > 0).then(|| query.0.abs_diff(sorted[left - 1].0));
            let right_gap = (right < n).then(|| sorted[right].0.abs_diff(query.0));
            let from_left = match (left_gap, right_gap) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(r)) => l <= r,
            };
            let (value, id) = if from_left {
                left -= 1;
                sorted[left]
            } else {
                let e = sorted[right];
                right += 1;
                e
            };
            let dist = ScalarPoint(value).distance(query, metric);
            if let Some(worst) = best.threshold() {
                // Strict: an equal-distance candidate with a smaller id can
                // still displace the current worst under (distance, id).
                if dist > worst.dist {
                    break;
                }
            }
            best.push(DistKey::new(dist, id));
        }
        best.into_sorted()
    }
}

impl IndexedPoint for VecPoint {
    /// The k-d tree of the related-work baselines, reused as a *local*
    /// accelerator: the distributed protocols stay communication-light, and
    /// each machine answers its candidate-generation subproblem in
    /// `O(ℓ log n)` expected time.
    type Index = knn_kdtree::KdTree;

    fn build_index(records: &[Record<Self>]) -> knn_kdtree::KdTree {
        knn_kdtree::KdTree::from_records(records)
    }

    fn index_top(
        index: &knn_kdtree::KdTree,
        _records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        index.knn(&query.0, ell, metric).into_iter().map(|(d, id)| DistKey::new(d, id)).collect()
    }
}

impl IndexedPoint for BitsPoint {
    /// Hamming space has no cheap exact index here; the scan is the index.
    type Index = ();

    fn build_index(_records: &[Record<Self>]) -> Self::Index {}

    fn index_top(
        _index: &(),
        records: &[Record<Self>],
        query: &Self,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        brute_top(records, query, ell, metric)
    }
}

/// Which local index each shard builds — a per-cluster choice made on
/// [`crate::QueryOptions`] / [`crate::ClusterBuilder::index_backend`].
///
/// * [`IndexBackend::Exact`] (the default): the [`IndexedPoint`] index for
///   the point type — sorted array for scalars, k-d tree for vectors, brute
///   scan for bit points. Answers are exactly the brute-force top-ℓ.
/// * [`IndexBackend::Nsw`]: the [`NswIndex`] proximity graph — approximate
///   at small `ef` (recall measured by the `recall` bench bin), exact when
///   `ef` covers the shard, with `O(log n)`-ish online inserts for every
///   point type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexBackend {
    /// Exact per-type index with brute-force parity.
    #[default]
    Exact,
    /// Navigable-small-world graph with the given knobs.
    Nsw(NswParams),
}

impl IndexBackend {
    /// NSW backend with default knobs.
    pub fn nsw() -> Self {
        IndexBackend::Nsw(NswParams::default())
    }

    /// Short human-readable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Exact => "exact",
            IndexBackend::Nsw(_) => "nsw",
        }
    }
}

/// The index a cluster holds per shard: the [`IndexBackend`] dispatch
/// between the exact [`IndexedPoint`] structure and the approximate
/// [`NswIndex`] graph. All serving-path candidate generation — including
/// the Byzantine audit's shard-local truth — goes through [`ShardIndex::top`]
/// so honest claims and recomputed truth always come from the same code
/// path, and [`ShardIndex::insert`] keeps the structure live as records are
/// appended.
#[derive(Debug)]
pub enum ShardIndex<P: IndexedPoint> {
    /// Exact index (brute-force parity guaranteed by [`IndexedPoint`]).
    Exact(P::Index),
    /// Approximate NSW graph (exact once `ef` covers the shard).
    Nsw(NswIndex),
}

impl<P: IndexedPoint> ShardIndex<P> {
    /// Build the selected index over a shard's records. `metric` only
    /// matters for [`IndexBackend::Nsw`], whose graph geometry is tied to
    /// the metric it was built under.
    pub fn build(records: &[Record<P>], backend: IndexBackend, metric: Metric) -> Self {
        match backend {
            IndexBackend::Exact => ShardIndex::Exact(P::build_index(records)),
            IndexBackend::Nsw(params) => ShardIndex::Nsw(NswIndex::build(records, params, metric)),
        }
    }

    /// Which backend this index is.
    pub fn backend(&self) -> IndexBackend {
        match self {
            ShardIndex::Exact(_) => IndexBackend::Exact,
            ShardIndex::Nsw(index) => IndexBackend::Nsw(index.params()),
        }
    }

    /// The shard's ℓ best candidates, ascending by `(distance, id)`.
    ///
    /// Exact backend: precisely the brute-force top-ℓ. NSW backend: the
    /// graph search at the configured `ef_search` (raised to `ell` when
    /// smaller) — but if `metric` differs from the build metric the graph
    /// does not apply and this falls back to the exact scan.
    pub fn top(
        &self,
        records: &[Record<P>],
        query: &P,
        ell: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        match self {
            ShardIndex::Exact(index) => P::index_top(index, records, query, ell, metric),
            ShardIndex::Nsw(index) => {
                if metric != index.metric() {
                    return brute_top(records, query, ell, metric);
                }
                index.search(records, query, ell, index.params().ef_search)
            }
        }
    }

    /// [`ShardIndex::top`] with a per-call `ef` override. The exact backend
    /// ignores `ef` (it is already exact); the NSW backend uses it as the
    /// frontier breadth, so `ef ≥ records.len()` forces exact parity.
    pub fn top_ef(
        &self,
        records: &[Record<P>],
        query: &P,
        ell: usize,
        ef: usize,
        metric: Metric,
    ) -> Vec<DistKey> {
        match self {
            ShardIndex::Exact(index) => P::index_top(index, records, query, ell, metric),
            ShardIndex::Nsw(index) => {
                if metric != index.metric() {
                    return brute_top(records, query, ell, metric);
                }
                index.search(records, query, ell, ef)
            }
        }
    }

    /// Absorb the record just appended at `records[pos]` (the shard's new
    /// last element). NSW inserts it through the same search path bulk
    /// construction uses (a graph insert); the exact backend goes through
    /// [`IndexedPoint::index_insert`]: a binary search plus a shift of the
    /// tail for scalars, a k-d tree rebuild for vectors, nothing for bit
    /// points.
    pub fn insert(&mut self, records: &[Record<P>], pos: usize) {
        match self {
            ShardIndex::Exact(index) => P::index_insert(index, records, pos),
            ShardIndex::Nsw(index) => index.insert(records, pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::IdAssigner;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn keys_carry_distance_and_id() {
        let mut ids = IdAssigner::new(0);
        let records: Vec<Record<ScalarPoint>> = [10u64, 30]
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(v), label: None })
            .collect();
        let keys = dist_keys(&records, &ScalarPoint(12), Metric::Euclidean);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].dist.as_u64(), 2);
        assert_eq!(keys[0].id, records[0].id);
        assert_eq!(keys[1].dist.as_u64(), 18);
    }

    fn scalar_records(values: &[u64], seed: u64) -> Vec<Record<ScalarPoint>> {
        let mut ids = IdAssigner::new(seed);
        values
            .iter()
            .map(|&v| Record { id: ids.next_id(), point: ScalarPoint(v), label: None })
            .collect()
    }

    fn oracle<P: Point>(records: &[Record<P>], q: &P, ell: usize, metric: Metric) -> Vec<DistKey> {
        let mut keys = dist_keys(records, q, metric);
        keys.sort_unstable();
        keys.truncate(ell);
        keys
    }

    const ALL_METRICS: [Metric; 6] = [
        Metric::Euclidean,
        Metric::SquaredEuclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Minkowski(3.0),
        Metric::Hamming,
    ];

    #[test]
    fn scalar_index_matches_brute_force_on_all_metrics() {
        let values: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(48271) % 1000).collect();
        let records = scalar_records(&values, 1);
        let index = ScalarPoint::build_index(&records);
        for metric in ALL_METRICS {
            for q in [0u64, 17, 500, 999, 2000] {
                for ell in [0usize, 1, 7, 300, 500] {
                    let got =
                        ScalarPoint::index_top(&index, &records, &ScalarPoint(q), ell, metric);
                    let want = oracle(&records, &ScalarPoint(q), ell, metric);
                    assert_eq!(got, want, "metric {metric:?} q {q} ell {ell}");
                }
            }
        }
    }

    #[test]
    fn scalar_index_breaks_duplicate_ties_by_id() {
        // Many duplicates at equal distance on both sides of the query.
        let records = scalar_records(&[5, 5, 5, 15, 15, 15, 10], 7);
        let index = ScalarPoint::build_index(&records);
        let q = ScalarPoint(10);
        for ell in 1..=7 {
            let got = ScalarPoint::index_top(&index, &records, &q, ell, Metric::Euclidean);
            assert_eq!(got, oracle(&records, &q, ell, Metric::Euclidean), "ell {ell}");
        }
    }

    #[test]
    fn scalar_index_handles_saturating_squared_distances() {
        let records = scalar_records(&[0, 1, u64::MAX - 1, u64::MAX], 3);
        let index = ScalarPoint::build_index(&records);
        for q in [0u64, u64::MAX / 2, u64::MAX] {
            let got = ScalarPoint::index_top(
                &index,
                &records,
                &ScalarPoint(q),
                3,
                Metric::SquaredEuclidean,
            );
            assert_eq!(got, oracle(&records, &ScalarPoint(q), 3, Metric::SquaredEuclidean), "{q}");
        }
    }

    #[test]
    fn vec_index_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = IdAssigner::new(4);
        let records: Vec<Record<VecPoint>> = (0..200)
            .map(|_| Record {
                id: ids.next_id(),
                point: VecPoint::new(vec![
                    rng.random_range(-5.0..5.0),
                    rng.random_range(-5.0..5.0),
                ]),
                label: None,
            })
            .collect();
        let index = VecPoint::build_index(&records);
        let q = VecPoint::new(vec![0.25, -1.5]);
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Hamming] {
            let got = VecPoint::index_top(&index, &records, &q, 9, metric);
            assert_eq!(got, oracle(&records, &q, 9, metric), "{metric:?}");
        }
    }

    #[test]
    fn bits_index_is_the_brute_scan() {
        let mut ids = IdAssigner::new(9);
        let records: Vec<Record<BitsPoint>> = (0..50u64)
            .map(|i| Record {
                id: ids.next_id(),
                point: BitsPoint::new(vec![i.wrapping_mul(0x9E3779B9)]),
                label: None,
            })
            .collect();
        BitsPoint::build_index(&records);
        let q = BitsPoint::new(vec![0xF0F0]);
        let got = BitsPoint::index_top(&(), &records, &q, 5, Metric::Hamming);
        assert_eq!(got, oracle(&records, &q, 5, Metric::Hamming));
    }

    #[test]
    fn empty_shard_yields_empty_candidates() {
        let records: Vec<Record<ScalarPoint>> = Vec::new();
        let index = ScalarPoint::build_index(&records);
        assert!(ScalarPoint::index_top(&index, &records, &ScalarPoint(1), 4, Metric::Euclidean)
            .is_empty());
        let vrecords: Vec<Record<VecPoint>> = Vec::new();
        let vindex = VecPoint::build_index(&vrecords);
        let q = VecPoint::new(vec![1.0, 2.0]);
        assert!(VecPoint::index_top(&vindex, &vrecords, &q, 4, Metric::Euclidean).is_empty());
    }

    #[test]
    fn shard_index_dispatch_and_metric_fallback() {
        let records = scalar_records(&[3, 9, 1, 14, 7, 7, 20], 11);
        let q = ScalarPoint(8);
        let want = oracle(&records, &q, 3, Metric::Euclidean);
        let exact =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::Exact, Metric::Euclidean);
        assert_eq!(exact.backend(), IndexBackend::Exact);
        assert_eq!(exact.top(&records, &q, 3, Metric::Euclidean), want);
        let nsw =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::nsw(), Metric::Euclidean);
        assert_eq!(nsw.backend().name(), "nsw");
        // ef_search (64) covers this tiny shard, so NSW is exact here.
        assert_eq!(nsw.top(&records, &q, 3, Metric::Euclidean), want);
        // A query under a different metric cannot use the graph: scan.
        let want_h = oracle(&records, &q, 3, Metric::Hamming);
        assert_eq!(nsw.top(&records, &q, 3, Metric::Hamming), want_h);
        assert_eq!(nsw.top_ef(&records, &q, 3, 1, Metric::Hamming), want_h);
    }

    #[test]
    fn shard_index_insert_keeps_both_backends_current() {
        let mut records = scalar_records(&[50, 60, 70, 80], 12);
        let mut exact =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::Exact, Metric::Euclidean);
        let mut nsw =
            ShardIndex::<ScalarPoint>::build(&records, IndexBackend::nsw(), Metric::Euclidean);
        let mut ids = IdAssigner::new(99);
        records.push(Record { id: ids.next_id(), point: ScalarPoint(61), label: None });
        exact.insert(&records, records.len() - 1);
        nsw.insert(&records, records.len() - 1);
        let q = ScalarPoint(61);
        let want = oracle(&records, &q, 2, Metric::Euclidean);
        assert_eq!(exact.top(&records, &q, 2, Metric::Euclidean), want);
        assert_eq!(nsw.top(&records, &q, 2, Metric::Euclidean), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_scalar_insert_equals_rebuild(
            initial in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..40),
            inserts in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..40),
            step in 1u64..251,
            offset in 0u64..251,
            q in any::<u64>(),
            ell in 1usize..12,
        ) {
            // Half the values fall in 0..16, so duplicates are common; the
            // rest span all of u64 (saturating squared distances). Ids are
            // a permutation of 0..251 (251 is prime), so inserted ids land
            // below, between and above the ids already in the shard.
            let value = |(v, dense): (u64, bool)| if dense { v % 16 } else { v };
            let record = |i: usize, v| Record {
                id: PointId((i as u64 * step + offset) % 251),
                point: ScalarPoint(value(v)),
                label: None,
            };
            let mut records: Vec<_> = initial.iter().enumerate().map(|(i, &v)| record(i, v)).collect();
            let mut shard = ShardIndex::build(&records, IndexBackend::Exact, Metric::Euclidean);
            for &v in &inserts {
                records.push(record(records.len(), v));
                shard.insert(&records, records.len() - 1);
                let ShardIndex::Exact(index) = &shard else { unreachable!() };
                prop_assert_eq!(index, &ScalarPoint::build_index(&records));
                for query in [ScalarPoint(q), ScalarPoint(q % 16), records[records.len() - 1].point] {
                    for metric in ALL_METRICS {
                        prop_assert_eq!(
                            shard.top(&records, &query, ell, metric),
                            oracle(&records, &query, ell, metric)
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_scalar_index_equals_brute_force(
            values in proptest::collection::vec(any::<u64>(), 0..120),
            q in any::<u64>(),
            ell in 0usize..25,
            seed in 0u64..100,
        ) {
            let records = scalar_records(&values, seed);
            let index = ScalarPoint::build_index(&records);
            let got = ScalarPoint::index_top(&index, &records, &ScalarPoint(q), ell, Metric::Euclidean);
            prop_assert_eq!(got, oracle(&records, &ScalarPoint(q), ell, Metric::Euclidean));
        }
    }
}
