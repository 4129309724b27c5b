//! Independent answer oracles: the benchmark's own ℓ-NN over every point
//! present when a call ran, written without the library's indexes or
//! selection code.

use std::collections::HashMap;

use knn_core::Neighbor;
use knn_points::{Dataset, DistKey, Metric, Point, PointId, Record, ScalarPoint, VecPoint};

/// One exact neighbor as the oracle sees it.
pub type Truth = (DistKey, usize);

/// Exact ℓ-NN over scalar points: a `(value, id)`-sorted column searched by
/// binary search and expanded both ways, plus an unsorted tail for points
/// inserted after load. Valid for any metric whose distance grows with
/// `|value - query|` (all scalar metrics but Hamming).
#[derive(Debug)]
pub struct ScalarOracle {
    sorted: Vec<(u64, PointId, usize)>,
    inserted: Vec<(u64, PointId, usize)>,
    metric: Metric,
}

impl ScalarOracle {
    /// Oracle over `shards`, leaving out the machines in `exclude` (whose
    /// points must never appear in an answer).
    pub fn new(shards: &[Dataset<ScalarPoint>], exclude: &[usize], metric: Metric) -> Self {
        assert!(metric != Metric::Hamming, "the expansion needs a monotone distance");
        let mut sorted: Vec<(u64, PointId, usize)> = shards
            .iter()
            .enumerate()
            .filter(|(m, _)| !exclude.contains(m))
            .flat_map(|(m, d)| d.records.iter().map(move |r| (r.point.0, r.id, m)))
            .collect();
        sorted.sort_unstable();
        ScalarOracle { sorted, inserted: Vec::new(), metric }
    }

    pub fn insert(&mut self, record: &Record<ScalarPoint>, machine: usize) {
        self.inserted.push((record.point.0, record.id, machine));
    }

    /// The exact ℓ-NN of `q`, ascending by `(distance, id)`.
    pub fn top(&self, q: &ScalarPoint, ell: usize) -> Vec<Truth> {
        let split = self.sorted.partition_point(|&(v, _, _)| v < q.0);
        let mut out: Vec<&(u64, PointId, usize)> = nearest_side(self.sorted[split..].iter(), ell);
        out.extend(nearest_side(self.sorted[..split].iter().rev(), ell));
        out.extend(&self.inserted);
        let mut out: Vec<Truth> = out
            .into_iter()
            .map(|&(v, id, m)| (DistKey::new(ScalarPoint(v).distance(q, self.metric), id), m))
            .collect();
        out.sort_unstable();
        out.truncate(ell);
        out
    }
}

/// One side of the query, walked in order of growing distance: its first ℓ
/// points, then the rest of the last distance tie. Any point of the global
/// top-ℓ has fewer than ℓ strictly closer points on its side, and its
/// equal-distance peers on that side share its value.
fn nearest_side<'a>(
    side: impl Iterator<Item = &'a (u64, PointId, usize)>,
    ell: usize,
) -> Vec<&'a (u64, PointId, usize)> {
    let mut taken: Vec<&(u64, PointId, usize)> = Vec::with_capacity(ell);
    for e in side {
        if taken.len() >= ell && taken.last().map(|l| l.0) != Some(e.0) {
            break;
        }
        taken.push(e);
    }
    taken
}

/// Exact ℓ-NN over vector points by a full distance scan, with an id
/// lookup to check that returned neighbors exist where the answer says.
#[derive(Debug)]
pub struct VecOracle {
    points: Vec<(VecPoint, PointId, usize)>,
    by_id: HashMap<PointId, usize>,
    metric: Metric,
}

impl VecOracle {
    pub fn new(shards: &[Dataset<VecPoint>], metric: Metric) -> Self {
        let mut o = VecOracle { points: Vec::new(), by_id: HashMap::new(), metric };
        for (m, d) in shards.iter().enumerate() {
            for r in &d.records {
                o.insert(r, m);
            }
        }
        o
    }

    pub fn insert(&mut self, record: &Record<VecPoint>, machine: usize) {
        self.by_id.insert(record.id, self.points.len());
        self.points.push((record.point.clone(), record.id, machine));
    }

    pub fn top(&self, q: &VecPoint, ell: usize) -> Vec<Truth> {
        let mut all: Vec<Truth> = self
            .points
            .iter()
            .map(|(p, id, m)| (DistKey::new(p.distance(q, self.metric), *id), *m))
            .collect();
        let ell = ell.min(all.len());
        if ell < all.len() {
            all.select_nth_unstable(ell);
            all.truncate(ell);
        }
        all.sort_unstable();
        all
    }

    /// Check that every neighbor exists on the machine named, that its
    /// distance recomputes from the stored point, and that the answer is
    /// strictly ascending by `(distance, id)` and complete.
    pub fn check_genuine(&self, got: &[Neighbor], q: &VecPoint, ell: usize) -> Result<(), String> {
        if got.len() != ell.min(self.points.len()) {
            return Err(format!(
                "answer has {} neighbors, want {}",
                got.len(),
                ell.min(self.points.len())
            ));
        }
        for (i, n) in got.iter().enumerate() {
            let &pos = self
                .by_id
                .get(&n.id)
                .ok_or_else(|| format!("neighbor {i}: id {:?} does not exist", n.id))?;
            let (p, _, m) = &self.points[pos];
            if *m != n.machine {
                return Err(format!(
                    "neighbor {i}: id {:?} lives on machine {m}, answer says {}",
                    n.id, n.machine
                ));
            }
            if p.distance(q, self.metric) != n.dist {
                return Err(format!("neighbor {i}: distance of id {:?} does not recompute", n.id));
            }
        }
        if !got.windows(2).all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)) {
            return Err("answer is not strictly ascending by (distance, id)".into());
        }
        Ok(())
    }
}

/// Fraction of the exact answer's ids present in `got`.
pub fn recall(got: &[Neighbor], want: &[Truth]) -> f64 {
    if want.is_empty() {
        return 1.0;
    }
    let ids: std::collections::HashSet<PointId> = got.iter().map(|n| n.id).collect();
    want.iter().filter(|(k, _)| ids.contains(&k.id)).count() as f64 / want.len() as f64
}

/// The exact-answer gate: `got` must be `want`, neighbor by neighbor
/// (id, distance, and hosting machine).
pub fn check_exact(got: &[Neighbor], want: &[Truth]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("answer has {} neighbors, oracle {}", got.len(), want.len()));
    }
    for (i, (n, (k, m))) in got.iter().zip(want).enumerate() {
        if (n.id, n.dist, n.machine) != (k.id, k.dist, *m) {
            return Err(format!(
                "neighbor {i}: got (id {:?}, dist {:?}, machine {}), oracle (id {:?}, dist {:?}, machine {m})",
                n.id, n.dist, n.machine, k.id, k.dist
            ));
        }
    }
    Ok(())
}

/// The library's sequential oracle, run shard by shard and merged: the
/// cross-check that the benchmark's own oracles agree with
/// `knn_points::brute_force_knn`.
pub fn brute_force<P: Point>(
    shards: &[Dataset<P>],
    exclude: &[usize],
    q: &P,
    ell: usize,
    metric: Metric,
) -> Vec<Truth> {
    let mut all: Vec<Truth> = shards
        .iter()
        .enumerate()
        .filter(|(m, _)| !exclude.contains(m))
        .flat_map(|(m, d)| {
            knn_points::brute_force_knn(&d.records, q, ell, metric)
                .into_iter()
                .map(move |(k, _)| (k, m))
        })
        .collect();
    all.sort_unstable();
    all.truncate(ell);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::{IdAssigner, Label};

    fn scalar_shards(k: usize, per: u64, modulus: u64) -> Vec<Dataset<ScalarPoint>> {
        let mut ids = IdAssigner::new(5);
        (0..k as u64)
            .map(|m| {
                // Small value range: many exact ties across and within shards.
                let pts =
                    (0..per).map(|i| ScalarPoint((i * 7919 + m * 104_729) % modulus)).collect();
                Dataset::from_points(pts, &mut ids)
            })
            .collect()
    }

    fn as_neighbors(truth: &[Truth]) -> Vec<Neighbor> {
        truth
            .iter()
            .map(|&(k, m)| Neighbor { id: k.id, dist: k.dist, machine: m, label: None })
            .collect()
    }

    #[test]
    fn scalar_oracle_matches_brute_force_with_ties_and_inserts() {
        let shards = scalar_shards(4, 300, 97);
        let mut oracle = ScalarOracle::new(&shards, &[], Metric::Euclidean);
        let mut grown = shards.clone();
        for (i, v) in [3u64, 50, 50, 96].into_iter().enumerate() {
            let r = Record { id: PointId(1 << 40 | i as u64), point: ScalarPoint(v), label: None };
            oracle.insert(&r, i % 4);
            grown[i % 4].records.push(r);
        }
        for q in [0u64, 1, 48, 50, 96, 200] {
            for ell in [1, 5, 64, 2000] {
                let q = ScalarPoint(q);
                assert_eq!(
                    oracle.top(&q, ell),
                    brute_force(&grown, &[], &q, ell, Metric::Euclidean),
                    "q {q:?} ell {ell}"
                );
            }
        }
    }

    #[test]
    fn excluded_machines_never_appear() {
        let shards = scalar_shards(4, 200, 1000);
        let oracle = ScalarOracle::new(&shards, &[3], Metric::Euclidean);
        let q = ScalarPoint(500);
        let top = oracle.top(&q, 64);
        assert!(top.iter().all(|&(_, m)| m != 3));
        assert_eq!(top, brute_force(&shards, &[3], &q, 64, Metric::Euclidean));
    }

    #[test]
    fn a_tampered_exact_answer_fails_the_gate() {
        let shards = scalar_shards(3, 500, 100_000);
        let oracle = ScalarOracle::new(&shards, &[], Metric::Euclidean);
        let q = ScalarPoint(31_337);
        let want = oracle.top(&q, 16);
        let honest = as_neighbors(&want);
        assert!(check_exact(&honest, &want).is_ok());

        let mut swapped = honest.clone();
        swapped.swap(3, 4);
        assert!(check_exact(&swapped, &want).is_err(), "reordered answer");
        let mut wrong_id = honest.clone();
        wrong_id[0].id = PointId(u64::MAX);
        assert!(check_exact(&wrong_id, &want).is_err(), "foreign id");
        let mut wrong_machine = honest.clone();
        wrong_machine[7].machine = (wrong_machine[7].machine + 1) % 3;
        assert!(check_exact(&wrong_machine, &want).is_err(), "misattributed host");
        assert!(check_exact(&honest[..15], &want).is_err(), "short answer");
        // A far point substituted for a true neighbor: the Byzantine lie shape.
        let far = oracle.top(&ScalarPoint(99_999), 1)[0];
        let mut lied = honest.clone();
        lied[15] = as_neighbors(&[far])[0];
        assert!(check_exact(&lied, &want).is_err(), "substituted neighbor");
    }

    #[test]
    fn vector_genuineness_check_catches_fabrication() {
        let mut ids = IdAssigner::new(1);
        let shards: Vec<Dataset<VecPoint>> = (0..2)
            .map(|m| {
                let pts = (0..50)
                    .map(|i| {
                        (
                            VecPoint::new(vec![i as f64, m as f64 * 0.5, (i % 7) as f64]),
                            Label::Class(m),
                        )
                    })
                    .collect();
                Dataset::from_labeled(pts, &mut ids)
            })
            .collect();
        let oracle = VecOracle::new(&shards, Metric::Euclidean);
        let q = VecPoint::new(vec![10.2, 0.1, 3.0]);
        let want = oracle.top(&q, 8);
        assert_eq!(want, brute_force(&shards, &[], &q, 8, Metric::Euclidean));
        let honest = as_neighbors(&want);
        assert_eq!(oracle.check_genuine(&honest, &q, 8), Ok(()));
        assert_eq!(recall(&honest, &want), 1.0);

        // An approximate answer that misses one true neighbor but is genuine.
        let mut approx = honest[..7].to_vec();
        approx.push(as_neighbors(&oracle.top(&q, 9)[8..])[0]);
        assert_eq!(oracle.check_genuine(&approx, &q, 8), Ok(()));
        assert_eq!(recall(&approx, &want), 7.0 / 8.0);

        let mut bad_dist = honest.clone();
        bad_dist[7].dist = knn_points::Dist::from_f64(1e9);
        assert!(oracle.check_genuine(&bad_dist, &q, 8).is_err(), "distance does not recompute");
        let mut ghost = honest.clone();
        ghost[0].id = PointId(u64::MAX);
        assert!(oracle.check_genuine(&ghost, &q, 8).is_err(), "id does not exist");
        let mut moved = honest.clone();
        moved[1].machine = 1 - moved[1].machine;
        assert!(oracle.check_genuine(&moved, &q, 8).is_err(), "wrong host");
        assert!(oracle.check_genuine(&honest[..7], &q, 8).is_err(), "short answer");
    }
}
