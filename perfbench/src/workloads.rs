//! The four workloads and the closed-loop harness that measures them.
//!
//! Every workload is one client in a closed loop (the library has no
//! request queue, so there is no arrival rate to sweep) at k = 8 machines
//! and ℓ = 64, driven through the public `knn-core` API the way a user
//! drives it. Inputs are generated from the seed before anything is timed.

use std::time::{Duration, Instant};

use kmachine::{AdversaryPlan, Engine, NetConfig};
use knn_core::local::{brute_top, dist_keys};
use knn_core::runner::run_query;
use knn_core::{
    audit_claims, Algorithm, ClusterBuilder, IndexBackend, IndexedPoint, KnnCluster, Neighbor,
    QueryOptions, QuerySession, ShardIndex,
};
use knn_points::{Dataset, DistKey, IdAssigner, Label, PointId, Record, ScalarPoint, VecPoint};
use knn_workloads::query::scalar_queries;
use knn_workloads::{GaussianMixture, PartitionStrategy, ScalarWorkload};
use rayon::prelude::*;

use crate::oracle::{self, ScalarOracle, VecOracle};
use crate::stats::{
    beyond, median, peak_rss_mb, percentile, window_medians, windows, Clock, Kernel, Timed,
};
use crate::trace::{maybe_span, self_times, Tracer};

pub const MACHINES: usize = 8;
pub const ELL: usize = 64;
pub const BATCH: usize = 16;
/// Fresh loads per run: at least `MIN_LOADS`, and more (up to
/// `MAX_LOADS`) until they add up to `SETUP_SECONDS`; `setup_s` is their
/// median.
const MIN_LOADS: usize = 7;
const MAX_LOADS: usize = 200;
const SETUP_SECONDS: f64 = 2.0;
/// Untimed calls before measuring.
const WARMUP_CALLS: u64 = 3;
/// qps is the median over this many equal windows of calls; the printed
/// series use the same windows.
const QPS_WINDOWS: usize = 10;
/// Enough timed inserts that at least ten lie beyond p95.
const MIN_INSERTS: usize = 220;
/// Enough query calls that at least ten lie beyond p95.
const MIN_QUERY_CALLS: usize = 220;
/// Costs and recall are reported over the first this many queries of the
/// run (fewer on query-scan, whose queries are slow): a fixed prefix, so
/// those figures repeat exactly at a given seed however many calls the time
/// budget admits.
const COST_QUERIES: usize = 1024;
const SCAN_COST_QUERIES: usize = 512;
/// Share of the measuring time given to the insert probe on workloads that
/// do not insert in their loop.
const INSERT_PROBE_SHARE: f64 = 0.2;
/// Queries checked against the library's own `brute_force_knn` per run, on
/// top of the benchmark oracle that checks every answer.
const CROSS_CHECKS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeBatch,
    QueryScan,
    IngestNsw,
    AuditLiar,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeBatch, Workload::QueryScan, Workload::IngestNsw, Workload::AuditLiar];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBatch => "serve-batch",
            Workload::QueryScan => "query-scan",
            Workload::IngestNsw => "ingest-nsw",
            Workload::AuditLiar => "audit-liar",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The seed of draw `i` of `stream`: a function of `(seed, stream, i)`
/// alone, so every stream is the same whatever else the run draws.
fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cluster's own seed (protocol sampling, insert routing) and the
/// vector layout (mixture centers, point ids, shard placement) are fixed:
/// the workload seed draws the points, queries and inserts and nothing
/// else, so runs at different seeds measure the same system on different
/// samples of the same distribution. Letting the seed also move the ids and
/// placement tripled the seed-to-seed spread of NSW recall.
const CLUSTER_SEED: u64 = 7;
const LAYOUT_SEED: u64 = 11;

const QUERY_STREAM: u64 = 1;
const INSERT_STREAM: u64 = 2;
const DATA_STREAM: u64 = 3;
const WARMUP_STREAM: u64 = 4;

/// An oracle the harness checks every answer against.
pub trait Oracle<P> {
    fn insert(&mut self, record: &Record<P>, machine: usize);
    /// Gate one answer. Returns its recall@ℓ when `recall` is set (and
    /// 1 otherwise), or why the answer is wrong.
    fn check(&self, q: &P, got: &[Neighbor], recall: bool) -> Result<f64, String>;
}

/// Exact workloads: the answer must equal the oracle's, so recall is 1.
struct ExactScalar {
    oracle: ScalarOracle,
    excluded: Vec<usize>,
}

impl Oracle<ScalarPoint> for ExactScalar {
    fn insert(&mut self, record: &Record<ScalarPoint>, machine: usize) {
        if !self.excluded.contains(&machine) {
            self.oracle.insert(record, machine);
        }
    }

    fn check(&self, q: &ScalarPoint, got: &[Neighbor], _recall: bool) -> Result<f64, String> {
        if let Some(n) = got.iter().find(|n| self.excluded.contains(&n.machine)) {
            return Err(format!(
                "answer holds id {:?} from quarantined machine {}",
                n.id, n.machine
            ));
        }
        oracle::check_exact(got, &self.oracle.top(q, ELL)).map(|()| 1.0)
    }
}

impl Oracle<VecPoint> for VecOracle {
    fn insert(&mut self, record: &Record<VecPoint>, machine: usize) {
        VecOracle::insert(self, record, machine);
    }

    fn check(&self, q: &VecPoint, got: &[Neighbor], recall: bool) -> Result<f64, String> {
        self.check_genuine(got, q, ELL)?;
        Ok(if recall { oracle::recall(got, &self.top(q, ELL)) } else { 1.0 })
    }
}

/// The `i`th point the workload inserts, with its label.
type InsertStream<P> = Box<dyn Fn(u64) -> (P, Option<Label>)>;

/// Everything a workload is: data, cluster configuration, and its streams.
struct Plan<P, O> {
    shards: Vec<Dataset<P>>,
    config: ClusterBuilder,
    /// Queries per call: `query_batch` when above 1, `query` otherwise.
    batch: usize,
    /// Inserts after every query call, inside the timed loop.
    inserts_per_call: usize,
    /// Queries of the fixed prefix that costs and recall are reported over.
    cost_queries: usize,
    /// Machines whose points must never appear in an answer.
    excluded: Vec<usize>,
    /// The reference kernel closest to the workload's bottleneck.
    reference: Kernel,
    queries: Box<dyn Fn(u64, u64) -> Vec<P>>,
    inserts: InsertStream<P>,
    oracle: O,
}

fn scalar_data(per_machine: usize, seed: u64) -> Vec<Dataset<ScalarPoint>> {
    ScalarWorkload { per_machine, lo: 0, hi: 1 << 32 }.generate(MACHINES, mix(seed, DATA_STREAM, 0))
}

fn scalar_plan(workload: Workload, seed: u64) -> Plan<ScalarPoint, ExactScalar> {
    let base = KnnCluster::builder().machines(MACHINES).seed(CLUSTER_SEED);
    let (per_machine, batch, inserts_per_call, config, excluded) = match workload {
        Workload::ServeBatch => (1 << 14, BATCH, 1, base.engine(Engine::Sync), vec![]),
        Workload::QueryScan => (1 << 18, 1, 0, base, vec![]),
        Workload::AuditLiar => (
            1 << 14,
            BATCH,
            0,
            base.engine(Engine::Sync).adversary(AdversaryPlan::default().with_lie(3, 0)),
            vec![3],
        ),
        Workload::IngestNsw => unreachable!("vector workload"),
    };
    let shards = scalar_data(per_machine, seed);
    let metric = options_of(&config).metric;
    let oracle = ExactScalar {
        oracle: ScalarOracle::new(&shards, &excluded, metric),
        excluded: excluded.clone(),
    };
    Plan {
        shards,
        config,
        batch,
        inserts_per_call,
        cost_queries: if workload == Workload::QueryScan {
            SCAN_COST_QUERIES
        } else {
            COST_QUERIES
        },
        excluded,
        reference: if workload == Workload::QueryScan { Kernel::Stream } else { Kernel::Cache },
        queries: Box::new(move |stream, i| scalar_queries(batch, 0, 1 << 32, mix(seed, stream, i))),
        inserts: Box::new(move |i| {
            (scalar_queries(1, 0, 1 << 32, mix(seed, INSERT_STREAM, i))[0], None)
        }),
        oracle,
    }
}

const NSW_PER_MACHINE: usize = 4096;
const NSW_INSERTS_PER_BATCH: usize = 4;

fn nsw_plan(seed: u64) -> Plan<VecPoint, VecOracle> {
    let mixture = GaussianMixture { dims: 16, clusters: 16, ..GaussianMixture::default() };
    let mut ids = IdAssigner::new(LAYOUT_SEED);
    let data = Dataset::from_labeled(
        mixture.generate_with(MACHINES * NSW_PER_MACHINE, LAYOUT_SEED, mix(seed, DATA_STREAM, 0)),
        &mut ids,
    );
    let shards: Vec<Dataset<VecPoint>> = PartitionStrategy::Shuffled
        .split(data.records, MACHINES, LAYOUT_SEED)
        .into_iter()
        .map(Dataset::new)
        .collect();
    let config = KnnCluster::builder()
        .machines(MACHINES)
        .seed(CLUSTER_SEED)
        .engine(Engine::Sync)
        .index_backend(IndexBackend::nsw());
    let oracle = VecOracle::new(&shards, options_of(&config).metric);
    Plan {
        shards,
        config,
        batch: BATCH,
        inserts_per_call: NSW_INSERTS_PER_BATCH,
        cost_queries: COST_QUERIES,
        excluded: vec![],
        reference: Kernel::Cache,
        // Held-out draws from the data's own mixture (same centers).
        queries: Box::new(move |stream, i| {
            mixture
                .generate_with(BATCH, LAYOUT_SEED, mix(seed, stream, i))
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        }),
        // Draws come in balanced groups (draw j belongs to cluster j mod
        // 16), so the stream takes one group per 16 inserts.
        inserts: Box::new(move |i| {
            let clusters = mixture.clusters as u64;
            let group = mixture.generate_with(
                mixture.clusters,
                LAYOUT_SEED,
                mix(seed, INSERT_STREAM, i / clusters),
            );
            let (p, l) = group[(i % clusters) as usize].clone();
            (p, Some(l))
        }),
        oracle,
    }
}

/// One run's result: named metrics plus what stands behind them.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts, check counts, and per-window series (JSON values).
    pub details: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn detail(&mut self, name: &'static str, value: impl ToString) {
        self.details.push((name, value.to_string()));
    }
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(","))
}

/// Run `workload` for `seconds` of measured calls. With a tracer, the run
/// also replays each call's inner layers and reports per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Report, String> {
    match workload {
        Workload::IngestNsw => Harness::new(nsw_plan(seed), tracer).run(seconds),
        w => Harness::new(scalar_plan(w, seed), tracer).run(seconds),
    }
}

/// The benchmark's copy of the cluster's shards (and, when tracing, of its
/// indexes), kept in step with every insert so layer calls can be replayed
/// on identical inputs.
struct Mirror<P: IndexedPoint> {
    shards: Vec<Dataset<P>>,
    indices: Vec<ShardIndex<P>>,
}

/// Per-layer counters gathered from the answers of the traced run.
#[derive(Default)]
struct LayerCounts {
    calls: u64,
    queries: u64,
    rounds: u64,
    wall: Duration,
    max_backlog_bits: u64,
    attempts: u64,
    rerun_queries: u64,
    digests: u64,
    audits: u64,
    quarantined: u64,
    knn_queries: u64,
    candidates: u64,
    survivors: u64,
    iterations: u64,
    rollbacks: u64,
    runner_attempts: Vec<f64>,
    top_recall: Vec<f64>,
}

/// What one query call returned, in a shape common to `query` and
/// `query_batch`.
struct Answered {
    answers: Vec<Vec<Neighbor>>,
    rounds: u64,
    messages: u64,
    bits: u64,
    wall: Duration,
    attempts: u32,
    rerun_queries: u64,
    max_backlog_bits: u64,
    digests: u64,
    audits: u64,
    quarantined: u64,
    shards_used: usize,
    stats: Vec<knn_core::protocols::KnnStats>,
}

struct Harness<'t, P: IndexedPoint, O> {
    plan: Plan<P, O>,
    tracer: Option<&'t Tracer>,
    request: u64,
    layers: LayerCounts,
}

impl<'t, P, O> Harness<'t, P, O>
where
    P: IndexedPoint + Clone + Send + Sync,
    O: Oracle<P>,
{
    fn new(plan: Plan<P, O>, tracer: Option<&'t Tracer>) -> Self {
        Harness { plan, tracer, request: 0, layers: LayerCounts::default() }
    }

    fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// One query call: `query_batch` when `batch` is above 1, `query`
    /// otherwise.
    fn call(
        batch: usize,
        cluster: &KnnCluster<P>,
        queries: &[P],
    ) -> Result<Answered, knn_core::CoreError> {
        if batch > 1 {
            let b = cluster.query_batch(queries, ELL)?;
            Ok(Answered {
                rounds: b.metrics.rounds,
                messages: b.metrics.messages,
                bits: b.metrics.bits,
                wall: b.wall,
                attempts: b.attempts,
                rerun_queries: b.answers.iter().filter(|a| a.attempts > 1).count() as u64,
                max_backlog_bits: b.metrics.max_link_backlog_bits,
                digests: b.audit.digests_verified,
                audits: b.audit.audits_run,
                quarantined: b.audit.suspects_quarantined,
                shards_used: b.shards_used,
                stats: b.answers.iter().filter_map(|a| a.stats).collect(),
                answers: b.answers.into_iter().map(|a| a.neighbors).collect(),
            })
        } else {
            let a = cluster.query(&queries[0], ELL)?;
            Ok(Answered {
                rounds: a.metrics.rounds,
                messages: a.metrics.messages,
                bits: a.metrics.bits,
                wall: a.wall,
                attempts: a.attempts,
                rerun_queries: u64::from(a.attempts > 1),
                max_backlog_bits: a.metrics.max_link_backlog_bits,
                digests: a.audit.digests_verified,
                audits: a.audit.audits_run,
                quarantined: a.audit.suspects_quarantined,
                shards_used: a.shards_used,
                stats: a.stats.into_iter().collect(),
                answers: vec![a.neighbors],
            })
        }
    }

    /// Gate one call's answers: every answer against the oracle, the
    /// quarantine on the liar workload. Returns the summed recall.
    fn check(&self, queries: &[P], got: &Answered, recall: bool) -> Result<f64, String> {
        if !self.plan.excluded.is_empty()
            && (got.quarantined < self.plan.excluded.len() as u64
                || got.shards_used != MACHINES - self.plan.excluded.len())
        {
            return Err(format!(
                "liar not quarantined: {} quarantined, {} shards used",
                got.quarantined, got.shards_used
            ));
        }
        let mut total = 0.0;
        for (q, ans) in queries.iter().zip(&got.answers) {
            total += self.plan.oracle.check(q, ans, recall)?;
        }
        Ok(total)
    }

    fn run(mut self, seconds: f64) -> Result<Report, String> {
        let mut report = Report::default();
        let opts = options_of(&self.plan.config);
        let mut clock = Clock::new(self.plan.reference);

        // Set-up: fresh clusters loaded from already-generated shards.
        let mut loads: Vec<Timed> = Vec::new();
        let mut cluster = None;
        let mut indices = Vec::new();
        while loads.len() < MIN_LOADS
            || (loads.iter().map(|t| t.raw).sum::<f64>() < SETUP_SECONDS && loads.len() < MAX_LOADS)
        {
            drop(cluster.take());
            let data = self.plan.shards.clone();
            let mut c: KnnCluster<P> = self.plan.config.clone().build();
            let req = self.next_request();
            let ((loaded, span), timed) = clock.time(|| {
                maybe_span(self.tracer, "cluster.load_shards", req, || c.load_shards(data))
            });
            loaded.map_err(|e| format!("load failed: {e}"))?;
            if let (Some(tr), Some(load)) = (self.tracer, span) {
                let shards = &self.plan.shards;
                (indices, _) = tr.span("local.build", Some(load), req, true, || {
                    shards
                        .par_iter()
                        .map(|d| ShardIndex::build(&d.records, opts.backend, opts.metric))
                        .collect()
                });
            }
            loads.push(timed);
            cluster = Some(c);
        }
        let mut cluster = cluster.expect("at least one load");
        let mut mirror = Mirror { shards: std::mem::take(&mut self.plan.shards), indices };

        for i in 0..WARMUP_CALLS {
            let queries = (self.plan.queries)(WARMUP_STREAM, i);
            let got = Self::call(self.plan.batch, &cluster, &queries)
                .map_err(|e| format!("warm-up call failed: {e}"))?;
            self.check(&queries, &got, false)?;
        }

        // The timed closed loop.
        let probe = if self.plan.inserts_per_call == 0 { INSERT_PROBE_SHARE } else { 0.0 };
        let budget = Duration::from_secs_f64(seconds * (1.0 - probe));
        let cost_calls = self.plan.cost_queries / self.plan.batch;
        let started = Instant::now();
        let mut query_calls: Vec<(usize, Timed)> = Vec::new();
        let mut insert_calls: Vec<Timed> = Vec::new();
        let (mut cost_queries, mut rounds, mut messages, mut bits, mut recall) =
            (0u64, 0u64, 0u64, 0u64, 0.0);
        let mut checked = 0u64;
        let mut call = 0u64;
        let mut insert_seq = 0u64;
        // Attempted counts bound the loop, so failing calls cannot keep it
        // running.
        while started.elapsed() < budget
            || (call as usize) < MIN_QUERY_CALLS.max(cost_calls)
            || (self.plan.inserts_per_call > 0 && (insert_seq as usize) < MIN_INSERTS)
        {
            let queries = (self.plan.queries)(QUERY_STREAM, call);
            let req = self.next_request();
            report.attempted += 1;
            let ((result, _), timed) = clock.time(|| {
                maybe_span(self.tracer, "request", req, || {
                    Self::call(self.plan.batch, &cluster, &queries)
                })
            });
            match result {
                Ok(got) => {
                    query_calls.push((queries.len(), timed));
                    let in_cost = (call as usize) < cost_calls;
                    let r = self.check(&queries, &got, in_cost)?;
                    checked += queries.len() as u64;
                    if in_cost {
                        cost_queries += queries.len() as u64;
                        rounds += got.rounds;
                        messages += got.messages;
                        bits += got.bits;
                        recall += r;
                    }
                    if let Some(tr) = self.tracer {
                        self.trace_query(tr, req, &cluster, &mirror, &opts, &queries, &got);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: query call {call} failed: {e}");
                    report.failed += 1;
                }
            }
            for _ in 0..self.plan.inserts_per_call {
                insert_calls.extend(self.insert(
                    &mut cluster,
                    &mut mirror,
                    &mut clock,
                    insert_seq,
                    &mut report,
                ));
                insert_seq += 1;
            }
            call += 1;
        }
        let measured_s = started.elapsed().as_secs_f64();
        if query_calls.is_empty() {
            return Err("every query call failed".into());
        }

        // Workloads that do not insert in their loop measure inserts in a
        // probe after it, so every workload reports insert latency.
        let probe_started = Instant::now();
        let probe_budget = Duration::from_secs_f64(seconds * probe);
        while (insert_calls.len() < MIN_INSERTS || probe_started.elapsed() < probe_budget)
            && insert_seq < insert_calls.len() as u64 + MIN_INSERTS as u64
        {
            insert_calls.extend(self.insert(
                &mut cluster,
                &mut mirror,
                &mut clock,
                insert_seq,
                &mut report,
            ));
            insert_seq += 1;
        }
        if insert_calls.is_empty() {
            return Err("every insert failed".into());
        }
        // The answers must stay right over every inserted point, and the
        // benchmark's oracle must agree with the library's brute force.
        for i in 0..CROSS_CHECKS {
            let queries = (self.plan.queries)(WARMUP_STREAM, 1000 + i);
            let got = Self::call(self.plan.batch, &cluster, &queries)
                .map_err(|e| format!("post-insert call failed: {e}"))?;
            self.check(&queries, &got, true)?;
            checked += queries.len() as u64;
            let want = oracle::brute_force(
                &mirror.shards,
                &self.plan.excluded,
                &queries[0],
                ELL,
                opts.metric,
            );
            if opts.backend == IndexBackend::Exact {
                oracle::check_exact(&got.answers[0], &want)
                    .map_err(|e| format!("brute_force_knn cross-check: {e}"))?;
            }
            if self.plan.oracle.check(&queries[0], &got.answers[0], true)?
                != oracle::recall(&got.answers[0], &want)
            {
                return Err("benchmark oracle disagrees with brute_force_knn".into());
            }
        }

        let scaled_calls: Vec<(usize, f64)> =
            query_calls.iter().map(|(n, t)| (*n, clock.scaled(t))).collect();
        let window_qps = |calls: &[(usize, f64)]| -> Vec<f64> {
            windows(calls.len(), QPS_WINDOWS)
                .into_iter()
                .map(|w| {
                    calls[w.clone()].iter().map(|c| c.0).sum::<usize>() as f64
                        / calls[w].iter().map(|c| c.1).sum::<f64>()
                })
                .collect()
        };
        let latencies_ms: Vec<f64> = scaled_calls.iter().map(|&(_, s)| s * 1e3).collect();
        let inserts_us: Vec<f64> = insert_calls.iter().map(|t| clock.scaled(t) * 1e6).collect();
        let setup_s: Vec<f64> = loads.iter().map(|t| clock.scaled(t)).collect();
        let qps_series = window_qps(&scaled_calls);
        let raw_calls: Vec<(usize, f64)> = query_calls.iter().map(|(n, t)| (*n, t.raw)).collect();
        let raw_latencies_ms: Vec<f64> = raw_calls.iter().map(|&(_, s)| s * 1e3).collect();
        let q = cost_queries as f64;
        report.metric("setup_s", median(&setup_s));
        report.metric("qps", median(&qps_series));
        report.metric("latency_p50_ms", percentile(&latencies_ms, 50.0));
        report.metric("latency_p95_ms", percentile(&latencies_ms, 95.0));
        report.metric("insert_p50_us", percentile(&inserts_us, 50.0));
        report.metric("insert_p95_us", percentile(&inserts_us, 95.0));
        report.metric("rounds_per_query", rounds as f64 / q);
        report.metric("messages_per_query", messages as f64 / q);
        report.metric("kbits_per_query", bits as f64 / 1e3 / q);
        report.metric("recall", recall / q);
        report.metric(
            "answered_share",
            (report.attempted - report.failed) as f64 / report.attempted as f64,
        );
        report.metric("peak_rss_mb", peak_rss_mb());

        report.detail("query_calls", query_calls.len());
        report.detail("queries_per_call", self.plan.batch);
        report.detail("latency_beyond_p95", beyond(&latencies_ms, 95.0));
        report.detail("insert_calls", insert_calls.len());
        report.detail("insert_beyond_p95", beyond(&inserts_us, 95.0));
        report.detail("inserts_in_loop", self.plan.inserts_per_call > 0);
        report.detail("setup_loads", loads.len());
        report.detail("cost_queries", cost_queries);
        report.detail("oracle_checked_queries", checked);
        report.detail("brute_force_cross_checks", CROSS_CHECKS);
        report.detail("measured_s", format!("{measured_s:.3}"));
        report.detail("window_qps", json_list(&qps_series));
        report.detail("window_p50_ms", json_list(&window_medians(&latencies_ms, QPS_WINDOWS)));
        report.detail(
            "window_reference_us",
            json_list(&window_medians(&clock.reference_us(), QPS_WINDOWS)),
        );
        report.detail("raw_qps", format!("{:.3}", median(&window_qps(&raw_calls))));
        report.detail("raw_latency_p50_ms", format!("{:.4}", percentile(&raw_latencies_ms, 50.0)));
        report.detail("raw_latency_p95_ms", format!("{:.4}", percentile(&raw_latencies_ms, 95.0)));
        report.detail(
            "raw_setup_s",
            format!("{:.5}", median(&loads.iter().map(|t| t.raw).collect::<Vec<_>>())),
        );
        report.detail("engine", opts.engine.name());
        report.detail("engine_auto_resolves_to", auto_engine(&opts).name());
        report.detail("backend", opts.backend.name());
        report.detail("pool_threads", rayon::current_num_threads());

        if let Some(tr) = self.tracer {
            self.layer_metrics(tr, &mut report);
        }
        Ok(report)
    }

    /// One timed insert; `None` (counted as failed) when the call errs.
    fn insert(
        &mut self,
        cluster: &mut KnnCluster<P>,
        mirror: &mut Mirror<P>,
        clock: &mut Clock,
        seq: u64,
        report: &mut Report,
    ) -> Option<Timed> {
        let (point, label) = (self.plan.inserts)(seq);
        let req = self.next_request();
        report.attempted += 1;
        let ((result, span), timed) = clock.time(|| {
            maybe_span(self.tracer, "cluster.insert", req, || {
                cluster.insert_labeled(point.clone(), label)
            })
        });
        let (id, machine) = match result {
            Ok(placed) => placed,
            Err(e) => {
                eprintln!("perfbench: insert {seq} failed: {e}");
                report.failed += 1;
                return None;
            }
        };
        let record = Record { id, point, label };
        self.plan.oracle.insert(&record, machine);
        mirror.shards[machine].records.push(record);
        if let (Some(tr), Some(span)) = (self.tracer, span) {
            let (records, index) = (&mirror.shards[machine].records, &mut mirror.indices[machine]);
            tr.span("local.insert", Some(span), req, true, || {
                index.insert(records, records.len() - 1)
            });
        }
        Some(timed)
    }

    /// Replay one answered call — the cluster call itself, then its inner
    /// layers on the mirror — and probe the layers this workload's path
    /// bypasses on the same query. The cluster call is replayed rather than
    /// taken from the live request so that it and the layer replays
    /// subtracted from it run in the same cache state.
    #[allow(clippy::too_many_arguments)]
    fn trace_query(
        &mut self,
        tr: &Tracer,
        req: u64,
        cluster: &KnnCluster<P>,
        mirror: &Mirror<P>,
        opts: &QueryOptions,
        queries: &[P],
        got: &Answered,
    ) {
        let metric = opts.metric;
        let name = if self.plan.batch > 1 { "cluster.query_batch" } else { "cluster.query" };
        let batch = self.plan.batch;
        let replay_cluster = || {
            tr.span(name, None, req, false, || {
                Self::call(batch, cluster, queries).expect("replayed call succeeds")
            })
            .1
        };
        // The cluster call and the layer calls subtracted from it are
        // replayed in alternating order, so cache warmth favours neither.
        let cluster_first = req.is_multiple_of(2);
        let root = if cluster_first { Some(replay_cluster()) } else { None };
        let alive: Vec<usize> = (0..MACHINES).filter(|m| !self.plan.excluded.contains(m)).collect();
        let q0 = &queries[0];
        let batched = self.plan.batch > 1;
        let l = &mut self.layers;
        l.calls += 1;
        l.queries += queries.len() as u64;
        l.rounds += got.rounds;
        l.wall += got.wall;
        l.max_backlog_bits = l.max_backlog_bits.max(got.max_backlog_bits);
        l.attempts += u64::from(got.attempts);
        l.rerun_queries += got.rerun_queries;
        l.digests += got.digests;
        l.audits += got.audits;
        l.quarantined += got.quarantined;
        for s in &got.stats {
            l.knn_queries += 1;
            l.candidates += s.total_candidates;
            l.survivors += s.survivors;
            l.iterations += s.select_iterations;
            l.rollbacks += u64::from(s.rolled_back);
        }

        // The session path: the workload's own on batched workloads (an
        // attributed child of the cluster call), a one-query probe on the
        // sequential one. `KnnCluster::session` is `QuerySession::new` over
        // the cluster's own shards, so the replay reads the same memory the
        // cluster call just did.
        let session_queries = if batched { queries } else { &queries[..1] };
        let (session, open) = tr.span("session.open", None, req, batched, || {
            cluster.session().expect("session opens on a loaded cluster")
        });
        let (out, run) = tr.span("session.run_batch", None, req, batched, || {
            session
                .run_batch(session_queries, ELL, Algorithm::Knn)
                .expect("replayed batch succeeds")
        });
        let engine = tr.reported(
            if batched { "kmachine.run" } else { "kmachine.run_probe" },
            run,
            req,
            out.wall.as_nanos() as u64,
        );
        for q in session_queries {
            for &m in &alive {
                tr.span("local.top", Some(engine), req, true, || {
                    mirror.indices[m].top(&mirror.shards[m].records, q, ELL, metric)
                });
            }
        }
        // The same batch under `Engine::Auto`, which every workload's
        // configured engine is compared against.
        let auto_opts = QueryOptions { engine: Engine::Auto, ..opts.clone() };
        tr.span("kmachine.auto_batch", None, req, false, || {
            let session = QuerySession::new(&mirror.shards, &mirror.indices, auto_opts)
                .expect("session opens on a loaded mirror");
            session
                .run_batch(session_queries, ELL, Algorithm::Knn)
                .expect("replayed batch succeeds")
        });

        // The sequential runner path: the workload's own on query-scan, a
        // one-query probe on the batched ones.
        let (outcome, runner) = tr.span("runner.run_query", None, req, !batched, || {
            run_query(&mirror.shards, q0, ELL, Algorithm::Knn, opts)
                .expect("replayed query succeeds")
        });
        l.runner_attempts.push(f64::from(outcome.attempts));
        let engine = tr.reported(
            if batched { "kmachine.run_probe" } else { "kmachine.run" },
            runner,
            req,
            outcome.wall.as_nanos() as u64,
        );
        for &m in &alive {
            tr.span("local.scan", Some(engine), req, true, || {
                dist_keys(&mirror.shards[m].records, q0, metric)
            });
        }
        let root = root.unwrap_or_else(replay_cluster);
        for child in if batched { vec![open, run] } else { vec![runner] } {
            tr.adopt(child, root);
        }

        // The audit over the answer's own claims, and the shard index's
        // recall against a full scan.
        let truth: Vec<Vec<DistKey>> = alive
            .iter()
            .map(|&m| mirror.indices[m].top(&mirror.shards[m].records, q0, ELL, metric))
            .collect();
        let claims: Vec<Vec<DistKey>> = alive
            .iter()
            .map(|&m| {
                got.answers[0]
                    .iter()
                    .filter(|n| n.machine == m)
                    .map(|n| DistKey::new(n.dist, n.id))
                    .collect()
            })
            .collect();
        tr.span("audit.claims", None, req, false, || audit_claims(&truth, &claims, ELL, opts.seed));
        for (i, &m) in alive.iter().enumerate() {
            let exact = brute_top(&mirror.shards[m].records, q0, ELL, metric);
            let ids: std::collections::HashSet<PointId> = truth[i].iter().map(|k| k.id).collect();
            let hit = exact.iter().filter(|k| ids.contains(&k.id)).count();
            l.top_recall.push(if exact.is_empty() { 1.0 } else { hit as f64 / exact.len() as f64 });
        }
    }

    fn layer_metrics(&self, tr: &Tracer, report: &mut Report) {
        let spans = tr.spans();
        let selfs = self_times(&spans);
        let durs = |name: &str| -> Vec<f64> {
            spans.iter().filter(|s| s.name == name).map(|s| s.duration() as f64).collect()
        };
        let self_of = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &t)| t as f64)
                .collect()
        };
        let med = |v: Vec<f64>| if v.is_empty() { f64::NAN } else { median(&v) };
        let (ms, us) = (1e-6, 1e-3);
        let l = &self.layers;
        let (calls, queries) = (l.calls.max(1) as f64, l.queries.max(1) as f64);
        let root = if self.plan.batch > 1 { "cluster.query_batch" } else { "cluster.query" };

        report.metric("cluster.load_ms", med(durs("cluster.load_shards")) * ms);
        report.metric("cluster.load_self_ms", med(self_of("cluster.load_shards")) * ms);
        report.metric("cluster.insert_self_us", med(self_of("cluster.insert")) * us);
        report.metric("cluster.resolve_us", med(self_of(root)) * us);
        report.metric("local.build_ms", med(durs("local.build")) * ms);
        report.metric("local.top_us", med(durs("local.top")) * us);
        report.metric(
            "local.top_recall",
            l.top_recall.iter().sum::<f64>() / l.top_recall.len().max(1) as f64,
        );
        report.metric("local.insert_us", med(durs("local.insert")) * us);
        report.metric("local.scan_us", med(durs("local.scan")) * us);
        report.metric("runner.query_self_ms", med(self_of("runner.run_query")) * ms);
        report.metric(
            "runner.attempts_per_query",
            l.runner_attempts.iter().sum::<f64>() / l.runner_attempts.len().max(1) as f64,
        );
        report.metric("session.open_us", med(durs("session.open")) * us);
        report.metric("session.batch_self_ms", med(self_of("session.run_batch")) * ms);
        report.metric("session.attempts_per_batch", l.attempts as f64 / calls);
        report.metric("session.rerun_query_share", l.rerun_queries as f64 / queries);
        report.metric("kmachine.run_ms", med(durs("kmachine.run")) * ms);
        report.metric("kmachine.self_ms", med(self_of("kmachine.run")) * ms);
        report.metric(
            "kmachine.auto_vs_configured",
            med(durs("kmachine.auto_batch")) / med(durs("session.run_batch")),
        );
        report.metric("kmachine.rounds_per_s", l.rounds as f64 / l.wall.as_secs_f64().max(1e-9));
        report.metric("kmachine.max_backlog_kbits", l.max_backlog_bits as f64 / 1e3);
        report.metric("kmachine.digests_per_batch", l.digests as f64 / calls);
        let knn = l.knn_queries.max(1) as f64;
        report.metric("knn.candidates_per_query", l.candidates as f64 / knn);
        report.metric("knn.survivor_share", l.survivors as f64 / l.candidates.max(1) as f64);
        report.metric("knn.select_iterations", l.iterations as f64 / knn);
        report.metric("knn.rollback_share", l.rollbacks as f64 / knn);
        report.metric("audit.claims_us", med(durs("audit.claims")) * us);
        report.metric("audit.audits_per_batch", l.audits as f64 / calls);
        report.metric("audit.quarantined_per_batch", l.quarantined as f64 / calls);
        report.detail("spans", spans.len());
        report.detail("traced_calls", l.calls);
    }
}

fn options_of(config: &ClusterBuilder) -> QueryOptions {
    config.clone().build::<ScalarPoint>().options().clone()
}

/// The engine `Engine::Auto` picks for a fault-free k-machine run at this
/// process's pool size.
fn auto_engine(opts: &QueryOptions) -> Engine {
    Engine::Auto.resolve(&NetConfig::new(MACHINES).with_bandwidth(opts.bandwidth))
}
