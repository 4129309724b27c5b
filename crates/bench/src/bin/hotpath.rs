//! **Engine hot path + real parallelism** — the wall-clock bench backing
//! the work-stealing rayon shim, the allocation-lean engine loop, and the
//! barrier-free event engine.
//!
//! Three sections, one JSON report (`results/hotpath.{csv,json}`):
//!
//! 1. **Workload-generation speedup vs pool size.** The same
//!    [`ScalarWorkload`] is generated under each requested pool size
//!    (`--pools`, default `1,2,4`); the datasets are asserted bit-identical
//!    (pool size may only change the wall clock, never the bytes) and the
//!    speedup over pool size 1 is reported, after an untimed warm-up run so
//!    cold caches cannot masquerade as parallel speedup. Speedup assertions
//!    are gated on the **recorded** host CPU count: a ≥ 2× speedup at pool
//!    ≥ 4 is enforced only when the host actually offers ≥ 4 CPUs (you
//!    cannot buy parallelism the kernel doesn't offer, and a 1-CPU runner
//!    must not assert impossible parallelism).
//! 2. **Engine × delivery-mode loop rounds/sec + allocations.** A
//!    bandwidth-bound all-pairs streaming protocol is pushed through both
//!    engines — sync, and event (per-link dependency scheduling on a worker
//!    pool, one row per `--pools` entry) — with the event engine measured
//!    under **both delivery modes** (exact lockstep-equivalent delivery,
//!    and relaxed PANDA-style quiescence promises). Each row reports
//!    simulated rounds per second and — via a counting global allocator —
//!    heap allocations per round. A sample times enough back-to-back runs
//!    to span about `SAMPLE_SECS`; rows are sampled round-robin
//!    `ENGINE_REPS` times, so a slow phase of the host hits every row
//!    alike, and each row reports its median sample. Asserted: the event
//!    engine at one worker stays within 10% of sync (the scheduler must
//!    cost only watermark bookkeeping), and relaxed delivery stays within
//!    10% of exact at every pool (promise bookkeeping must be ~free even
//!    when the workload offers little to pipeline).
//! 3. **Transport micro: dense lattice vs `HashMap` links.** The engines'
//!    per-round transport loop is replayed over the dense `Vec<LinkFifo>`
//!    lattice the engines use and over the `HashMap<(dst, src), LinkFifo>`
//!    they used before; the lattice must be no worse (10% noise margin).
//!
//! `--paper-full` additionally runs the §3 full-scale path from
//! `tests/scale_paper_full.rs` — generate 4×2²² points, load the cluster,
//! answer one Simple query — and records the generation + load wall time
//! once and the query wall time **per engine**.
//!
//! ```text
//! cargo run -p knn-bench --release --bin hotpath --
//!     [--k 8] [--per-machine 262144] [--pools 1,2,4] [--stream 2048]
//!     [--waves 64] [--seed 7] [--paper-full]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kmachine::{
    engine::{run_event, run_sync},
    BandwidthMode, Ctx, DeliveryMode, Envelope, LinkFifo, NetConfig, Payload, Protocol, Step,
};
use knn_bench::args::Args;
use knn_bench::table::Table;
use knn_bench::{write_csv, write_json};
use knn_core::cluster::KnnCluster;
use knn_core::runner::Algorithm;
use knn_points::ScalarPoint;
use knn_workloads::ScalarWorkload;
use rayon::ThreadPoolBuilder;

/// Samples per engine row; the median is reported.
const ENGINE_REPS: usize = 7;

/// Wall time one engine sample spans. A single run of the default stream
/// takes about a millisecond — short enough for timer and scheduler jitter
/// to dominate — so a sample times as many back-to-back runs as fill this.
const SAMPLE_SECS: f64 = 0.04;

/// System allocator wrapped with an allocation counter, so the engine rows
/// can report allocations per simulated round.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter has no safety impact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Every machine streams `n` 64-bit values to every other machine under an
/// enforced per-link budget — the bandwidth-bound all-pairs traffic shape
/// that keeps every FIFO of the lattice busy for many rounds.
struct AllPairsStream {
    n: u64,
    expected: u64,
    received: u64,
    checksum: u64,
}

#[derive(Debug, Clone)]
struct Word(u64);

impl Payload for Word {
    fn size_bits(&self) -> u64 {
        64
    }
}

impl Protocol for AllPairsStream {
    type Msg = Word;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Word>) -> Step<u64> {
        if ctx.round() == 0 {
            for v in 0..self.n {
                for dst in 0..ctx.k() {
                    if dst != ctx.id() {
                        ctx.send(dst, Word(v));
                    }
                }
            }
        }
        for env in ctx.inbox() {
            self.received += 1;
            self.checksum = self.checksum.wrapping_add(env.msg.0);
        }
        if self.received == self.expected {
            Step::Done(self.checksum)
        } else {
            Step::Continue
        }
    }
}

#[derive(Debug)]
struct GenRow {
    pool: usize,
    seconds: f64,
    speedup_vs_pool1: f64,
}

#[derive(Debug)]
struct EngineRow {
    engine: String,
    delivery: String,
    pool: usize,
    rounds: u64,
    seconds: f64,
    rounds_per_sec: f64,
    allocs_per_round: f64,
}

#[derive(Debug)]
struct TransportRow {
    links: String,
    rounds: u64,
    seconds: f64,
    rounds_per_sec: f64,
}

#[derive(Debug)]
struct PaperFullQueryRow {
    engine: String,
    seconds: f64,
    rounds: u64,
}

// Consumed through its `Debug` form by the serde shim's `write_json`.
#[allow(dead_code)]
#[derive(Debug)]
struct PaperFullReport {
    gen_seconds: f64,
    load_seconds: f64,
    total_points: usize,
    query: Vec<PaperFullQueryRow>,
}

// Consumed through its `Debug` form by the serde shim's `write_json`.
#[allow(dead_code)]
#[derive(Debug)]
struct Report {
    k: usize,
    per_machine: usize,
    /// CPUs the kernel offers this process, detected once at startup; every
    /// parallel-speedup assertion below gates on this recorded value.
    host_cpus: usize,
    /// Whether the generation-speedup bar was enforced (host_cpus ≥ 4) or
    /// merely reported.
    gen_speedup_enforced: bool,
    generation: Vec<GenRow>,
    engine: Vec<EngineRow>,
    transport: Vec<TransportRow>,
    paper_full: Option<PaperFullReport>,
}

/// Drain-until-empty over the dense lattice the engines use.
fn transport_lattice(k: usize, waves: usize, per_link: usize, budget: u64) -> (u64, f64) {
    let mut links: Vec<LinkFifo<Word>> = (0..k * k).map(|_| LinkFifo::default()).collect();
    let mut out: Vec<Envelope<Word>> = Vec::new();
    let mut rounds = 0u64;
    let start = Instant::now();
    for _ in 0..waves {
        push_wave_lattice(&mut links, k, per_link);
        loop {
            let mut busy = false;
            for dst in 0..k {
                for link in &mut links[dst * k..(dst + 1) * k] {
                    if link.is_empty() {
                        continue;
                    }
                    link.drain_round(budget, &mut out);
                    busy = true;
                }
            }
            out.clear();
            if !busy {
                break;
            }
            rounds += 1;
        }
    }
    (rounds, start.elapsed().as_secs_f64())
}

fn push_wave_lattice(links: &mut [LinkFifo<Word>], k: usize, per_link: usize) {
    for src in 0..k {
        for dst in 0..k {
            if dst == src {
                continue;
            }
            for seq in 0..per_link {
                let env = Envelope {
                    src,
                    dst,
                    sent_round: 0,
                    seq: seq as u64,
                    digest: 0,
                    msg: Word(seq as u64),
                };
                links[dst * k + src].push(env, 64);
            }
        }
    }
}

/// The same drain loop over the `HashMap<(dst, src), LinkFifo>` the engines
/// used before the dense lattice — the recorded baseline.
fn transport_hashmap(k: usize, waves: usize, per_link: usize, budget: u64) -> (u64, f64) {
    let mut links: HashMap<(usize, usize), LinkFifo<Word>> = HashMap::new();
    let mut out: Vec<Envelope<Word>> = Vec::new();
    let mut rounds = 0u64;
    let start = Instant::now();
    for _ in 0..waves {
        for src in 0..k {
            for dst in 0..k {
                if dst == src {
                    continue;
                }
                for seq in 0..per_link {
                    let env = Envelope {
                        src,
                        dst,
                        sent_round: 0,
                        seq: seq as u64,
                        digest: 0,
                        msg: Word(seq as u64),
                    };
                    links.entry((dst, src)).or_default().push(env, 64);
                }
            }
        }
        loop {
            let mut busy = false;
            for link in links.values_mut() {
                if link.is_empty() {
                    continue;
                }
                link.drain_round(budget, &mut out);
                busy = true;
            }
            out.clear();
            links.retain(|_, l| !l.is_empty());
            if !busy {
                break;
            }
            rounds += 1;
        }
    }
    (rounds, start.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse();
    let k = args.get_usize("k", 8);
    let per_machine = args.get_usize("per-machine", 1 << 18);
    let pools = args.get_list("pools", &[1, 2, 4]);
    let stream = args.get_u64("stream", 2048);
    let waves = args.get_usize("waves", 64);
    let seed = args.get_u64("seed", 7);
    let paper_full = args.has("paper-full");
    // Detected exactly once; recorded in the report and used to gate every
    // parallel-speedup assertion below.
    let host_cpus = knn_bench::host_cpus();

    println!(
        "== Engine hot path: k = {k}, {per_machine} pts/machine, host CPUs = {host_cpus} ==\n"
    );

    // -- Section 1: generation speedup vs pool size --------------------------
    // Speedups are always relative to pool size 1, so the reference run is
    // prepended when the requested list omits it.
    let mut pools = pools;
    if pools.first() != Some(&1) {
        pools.retain(|&p| p != 1);
        pools.insert(0, 1);
    }
    let workload = ScalarWorkload { per_machine, lo: 0, hi: 1 << 32 };
    // Warm-up: page in the allocator and caches before the timed pool-1
    // reference, so first-touch costs don't inflate later pools' "speedup".
    let _ = workload.generate(k, seed);
    let mut gen_rows: Vec<GenRow> = Vec::new();
    let mut reference = None;
    let mut t1 = None;
    for &pool in &pools {
        let handle = ThreadPoolBuilder::new().num_threads(pool).build().expect("pool");
        // Min of three repetitions: scoped-thread startup and scheduler
        // noise on shared CI runners would otherwise dominate the ratio.
        let mut seconds = f64::INFINITY;
        let mut shards = None;
        for _ in 0..3 {
            let start = Instant::now();
            shards = Some(handle.install(|| workload.generate(k, seed)));
            seconds = seconds.min(start.elapsed().as_secs_f64());
        }
        let shards = shards.expect("three repetitions ran");
        match &reference {
            None => {
                t1 = Some(seconds);
                reference = Some(shards);
            }
            Some(reference) => assert_eq!(
                reference, &shards,
                "generation must be bit-identical at every pool size (pool {pool})"
            ),
        }
        let speedup = t1.expect("first pool row recorded") / seconds.max(1e-12);
        gen_rows.push(GenRow { pool, seconds, speedup_vs_pool1: speedup });
    }

    let mut gen_table = Table::new(&["pool", "seconds", "speedup"]);
    for r in &gen_rows {
        gen_table.row(vec![
            r.pool.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.2}x", r.speedup_vs_pool1),
        ]);
    }
    println!("-- workload generation ({k} machines x {per_machine} points) --");
    gen_table.print();

    // The speedup bar: >= 2x at pool >= 4, enforceable only when the
    // recorded host CPU count actually offers >= 4 CPUs. On smaller hosts
    // the measured ratios are reported but explicitly flagged as noise —
    // a 1-CPU runner printing a 2x "speedup" is timing jitter, not
    // parallelism.
    let gen_speedup_enforced = host_cpus >= 4;
    if let Some(best) = gen_rows
        .iter()
        .filter(|r| r.pool >= 4)
        .map(|r| r.speedup_vs_pool1)
        .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s))))
    {
        if gen_speedup_enforced {
            assert!(
                best >= 2.0,
                "expected >= 2x generation speedup at pool >= 4 on a {host_cpus}-CPU host, \
                 got {best:.2}x"
            );
            println!("\nspeedup check: {best:.2}x at pool >= 4 (>= 2x required) -> ok");
        } else {
            println!(
                "\nspeedup check skipped: host has {host_cpus} CPU(s); pool>=4 ratio {best:.2}x \
                 recorded unenforced (ratios above the CPU count are scheduler noise)"
            );
        }
    }

    // -- Section 2: engine loop rounds/sec + allocations ---------------------
    let expected = stream * (k as u64 - 1);
    let cfg = NetConfig::new(k)
        .with_seed(seed)
        .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 512 })
        .with_max_rounds(10_000_000);
    let mk = || {
        (0..k)
            .map(|_| AllPairsStream { n: stream, expected, received: 0, checksum: 0 })
            .collect::<Vec<_>>()
    };
    // (engine name, delivery mode, pool column, config). The sync engine is
    // sequential and inherently exact; the event engine gets one row per
    // requested pool size — its scheduler's worker count — under each
    // delivery mode, so the report is the full engine × mode table.
    let mut engine_cfgs: Vec<(&str, DeliveryMode, usize, NetConfig)> =
        vec![("sync", DeliveryMode::Exact, 1, cfg.clone())];
    for mode in [DeliveryMode::Exact, DeliveryMode::Relaxed] {
        for &pool in &pools {
            engine_cfgs.push((
                "event",
                mode,
                pool,
                cfg.clone().with_event_workers(pool).with_delivery(mode),
            ));
        }
    }
    let run_row = |name: &str, mode: DeliveryMode, run_cfg: &NetConfig, protocols| {
        match name {
            "sync" => run_sync(run_cfg, protocols),
            _ => run_event(run_cfg, protocols),
        }
        .unwrap_or_else(|e| panic!("{name} ({}) run failed: {e}", mode.name()))
    };
    // One calibration run per row: the rounds, the allocations per round,
    // the outputs (checked against every other row), and how many runs
    // fill one sample.
    let mut calibration: Vec<(u64, u64, usize)> = Vec::new();
    let mut checksum: Option<Vec<u64>> = None;
    for (name, mode, pool, run_cfg) in &engine_cfgs {
        let before = allocations();
        let start = Instant::now();
        let out = run_row(name, *mode, run_cfg, mk());
        let seconds = start.elapsed().as_secs_f64();
        let allocs = allocations() - before;
        match &checksum {
            None => checksum = Some(out.outputs),
            Some(want) => assert_eq!(
                &out.outputs,
                want,
                "engine {name} ({}, pool {pool}) diverged from the reference outputs",
                mode.name()
            ),
        }
        let runs = ((SAMPLE_SECS / seconds.max(1e-6)).ceil() as usize).max(1);
        calibration.push((out.metrics.rounds, allocs, runs));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(ENGINE_REPS); engine_cfgs.len()];
    for _ in 0..ENGINE_REPS {
        for (row, (name, mode, _, run_cfg)) in engine_cfgs.iter().enumerate() {
            let runs = calibration[row].2;
            let batch: Vec<_> = (0..runs).map(|_| mk()).collect();
            let start = Instant::now();
            for protocols in batch {
                run_row(name, *mode, run_cfg, protocols);
            }
            samples[row].push(start.elapsed().as_secs_f64() / runs as f64);
        }
    }
    let engine_rows: Vec<EngineRow> = engine_cfgs
        .iter()
        .zip(&calibration)
        .zip(&mut samples)
        .map(|(((name, mode, pool, _), &(rounds, allocs, _)), samples)| {
            samples.sort_by(f64::total_cmp);
            let seconds = samples[samples.len() / 2];
            EngineRow {
                engine: name.to_string(),
                delivery: mode.name().to_string(),
                pool: *pool,
                rounds,
                seconds,
                rounds_per_sec: rounds as f64 / seconds.max(1e-12),
                allocs_per_round: allocs as f64 / rounds.max(1) as f64,
            }
        })
        .collect();

    let mut engine_table = Table::new(&[
        "engine",
        "delivery",
        "pool",
        "rounds",
        "seconds",
        "rounds/s",
        "allocs/round",
    ]);
    for r in &engine_rows {
        engine_table.row(vec![
            r.engine.clone(),
            r.delivery.clone(),
            r.pool.to_string(),
            r.rounds.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.0}", r.rounds_per_sec),
            format!("{:.1}", r.allocs_per_round),
        ]);
    }
    println!("\n-- engine loop (all-pairs stream of {stream} words, B = 512) --");
    engine_table.print();

    let rps = |name: &str, delivery: &str, pool: usize| {
        engine_rows
            .iter()
            .find(|r| r.engine == name && r.delivery == delivery && r.pool == pool)
            .map(|r| r.rounds_per_sec)
            .unwrap_or(0.0)
    };
    let sync_rps = rps("sync", "exact", 1);
    // A one-worker event run measures pure scheduler overhead, so this bar
    // needs no spare CPU and is asserted on every host.
    let event_seq = rps("event", "exact", 1);
    if event_seq > 0.0 {
        assert!(
            event_seq >= sync_rps * 0.9,
            "event engine at one worker ({event_seq:.0} rounds/s) must stay within 10% of sync \
             ({sync_rps:.0} rounds/s)"
        );
        println!(
            "\nevent@1 vs sync: {:.2}x rounds/sec (>= 0.9x required) -> ok",
            event_seq / sync_rps.max(1e-12)
        );
    }
    // Relaxed vs exact, pool by pool: promises must not tax the round
    // loop (10% noise margin, same as the other bars; on this all-pairs
    // workload every machine streams until the end, so the promise path
    // measures pure bookkeeping cost, the floor of the relaxed win).
    for &pool in &pools {
        let exact = rps("event", "exact", pool);
        let relaxed = rps("event", "relaxed", pool);
        if exact > 0.0 && relaxed > 0.0 {
            assert!(
                relaxed >= exact * 0.9,
                "relaxed delivery at pool {pool} ({relaxed:.0} rounds/s) regressed more than \
                 10% below exact ({exact:.0} rounds/s)"
            );
            println!(
                "event relaxed vs exact @{pool}: {:.2}x rounds/sec (>= 0.9x required) -> ok",
                relaxed / exact.max(1e-12)
            );
        }
    }

    // -- Section 3: transport loop, dense lattice vs HashMap baseline --------
    let budget = 512u64;
    let per_link = 64usize;
    let (hm_rounds, hm_secs) = transport_hashmap(k, waves, per_link, budget);
    let (la_rounds, la_secs) = transport_lattice(k, waves, per_link, budget);
    assert_eq!(la_rounds, hm_rounds, "both transports must simulate identical rounds");
    let transport_rows = vec![
        TransportRow {
            links: "hashmap".into(),
            rounds: hm_rounds,
            seconds: hm_secs,
            rounds_per_sec: hm_rounds as f64 / hm_secs.max(1e-12),
        },
        TransportRow {
            links: "lattice".into(),
            rounds: la_rounds,
            seconds: la_secs,
            rounds_per_sec: la_rounds as f64 / la_secs.max(1e-12),
        },
    ];
    let mut transport_table = Table::new(&["links", "rounds", "seconds", "rounds/s"]);
    for r in &transport_rows {
        transport_table.row(vec![
            r.links.clone(),
            r.rounds.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.0}", r.rounds_per_sec),
        ]);
    }
    println!("\n-- transport loop ({waves} waves x {per_link} msgs/link, B = {budget}) --");
    transport_table.print();

    let lattice_rps = transport_rows[1].rounds_per_sec;
    let hashmap_rps = transport_rows[0].rounds_per_sec;
    assert!(
        lattice_rps >= hashmap_rps * 0.9,
        "dense lattice transport ({lattice_rps:.0} rounds/s) regressed below the HashMap \
         baseline ({hashmap_rps:.0} rounds/s)"
    );
    println!(
        "\nlattice vs hashmap: {:.2}x rounds/sec -> {}",
        lattice_rps / hashmap_rps.max(1e-12),
        if lattice_rps >= hashmap_rps { "faster" } else { "within noise margin" }
    );

    // -- Optional: the paper's full-scale path, per engine -------------------
    let paper_full = paper_full.then(|| {
        let pk = 16;
        let ell = 64;
        let w = ScalarWorkload::paper_full();
        let start = Instant::now();
        let shards = w.generate(pk, seed);
        let gen_seconds = start.elapsed().as_secs_f64();
        let total_points: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total_points, pk << 22);
        let start = Instant::now();
        let mut cluster: KnnCluster = KnnCluster::builder().machines(pk).seed(seed).build();
        cluster.load_shards(shards).expect("shard count matches k");
        let load_seconds = start.elapsed().as_secs_f64();
        println!(
            "\npaper_full: generated {total_points} points ({pk} x 2^22) in {gen_seconds:.2}s, \
             loaded in {load_seconds:.2}s"
        );
        let q = ScalarPoint(1 << 31);
        let mut query = Vec::new();
        let mut reference = None;
        for engine in [kmachine::Engine::Sync, kmachine::Engine::Event] {
            cluster.set_engine(engine);
            let start = Instant::now();
            let ans = cluster.query_with(Algorithm::Simple, &q, ell).expect("query");
            let seconds = start.elapsed().as_secs_f64();
            assert_eq!(ans.neighbors.len(), ell);
            let ids: Vec<_> = ans.neighbors.iter().map(|n| n.id).collect();
            match &reference {
                None => reference = Some(ids),
                Some(want) => {
                    assert_eq!(&ids, want, "paper_full answers must be engine-invariant")
                }
            }
            println!(
                "paper_full query ({}): {seconds:.3}s, {} rounds",
                engine.name(),
                ans.metrics.rounds
            );
            query.push(PaperFullQueryRow {
                engine: engine.name().to_string(),
                seconds,
                rounds: ans.metrics.rounds,
            });
        }
        PaperFullReport { gen_seconds, load_seconds, total_points, query }
    });

    let report = Report {
        k,
        per_machine,
        host_cpus,
        gen_speedup_enforced,
        generation: gen_rows,
        engine: engine_rows,
        transport: transport_rows,
        paper_full,
    };
    let csv_rows: Vec<Vec<String>> = report
        .generation
        .iter()
        .map(|r| {
            vec![
                "generation".to_string(),
                r.pool.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.3}", r.speedup_vs_pool1),
            ]
        })
        .chain(report.engine.iter().map(|r| {
            vec![
                format!("engine-{}-{}@{}", r.engine, r.delivery, r.pool),
                r.rounds.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.1}", r.rounds_per_sec),
            ]
        }))
        .chain(report.transport.iter().map(|r| {
            vec![
                format!("transport-{}", r.links),
                r.rounds.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.1}", r.rounds_per_sec),
            ]
        }))
        .chain(report.paper_full.iter().flat_map(|pf| {
            pf.query.iter().map(|r| {
                vec![
                    format!("paper-full-{}", r.engine),
                    r.rounds.to_string(),
                    format!("{:.4}", r.seconds),
                    String::new(),
                ]
            })
        }))
        .collect();
    let csv = write_csv("hotpath", &["section", "param", "seconds", "value"], &csv_rows);
    let json = write_json("hotpath", &report);
    println!("\nwrote {} and {}", csv.display(), json.display());
}
