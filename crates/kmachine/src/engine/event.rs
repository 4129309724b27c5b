//! Event-driven engine: per-link dependency scheduling, no global barrier.
//!
//! A lockstep simulation ends every round at a global boundary, so one slow
//! machine (or one descheduled thread) stalls everyone — the cost that caps
//! the batched-serving wins at wall-clock level. This engine replaces the
//! boundary with **neighbor-local synchronization** over round-slotted
//! inbound staging rings:
//!
//! * every machine gets two watermarks — `published` (how many transport
//!   phases it has completed, one release store per round no matter how
//!   many links it drove) and `consumed` (how many rounds it has drained) —
//!   and a round-slotted inbound staging ring: slot `t % window` of
//!   machine m's ring collects what every source's transport phase `t`
//!   delivered toward m. Sources append at different times; the shared
//!   step driver's `(src, seq)` inbox sort restores the deterministic
//!   order, so sharing one slot per (destination, round) costs nothing and
//!   lets an idle link cost literally zero (an empty transport is just the
//!   one watermark store);
//! * machine `m` may execute round `r` as soon as every peer has
//!   `published ≥ r` (its inputs exist) and `consumed + window > r` (the
//!   staging slots it may write are free) — nothing else in the cluster
//!   matters. Note the honest limit of bit-exact simulation on a complete
//!   graph: because any peer may send to m in any round, m can only know
//!   its round-r inbox is complete once *every* peer has finished round
//!   r−1 (an empty transport is information too), so compute overlap
//!   between machines is inherently bounded at one round of skew. What
//!   the engine removes is the *cost* of synchronization, not its
//!   data-flow edges: no machine ever waits at a global round boundary,
//!   k machines share a few worker threads instead of owning one each, and
//!   a machine's synchronization is wait-free whenever its peers have kept
//!   pace;
//! * under [`DeliveryMode::Relaxed`] the one-round bound itself falls:
//!   senders publish **quiescence promises** — a monotone per-machine
//!   round horizon meaning "no messages from me before round X" — when a
//!   done machine's backlog drains (horizon ∞) or a protocol declares a
//!   silent phase via [`Protocol::quiet_until`] and its FIFOs are empty.
//!   The readiness check accepts a peer's promise in place of its
//!   published (empty) transport, so a machine runs up to `window − 1`
//!   rounds ahead of a quiet peer — real multi-round pipelining, PANDA
//!   style. A promise only ever substitutes for a **provably empty**
//!   transport, so every inbox is byte-identical to the lockstep engine's
//!   and outputs, rounds, and all of [`RunMetrics`](crate::RunMetrics) are
//!   unchanged; a send inside a promised window aborts the run with
//!   [`EngineError::PromiseViolated`] (promises are load-bearing and can
//!   never be revoked). The realized overlap is reported via
//!   [`SkewMetrics`] on the outcome;
//! * a synthetic [`NetConfig::round_latency`] delays each published
//!   transport: the readiness check additionally waits until every
//!   transport a round consumes (the machine's own included) is at least
//!   that old; a [`crate::config::FaultPlan`] straggler likewise waits a
//!   per-round delay after its own publish. Workers never sleep on a
//!   machine they hold — a machine waiting out a deadline is released, and
//!   an idle worker parks until the earliest deadline it saw. The latency
//!   is therefore a lower bound: the park is a `Condvar::wait_timeout`,
//!   whose ~50–100 µs wakeup granularity inflates short deadlines (`fig2`
//!   at 50 µs measured ~115 µs per round);
//! * machines are cooperatively-scheduled tasks on a small worker pool
//!   ([`NetConfig::event_workers`], default: the ambient rayon pool size),
//!   not one OS thread each — and a pool of **one** worker takes the
//!   degenerate path outright: dependency scheduling with nobody to overlap
//!   with is exactly the lockstep sweep, so the engine runs [`run_sync`]'s
//!   loop instead of paying watermark bookkeeping for concurrency that
//!   cannot happen (the outcome is bit-identical either way — that is the
//!   engine contract this module's tests pin).
//!
//! Outputs, round counts, and every [`RunMetrics`](crate::RunMetrics) field
//! are byte-identical to [`run_sync`](super::run_sync) for deterministic
//! protocols at any worker count: machines step through the same driver,
//! RNG streams are untouched, and the run-ahead bookkeeping (speculative
//! transports past the final round, late deliveries consumed out of
//! lockstep) is filtered back to exactly what the lockstep engine would
//! have observed. `tests/parallel_determinism.rs` pins this for the full
//! serving pipeline; the unit tests below pin the error paths.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::config::{DeliveryMode, NetConfig};
use crate::engine::driver::{self, Machine, Run, Schedule, Scheduled, Status};
use crate::engine::sync::Lockstep;
use crate::engine::RunOutcome;
use crate::error::EngineError;
use crate::message::{Envelope, MachineId};
use crate::metrics::SkewMetrics;
use crate::protocol::Protocol;

/// Most machines the event engine runs: its stall detector packs per-round
/// quiet counts in 16 bits.
pub(crate) const EVENT_MAX_MACHINES: usize = u16::MAX as usize;

/// How long an idle worker parks before re-sweeping, bounding the cost of a
/// lost wakeup (the fast path never sleeps: any publish bumps the epoch and
/// notifies parked workers).
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Wall-clock quantum a straggling machine loses per unit of slowdown: a
/// [`crate::config::FaultPlan`] speed factor of `f` delays each of the
/// machine's rounds by `(f − 1)` quanta after its previous publish. Purely
/// a scheduling delay, waited out like a latency deadline — the simulated
/// execution is unchanged, only the realized skew (and wall clock) moves.
const STRAGGLE_QUANTUM: Duration = Duration::from_micros(200);

/// One machine's inbound staging ring: slot `t % window` collects what
/// every source's transport phase `t` delivered toward this machine,
/// consumed whole at round `t + 1`. Sources may append interleaved — the
/// `(src, seq)` inbox sort restores the deterministic delivery order — and
/// slot buffers keep their allocations warm across ring reuse.
///
/// Writers are gated by the owner's `consumed` watermark (slot space) and
/// readers by each peer's `published` watermark (content completeness), so
/// the mutex is held only for the append/take itself.
type InboundRing<M> = Mutex<Vec<Vec<Envelope<M>>>>;

/// A machine as this scheduler holds it: the driver's machine plus its
/// round cursor, inbox buffer, and pipelining accounts.
struct Slot<'l, P: Protocol> {
    m: Machine<'l, P>,
    round: u64,
    inbox: Vec<Envelope<P::Msg>>,
    /// Non-empty inbox rounds consumed after this machine was done, as
    /// `(round, count)`. Collection keeps only rounds the lockstep engine
    /// would have executed (`round ≤ final_round`), discarding speculative
    /// overshoot (one round under exact delivery; up to `window` rounds
    /// when promises let a machine race ahead).
    late: Vec<(u64, u64)>,
    exited: bool,
    /// Relaxed delivery: this machine's own outstanding silence horizon
    /// (monotone mirror of `Shared::promised[id]`), used to detect
    /// promise violations without re-reading the atomic.
    promise: u64,
    /// Relaxed delivery: max of `executing round − slowest peer's
    /// published round` this machine ever observed at readiness.
    max_skew: u64,
    /// Relaxed delivery: rounds executed with a promise standing in for at
    /// least one peer's unpublished transport.
    promised_rounds: u64,
    /// Relaxed delivery: promise-horizon extensions this machine published.
    promises: u64,
}

impl<P: Protocol> Slot<'_, P> {
    /// Bill whatever is left in the inbox at round `r` as late.
    fn discard_late(&mut self, r: u64) {
        if !self.inbox.is_empty() {
            self.late.push((r, self.inbox.len() as u64));
            self.inbox.clear();
        }
    }
}

/// Cross-machine coordination state.
struct Shared<'r, M> {
    run: &'r Run<'r>,
    window: u64,
    /// Transport phases machine i has completed (one release store per
    /// round; transport `t` feeds every destination's round `t + 1`).
    published: Vec<AtomicU64>,
    /// Rounds machine i has consumed; gates writers of its staging ring.
    consumed: Vec<AtomicU64>,
    /// Relaxed delivery only: quiescence promises. `promised[i] = q` means
    /// machine i's unexecuted transport phases before round `q` are
    /// guaranteed empty (its backlog was drained and it will not send in
    /// any round `< q`), so peers may execute rounds `≤ q` without its
    /// publishes. Monotone (`fetch_max`); `u64::MAX` = silent forever.
    promised: Vec<AtomicU64>,
    /// Whether promises participate in readiness (cfg.delivery).
    relaxed: bool,
    /// Per-destination round-slotted staging rings.
    inbound: Vec<InboundRing<M>>,
    /// Synthetic per-round latency in nanoseconds (0: none).
    latency_ns: u64,
    /// Per-machine straggler delay per round in nanoseconds (0: full
    /// speed).
    straggle_ns: Vec<u64>,
    /// Whether a latency or a straggler delays any round.
    timed: bool,
    /// When `timed`: slot `i * window + t % window` holds when machine i
    /// published transport `t`, in nanoseconds since `origin`. A slot is
    /// rewritten only once every reader has consumed the round it feeds
    /// (the same `consumed` gate as the staging rings). Empty otherwise.
    published_at: Vec<AtomicU64>,
    origin: Instant,
    /// All machines finished (or an error was recorded); exit after
    /// consuming through `final_round`.
    stop: AtomicBool,
    /// Error shutdown: exit immediately, metrics are not reported.
    abort: AtomicBool,
    /// Highest round in which any machine produced its output — exactly
    /// `RunMetrics::rounds` of the lockstep engine.
    final_round: AtomicU64,
    done_count: AtomicUsize,
    exited_count: AtomicUsize,
    error: Mutex<Option<EngineError>>,
    /// Lowest machine id that hit its fail-stop horizon (`usize::MAX`:
    /// none), for the stall report.
    lowest_crashed: AtomicUsize,
    /// Stall detector: slot `r % len` packs `(round << 16) | quiet_count`.
    /// When the count for one round reaches k, the run is stalled — the
    /// same "nothing sent, nothing delivered, nothing in flight, nobody
    /// progressed" conjunction `run_sync` checks every round.
    quiet: Vec<AtomicU64>,
    /// Bumped on every completed machine-round; parked workers recheck it.
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    cv: Condvar,
}

impl<M> Shared<'_, M> {
    fn wake(&self) {
        if self.sleepers.load(Ordering::Acquire) > 0 {
            self.cv.notify_all();
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// When round `r` of machine `id` may start, in nanoseconds since
    /// `origin`: every transport it consumes (peers' and its own) is at
    /// least `round_latency` old, and a running straggler has spent its
    /// per-round delay since its own publish. Transports a promise stands
    /// in for were never published and carry nothing, so they add no delay.
    fn due(&self, id: MachineId, r: u64, running: bool) -> u64 {
        let slot = ((r - 1) % self.window) as usize;
        let at =
            |p: usize| self.published_at[p * self.window as usize + slot].load(Ordering::Acquire);
        let own = at(id) + if running { self.straggle_ns[id] } else { 0 };
        let peers = (0..self.run.k)
            .filter(|&p| p != id && self.published[p].load(Ordering::Acquire) >= r)
            .map(at);
        peers.fold(own, u64::max) + self.latency_ns
    }
}

/// Execute one protocol instance per machine with per-link dependency
/// scheduling on a small worker pool, as the module docs describe.
///
/// Outputs, rounds, and every metric match [`run_sync`]; wall-clock time
/// reflects parallel local computation without a per-round global barrier,
/// plus [`NetConfig::round_latency`] per round if one is set. An effective
/// pool of one worker (including `k == 1`) runs [`run_sync`]'s loop
/// outright and reports an empty [`SkewMetrics`]; otherwise relaxed runs
/// report their realized overlap in [`RunOutcome::skew`]. A cluster of
/// more than 65 535 machines is rejected with [`EngineError::InvalidPlan`]
/// before anything is allocated.
///
/// # Panics
/// If `protocols.len() != cfg.k` or bandwidth is `Enforce { 0 }`.
///
/// [`run_sync`]: super::run_sync
pub fn run_event<P: Protocol>(
    cfg: &NetConfig,
    protocols: Vec<P>,
) -> Result<RunOutcome<P::Output>, EngineError> {
    if cfg.k > EVENT_MAX_MACHINES {
        return Err(EngineError::InvalidPlan {
            reason: format!(
                "the event engine runs at most {EVENT_MAX_MACHINES} machines, got k = {}",
                cfg.k
            ),
        });
    }
    let workers =
        cfg.event_workers.unwrap_or_else(rayon::current_num_threads).clamp(1, cfg.k.max(1));
    if workers <= 1 {
        return driver::run(cfg, protocols, &Lockstep);
    }
    driver::run(cfg, protocols, &Pool { workers })
}

/// The dependency schedule on `workers` threads.
struct Pool {
    workers: usize,
}

impl Schedule for Pool {
    fn schedule<'l, P: Protocol>(
        &self,
        run: &Run<'_>,
        machines: Vec<Machine<'l, P>>,
    ) -> Result<Scheduled<'l, P>, EngineError> {
        let k = run.k;
        let cfg = run.cfg;
        // Depth ≥ 2 keeps the minimum-round machine always runnable (its
        // consumers' `consumed` trails its round by at most one).
        let window = cfg.event_window.max(2);
        let latency_ns = cfg.round_latency.as_nanos() as u64;
        let straggle_ns: Vec<u64> = (0..k)
            .map(|i| (STRAGGLE_QUANTUM * (cfg.faults.slowdown(i) - 1)).as_nanos() as u64)
            .collect();
        let timed = latency_ns > 0 || straggle_ns.iter().any(|&d| d > 0);
        let shared = Shared::<P::Msg> {
            run,
            window,
            published: (0..k).map(|_| AtomicU64::new(0)).collect(),
            consumed: (0..k).map(|_| AtomicU64::new(0)).collect(),
            promised: (0..k).map(|_| AtomicU64::new(0)).collect(),
            relaxed: cfg.delivery == DeliveryMode::Relaxed,
            inbound: (0..k)
                .map(|_| Mutex::new((0..window).map(|_| Vec::new()).collect()))
                .collect(),
            latency_ns,
            straggle_ns,
            timed,
            published_at: if timed {
                (0..k as u64 * window).map(|_| AtomicU64::new(0)).collect()
            } else {
                Vec::new()
            },
            origin: Instant::now(),
            stop: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            final_round: AtomicU64::new(0),
            done_count: AtomicUsize::new(0),
            exited_count: AtomicUsize::new(0),
            error: Mutex::new(None),
            lowest_crashed: AtomicUsize::new(usize::MAX),
            quiet: (0..window + 2).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            cv: Condvar::new(),
        };
        let slots: Vec<Mutex<Slot<'l, P>>> = machines
            .into_iter()
            .map(|m| {
                Mutex::new(Slot {
                    m,
                    round: 0,
                    inbox: Vec::with_capacity(k),
                    late: Vec::new(),
                    exited: false,
                    promise: 0,
                    max_skew: 0,
                    promised_rounds: 0,
                    promises: 0,
                })
            })
            .collect();

        std::thread::scope(|scope| {
            for w in 0..self.workers {
                let shared = &shared;
                let slots = &slots;
                scope.spawn(move || worker(w, self.workers, slots, shared));
            }
        });

        if let Some(err) = shared.error.lock().take() {
            return Err(err);
        }
        let fin = shared.final_round.load(Ordering::Acquire);
        let mut skew = if shared.relaxed { SkewMetrics::new(k) } else { SkewMetrics::default() };
        let mut late = 0;
        let mut machines = Vec::with_capacity(k);
        for (i, slot) in slots.into_iter().enumerate() {
            let st = slot.into_inner();
            if shared.relaxed {
                skew.max_skew_per_machine[i] = st.max_skew;
                skew.max_skew = skew.max_skew.max(st.max_skew);
                skew.promised_rounds += st.promised_rounds;
                skew.promises_published += st.promises;
            }
            late += st.late.iter().filter(|&&(r, _)| r <= fin).map(|&(_, c)| c).sum::<u64>();
            machines.push(st.m);
        }
        Ok(Scheduled { machines, rounds: fin, delivered_after_done: late, skew })
    }
}

/// Worker loop: sweep the machines (staggered start per worker so workers
/// spread over distinct machines), advancing each as far as its link
/// dependencies allow; park briefly when a whole sweep makes no progress —
/// no longer than until the earliest deadline the sweep saw.
fn worker<P: Protocol>(
    w: usize,
    workers: usize,
    slots: &[Mutex<Slot<'_, P>>],
    shared: &Shared<'_, P::Msg>,
) {
    let k = slots.len();
    let start = w * k / workers.max(1);
    // Holds one machine's sends between its step and their hand-off to its
    // links, so it is always empty between machine-rounds.
    let mut outbox = Vec::with_capacity(k);
    loop {
        if shared.exited_count.load(Ordering::Acquire) == k {
            return;
        }
        let epoch_before = shared.epoch.load(Ordering::Acquire);
        let mut progressed = false;
        let mut deadline = u64::MAX;
        for i in 0..k {
            let m = (start + i) % k;
            // A machine locked by another worker is already being advanced.
            if let Some(mut st) = slots[m].try_lock() {
                progressed |= advance(m, &mut st, &mut outbox, shared, &mut deadline);
            }
        }
        if shared.exited_count.load(Ordering::Acquire) == k {
            return;
        }
        if !progressed {
            let park = if deadline == u64::MAX {
                IDLE_PARK
            } else {
                IDLE_PARK.min(Duration::from_nanos(deadline.saturating_sub(shared.now_ns())))
            };
            if park.is_zero() {
                continue;
            }
            shared.sleepers.fetch_add(1, Ordering::AcqRel);
            let guard = shared.idle.lock();
            if shared.epoch.load(Ordering::Acquire) == epoch_before {
                let _ = shared.cv.wait_timeout(guard, park);
            } else {
                drop(guard);
            }
            shared.sleepers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Advance one machine as many rounds as its dependencies currently allow.
/// Returns whether at least one round completed (or the machine exited);
/// a machine held back only by a latency or straggler deadline lowers
/// `deadline` to it.
fn advance<P: Protocol>(
    id: MachineId,
    st: &mut Slot<'_, P>,
    outbox: &mut Vec<Envelope<P::Msg>>,
    sh: &Shared<'_, P::Msg>,
    deadline: &mut u64,
) -> bool {
    let run = sh.run;
    let k = run.k;
    let mut progressed = false;
    loop {
        if st.exited {
            return progressed;
        }
        if sh.abort.load(Ordering::Acquire) {
            exit(st, sh);
            return true;
        }
        if sh.stop.load(Ordering::Acquire) {
            // Normal completion. Every transport the lockstep engine would
            // have run (rounds 0..final_round-1) is already published —
            // some machine computed round `final_round`, which required
            // them all — so drain the remaining rounds for exact
            // late-delivery accounting, then exit.
            wind_down(id, st, sh);
            return true;
        }

        let r = st.round;
        if st.m.running() && r > run.cfg.max_rounds {
            return abort(st, sh, EngineError::MaxRounds { limit: run.cfg.max_rounds });
        }
        // Inbound dependency: every peer has published its round r-1
        // transport — or, under relaxed delivery, has promised that its
        // unexecuted transports through r-1 are empty. Outbound space:
        // slot r % window of every peer's staging ring is free (its round
        // r-window contents were consumed).
        let mut min_pub = u64::MAX;
        let mut waived = false;
        let ready = (0..k).filter(|&peer| peer != id).all(|peer| {
            let published = sh.published[peer].load(Ordering::Acquire);
            min_pub = min_pub.min(published);
            waived |= published < r;
            (published >= r || (sh.relaxed && sh.promised[peer].load(Ordering::Acquire) >= r))
                && sh.consumed[peer].load(Ordering::Acquire) + sh.window > r
        });
        if !ready {
            return progressed;
        }
        // Latency and straggler delays: wait out the deadline without
        // holding the machine (the worker parks until it, or moves on).
        if sh.timed && r > 0 {
            let due = sh.due(id, r, st.m.running());
            if sh.now_ns() < due {
                *deadline = (*deadline).min(due);
                return progressed;
            }
        }
        if sh.relaxed {
            // Every peer was checked, so this is exactly how far this round
            // runs ahead of the slowest peer — the overlap exact delivery
            // forbids.
            st.max_skew = st.max_skew.max(r.saturating_sub(min_pub));
            st.promised_rounds += u64::from(waived);
        }

        // --- consume + compute ---
        consume_round(id, st, sh, r);
        let mut sent = 0u64;
        let mut became_done = false;
        if st.m.running() {
            match st.m.step(id, r, &mut st.inbox, outbox, run) {
                Status::Running => {}
                Status::Done => became_done = true,
                Status::Crashed => {
                    sh.lowest_crashed.fetch_min(id, Ordering::AcqRel);
                    became_done = true;
                }
                Status::Panicked => return abort(st, sh, EngineError::WorkerPanic { machine: id }),
            }
            if sh.relaxed && st.promise > r && !outbox.is_empty() {
                // The machine sent inside a window it promised to keep
                // silent. Peers already executed rounds on the strength of
                // that promise, so the send cannot be honored.
                outbox.clear();
                let promised_until = st.promise;
                return abort(
                    st,
                    sh,
                    EngineError::PromiseViolated { machine: id, round: r, promised_until },
                );
            }
            sent = st.m.send(outbox);
        }
        // A done or just-crashed machine's inbox is late, exactly as
        // `run_sync` bills it.
        st.discard_late(r);
        if became_done {
            sh.final_round.fetch_max(r, Ordering::AcqRel);
            let done_now = sh.done_count.fetch_add(1, Ordering::AcqRel) + 1;
            if done_now == k {
                // Under exact delivery the wall-clock-last finisher holds
                // the highest done round (any machine past it needed this
                // one's transports), so like run_sync's break, round `r`
                // sees no transport. Under relaxed delivery a peer may
                // have raced past on a promise and finished later, so the
                // finisher drains the remaining rounds like everyone else.
                debug_assert!(
                    sh.relaxed || sh.final_round.load(Ordering::Acquire) == r,
                    "exact delivery: last finisher must hold the final round"
                );
                st.round = r + 1;
                sh.stop.store(true, Ordering::Release);
                sh.cv.notify_all();
                wind_down(id, st, sh);
                return true;
            }
        }

        // --- transport: drain one budget round per busy outbound FIFO into
        // the destination's staging slot; idle links cost nothing and the
        // whole phase publishes with one release store ---
        let mut delivered = false;
        let mut pending_total = 0u64;
        let slot_idx = (r % sh.window) as usize;
        for dst in 0..k {
            if st.m.link_idle(dst) {
                continue;
            }
            let mut ring = sh.inbound[dst].lock();
            let drained = st.m.drain(id, dst, r, run, &mut ring[slot_idx]);
            drop(ring);
            match drained {
                Ok((any, pending)) => {
                    delivered |= any;
                    pending_total += pending;
                }
                Err(err) => return abort(st, sh, err),
            }
        }
        if sh.timed {
            let at = id * sh.window as usize + slot_idx;
            sh.published_at[at].store(sh.now_ns(), Ordering::Release);
        }
        sh.published[id].store(r + 1, Ordering::Release);

        // --- quiescence promises (relaxed delivery): with every outbound
        // FIFO drained, this machine's future transports are empty for as
        // long as it will not send — forever once done, or through the
        // protocol's declared silent horizon. Publishing the horizon lets
        // peers execute rounds up to it without waiting for the (empty)
        // publishes. Monotone: horizons only ever grow. ---
        if sh.relaxed && pending_total == 0 {
            let horizon = if !st.m.running() {
                u64::MAX
            } else {
                match st.m.quiet_until() {
                    // A horizon at or below the next round promises
                    // nothing the publish watermark doesn't already say.
                    Some(q) if q > r + 1 => q,
                    _ => 0,
                }
            };
            if horizon > st.promise {
                st.promise = horizon;
                st.promises += 1;
                sh.promised[id].fetch_max(horizon, Ordering::AcqRel);
                sh.epoch.fetch_add(1, Ordering::AcqRel);
                sh.wake();
            }
        }

        // --- stall accounting: run_sync's per-round conjunction, split per
        // machine and joined through the per-round quiet counter. A quiet
        // cluster waiting out a scheduled rejoin is not a deadlock. ---
        if sent == 0 && !became_done && !delivered && pending_total == 0 && !run.rejoin_pending(r) {
            let slots = sh.quiet.len() as u64;
            let slot = &sh.quiet[(r % slots) as usize];
            let stalled = loop {
                let cur = slot.load(Ordering::Acquire);
                // Machines can spread at most `window` rounds, and the ring
                // has window + 2 slots, so a stale entry is always for an
                // older round — never a newer one.
                let count = if cur >> 16 == r { (cur & 0xffff) + 1 } else { 1 };
                let next = (r << 16) | count;
                if slot.compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                    break count as usize == k;
                }
            };
            if stalled {
                let lowest = sh.lowest_crashed.load(Ordering::Acquire);
                return abort(st, sh, run.stalled((lowest != usize::MAX).then_some(lowest), r));
            }
        }

        st.round = r + 1;
        progressed = true;
        sh.epoch.fetch_add(1, Ordering::AcqRel);
        sh.wake();
    }
}

/// Consume the rounds left through the final one (billing late arrivals;
/// collection later drops any past it), then exit.
fn wind_down<P: Protocol>(id: MachineId, st: &mut Slot<'_, P>, sh: &Shared<'_, P::Msg>) {
    let fin = sh.final_round.load(Ordering::Acquire);
    while st.round <= fin {
        let r = st.round;
        consume_round(id, st, sh, r);
        st.discard_late(r);
        st.round += 1;
    }
    exit(st, sh);
}

/// Move this round's staging slot into the machine's inbox (`append` keeps
/// both allocations warm) and release the ring space. The slot holds every
/// source's deliveries in arrival order; the step's `(src, seq)` sort makes
/// that order deterministic.
fn consume_round<P: Protocol>(
    id: MachineId,
    st: &mut Slot<'_, P>,
    sh: &Shared<'_, P::Msg>,
    r: u64,
) {
    if r == 0 {
        return;
    }
    let mut ring = sh.inbound[id].lock();
    st.inbox.append(&mut ring[((r - 1) % sh.window) as usize]);
    drop(ring);
    sh.consumed[id].store(r, Ordering::Release);
}

/// Record `err` (the first error wins), shut the run down, and exit.
fn abort<P: Protocol>(st: &mut Slot<'_, P>, sh: &Shared<'_, P::Msg>, err: EngineError) -> bool {
    sh.error.lock().get_or_insert(err);
    sh.abort.store(true, Ordering::Release);
    sh.stop.store(true, Ordering::Release);
    exit(st, sh);
    true
}

fn exit<P: Protocol>(st: &mut Slot<'_, P>, sh: &Shared<'_, P::Msg>) {
    if !st.exited {
        st.exited = true;
        sh.exited_count.fetch_add(1, Ordering::AcqRel);
        sh.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthMode;
    use crate::ctx::Ctx;
    use crate::engine::run_sync;
    use crate::engine::testkit::{
        gossip, streams, CrashAwareGossip, PanicsOnRoundOne, WaitForever,
    };
    use crate::protocol::Step;

    /// Unit tests pin the worker count ≥ 2: the ambient pool of a small CI
    /// host would otherwise send every run down the degenerate
    /// `run_sync` path and leave the scheduler untested.
    fn cfg(k: usize) -> NetConfig {
        NetConfig::new(k).with_event_workers(2)
    }

    /// Run `mk()` under `cfg` on sync and on the event engine, assert the
    /// outputs and metrics identical, and return both outcomes.
    fn against_sync<P: Protocol>(
        cfg: &NetConfig,
        mk: impl Fn() -> Vec<P>,
    ) -> (RunOutcome<P::Output>, RunOutcome<P::Output>)
    where
        P::Output: PartialEq + std::fmt::Debug,
    {
        let want = run_sync(cfg, mk()).unwrap();
        let got = run_event(cfg, mk()).unwrap();
        assert_eq!(got.outputs, want.outputs);
        assert_eq!(got.metrics, want.metrics);
        (want, got)
    }

    #[test]
    fn matches_sync_engine_exactly() {
        let cfg = cfg(8).with_seed(5);
        against_sync(&cfg, || gossip(8));
    }

    /// A done sender keeps draining its backlog: the narrow link forces 32
    /// transport rounds long after machine 0 produced its output, and the
    /// round count must match the lockstep engine bit for bit.
    #[test]
    fn bandwidth_rounds_and_backlog_match_sync() {
        let cfg = cfg(2).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let (_, got) = against_sync(&cfg, || streams(64));
        assert_eq!(got.metrics.rounds, 32);
    }

    /// Late deliveries to a finished machine are counted exactly as the
    /// lockstep engine counts them, even though the event engine's machines
    /// consume them out of lockstep (and may speculate past the final
    /// round).
    struct EarlyQuit {
        n: u64,
        received: u64,
    }
    impl Protocol for EarlyQuit {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            match ctx.id() {
                0 => {
                    if ctx.round() == 0 {
                        for v in 0..self.n {
                            ctx.send(1, v);
                        }
                        ctx.send(2, 1);
                    }
                    Step::Done(0)
                }
                1 => {
                    // Quits after the first delivery; the rest of machine
                    // 0's backlog arrives after done.
                    if ctx.round() >= 1 {
                        self.received += ctx.inbox().len() as u64;
                        return Step::Done(self.received);
                    }
                    Step::Continue
                }
                _ => {
                    // Keeps the run alive long enough for backlog to land.
                    self.received += ctx.inbox().len() as u64;
                    if ctx.round() == 6 {
                        Step::Done(self.received)
                    } else {
                        Step::Continue
                    }
                }
            }
        }
    }

    #[test]
    fn delivered_after_done_matches_sync() {
        let cfg = cfg(3).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let (want, _) =
            against_sync(&cfg, || (0..3).map(|_| EarlyQuit { n: 16, received: 0 }).collect());
        assert!(want.metrics.delivered_after_done > 0, "test must exercise late deliveries");
    }

    #[test]
    fn stall_detected_without_deadlock() {
        let cfg = cfg(4);
        let err =
            run_event(&cfg, vec![WaitForever, WaitForever, WaitForever, WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }));
    }

    #[test]
    fn max_rounds_guard_trips() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_max_rounds(3);
        let err = run_event(&cfg, streams(64)).unwrap_err();
        assert_eq!(err, EngineError::MaxRounds { limit: 3 });
    }

    #[test]
    fn worker_panic_is_reported_not_hung() {
        let cfg = cfg(2);
        let err = run_event(&cfg, vec![PanicsOnRoundOne, PanicsOnRoundOne]).unwrap_err();
        assert_eq!(err, EngineError::WorkerPanic { machine: 1 });
    }

    /// Machine 2 sleeps before answering, so with several workers the other
    /// machines finish their rounds long before it and race one iteration
    /// past it through the slotted links — and the outcome still matches
    /// the lockstep engine exactly.
    struct Straggler {
        rounds: u64,
        acc: u64,
    }
    impl Protocol for Straggler {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.id() == 2 {
                std::thread::sleep(Duration::from_micros(300));
            }
            for e in ctx.inbox() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(e.msg);
            }
            if ctx.round() < self.rounds {
                let dst = (ctx.id() + 1) % ctx.k();
                ctx.send(dst, ctx.round() * 1000 + ctx.id() as u64);
                return Step::Continue;
            }
            Step::Done(self.acc)
        }
    }

    #[test]
    fn stragglers_do_not_change_the_outcome() {
        let cfg = NetConfig::new(4).with_seed(9).with_event_workers(3).with_event_window(4);
        let mk = || (0..4).map(|_| Straggler { rounds: 24, acc: 0 }).collect::<Vec<_>>();
        let want = run_sync(&cfg, mk()).unwrap();
        for _ in 0..3 {
            let got = run_event(&cfg, mk()).unwrap();
            assert_eq!(got.outputs, want.outputs);
            assert_eq!(got.metrics, want.metrics);
        }
    }

    #[test]
    fn worker_count_and_window_are_pure_wall_clock_knobs() {
        let base = NetConfig::new(6).with_seed(3);
        let want = run_sync(&base, gossip(6)).unwrap();
        for workers in [1, 2, 6, 16] {
            for window in [2, 3, 8] {
                let cfg = base.clone().with_event_workers(workers).with_event_window(window);
                let got = run_event(&cfg, gossip(6)).unwrap();
                assert_eq!(got.outputs, want.outputs, "workers {workers}, window {window}");
                assert_eq!(got.metrics, want.metrics, "workers {workers}, window {window}");
            }
        }
    }

    // ---- relaxed delivery: promises, skew, and the edge cases ----

    fn relaxed(k: usize) -> NetConfig {
        cfg(k).with_delivery(DeliveryMode::Relaxed)
    }

    /// Relaxed delivery with promise-less protocols degenerates gracefully:
    /// done machines still promise once drained, and outputs/metrics stay
    /// byte-identical to the lockstep engine.
    #[test]
    fn relaxed_matches_sync_for_promiseless_protocols() {
        let cfg = relaxed(8).with_seed(5);
        let (want, got) = against_sync(&cfg, || gossip(8));
        assert!(got.skew.tracked(), "relaxed multi-worker runs must record skew");
        assert_eq!(got.skew.max_skew_per_machine.len(), 8);
        assert!(!want.skew.tracked(), "the lockstep engine reports no skew");
    }

    /// Exact-mode runs must not report skew — the readiness rule forbids
    /// overlap, and the accounting must say so.
    #[test]
    fn exact_mode_reports_no_skew() {
        let cfg = cfg(4).with_seed(2);
        let out = run_event(&cfg, gossip(4)).unwrap();
        assert!(!out.skew.tracked());
        assert_eq!(out.skew, SkewMetrics::default());
    }

    /// Machine 0 feeds machine 1 one word per round; machine 1 never sends
    /// (a declared silent horizon of forever) and is slow. Under relaxed
    /// delivery machine 0 must pipeline multiple rounds past it — bounded
    /// by the staging window — while the outcome stays byte-identical.
    struct Pump {
        rounds: u64,
    }
    impl Protocol for Pump {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.round() < self.rounds {
                ctx.send(1, ctx.round());
                return Step::Continue;
            }
            Step::Done(ctx.round())
        }
    }
    struct QuietReceiver {
        expect: u64,
        got: u64,
        sleep: Duration,
    }
    impl Protocol for QuietReceiver {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            Some(u64::MAX) // receives and accumulates, never sends
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            self.got += ctx.inbox().len() as u64;
            if self.got == self.expect {
                Step::Done(self.got)
            } else {
                Step::Continue
            }
        }
    }

    /// Two-variant protocol so one run can mix a pump and a quiet receiver.
    enum PumpCluster {
        Pump(Pump),
        Quiet(QuietReceiver),
    }
    impl Protocol for PumpCluster {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            match self {
                PumpCluster::Pump(_) => None,
                PumpCluster::Quiet(q) => q.quiet_until(),
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            match self {
                PumpCluster::Pump(p) => p.on_round(ctx),
                PumpCluster::Quiet(q) => q.on_round(ctx),
            }
        }
    }

    fn pump_protocols(rounds: u64, sleep: Duration) -> Vec<PumpCluster> {
        vec![
            PumpCluster::Pump(Pump { rounds }),
            PumpCluster::Quiet(QuietReceiver { expect: rounds, got: 0, sleep }),
        ]
    }

    /// Window-saturation fairness: the pump runs ahead of the sleeping
    /// quiet receiver, but never farther than the staging window allows —
    /// and the skew counters prove multi-round pipelining actually
    /// happened, which exact delivery cannot express.
    #[test]
    fn relaxed_pipelines_past_a_quiet_straggler_bounded_by_window() {
        let window = 4u64;
        let cfg = NetConfig::new(2)
            .with_seed(3)
            .with_event_workers(2)
            .with_event_window(window)
            .with_delivery(DeliveryMode::Relaxed);
        let rounds = 24;
        let want = run_sync(&cfg, pump_protocols(rounds, Duration::ZERO)).unwrap();
        let got = run_event(&cfg, pump_protocols(rounds, Duration::from_micros(500))).unwrap();
        assert_eq!(want.outputs, got.outputs);
        assert_eq!(want.metrics, got.metrics);
        assert!(
            got.skew.max_skew <= window,
            "skew {} must stay within the window {window}",
            got.skew.max_skew
        );
        assert!(
            got.skew.max_skew > 1,
            "a 500µs/round straggler must force multi-round pipelining, got skew {}",
            got.skew.max_skew
        );
        assert!(got.skew.promised_rounds > 0, "the pump must have run on the promise");
        assert!(got.skew.promises_published >= 1);
    }

    /// A promise can never be revoked: sending inside the promised window
    /// aborts the run with a clean, attributed error instead of delivering
    /// a message that peers' executed rounds already assumed away.
    struct PromiseBreaker {
        breaker: bool,
    }
    impl Protocol for PromiseBreaker {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            self.breaker.then_some(10)
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if self.breaker {
                if ctx.round() == 3 {
                    ctx.send(1, 7); // breaks the round-10 promise
                }
                return Step::Continue;
            }
            // The honest machine keeps the run alive and finishes on its
            // own, so the only error the run can end with is the violation.
            if ctx.round() < 3 {
                ctx.send(0, ctx.round());
                return Step::Continue;
            }
            if ctx.round() == 4 {
                return Step::Done(0);
            }
            Step::Continue
        }
    }

    #[test]
    fn promise_then_revoke_fails_cleanly() {
        // Machine 0's round-10 horizon is published after its silent round
        // 0 — and broken by the round-3 send: the run must abort with the
        // violation attributed to the breaker, not deliver the message.
        let cfg = relaxed(2);
        let err = run_event(
            &cfg,
            vec![PromiseBreaker { breaker: true }, PromiseBreaker { breaker: false }],
        )
        .unwrap_err();
        assert_eq!(err, EngineError::PromiseViolated { machine: 0, round: 3, promised_until: 10 });
    }

    /// A promise reaching past `max_rounds` cannot smuggle a run over the
    /// limit: the round guard trips exactly as the lockstep engine's does.
    struct EndlessSender;
    impl Protocol for EndlessSender {
        type Msg = u64;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.id() == 1 {
                ctx.send(0, ctx.round());
            }
            Step::Continue
        }
    }
    struct QuietForever;
    impl Protocol for QuietForever {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            Some(u64::MAX)
        }
        fn on_round(&mut self, _ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            Step::Continue
        }
    }

    /// Heterogeneous pair for the max-rounds boundary case.
    enum Boundary {
        Quiet(QuietForever),
        Sender(EndlessSender),
    }
    impl Protocol for Boundary {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            match self {
                Boundary::Quiet(q) => q.quiet_until(),
                Boundary::Sender(_) => None,
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            match self {
                Boundary::Quiet(q) => q.on_round(ctx),
                Boundary::Sender(s) => s.on_round(ctx),
            }
        }
    }

    #[test]
    fn promise_at_max_rounds_boundary_still_trips_the_limit() {
        let mk = || vec![Boundary::Quiet(QuietForever), Boundary::Sender(EndlessSender)];
        let cfg = relaxed(2).with_max_rounds(5);
        let want = run_sync(&cfg, mk()).unwrap_err();
        assert_eq!(want, EngineError::MaxRounds { limit: 5 });
        let got = run_event(&cfg, mk()).unwrap_err();
        assert_eq!(got, want);
    }

    /// An all-quiet, never-done cluster is a stall in relaxed mode too —
    /// promises let machines spin a few rounds ahead, but the per-round
    /// quiet conjunction still detects round 0 exactly like `run_sync`.
    #[test]
    fn all_promised_quiet_cluster_stalls_like_sync() {
        let cfg = relaxed(4);
        let err = run_event(&cfg, vec![QuietForever, QuietForever, QuietForever, QuietForever])
            .unwrap_err();
        assert_eq!(err, EngineError::Stalled { round: 0 });
    }

    /// A quiet machine woken by a message mid-promise: it may absorb the
    /// wakeup (state change, no send) and answer once its horizon passes —
    /// outputs and rounds match the lockstep engine exactly.
    struct LateWakeup {
        horizon: u64,
        pinged: bool,
    }
    impl Protocol for LateWakeup {
        type Msg = u64;
        type Output = u64;
        fn quiet_until(&self) -> Option<u64> {
            (self.horizon > 0).then_some(self.horizon)
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
            if ctx.id() == 0 {
                if ctx.first_from(1).is_some() {
                    return Step::Done(ctx.round());
                }
                // Ping every round: a machine idling on a round *number*
                // with nothing in flight is a stall by the model's rules,
                // so the waiter must keep the network alive itself.
                ctx.send(1, 1);
                return Step::Continue;
            }
            // Machine 1: promised silence until `horizon`; pings land from
            // round 1 on, the pong may only go out at rounds >= horizon.
            self.pinged |= ctx.first_from(0).is_some();
            if self.pinged && ctx.round() >= self.horizon {
                ctx.send(0, 2);
                return Step::Done(ctx.round());
            }
            Step::Continue
        }
    }

    #[test]
    fn quiet_machine_handles_late_wakeup_and_answers_after_horizon() {
        let mk = || {
            vec![LateWakeup { horizon: 0, pinged: false }, LateWakeup { horizon: 6, pinged: false }]
        };
        let (want, _) = against_sync(&relaxed(2), mk);
        assert_eq!(want.outputs, vec![7, 6], "pong sent at the horizon, received next round");
    }

    /// Late deliveries to finished machines are counted identically under
    /// relaxed delivery (the done machine's drained-backlog promise races
    /// ahead, but its late accounting is filtered to the lockstep rounds).
    #[test]
    fn relaxed_delivered_after_done_matches_sync() {
        let cfg = relaxed(3).with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 });
        let (want, _) =
            against_sync(&cfg, || (0..3).map(|_| EarlyQuit { n: 16, received: 0 }).collect());
        assert!(want.metrics.delivered_after_done > 0);
    }

    /// Worker count and window stay pure wall-clock knobs in relaxed mode.
    #[test]
    fn relaxed_workers_and_window_do_not_change_outcomes() {
        let base = NetConfig::new(6).with_seed(3).with_delivery(DeliveryMode::Relaxed);
        let want = run_sync(&base, gossip(6)).unwrap();
        for workers in [2, 6, 16] {
            for window in [2, 3, 8] {
                let cfg = base.clone().with_event_workers(workers).with_event_window(window);
                let got = run_event(&cfg, gossip(6)).unwrap();
                assert_eq!(got.outputs, want.outputs, "workers {workers}, window {window}");
                assert_eq!(got.metrics, want.metrics, "workers {workers}, window {window}");
            }
        }
    }

    // ---- fault injection: stragglers, crashes, lossy links ----

    use crate::config::FaultPlan;

    #[test]
    fn straggler_injection_changes_nothing_but_wall_clock() {
        let base = cfg(4).with_seed(7);
        let slow = base.clone().with_faults(FaultPlan::default().with_straggler(2, 3));
        let want = run_sync(&base, gossip(4)).unwrap();
        let got = run_event(&slow, gossip(4)).unwrap();
        assert_eq!(want.outputs, got.outputs);
        assert_eq!(want.metrics, got.metrics);
        assert!(!got.faults.any(), "a straggler is not a fault the answer can observe");
    }

    #[test]
    fn crash_deadlock_reports_crashed_not_stalled() {
        // Machine 0 crashes before sending anything; machine 1 waits for a
        // stream that never comes.
        let cfg = cfg(2).with_faults(FaultPlan::default().with_crash(0, 0));
        let err = run_event(&cfg, streams(4)).unwrap_err();
        assert_eq!(err, EngineError::Crashed { machine: 0, round: 0 });
    }

    #[test]
    fn salvageable_crash_matches_sync_exactly() {
        let k = 3;
        let cfg = cfg(k).with_faults(FaultPlan::default().with_crash(2, 0));
        let mk = || {
            (0..k).map(|_| CrashAwareGossip { acc: 0, heard: vec![false; k] }).collect::<Vec<_>>()
        };
        let (a, b) = against_sync(&cfg, mk);
        assert_eq!(a.outputs, vec![1, 0, u64::MAX]);
        assert_eq!(a.faults, b.faults);
        assert_eq!(b.faults.crashed, vec![2]);
    }

    #[test]
    fn lossy_run_matches_sync_exactly() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(200, 64).with_fault_seed(5));
        let (a, b) = against_sync(&cfg, || streams(64));
        assert_eq!(a.faults, b.faults, "loss process must be keyed identically");
        assert!(b.faults.dropped_messages > 0);
    }

    #[test]
    fn retry_exhaustion_surfaces_as_link_down() {
        let cfg = cfg(2)
            .with_bandwidth(BandwidthMode::Enforce { bits_per_round: 128 })
            .with_faults(FaultPlan::default().with_loss(1000, 2));
        let err = run_event(&cfg, streams(4)).unwrap_err();
        assert_eq!(err, EngineError::LinkDown { src: 0, dst: 1, round: 1, retries: 2 });
    }

    #[test]
    fn single_machine_cluster_finishes() {
        struct Solo;
        impl Protocol for Solo {
            type Msg = ();
            type Output = u64;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<u64> {
                Step::Done(7)
            }
        }
        // A lone machine that keeps "continuing" without traffic is a stall
        // in every engine (there is nothing left that could wake it); one
        // that finishes immediately reports zero rounds.
        let cfg = NetConfig::new(1);
        let err = run_event(&cfg, vec![WaitForever]).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { round: 0 }));
        let out = run_event(&cfg, vec![Solo]).unwrap();
        assert_eq!(out.outputs, vec![7]);
        let want = run_sync(&cfg, vec![Solo]).unwrap();
        assert_eq!(out.metrics, want.metrics);
    }
}
