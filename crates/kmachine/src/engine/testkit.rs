//! Protocols the engine unit tests share.

use crate::ctx::Ctx;
use crate::protocol::{Protocol, Step};

/// Everyone broadcasts its id; everyone outputs the sum of what it saw.
pub(crate) struct GossipSum {
    pub(crate) acc: u64,
    pub(crate) got: usize,
}

impl Protocol for GossipSum {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.round() == 0 {
            ctx.broadcast(ctx.id() as u64);
            return Step::Continue;
        }
        for e in ctx.inbox() {
            self.acc += e.msg;
            self.got += 1;
        }
        if self.got == ctx.k() - 1 {
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
}

/// A [`GossipSum`] cluster of `k` machines.
pub(crate) fn gossip(k: usize) -> Vec<GossipSum> {
    (0..k).map(|_| GossipSum { acc: 0, got: 0 }).collect()
}

/// Machine 0 streams `n` 64-bit values to machine 1 and is done at once;
/// machine 1 is done once all of them arrived.
pub(crate) struct Stream {
    pub(crate) n: u64,
    pub(crate) received: u64,
}

impl Protocol for Stream {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.id() == 0 {
            if ctx.round() == 0 {
                for v in 0..self.n {
                    ctx.send(1, v);
                }
            }
            return Step::Done(0);
        }
        self.received += ctx.inbox().len() as u64;
        if self.received == self.n {
            Step::Done(self.received)
        } else {
            Step::Continue
        }
    }
}

/// The two machines of a [`Stream`] of `n` values.
pub(crate) fn streams(n: u64) -> Vec<Stream> {
    vec![Stream { n, received: 0 }, Stream { n, received: 0 }]
}

/// A deadlocked protocol: everyone waits forever.
pub(crate) struct WaitForever;

impl Protocol for WaitForever {
    type Msg = ();
    type Output = ();
    fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step<()> {
        Step::Continue
    }
}

/// Machine 1 panics in its first round; machine 0 sends it a word first.
pub(crate) struct PanicsOnRoundOne;

impl Protocol for PanicsOnRoundOne {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.id() == 1 {
            panic!("intentional test panic");
        }
        if ctx.round() == 0 {
            ctx.send(1, 7);
            return Step::Continue;
        }
        Step::Done(0)
    }
}

/// Gossip that tolerates crashed peers: done once every peer has either
/// been heard from or is observably crashed; a crashed machine salvages
/// a sentinel output.
pub(crate) struct CrashAwareGossip {
    pub(crate) acc: u64,
    pub(crate) heard: Vec<bool>,
}

impl Protocol for CrashAwareGossip {
    type Msg = u64;
    type Output = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Step<u64> {
        if ctx.round() == 0 {
            ctx.broadcast(ctx.id() as u64);
            return Step::Continue;
        }
        for e in ctx.inbox() {
            self.acc += e.msg;
            self.heard[e.src] = true;
        }
        let id = ctx.id();
        let settled = (0..ctx.k()).all(|p| p == id || self.heard[p] || ctx.crashed(p));
        if settled {
            Step::Done(self.acc)
        } else {
            Step::Continue
        }
    }
    fn on_crash(&mut self) -> Option<u64> {
        Some(u64::MAX)
    }
}
