//! Bench-owned wrappers around the seams the stack exposes: the c-struct
//! the agents are generic over, the [`Actor`] trait every agent
//! implements, and the [`StableStore`] trait every store implements.
//!
//! Each wrapper forwards every method to the wrapped value — defaulted
//! trait methods included, so the wrapped type's specialised code runs —
//! and, in a traced run, opens a [`span`] around the call. `Debug` and
//! `Wire` forward byte-identically, so a traced run makes the same
//! decisions and sends the same bytes as an untraced one.

use crate::span::{self, core_name, cstruct_name};
use mcpaxos_actor::wire::{Wire, WireError};
use mcpaxos_actor::{Actor, Context, ProcessId, SimTime, StableStore, TimerToken};
use mcpaxos_core::Msg;
use mcpaxos_cstruct::{CStruct, CommandHistory, SuffixGap};
use mcpaxos_smr::KvCmd;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The c-struct every workload decides over, traced or not.
pub trait Hist: CStruct<Cmd = KvCmd> + Sync {
    /// Whether the wrappers record spans for this instantiation.
    const TRACED: bool;
    /// The underlying command history.
    fn history(&self) -> &CommandHistory<KvCmd>;
}

impl Hist for CommandHistory<KvCmd> {
    const TRACED: bool = false;
    fn history(&self) -> &CommandHistory<KvCmd> {
        self
    }
}

/// A `CommandHistory<KvCmd>` whose every operation is a span.
#[derive(PartialEq, Eq)]
pub struct TracedHistory(pub CommandHistory<KvCmd>);

impl Hist for TracedHistory {
    const TRACED: bool = true;
    fn history(&self) -> &CommandHistory<KvCmd> {
        &self.0
    }
}

const OP_APPEND: usize = 0;
const OP_APPEND_ALL: usize = 1;
const OP_LE: usize = 2;
const OP_GLB: usize = 3;
const OP_LUB: usize = 4;
const OP_COMPATIBLE: usize = 5;
const OP_CONTAINS: usize = 6;
const OP_SUFFIX_FROM: usize = 7;
const OP_APPLY_SUFFIX: usize = 8;
const OP_TRUNCATE_STABLE: usize = 9;
const OP_CLONE: usize = 10;
const OP_ENCODE: usize = 11;
const OP_DECODE: usize = 12;
const OP_COMMANDS: usize = 13;
const OP_OTHER: usize = 14;

fn op(i: usize) -> span::Guard {
    span::enter(cstruct_name(i))
}

impl Clone for TracedHistory {
    fn clone(&self) -> Self {
        let _g = op(OP_CLONE);
        TracedHistory(self.0.clone())
    }
}

impl fmt::Debug for TracedHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Wire for TracedHistory {
    fn encode(&self, out: &mut Vec<u8>) {
        let _g = op(OP_ENCODE);
        self.0.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let _g = op(OP_DECODE);
        CommandHistory::decode(input).map(TracedHistory)
    }
}

impl CStruct for TracedHistory {
    type Cmd = KvCmd;

    fn bottom() -> Self {
        let _g = op(OP_OTHER);
        TracedHistory(CommandHistory::bottom())
    }
    fn bottom_at(watermark: u64) -> Self {
        let _g = op(OP_OTHER);
        TracedHistory(CommandHistory::bottom_at(watermark))
    }
    fn append(&mut self, cmd: KvCmd) {
        let _g = op(OP_APPEND);
        self.0.append(cmd);
    }
    fn appended(&self, cmd: &KvCmd) -> Self {
        let _g = op(OP_OTHER);
        TracedHistory(self.0.appended(cmd))
    }
    fn append_all<I: IntoIterator<Item = KvCmd>>(&mut self, cmds: I) {
        let _g = op(OP_APPEND_ALL);
        self.0.append_all(cmds);
    }
    fn le(&self, other: &Self) -> bool {
        let _g = op(OP_LE);
        self.0.le(&other.0)
    }
    fn glb(&self, other: &Self) -> Self {
        let _g = op(OP_GLB);
        TracedHistory(self.0.glb(&other.0))
    }
    fn lub(&self, other: &Self) -> Option<Self> {
        let _g = op(OP_LUB);
        self.0.lub(&other.0).map(TracedHistory)
    }
    fn compatible(&self, other: &Self) -> bool {
        let _g = op(OP_COMPATIBLE);
        self.0.compatible(&other.0)
    }
    fn contains(&self, cmd: &KvCmd) -> bool {
        let _g = op(OP_CONTAINS);
        self.0.contains(cmd)
    }
    fn commands(&self) -> Vec<KvCmd> {
        let _g = op(OP_COMMANDS);
        self.0.commands()
    }
    fn count(&self) -> usize {
        let _g = op(OP_OTHER);
        self.0.count()
    }
    fn is_bottom(&self) -> bool {
        let _g = op(OP_OTHER);
        self.0.is_bottom()
    }
    fn watermark(&self) -> u64 {
        let _g = op(OP_OTHER);
        self.0.watermark()
    }
    fn total_len(&self) -> u64 {
        let _g = op(OP_OTHER);
        self.0.total_len()
    }
    fn suffix_from(&self, base_len: u64) -> Option<Vec<KvCmd>> {
        let _g = op(OP_SUFFIX_FROM);
        self.0.suffix_from(base_len)
    }
    fn apply_suffix(&mut self, base_len: u64, suffix: &[KvCmd]) -> Result<u64, SuffixGap> {
        let _g = op(OP_APPLY_SUFFIX);
        self.0.apply_suffix(base_len, suffix)
    }
    fn truncate_stable(&mut self, stable: &[KvCmd]) -> bool {
        let _g = op(OP_TRUNCATE_STABLE);
        self.0.truncate_stable(stable)
    }
    fn stable_segment(&self, from: u64, max: usize) -> Option<Vec<KvCmd>> {
        let _g = op(OP_OTHER);
        self.0.stable_segment(from, max)
    }
}

/// Index into [`span::ROLES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A proposer.
    Proposer = 0,
    /// A coordinator.
    Coordinator = 1,
    /// An acceptor.
    Acceptor = 2,
    /// A learner.
    Learner = 3,
}

const TAG_TIMER: usize = 11;
const TAG_OTHER: usize = 12;

/// Index into [`span::TAGS`] of a delivered message.
pub fn tag_of<C: CStruct>(m: &Msg<C>) -> usize {
    match m {
        Msg::Propose { .. } => 0,
        Msg::ProposeBatch { .. } => 1,
        Msg::P1a { .. } => 2,
        Msg::P1b { .. } => 3,
        Msg::P2a { .. } => 4,
        Msg::P2b { .. } => 5,
        Msg::RoundTooLow { .. } => 6,
        Msg::Learned { .. } => 7,
        Msg::NeedFull { .. } => 8,
        Msg::StableProposal { .. }
        | Msg::StableAck { .. }
        | Msg::Stable { .. }
        | Msg::NeedStable { .. } => 9,
        Msg::Heartbeat => 10,
        Msg::Hello => TAG_OTHER,
    }
}

/// Called after every upcall of the wrapped agent with the agent and the
/// upcall's logical time.
pub type Observer<A> = Box<dyn FnMut(&A, SimTime) + Send>;

/// Delivered messages kept for the post-run codec timing.
pub type Samples<H> = Arc<Mutex<Vec<Msg<H>>>>;

/// Every this many delivered messages, one is kept in [`Samples`].
const SAMPLE_EVERY: u64 = 16;
/// At most this many messages are kept per sample buffer.
const SAMPLE_CAP: usize = 4096;

/// An agent wrapped for the benchmark: times each upcall by role and
/// message tag (traced runs only), keeps a sample of delivered messages
/// (traced runs only), and runs an optional observer after each upcall.
pub struct Agent<H: Hist, A> {
    inner: A,
    role: Role,
    delivered: u64,
    samples: Option<Samples<H>>,
    observe: Option<Observer<A>>,
}

impl<H: Hist, A: Actor<Msg = Msg<H>>> Agent<H, A> {
    /// Wraps `inner`, which plays `role`.
    pub fn new(inner: A, role: Role) -> Self {
        Agent {
            inner,
            role,
            delivered: 0,
            samples: None,
            observe: None,
        }
    }

    /// The wrapped agent.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Keeps a sample of delivered messages in `samples` (traced runs).
    pub fn with_samples(mut self, samples: Samples<H>) -> Self {
        if H::TRACED {
            self.samples = Some(samples);
        }
        self
    }

    /// Runs `observe` after every upcall.
    pub fn with_observer(mut self, observe: Observer<A>) -> Self {
        self.observe = Some(observe);
        self
    }

    fn call(
        &mut self,
        tag: usize,
        ctx: &mut dyn Context<Msg<H>>,
        f: impl FnOnce(&mut A, &mut dyn Context<Msg<H>>),
    ) {
        if H::TRACED {
            let _g = span::enter(core_name(self.role as usize, tag));
            f(&mut self.inner, ctx);
        } else {
            f(&mut self.inner, ctx);
        }
        if let Some(obs) = self.observe.as_mut() {
            let _g = H::TRACED.then(|| span::enter(span::BENCH));
            obs(&self.inner, ctx.now());
        }
    }

    fn sample(&mut self, msg: &Msg<H>) {
        self.delivered += 1;
        if !self.delivered.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        if let Some(s) = &self.samples {
            let _g = span::enter(span::BENCH);
            let mut v = s.lock().expect("sample buffer poisoned");
            if v.len() < SAMPLE_CAP {
                v.push(msg.clone());
            }
        }
    }
}

impl<H: Hist, A: Actor<Msg = Msg<H>> + Send> Actor for Agent<H, A> {
    type Msg = Msg<H>;

    fn on_start(&mut self, ctx: &mut dyn Context<Msg<H>>) {
        self.call(TAG_OTHER, ctx, |a, c| a.on_start(c));
    }
    fn on_recover(&mut self, ctx: &mut dyn Context<Msg<H>>) {
        self.call(TAG_OTHER, ctx, |a, c| a.on_recover(c));
    }
    fn on_message(&mut self, from: ProcessId, msg: Msg<H>, ctx: &mut dyn Context<Msg<H>>) {
        if H::TRACED {
            self.sample(&msg);
        }
        self.call(tag_of(&msg), ctx, |a, c| a.on_message(from, msg, c));
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Msg<H>>) {
        self.call(TAG_TIMER, ctx, |a, c| a.on_timer(token, c));
    }
    fn on_link_reset(&mut self, peer: ProcessId, ctx: &mut dyn Context<Msg<H>>) {
        self.call(TAG_OTHER, ctx, |a, c| a.on_link_reset(peer, c));
    }
}

/// A stable store whose writes and flushes are spans; counts the
/// synchronous disk writes of every store sharing `syncs`.
pub struct TracedStore<S> {
    inner: S,
    syncs: Arc<AtomicU64>,
}

impl<S: StableStore> TracedStore<S> {
    /// Wraps `inner`, adding its disk writes to `syncs`.
    pub fn new(inner: S, syncs: Arc<AtomicU64>) -> Self {
        TracedStore { inner, syncs }
    }

    fn count_syncs(&self, before: u64) {
        let d = self.inner.write_count() - before;
        if d > 0 {
            self.syncs.fetch_add(d, Ordering::Relaxed);
        }
    }
}

impl<S: StableStore> StableStore for TracedStore<S> {
    fn write(&mut self, key: &str, value: Vec<u8>) {
        let _g = span::enter(span::STORE_WRITE);
        let before = self.inner.write_count();
        self.inner.write(key, value);
        self.count_syncs(before);
    }
    fn read(&self, key: &str) -> Option<&[u8]> {
        let _g = span::enter(span::STORE_OTHER);
        self.inner.read(key)
    }
    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
    fn flush(&mut self) {
        let _g = span::enter(span::STORE_FLUSH);
        let before = self.inner.write_count();
        self.inner.flush();
        self.count_syncs(before);
    }
    fn lose_unflushed(&mut self) {
        let _g = span::enter(span::STORE_OTHER);
        self.inner.lose_unflushed();
    }
    fn compact(&mut self) {
        let _g = span::enter(span::STORE_OTHER);
        let before = self.inner.write_count();
        self.inner.compact();
        self.count_syncs(before);
    }
    fn corrupt_records(&self) -> u64 {
        self.inner.corrupt_records()
    }
    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        let _g = span::enter(span::STORE_OTHER);
        self.inner.flushed_read(key)
    }
}
