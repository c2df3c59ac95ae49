//! In-memory span recorder and the self-time ledger folded from it.
//!
//! A span is `(name, parent, start, end)`. Spans are pushed into a
//! per-thread buffer as they open (so a parent always precedes its
//! children) and closed by dropping the [`Guard`]. Whenever a thread's
//! outermost span closes and the buffer has grown large, the buffer is
//! folded into that thread's [`Ledger`]; a thread that exits folds what
//! is left into a process-wide ledger, so spans recorded on runtime
//! threads survive the thread.
//!
//! A name's *self time* is its spans' durations minus the durations of
//! their direct children ([`Ledger::fold`]). Self times of all names sum
//! to the duration of the root spans, which is what lets the benchmark
//! check that the layers account for the wall time of a run.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `name` indexes [`NAMES`]; `parent` indexes the
/// same buffer (or is [`ROOT`]); times are nanoseconds since the
/// process-wide epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u16,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Agent roles, in the order their span names are laid out.
pub const ROLES: [&str; 4] = ["proposer", "coordinator", "acceptor", "learner"];

/// Upcall kinds an agent span is named by: the message tag, `timer`, or
/// `other` (start, recover, link reset, `Hello`).
pub const TAGS: [&str; 13] = [
    "propose",
    "propose_batch",
    "1a",
    "1b",
    "2a",
    "2b",
    "nack",
    "learned",
    "needfull",
    "stable",
    "heartbeat",
    "timer",
    "other",
];

/// `CommandHistory` operations timed by the traced c-struct.
pub const OPS: [&str; 15] = [
    "append",
    "append_all",
    "le",
    "glb",
    "lub",
    "compatible",
    "contains",
    "suffix_from",
    "apply_suffix",
    "truncate_stable",
    "clone",
    "encode",
    "decode",
    "commands",
    "other",
];

/// The layer a span name belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own work: generator, oracle, message sampling.
    Bench,
    /// The simulator's event loop.
    Simnet,
    /// Agent upcalls.
    Core,
    /// C-struct operations.
    Cstruct,
    /// Stable storage.
    Storage,
    /// State-machine application.
    Smr,
}

/// Span name of the benchmark's own work (generator and oracle).
pub const BENCH: u16 = 0;
/// Span name of one `Sim::run_until` call.
pub const SIM_RUN: u16 = 1;
const CORE_BASE: u16 = 2;
const CSTRUCT_BASE: u16 = CORE_BASE + (ROLES.len() * TAGS.len()) as u16;
/// Span name of `StableStore::write`.
pub const STORE_WRITE: u16 = CSTRUCT_BASE + OPS.len() as u16;
/// Span name of `StableStore::flush`.
pub const STORE_FLUSH: u16 = STORE_WRITE + 1;
/// Span name of the other `StableStore` methods.
pub const STORE_OTHER: u16 = STORE_WRITE + 2;
/// Span name of one `KvStore::apply`.
pub const SMR_APPLY: u16 = STORE_WRITE + 3;
/// Number of span names.
pub const N_NAMES: usize = SMR_APPLY as usize + 1;

/// Span name of an agent upcall of `role` (index into [`ROLES`]) and
/// `tag` (index into [`TAGS`]).
pub fn core_name(role: usize, tag: usize) -> u16 {
    CORE_BASE + (role * TAGS.len() + tag) as u16
}

/// Span name of c-struct operation `op` (index into [`OPS`]).
pub fn cstruct_name(op: usize) -> u16 {
    CSTRUCT_BASE + op as u16
}

/// The layer of span name `name`.
pub fn layer_of(name: u16) -> Layer {
    match name {
        BENCH => Layer::Bench,
        SIM_RUN => Layer::Simnet,
        n if n < CSTRUCT_BASE => Layer::Core,
        n if n < STORE_WRITE => Layer::Cstruct,
        SMR_APPLY => Layer::Smr,
        _ => Layer::Storage,
    }
}

/// Nanoseconds since the process-wide epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Calls, inclusive time and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus direct children's durations, ns.
    pub self_ns: i64,
}

/// Per-name statistics folded from spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// Indexed by span name.
    pub stats: Vec<Stat>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            stats: vec![Stat::default(); N_NAMES],
        }
    }
}

impl Ledger {
    /// Folds a buffer of spans whose parent indices refer to the buffer
    /// itself. Every span must be closed.
    pub fn fold(&mut self, spans: &[Span]) {
        for s in spans {
            let d = s.end.saturating_sub(s.start);
            let st = &mut self.stats[s.name as usize];
            st.calls += 1;
            st.total_ns += d;
            st.self_ns += d as i64;
            if s.parent != ROOT {
                let p = spans[s.parent as usize].name as usize;
                self.stats[p].self_ns -= d as i64;
            }
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
    }

    /// The statistics of one name.
    pub fn get(&self, name: u16) -> Stat {
        self.stats[name as usize]
    }

    /// Self time of every name in `layer`, ns.
    pub fn layer_self_ns(&self, layer: Layer) -> i64 {
        self.stats
            .iter()
            .enumerate()
            .filter(|(n, _)| layer_of(*n as u16) == layer)
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Self time of all names, ns: the time covered by root spans.
    pub fn self_ns_total(&self) -> i64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }
}

/// Buffer length above which a closed root triggers a fold.
const FOLD_AT: usize = 1 << 16;

struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    ledger: Ledger,
}

impl Recorder {
    fn fold(&mut self) {
        self.ledger.fold(&self.spans);
        self.spans.clear();
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if self.open.is_empty() {
            self.fold();
        }
        if let Ok(mut g) = EXITED.lock() {
            if g.stats.is_empty() {
                *g = Ledger::default();
            }
            g.merge(&self.ledger);
        }
    }
}

static EXITED: Mutex<Ledger> = Mutex::new(Ledger { stats: Vec::new() });

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        spans: Vec::new(),
        open: Vec::new(),
        ledger: Ledger::default(),
    });
}

/// An open span; closes on drop. Must be dropped on the thread that
/// opened it, in reverse opening order (a scope guard).
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    idx: u32,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a span named `name` under the innermost open span of this
/// thread.
pub fn enter(name: u16) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        r.spans.push(Span {
            name,
            parent,
            start: now_ns(),
            end: 0,
        });
        r.open.push(idx);
        Guard {
            idx,
            _not_send: std::marker::PhantomData,
        }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let t = now_ns();
        // `try_with`: a guard outliving its thread's recorder is dropped
        // silently rather than aborting the thread's exit.
        let _ = REC.try_with(|r| {
            let mut r = r.borrow_mut();
            r.spans[self.idx as usize].end = t;
            r.open.pop();
            if r.open.is_empty() && r.spans.len() >= FOLD_AT {
                r.fold();
            }
        });
    }
}

/// Folds and returns this thread's spans, leaving its recorder empty.
///
/// # Panics
///
/// Panics if a span of this thread is still open.
pub fn drain_thread() -> Ledger {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "drain with an open span");
        r.fold();
        std::mem::take(&mut r.ledger)
    })
}

/// Takes the ledgers folded by threads that have exited.
pub fn drain_exited() -> Ledger {
    let mut g = EXITED
        .lock()
        .expect("span sink poisoned by a panicking thread");
    let mut out = Ledger::default();
    out.merge(&g);
    *g = Ledger::default();
    out
}
