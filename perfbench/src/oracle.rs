//! The exactly-once oracle: which proposed commands were learned, how
//! often, and when.
//!
//! The oracle drains the learner's history through a
//! [`mcpaxos_gbcast::Delivery`] cursor after every learner upcall — the
//! learner applies stable segments at the start of an upcall, so every
//! logical position is seen before compaction truncates it — and applies
//! each delivered command to a [`KvStore`], as a replica would. Each
//! position is attributed to its command id. Ids learned twice, ids never
//! learned and ids learned but never proposed are counted, never
//! asserted, so a defective run still reports its numbers.

use crate::span;
use mcpaxos_cstruct::CommandHistory;
use mcpaxos_gbcast::Delivery;
use mcpaxos_smr::{CmdId, KvCmd, KvStore, StateMachine};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Not learned yet.
const NEVER: u64 = u64::MAX;

/// Proposed and learned commands of one deployment. Times are in the
/// caller's clock unit (simulator ticks, or wall nanoseconds).
pub struct Oracle {
    client: u32,
    due: Vec<u64>,
    first: Vec<u64>,
    count: Vec<u32>,
    order: Vec<CmdId>,
    distinct: usize,
    unknown: u64,
    delivery: Delivery<KvCmd>,
    kv: KvStore,
    traced: bool,
    first_wall_ns: Option<u64>,
    last_new_wall_ns: u64,
}

/// What a finished deployment did with its proposals, per sequence
/// number. Times are in the oracle's clock unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Due time of each proposed command.
    pub due: Vec<u64>,
    /// First learn time of each proposed command (`u64::MAX`: never).
    pub first: Vec<u64>,
    /// Times each proposed command was learned.
    pub count: Vec<u32>,
    /// Learned positions whose id was never proposed.
    pub unknown: u64,
    /// Learned ids in learned (logical position) order.
    pub order: Vec<CmdId>,
}

impl Oracle {
    /// An oracle for commands issued by `client` with sequence numbers
    /// `0..capacity`. `traced` wraps state-machine application in spans.
    pub fn new(client: u32, capacity: usize, traced: bool) -> Self {
        let mut delivery = Delivery::new();
        delivery.disable_log();
        Oracle {
            client,
            due: Vec::with_capacity(capacity),
            first: Vec::with_capacity(capacity),
            count: Vec::with_capacity(capacity),
            order: Vec::with_capacity(capacity),
            distinct: 0,
            unknown: 0,
            delivery,
            kv: KvStore::default(),
            traced,
            first_wall_ns: None,
            last_new_wall_ns: 0,
        }
    }

    /// Records that the next command, with sequence number
    /// `self.proposed()`, is due at `due`.
    pub fn propose(&mut self, due: u64) {
        self.due.push(due);
        self.first.push(NEVER);
        self.count.push(0);
    }

    /// Commands proposed so far.
    pub fn proposed(&self) -> usize {
        self.due.len()
    }

    /// Distinct proposed ids learned so far.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Wall time (ns since the span epoch) of the first learn.
    pub fn first_wall_ns(&self) -> Option<u64> {
        self.first_wall_ns
    }

    /// Wall time (ns since the span epoch) of the latest new learn.
    pub fn last_new_wall_ns(&self) -> u64 {
        self.last_new_wall_ns
    }

    /// Drains every position of `learned` not seen yet; `now` is the
    /// time the learner holds them.
    pub fn observe(&mut self, learned: &CommandHistory<KvCmd>, now: u64) {
        let before = self.distinct;
        let Oracle {
            client,
            first,
            count,
            order,
            distinct,
            unknown,
            delivery,
            kv,
            traced,
            ..
        } = self;
        delivery.absorb_with(learned, |c| {
            if *traced {
                let _g = span::enter(span::SMR_APPLY);
                kv.apply(c);
            } else {
                kv.apply(c);
            }
            order.push(c.id);
            let seq = c.id.seq as usize;
            if c.id.client != *client || seq >= count.len() {
                *unknown += 1;
                return;
            }
            count[seq] += 1;
            if count[seq] == 1 {
                first[seq] = now;
                *distinct += 1;
            }
        });
        if self.distinct > before {
            let t = span::now_ns();
            self.first_wall_ns.get_or_insert(t);
            self.last_new_wall_ns = t;
        }
    }

    /// Closes the books.
    pub fn finish(self) -> Outcome {
        Outcome {
            due: self.due,
            first: self.first,
            count: self.count,
            unknown: self.unknown,
            order: self.order,
        }
    }
}

/// An oracle shared between the learner's observer and the generator,
/// which can wait for learns.
pub struct Shared {
    oracle: Mutex<Option<Oracle>>,
    learned: Condvar,
}

impl Shared {
    /// Shares `oracle`.
    pub fn new(oracle: Oracle) -> Self {
        Shared {
            oracle: Mutex::new(Some(oracle)),
            learned: Condvar::new(),
        }
    }

    /// Locks the oracle.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding it, or after
    /// [`Shared::take`].
    pub fn lock(&self) -> OracleGuard<'_> {
        OracleGuard(
            self.oracle
                .lock()
                .expect("oracle poisoned by a panicking thread"),
        )
    }

    /// [`Oracle::observe`], waking waiters if a new command was learned.
    pub fn observe(&self, learned: &CommandHistory<KvCmd>, now: u64) {
        let mut o = self.lock();
        let before = o.distinct();
        o.observe(learned, now);
        if o.distinct() > before {
            self.learned.notify_all();
        }
    }

    /// Waits until at least `target` distinct commands are learned or
    /// `timeout` passes; returns the distinct count.
    pub fn wait_distinct(&self, target: usize, timeout: Duration) -> usize {
        let g = self
            .oracle
            .lock()
            .expect("oracle poisoned by a panicking thread");
        let (g, _) = self
            .learned
            .wait_timeout_while(g, timeout, |o| {
                o.as_ref().expect("oracle present").distinct() < target
            })
            .expect("oracle poisoned by a panicking thread");
        g.as_ref().expect("oracle present").distinct()
    }

    /// Takes the oracle out once the deployment is gone.
    pub fn take(&self) -> Oracle {
        self.oracle
            .lock()
            .expect("oracle poisoned by a panicking thread")
            .take()
            .expect("oracle taken once")
    }
}

/// A locked [`Shared`] oracle.
pub struct OracleGuard<'a>(MutexGuard<'a, Option<Oracle>>);

impl std::ops::Deref for OracleGuard<'_> {
    type Target = Oracle;
    fn deref(&self) -> &Oracle {
        self.0.as_ref().expect("oracle present")
    }
}

impl std::ops::DerefMut for OracleGuard<'_> {
    fn deref_mut(&mut self) -> &mut Oracle {
        self.0.as_mut().expect("oracle present")
    }
}

impl Outcome {
    /// Commands proposed.
    pub fn proposed(&self) -> usize {
        self.due.len()
    }

    /// Distinct proposed ids learned at least once.
    pub fn distinct(&self) -> usize {
        self.count.iter().filter(|&&c| c > 0).count()
    }

    /// Proposed ids never learned.
    pub fn missing(&self) -> usize {
        self.count.iter().filter(|&&c| c == 0).count()
    }

    /// Ids learned more than once.
    pub fn dup_cmds(&self) -> usize {
        self.count.iter().filter(|&&c| c > 1).count()
    }

    /// Failed commands: never learned, learned more than once, or shed
    /// (`sheds`, from the agents' backpressure counter).
    pub fn failed(&self, sheds: u64) -> u64 {
        let f = self.missing() as u64 + self.dup_cmds() as u64 + sheds;
        f.min(self.proposed() as u64)
    }

    /// First learn minus due time of each learned command in `seqs`.
    pub fn latencies(&self, seqs: std::ops::Range<usize>) -> Vec<u64> {
        seqs.filter(|&i| self.first[i] != NEVER)
            .map(|i| self.first[i].saturating_sub(self.due[i]))
            .collect()
    }

    /// [`stall`] over the commands in `seqs`, closing at `end`.
    pub fn stall(&self, seqs: std::ops::Range<usize>, end: u64) -> u64 {
        stall(&self.due[seqs.clone()], &self.first[seqs], end)
    }
}

/// The longest interval during which at least one command was
/// outstanding (due and not yet learned) and none was newly learned.
///
/// `due[i]` is command `i`'s due time and `first[i]` its first learn
/// time (`u64::MAX` if never); commands still outstanding at `end` stall
/// until `end`. An interval starts when the system last made progress:
/// at a learn, or at an arrival into an empty system.
pub fn stall(due: &[u64], first: &[u64], end: u64) -> u64 {
    let mut arrivals: Vec<u64> = due.to_vec();
    arrivals.sort_unstable();
    let mut learns: Vec<u64> = first.iter().copied().filter(|&f| f != NEVER).collect();
    learns.sort_unstable();
    let (mut a, mut l) = (0, 0);
    let mut outstanding = 0usize;
    let mut since = 0u64;
    let mut worst = 0u64;
    while a < arrivals.len() || l < learns.len() {
        // Arrivals first on ties: a command due and learned at the same
        // instant was outstanding for zero time.
        if a < arrivals.len() && (l >= learns.len() || arrivals[a] <= learns[l]) {
            if outstanding == 0 {
                since = arrivals[a];
            }
            outstanding += 1;
            a += 1;
        } else {
            let t = learns[l];
            if outstanding > 0 {
                worst = worst.max(t - since);
                outstanding -= 1;
            }
            since = t;
            l += 1;
        }
    }
    if outstanding > 0 {
        worst = worst.max(end.saturating_sub(since));
    }
    worst
}
