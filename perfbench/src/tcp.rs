//! The live-runtime workload: two [`TcpNode`]s in this process over
//! loopback sockets, fed by one generator thread through
//! [`TcpNode::send`].
//!
//! "front" hosts the proposer and the three coordinators, "back" the
//! five acceptors and the learner, so every 2a, 2b and learned
//! notification crosses a real socket.

use crate::oracle::{Oracle, Outcome, Shared};
use crate::report::Counters;
use crate::sim::{self, CLIENT};
use crate::span::{self, Ledger};
use crate::sysinfo;
use crate::traced::{Agent, Hist, Role, Samples, TracedStore};
use mcpaxos_actor::{MemStore, ProcessId, StableStore, WalStore};
use mcpaxos_core::{Acceptor, Coordinator, DeployConfig, Learner, Msg, Proposer};
use mcpaxos_runtime::{PeerTable, TcpConfig, TcpNode};
use mcpaxos_smr::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Open-phase arrival rate, commands per second.
pub const OPEN_RATE: f64 = 1000.0;
/// Closed-phase window of in-flight commands.
pub const WINDOW: usize = 32;
/// Deployments per run whose set-up time is measured.
pub const SETUPS: usize = 3;
/// Longest wait for a phase's commands after its last send.
const DRAIN: Duration = Duration::from_secs(10);

/// The deployment: the sim-batched configuration (batch 16, depth 8,
/// 2-tick linger, bounded wire, group-committed WAL acceptors); a tick
/// of the live runtime is one millisecond.
pub fn deploy() -> DeployConfig {
    sim::workload("sim-batched")
        .expect("sim-batched exists")
        .deploy()
}

struct Cluster<H: Hist> {
    front: TcpNode<Msg<H>>,
    back: TcpNode<Msg<H>>,
    oracle: Arc<Shared>,
    proposer: ProcessId,
}

fn store<H: Hist, S: StableStore + Send + 'static>(
    s: S,
    syncs: &Arc<AtomicU64>,
) -> Box<dyn StableStore + Send> {
    if H::TRACED {
        Box::new(TracedStore::new(s, syncs.clone()))
    } else {
        Box::new(s)
    }
}

fn start<H: Hist>(
    cfg: &Arc<DeployConfig>,
    oracle: Arc<Shared>,
    samples: &Samples<H>,
    syncs: &Arc<AtomicU64>,
) -> Cluster<H> {
    let peers = PeerTable::shared();
    let mut front: TcpNode<Msg<H>> =
        TcpNode::bind(peers.clone(), TcpConfig::default()).expect("bind loopback listener");
    let mut back: TcpNode<Msg<H>> =
        TcpNode::bind(peers, TcpConfig::default()).expect("bind loopback listener");
    let proposer = cfg.roles.proposers()[0];
    let s = samples;
    front.spawn_with_storage(
        proposer,
        Box::new(
            Agent::new(Proposer::<H>::new(cfg.clone()), Role::Proposer).with_samples(s.clone()),
        ),
        store::<H, _>(MemStore::new(), syncs),
    );
    for &c in cfg.roles.coordinators() {
        front.spawn_with_storage(
            c,
            Box::new(
                Agent::new(Coordinator::<H>::new(cfg.clone(), c), Role::Coordinator)
                    .with_samples(s.clone()),
            ),
            store::<H, _>(MemStore::new(), syncs),
        );
    }
    for &a in cfg.roles.acceptors() {
        back.spawn_with_storage(
            a,
            Box::new(
                Agent::new(Acceptor::<H>::new(cfg.clone()), Role::Acceptor).with_samples(s.clone()),
            ),
            store::<H, _>(WalStore::new(), syncs),
        );
    }
    for &l in cfg.roles.learners() {
        let o = oracle.clone();
        back.spawn_with_storage(
            l,
            Box::new(
                Agent::new(Learner::<H>::new(cfg.clone()), Role::Learner)
                    .with_samples(s.clone())
                    .with_observer(Box::new(move |l: &Learner<H>, _| {
                        o.observe(l.learned().history(), span::now_ns());
                    })),
            ),
            store::<H, _>(MemStore::new(), syncs),
        );
    }
    Cluster {
        front,
        back,
        oracle,
        proposer,
    }
}

impl<H: Hist> Cluster<H> {
    /// Registers the next command as due at `due` and sends it.
    fn propose(&self, gen: &mut Workload, due: u64) {
        self.oracle.lock().propose(due);
        let cmd = gen.next_kv_put();
        self.front.send(
            self.proposer,
            CLIENT,
            Msg::Propose {
                cmd,
                acc_quorum: None,
            },
        );
    }

    /// Stops both nodes; returns their combined metrics.
    fn stop(self) -> (Counters, Oracle) {
        let mut c = Counters::default();
        c.add(&self.front.metrics());
        c.add(&self.back.metrics());
        drop(self.front.stop());
        drop(self.back.stop());
        (c, self.oracle.take())
    }
}

/// Sleeps until `t` (ns since the span epoch).
fn sleep_until(t: u64) {
    let now = span::now_ns();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// The measurements of one run of the TCP workload.
#[derive(Debug)]
pub struct TcpRun {
    /// Deploy to first command learned, ns, one per deployment.
    pub setup_ns: Vec<u64>,
    /// Sequence numbers of the open phase.
    pub open: std::ops::Range<usize>,
    /// When the open phase's last command was learned (or the drain
    /// deadline), ns since the span epoch.
    pub open_end_ns: u64,
    /// Process CPU time from the open phase's start to `open_end_ns`.
    pub open_cpu_ns: u64,
    /// Generator lateness per open-phase send, µs.
    pub gen_lag_us: Vec<u64>,
    /// Closed-phase commands learned before the phase ended.
    pub closed_learned: usize,
    /// Closed-phase length, ns.
    pub closed_ns: u64,
    /// Learned and proposed commands of the measured deployment (ns).
    pub outcome: Outcome,
    /// Runtime and agent metrics of the measured deployment.
    pub counters: Counters,
    /// Process CPU time over the whole run, ns.
    pub cpu_ns: u64,
    /// Synchronous disk writes (traced runs only).
    pub syncs: u64,
    /// Spans recorded on every thread (traced runs only).
    pub ledger: Ledger,
}

impl TcpRun {
    /// Closed-loop commands learned per wall second.
    pub fn capacity_cps(&self) -> f64 {
        self.closed_learned as f64 * 1e9 / self.closed_ns.max(1) as f64
    }

    /// Open-phase commands learned.
    pub fn open_learned(&self) -> usize {
        self.outcome.latencies(self.open.clone()).len()
    }
}

/// Runs [`SETUPS`] deployments, measuring set-up on each, then drives
/// the last one open-loop for `open` and closed-loop for `closed`.
pub fn run<H: Hist>(seed: u64, open: Duration, closed: Duration, samples: &Samples<H>) -> TcpRun {
    let cfg = Arc::new(deploy());
    cfg.validate().expect("valid workload deployment");
    let cpu_start = sysinfo::cpu_ns();
    let syncs = Arc::new(AtomicU64::new(0));
    let n_open = (OPEN_RATE * open.as_secs_f64()).round() as usize;
    let mut gen = Workload::new(seed, 0, 0.1);
    let mut setup_ns = Vec::new();
    let mut cluster = None;
    for i in 0..SETUPS {
        let t0 = span::now_ns();
        let c = start::<H>(
            &cfg,
            Arc::new(Shared::new(Oracle::new(0, n_open + 1, H::TRACED))),
            samples,
            &syncs,
        );
        c.propose(&mut gen, t0);
        c.oracle.wait_distinct(1, DRAIN);
        let first = c
            .oracle
            .lock()
            .first_wall_ns()
            .expect("first command learned");
        setup_ns.push(first - t0);
        if i + 1 < SETUPS {
            drop(c.stop());
            gen = Workload::new(seed, 0, 0.1);
        } else {
            cluster = Some(c);
        }
    }
    let c = cluster.expect("at least one deployment");

    // Open phase: one command every 1/OPEN_RATE s, timed from its due
    // time, whatever the cluster does.
    let period = (1e9 / OPEN_RATE) as u64;
    let base = c.oracle.lock().proposed();
    let cpu0 = sysinfo::cpu_ns();
    let t_open = span::now_ns() + period;
    let mut gen_lag_us = Vec::with_capacity(n_open);
    for k in 0..n_open {
        let due = t_open + k as u64 * period;
        sleep_until(due);
        c.propose(&mut gen, due);
        gen_lag_us.push((span::now_ns() - due) / 1000);
    }
    c.oracle.wait_distinct(base + n_open, DRAIN);
    let open_end_ns = {
        let o = c.oracle.lock();
        if o.distinct() == base + n_open {
            o.last_new_wall_ns()
        } else {
            span::now_ns()
        }
    };
    let open_cpu_ns = sysinfo::cpu_ns() - cpu0;

    // Closed phase: keep WINDOW commands in flight.
    let before = c.oracle.lock().distinct();
    let t_closed = span::now_ns();
    let t_stop = t_closed + closed.as_nanos() as u64;
    let mut issued = 0usize;
    loop {
        let learned = c.oracle.lock().distinct() - before;
        let now = span::now_ns();
        if now >= t_stop {
            break;
        }
        while issued < learned + WINDOW {
            c.propose(&mut gen, span::now_ns());
            issued += 1;
        }
        let left = Duration::from_nanos(t_stop - now);
        c.oracle.wait_distinct(before + learned + 1, left);
    }
    let closed_ns = span::now_ns() - t_closed;
    let closed_learned = c.oracle.lock().distinct() - before;
    c.oracle.wait_distinct(before + issued, DRAIN);

    let (counters, oracle) = c.stop();
    let mut ledger = span::drain_exited();
    if H::TRACED {
        ledger.merge(&span::drain_thread());
    }
    TcpRun {
        setup_ns,
        open: base..base + n_open,
        open_end_ns,
        open_cpu_ns,
        gen_lag_us,
        closed_learned,
        closed_ns,
        outcome: oracle.finish(),
        counters,
        cpu_ns: sysinfo::cpu_ns() - cpu_start,
        syncs: syncs.load(Ordering::Relaxed),
        ledger,
    }
}
