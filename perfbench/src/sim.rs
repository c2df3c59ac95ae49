//! The simulator workloads: a deterministic [`Sim`] driven open-loop by
//! the benchmark's generator, one deployment per iteration.

use crate::oracle::{Oracle, Outcome, Shared};
use crate::report::Counters;
use crate::span::{self, Ledger};
use crate::sysinfo;
use crate::traced::{Agent, Hist, Role, Samples, TracedStore};
use mcpaxos_actor::{MemStore, ProcessId, SimDuration, SimTime, StableStore, WalStore};
use mcpaxos_core::{
    Acceptor, BatchConfig, Coordinator, DeployConfig, Learner, Msg, Overflow, Policy, Proposer,
    Timing, WireConfig,
};
use mcpaxos_simnet::{NetConfig, Sim};
use mcpaxos_smr::{open_loop_arrivals, Workload};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Pseudo-client id the generator injects proposals from.
pub const CLIENT: ProcessId = ProcessId(9_999);
/// Tick of the first arrival: lets the cluster finish phase 1 first.
const WARMUP: u64 = 100;
/// Ticks simulated per generator step.
const SLICE: u64 = 5;
/// Ticks after the last arrival before unlearned commands count missing.
const DRAIN: u64 = 20_000;

/// One simulator workload.
#[derive(Clone, Debug)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Commands per deployment.
    pub commands: usize,
    /// Open-loop arrival rate, commands per tick.
    pub rate: f64,
    /// Conflict fraction of the KV-put stream.
    pub rho: f64,
    /// Proposers; arrivals go to them round-robin.
    pub proposers: usize,
    /// Network model.
    pub net: NetConfig,
    /// Acceptors on a group-commit `WalStore` instead of `MemStore`.
    pub wal: bool,
    /// Crash the round leader at a third of the arrival span and recover
    /// it at two thirds.
    pub crash: bool,
    /// Batching on (16 commands, 2-tick linger, depth 8, unbounded queue).
    pub batched: bool,
    /// `WireConfig::bounded(64)` instead of full c-struct payloads.
    pub bounded_wire: bool,
    /// Coordinator failure detector timeout in ticks (0: off).
    pub fd_ticks: u64,
}

/// The simulator workloads by name.
pub fn workload(name: &str) -> Option<SimWorkload> {
    let base = SimWorkload {
        name: "",
        commands: 0,
        rate: 0.0,
        rho: 0.1,
        proposers: 1,
        net: NetConfig::lan(),
        wal: false,
        crash: false,
        batched: false,
        bounded_wire: false,
        fd_ticks: 0,
    };
    match name {
        "sim-batched" => Some(SimWorkload {
            name: "sim-batched",
            commands: 1024,
            rate: 4.0,
            wal: true,
            batched: true,
            bounded_wire: true,
            ..base
        }),
        "sim-paper" => Some(SimWorkload {
            name: "sim-paper",
            commands: 64,
            rate: 0.5,
            ..base
        }),
        "sim-faults" => Some(SimWorkload {
            name: "sim-faults",
            commands: 64,
            rate: 0.125,
            rho: 0.9,
            proposers: 3,
            net: NetConfig::wan(),
            crash: true,
            bounded_wire: true,
            fd_ticks: 100,
            ..base
        }),
        _ => None,
    }
}

impl SimWorkload {
    /// The deployment this workload runs.
    pub fn deploy(&self) -> DeployConfig {
        let mut cfg = DeployConfig::simple(self.proposers, 3, 5, 1, Policy::MultiCoordinated);
        if self.batched {
            cfg = cfg.with_batching(BatchConfig {
                batch_size: 16,
                batch_ticks: SimDuration(2),
                pipeline_depth: 8,
                queue_cap: 0,
                overflow: Overflow::Shed,
            });
        }
        if self.bounded_wire {
            cfg = cfg.with_wire(WireConfig::bounded(64));
        }
        if self.wal {
            cfg = cfg.with_group_commit(SimDuration(2));
        }
        if self.fd_ticks > 0 {
            cfg = cfg
                .with_timing(Timing::default().with_failure_detector(SimDuration(self.fd_ticks)));
        }
        cfg
    }
}

/// One deployment driven to completion.
#[derive(Clone, Debug)]
pub struct Iter {
    /// Deploy to first command learned, ns.
    pub setup_ns: u64,
    /// Deploy to the last new command learned, ns.
    pub driven_ns: u64,
    /// Deploy to stop, ns.
    pub wall_ns: u64,
    /// On-CPU time of the simulating thread over the iteration, ns.
    pub cpu_ns: u64,
    /// The oracle's verdict (times in ticks).
    pub outcome: Outcome,
    /// Tick the run stopped at.
    pub end_tick: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Synchronous disk writes (traced runs only).
    pub syncs: u64,
    /// Agent metrics.
    pub counters: Counters,
    /// Spans recorded (traced runs only).
    pub ledger: Ledger,
}

impl Iter {
    /// Multiplies every time of the iteration by `f` (a [`HostClock`]
    /// factor), so it reads as reference-host time.
    ///
    /// [`HostClock`]: crate::calib::HostClock
    pub fn rescale(&mut self, f: f64) {
        for ns in [
            &mut self.setup_ns,
            &mut self.driven_ns,
            &mut self.wall_ns,
            &mut self.cpu_ns,
        ] {
            *ns = (*ns as f64 * f).round() as u64;
        }
    }

    /// Distinct commands learned per wall second, from deploy to the
    /// last new learn.
    pub fn cps(&self) -> f64 {
        self.outcome.distinct() as f64 * 1e9 / self.driven_ns.max(1) as f64
    }
}

fn build<H: Hist>(
    w: &SimWorkload,
    seed: u64,
    cfg: &Arc<DeployConfig>,
    oracle: &Arc<Shared>,
    samples: &Samples<H>,
    syncs: &Arc<AtomicU64>,
) -> Sim<Msg<H>> {
    let mut sim: Sim<Msg<H>> = Sim::new(seed, w.net.clone());
    let acceptors = cfg.roles.acceptors().to_vec();
    let (wal, syncs) = (w.wal, syncs.clone());
    sim.set_storage_factory(move |p| {
        let store: Box<dyn StableStore> = if wal && acceptors.contains(&p) {
            wrap_store::<H, _>(WalStore::new(), &syncs)
        } else {
            wrap_store::<H, _>(MemStore::new(), &syncs)
        };
        store
    });
    for &p in cfg.roles.proposers() {
        let (cfg, s) = (cfg.clone(), samples.clone());
        sim.add_process(p, move || {
            Box::new(
                Agent::new(Proposer::<H>::new(cfg.clone()), Role::Proposer).with_samples(s.clone()),
            )
        });
    }
    for &p in cfg.roles.coordinators() {
        let (cfg, s) = (cfg.clone(), samples.clone());
        sim.add_process(p, move || {
            Box::new(
                Agent::new(Coordinator::<H>::new(cfg.clone(), p), Role::Coordinator)
                    .with_samples(s.clone()),
            )
        });
    }
    for &p in cfg.roles.acceptors() {
        let (cfg, s) = (cfg.clone(), samples.clone());
        sim.add_process(p, move || {
            Box::new(
                Agent::new(Acceptor::<H>::new(cfg.clone()), Role::Acceptor).with_samples(s.clone()),
            )
        });
    }
    for &p in cfg.roles.learners() {
        let (cfg, s, o) = (cfg.clone(), samples.clone(), oracle.clone());
        sim.add_process(p, move || {
            let o = o.clone();
            Box::new(
                Agent::new(Learner::<H>::new(cfg.clone()), Role::Learner)
                    .with_samples(s.clone())
                    .with_observer(Box::new(move |l: &Learner<H>, now: SimTime| {
                        o.observe(l.learned().history(), now.ticks());
                    })),
            )
        });
    }
    sim
}

fn wrap_store<H: Hist, S: StableStore + 'static>(
    s: S,
    syncs: &Arc<AtomicU64>,
) -> Box<dyn StableStore> {
    if H::TRACED {
        Box::new(TracedStore::new(s, syncs.clone()))
    } else {
        Box::new(s)
    }
}

/// The coordinator owning the highest round any live coordinator is in.
fn round_leader<H: Hist>(sim: &Sim<Msg<H>>, cfg: &DeployConfig) -> ProcessId {
    cfg.roles
        .coordinators()
        .iter()
        .filter(|&&c| sim.is_up(c))
        .filter_map(|&c| sim.actor::<Agent<H, Coordinator<H>>>(c))
        .map(|a| a.inner().crnd())
        .max()
        .map(|r| cfg.schedule.owner_id(r))
        .unwrap_or(cfg.roles.coordinators()[0])
}

/// Deploys `w` at `seed` and drives it until every command is learned or
/// the drain deadline passes.
pub fn run_iter<H: Hist>(w: &SimWorkload, seed: u64, samples: &Samples<H>) -> Iter {
    let cpu0 = sysinfo::thread_cpu_ns();
    let t0 = span::now_ns();
    let cfg = Arc::new(w.deploy());
    cfg.validate().expect("valid workload deployment");
    let oracle = Arc::new(Shared::new(Oracle::new(0, w.commands, H::TRACED)));
    let syncs = Arc::new(AtomicU64::new(0));
    let mut sim = {
        let _g = H::TRACED.then(|| span::enter(span::BENCH));
        build::<H>(w, seed, &cfg, &oracle, samples, &syncs)
    };

    let arrivals = open_loop_arrivals(w.rate, w.commands);
    let last_due = WARMUP + arrivals.last().copied().unwrap_or(0);
    let span_ticks = last_due - WARMUP;
    let (crash_at, recover_at) = (WARMUP + span_ticks / 3, WARMUP + 2 * span_ticks / 3);
    let mut crashed: Option<ProcessId> = None;
    let mut gen = Workload::new(seed, 0, w.rho);
    let proposers = cfg.roles.proposers().to_vec();
    let mut next = 0usize;
    let mut t = 0u64;
    loop {
        {
            let _g = H::TRACED.then(|| span::enter(span::BENCH));
            let mut o = oracle.lock();
            while next < w.commands && WARMUP + arrivals[next] < t + SLICE {
                let due = WARMUP + arrivals[next];
                o.propose(due);
                let cmd = gen.next_kv_put();
                let to = proposers[next % proposers.len()];
                sim.inject_at(
                    SimTime(due),
                    to,
                    CLIENT,
                    Msg::Propose {
                        cmd,
                        acc_quorum: None,
                    },
                );
                next += 1;
            }
            if w.crash && crashed.is_none() && t + SLICE > crash_at {
                let leader = round_leader(&sim, &cfg);
                sim.crash_at(SimTime(crash_at.max(t)), leader);
                sim.recover_at(SimTime(recover_at), leader);
                crashed = Some(leader);
            }
        }
        {
            let _g = H::TRACED.then(|| span::enter(span::SIM_RUN));
            sim.run_until(SimTime(t + SLICE));
        }
        t += SLICE;
        let done = oracle.lock().distinct() == w.commands;
        if done || t > last_due + DRAIN {
            break;
        }
    }
    let t_end = span::now_ns();
    let cpu1 = sysinfo::thread_cpu_ns();
    let ledger = if H::TRACED {
        span::drain_thread()
    } else {
        Ledger::default()
    };
    let mut counters = Counters::default();
    counters.add(sim.metrics());
    let events = sim.events_processed();
    drop(sim);
    let oracle = oracle.take();
    let first = oracle.first_wall_ns().unwrap_or(t_end);
    let last = oracle.last_new_wall_ns().max(first);
    Iter {
        setup_ns: first - t0,
        driven_ns: last - t0,
        wall_ns: t_end - t0,
        cpu_ns: cpu1 - cpu0,
        outcome: oracle.finish(),
        end_tick: t,
        events,
        syncs: syncs.load(std::sync::atomic::Ordering::Relaxed),
        counters,
        ledger,
    }
}
