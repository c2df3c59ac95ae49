//! One benchmark run: a workload at a seed for a time budget, reduced to
//! the result line's fields.

use crate::calib::HostClock;
use crate::report::{self, codec_ns, median, Counters, Metric, MetricList, Profile};
use crate::sim::{self, Iter};
use crate::span::Ledger;
use crate::sysinfo;
use crate::tcp::{self, TcpRun};
use crate::traced::{Samples, TracedHistory};
use mcpaxos_core::agents::metrics::BACKPRESSURE_SHEDS;
use mcpaxos_cstruct::CommandHistory;
use mcpaxos_simnet::LatencyStats;
use mcpaxos_smr::KvCmd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Plain = CommandHistory<KvCmd>;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim-batched", "sim-paper", "sim-faults", "tcp-loopback"];

/// Fewest deployments a simulator run measures, whatever its budget.
const MIN_ITERS: usize = 3;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every check of the program's outputs passed.
    pub correct: bool,
    /// Commands proposed.
    pub attempted: u64,
    /// Commands never learned, learned more than once, or shed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Runs `workload` at `seed` for about `seconds`, traced or not.
///
/// # Errors
///
/// Returns an error naming the workload if it is unknown.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    if workload == "tcp-loopback" {
        return Ok(if trace {
            tcp_traced(seed, budget)
        } else {
            tcp_plain(seed, budget)
        });
    }
    let w = sim::workload(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(if trace {
        sim_traced(&w, seed, budget)
    } else {
        sim_plain(&w, seed, budget)
    })
}

/// The seed of the `i`-th deployment of a run (SplitMix64 of both).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn no_samples<H: crate::traced::Hist>() -> Samples<H> {
    Arc::new(Mutex::new(Vec::new()))
}

fn sheds(c: &Counters) -> u64 {
    c.sum(BACKPRESSURE_SHEDS) as u64
}

/// Times a simulator deployment is replayed in an untraced run. Every
/// replay of a seed makes the same decisions; its fastest replay is the
/// one least slowed by whatever else the host runs.
const PASSES: usize = 2;

/// Runs one deployment between two passes of the host kernel and
/// rescales its times to reference-host time.
fn calibrated_iter<H: crate::traced::Hist>(
    clock: &mut HostClock,
    w: &sim::SimWorkload,
    seed: u64,
    samples: &Samples<H>,
) -> Iter {
    let (mut it, f) = clock.measure(|| sim::run_iter::<H>(w, seed, samples));
    it.rescale(f);
    it
}

fn sim_plain(w: &sim::SimWorkload, seed: u64, budget: Duration) -> Outcome {
    let t0 = Instant::now();
    let samples = no_samples::<Plain>();
    let mut clock = HostClock::new();
    let mut iters: Vec<Iter> = Vec::new();
    while iters.len() < MIN_ITERS || t0.elapsed() < budget / PASSES as u32 {
        let s = sub_seed(seed, iters.len() as u64);
        iters.push(calibrated_iter(&mut clock, w, s, &samples));
    }
    let mut correct = iters.iter().all(|it| it.outcome.unknown == 0);
    for _ in 1..PASSES {
        for (i, best) in iters.iter_mut().enumerate() {
            let again = calibrated_iter(&mut clock, w, sub_seed(seed, i as u64), &samples);
            correct &= same_run(best, &again);
            best.setup_ns = best.setup_ns.min(again.setup_ns);
            best.driven_ns = best.driven_ns.min(again.driven_ns);
            best.cpu_ns = best.cpu_ns.min(again.cpu_ns);
        }
    }
    let all = 0..w.commands;
    let lat: Vec<u64> = iters
        .iter()
        .flat_map(|it| it.outcome.latencies(all.clone()))
        .collect();
    let lat = LatencyStats::of(&lat).expect("at least one command learned");
    let cps: Vec<f64> = iters.iter().map(Iter::cps).collect();
    let setups: Vec<f64> = iters.iter().map(|it| it.setup_ns as f64 / 1e9).collect();
    // Thread CPU time advances in scheduler ticks, coarse against one
    // short deployment, so it is summed over the deployments.
    let cpu_ns: u64 = iters.iter().map(|it| it.cpu_ns).sum();
    let learned: usize = iters.iter().map(|it| it.outcome.distinct()).sum();
    let attempted: u64 = iters.iter().map(|it| it.outcome.proposed() as u64).sum();
    let failed: u64 = iters
        .iter()
        .map(|it| it.outcome.failed(sheds(&it.counters)))
        .sum();
    let mut m = MetricList::default();
    m.put("wall_cps", median(&cps), "cmd/s");
    m.put("p50_ticks", lat.p50 as f64, "ticks");
    m.put(
        "cpu_us_per_cmd",
        cpu_ns as f64 / learned.max(1) as f64 / 1e3,
        "us",
    );
    m.put("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", sysinfo::peak_rss_mb(), "MB");
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m.finish(),
    }
}

/// Whether two runs of one deployment made the same decisions: same
/// events, same learn ticks, same learned order.
fn same_run(a: &Iter, b: &Iter) -> bool {
    a.events == b.events && a.outcome.first == b.outcome.first && a.outcome.order == b.outcome.order
}

fn sim_traced(w: &sim::SimWorkload, seed: u64, budget: Duration) -> Outcome {
    let t0 = Instant::now();
    let plain_samples = no_samples::<Plain>();
    let samples = no_samples::<TracedHistory>();
    let (mut plain, mut traced): (Vec<Iter>, Vec<Iter>) = (Vec::new(), Vec::new());
    let mut clock = HostClock::new();
    let mut correct = true;
    while traced.len() < MIN_ITERS || t0.elapsed() < budget {
        let s = sub_seed(seed, traced.len() as u64);
        // Per-layer times stay host times, as the spans are: the clock
        // only reports the host's speed next to them.
        let (u, _) = clock.measure(|| sim::run_iter::<Plain>(w, s, &plain_samples));
        let (t, _) = clock.measure(|| sim::run_iter::<TracedHistory>(w, s, &samples));
        correct &= same_run(&u, &t) && t.outcome.unknown == 0;
        plain.push(u);
        traced.push(t);
    }
    let codec = codec_ns(&samples);
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    for it in &traced {
        ledger.merge(&it.ledger);
        counters.merge(&it.counters);
    }
    let sum = |f: &dyn Fn(&Iter) -> f64| traced.iter().map(f).sum::<f64>();
    let attempted = sum(&|it| it.outcome.proposed() as f64);
    let failed = sum(&|it| it.outcome.failed(sheds(&it.counters)) as f64);
    let cps = |v: &[Iter]| median(&v.iter().map(Iter::cps).collect::<Vec<_>>());
    let all = 0..w.commands;
    let lat: Vec<u64> = traced
        .iter()
        .flat_map(|it| it.outcome.latencies(all.clone()))
        .collect();
    let stalls: Vec<f64> = traced
        .iter()
        .map(|it| it.outcome.stall(all.clone(), it.end_tick) as f64)
        .collect();
    let profile = Profile {
        ledger,
        cmds: sum(&|it| it.outcome.distinct() as f64),
        deployments: traced.len() as f64,
        wall_ns: sum(&|it| it.wall_ns as f64),
        cpu_ns: sum(&|it| it.cpu_ns as f64),
        events: sum(&|it| it.events as f64),
        counters,
        syncs: sum(&|it| it.syncs as f64),
        codec_ns: codec,
        dup_cmds: sum(&|it| it.outcome.dup_cmds() as f64),
        missing_cmds: sum(&|it| it.outcome.missing() as f64),
        failed_frac: failed / attempted,
        gen_lag_ms: (0.0, 0.0),
        trace_overhead: cps(&plain) / cps(&traced) - 1.0,
        p99_ticks: LatencyStats::of(&lat).map_or(0.0, |l| l.p99 as f64),
        stall_ticks: median(&stalls),
        host_pass_ms: host_pass_ms(&clock),
        tcp: false,
    };
    Outcome {
        correct,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: report::per_layer(&profile),
    }
}

/// Median pass time of the host kernel over a run, ms.
fn host_pass_ms(clock: &HostClock) -> f64 {
    let ms: Vec<f64> = clock.passes().iter().map(|&ns| ns as f64 / 1e6).collect();
    median(&ms)
}

/// Open-phase latency percentiles of a TCP run, µs.
fn tcp_latency(r: &TcpRun) -> LatencyStats {
    let us: Vec<u64> = r
        .outcome
        .latencies(r.open.clone())
        .iter()
        .map(|ns| ns / 1000)
        .collect();
    LatencyStats::of(&us).expect("at least one open-phase command learned")
}

fn tcp_failed(r: &TcpRun) -> u64 {
    r.outcome.failed(sheds(&r.counters))
}

fn tcp_plain(seed: u64, budget: Duration) -> Outcome {
    let half = budget / 2;
    let r = tcp::run::<Plain>(seed, half, half, &no_samples());
    let lat = tcp_latency(&r);
    let setups: Vec<f64> = r.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let attempted = r.outcome.proposed() as u64;
    let failed = tcp_failed(&r);
    let mut m = MetricList::default();
    m.put("wall_cps", r.capacity_cps(), "cmd/s");
    m.put("p50_ticks", lat.p50 as f64 / 1e3, "ticks");
    m.put(
        "cpu_us_per_cmd",
        r.open_cpu_ns as f64 / r.open_learned().max(1) as f64 / 1e3,
        "us",
    );
    m.put("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", sysinfo::peak_rss_mb(), "MB");
    Outcome {
        correct: r.outcome.unknown == 0,
        attempted,
        failed,
        metrics: m.finish(),
    }
}

fn tcp_traced(seed: u64, budget: Duration) -> Outcome {
    let quarter = budget / 4;
    let mut clock = HostClock::new();
    let (u, _) = clock.measure(|| tcp::run::<Plain>(seed, quarter, quarter, &no_samples()));
    let samples = no_samples::<TracedHistory>();
    let (t, _) = clock.measure(|| tcp::run::<TracedHistory>(seed, quarter, quarter, &samples));
    let codec = codec_ns(&samples);
    let lag: Vec<u64> = u.gen_lag_us.clone();
    let lag = LatencyStats::of(&lag).expect("open phase sent commands");
    let attempted = t.outcome.proposed() as u64;
    let failed = tcp_failed(&t);
    let profile = Profile {
        cmds: (t.outcome.distinct() + tcp::SETUPS - 1) as f64,
        deployments: 1.0,
        wall_ns: 0.0,
        cpu_ns: t.cpu_ns as f64,
        events: 0.0,
        counters: t.counters.clone(),
        syncs: t.syncs as f64,
        codec_ns: codec,
        dup_cmds: t.outcome.dup_cmds() as f64,
        missing_cmds: t.outcome.missing() as f64,
        failed_frac: failed as f64 / attempted as f64,
        gen_lag_ms: (lag.p99 as f64 / 1e3, lag.max as f64 / 1e3),
        trace_overhead: u.capacity_cps() / t.capacity_cps() - 1.0,
        p99_ticks: tcp_latency(&u).p99 as f64 / 1e3,
        stall_ticks: u.outcome.stall(u.open.clone(), u.open_end_ns) as f64 / 1e6,
        host_pass_ms: host_pass_ms(&clock),
        tcp: true,
        ledger: t.ledger,
    };
    Outcome {
        correct: u.outcome.unknown == 0 && t.outcome.unknown == 0,
        attempted,
        failed,
        metrics: report::per_layer(&profile),
    }
}
