//! Trace details are rendered lazily: a message is `Debug`-formatted only
//! when a trace entry will actually be stored. The scenario covers every
//! formatting site — deliveries, a drop at delivery time (partition and a
//! crashed receiver), a partition drop and a loss drop at transmission,
//! and timers — and pins the rendered trace.

use mcpaxos_actor::{Actor, Context, ProcessId, SimDuration, SimTime, TimerToken};
use mcpaxos_simnet::{NetConfig, Sim};
use std::cell::Cell;
use std::fmt;

const P0: ProcessId = ProcessId(0);
const P1: ProcessId = ProcessId(1);
const P2: ProcessId = ProcessId(2);

thread_local! {
    static DEBUG_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn debug_calls() -> u64 {
    DEBUG_CALLS.with(Cell::get)
}

/// A message that counts how often it is `Debug`-formatted.
#[derive(Clone, PartialEq, Eq)]
struct Probe(u32);

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        DEBUG_CALLS.with(|c| c.set(c.get() + 1));
        write!(f, "Probe({})", self.0)
    }
}

/// Forwards `Probe(n + 1)` to the next process of the ring P0 → P1 → P2
/// → P0 while `n % 10 < 3`; arms a timer at start and re-arms it once.
struct Ring {
    next: ProcessId,
    rearms: u32,
}

impl Actor for Ring {
    type Msg = Probe;
    fn on_start(&mut self, ctx: &mut dyn Context<Probe>) {
        ctx.set_timer(SimDuration(2), TimerToken(7));
    }
    fn on_message(&mut self, _from: ProcessId, msg: Probe, ctx: &mut dyn Context<Probe>) {
        if msg.0 % 10 < 3 {
            ctx.send(self.next, Probe(msg.0 + 1));
        }
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Probe>) {
        if self.rearms > 0 {
            self.rearms -= 1;
            ctx.set_timer(SimDuration(3), token);
        }
    }
}

/// Runs the scenario with a trace capacity of `cap` (0 = tracing off) and
/// returns the rendered trace plus the `Debug` calls it cost.
fn run(cap: usize) -> (Vec<String>, u64) {
    let before = debug_calls();
    let mut sim = Sim::new(3, NetConfig::lockstep());
    sim.enable_trace(cap);
    for (p, next) in [(P0, P1), (P1, P2), (P2, P0)] {
        sim.add_process(p, move || Box::new(Ring { next, rearms: 1 }));
    }
    sim.partition_at(SimTime(0), vec![P2], vec![P0]);
    // Blocked at delivery: P2 → P0 crosses the partition.
    sim.inject_at(SimTime(1), P0, P2, Probe(100));
    // P0 → P1 → P2, then P2's Probe(3) to P0 is blocked at transmission.
    sim.inject_at(SimTime(2), P0, P1, Probe(0));
    sim.heal_at(SimTime(5));
    // Probe(11) from P0 to P1 is lost.
    sim.set_config_at(SimTime(6), NetConfig::lockstep().with_loss(1.0));
    sim.inject_at(SimTime(7), P0, P2, Probe(10));
    sim.set_config_at(SimTime(8), NetConfig::lockstep());
    // Probe(21) from P0 reaches P1 after P1 crashed: dropped at delivery.
    sim.inject_at(SimTime(9), P0, P2, Probe(20));
    sim.crash_at(SimTime(10), P1);
    sim.run_to_quiescence(1_000);
    let trace = sim.trace().iter().map(|e| e.render()).collect();
    (trace, debug_calls() - before)
}

const GOLDEN: &[&str] = &[
    "1 Drop p0<-p2 Probe(100)",
    "2 Timer p0 TimerToken(7)",
    "2 Timer p1 TimerToken(7)",
    "2 Timer p2 TimerToken(7)",
    "2 Deliver p0<-p1 Probe(0)",
    "3 Deliver p1<-p0 Probe(1)",
    "4 Deliver p2<-p1 Probe(2)",
    "4 Drop p0<-p2 Probe(3)",
    "5 Timer p0 TimerToken(7)",
    "5 Timer p1 TimerToken(7)",
    "5 Timer p2 TimerToken(7)",
    "7 Deliver p0<-p2 Probe(10)",
    "7 Drop p1<-p0 Probe(11)",
    "9 Deliver p0<-p2 Probe(20)",
    "10 Crash p1 ",
    "10 Drop p1<-p0 Probe(21)",
];

/// How many entries of `lines` carry a formatted message.
fn message_entries(lines: &[&str]) -> u64 {
    lines.iter().filter(|l| l.contains("Probe(")).count() as u64
}

#[test]
fn tracing_off_never_formats_messages() {
    let (trace, calls) = run(0);
    assert!(trace.is_empty());
    assert_eq!(calls, 0, "untraced run formatted {calls} messages");
}

#[test]
fn tracing_on_renders_the_same_trace() {
    let (trace, calls) = run(1_000);
    assert_eq!(trace, GOLDEN);
    assert_eq!(
        calls,
        message_entries(GOLDEN),
        "one Debug call per traced message"
    );
}

#[test]
fn full_trace_stops_formatting() {
    let (trace, calls) = run(6);
    assert_eq!(trace, GOLDEN[..6]);
    assert_eq!(
        calls,
        message_entries(&GOLDEN[..6]),
        "only stored entries are formatted"
    );
}
