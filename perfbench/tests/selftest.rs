//! Self-tests of the benchmark's own machinery: the span ledger, the
//! exactly-once oracle, the stall metric, the host clock, and the claim
//! that a traced run is the same program as an untraced one.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mcpaxos_actor::wire::{from_bytes, to_bytes};
use mcpaxos_cstruct::{CStruct, CommandHistory};
use mcpaxos_perfbench::calib::{self, HostClock, REF_PASS_NS};
use mcpaxos_perfbench::oracle::{stall, Oracle, Outcome};
use mcpaxos_perfbench::sim::{self, Iter};
use mcpaxos_perfbench::span::{self, Ledger, Span, ROOT};
use mcpaxos_perfbench::traced::{Samples, TracedHistory};
use mcpaxos_simnet::LatencyStats;
use mcpaxos_smr::{CmdId, KvCmd, KvOp};
use std::sync::{Arc, Mutex};

fn cmd(seq: u32) -> KvCmd {
    KvCmd {
        id: CmdId { client: 0, seq },
        op: KvOp::Put(1 + seq as u16, u64::from(seq)),
    }
}

fn sp(name: u16, parent: u32, start: u64, end: u64) -> Span {
    Span {
        name,
        parent,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_direct_children_of_nested_spans() {
    // a[0,100] ⊃ b[10,40] ⊃ c[20,30]; a ⊃ d[50,60], with b and d of the
    // same name: self(a) = 100 − 30 − 10, self(b-name) = (30 − 10) + 10.
    let (a, b, c) = (span::SIM_RUN, span::core_name(0, 0), span::cstruct_name(0));
    let spans = [
        sp(a, ROOT, 0, 100),
        sp(b, 0, 10, 40),
        sp(c, 1, 20, 30),
        sp(b, 0, 50, 60),
    ];
    let mut l = Ledger::default();
    l.fold(&spans);
    assert_eq!(l.get(a).self_ns, 60);
    assert_eq!(l.get(a).total_ns, 100);
    assert_eq!(l.get(b).self_ns, 30);
    assert_eq!(l.get(b).total_ns, 40);
    assert_eq!(l.get(b).calls, 2);
    assert_eq!(l.get(c).self_ns, 10);
    assert_eq!(l.self_ns_total(), 100, "self times sum to the root's span");
}

#[test]
fn recorder_links_nested_guards_to_their_parents() {
    drop(span::drain_thread());
    {
        let _outer = span::enter(span::SIM_RUN);
        for _ in 0..3 {
            let _inner = span::enter(span::STORE_WRITE);
            std::hint::black_box((0..1000).sum::<u64>());
        }
    }
    let l = span::drain_thread();
    let (outer, inner) = (l.get(span::SIM_RUN), l.get(span::STORE_WRITE));
    assert_eq!((outer.calls, inner.calls), (1, 3));
    assert_eq!(
        inner.self_ns as u64, inner.total_ns,
        "leaves own all their time"
    );
    assert_eq!(outer.self_ns, outer.total_ns as i64 - inner.total_ns as i64);
    assert_eq!(l.self_ns_total(), outer.total_ns as i64);
}

#[test]
fn percentiles_are_simnet_nearest_rank() {
    // Latencies 1..=100 ticks: nearest-rank p50 is the 50th value and
    // p99 the 99th; an interpolating percentile would give 50.5 / 99.01.
    let outcome = Outcome {
        due: vec![0; 100],
        first: (1..=100).collect(),
        count: vec![1; 100],
        unknown: 0,
        order: Vec::new(),
    };
    let lat = outcome.latencies(0..100);
    let s = LatencyStats::of(&lat).expect("non-empty");
    assert_eq!((s.p50, s.p99, s.max), (50, 99, 100));
}

#[test]
fn failed_counts_duplicate_missing_and_shed_commands() {
    let mut o = Oracle::new(0, 5, false);
    for t in 0..5 {
        o.propose(t);
    }
    let mut h: CommandHistory<KvCmd> = CommandHistory::bottom();
    for s in 0..3 {
        h.append(cmd(s));
    }
    o.observe(&h, 10);
    // Compaction truncates 0..3; a resent command 1 is then appended
    // again, as a proposer that missed its learned notification does.
    assert!(h.truncate_stable(&[cmd(0), cmd(1), cmd(2)]));
    h.append(cmd(1));
    h.append(cmd(3));
    o.observe(&h, 20);
    let out = o.finish();
    assert_eq!(out.count, vec![1, 2, 1, 1, 0]);
    assert_eq!((out.dup_cmds(), out.missing(), out.distinct()), (1, 1, 4));
    assert_eq!(out.failed(0), 2);
    assert_eq!(out.failed(2), 4, "shed commands count as failed");
    assert_eq!(out.failed(100), 5, "never more failures than attempts");
    assert_eq!(
        out.latencies(0..5),
        vec![10, 9, 8, 17],
        "from the first learn"
    );
}

#[test]
fn oracle_counts_ids_never_proposed() {
    let mut o = Oracle::new(0, 1, false);
    o.propose(0);
    let mut h: CommandHistory<KvCmd> = CommandHistory::bottom();
    h.append(cmd(0));
    h.append(cmd(7));
    o.observe(&h, 3);
    assert_eq!(o.finish().unknown, 1);
}

#[test]
fn stall_on_a_hand_built_timeline() {
    const NEVER: u64 = u64::MAX;
    // Two arrivals at 0: learns at 5 and 20 (gaps 5 and 15). An arrival
    // at 10 is learned at 21 (gap 1). The system is then empty until the
    // arrival at 50, never learned: it stalls until the end, 100.
    assert_eq!(stall(&[0, 0, 10, 50], &[5, 20, 21, NEVER], 100), 50);
    assert_eq!(stall(&[0, 0, 10, 50], &[5, 20, 21, 60], 100), 15);
    // Idle time with nothing outstanding is not a stall.
    assert_eq!(stall(&[0, 30], &[10, 35], 1000), 10);
    assert_eq!(stall(&[], &[], 10), 0);
}

#[test]
fn traced_history_debug_and_wire_are_byte_identical() {
    let mut h: CommandHistory<KvCmd> = CommandHistory::bottom();
    for s in 0..10 {
        h.append(cmd(s));
    }
    let t = TracedHistory(h.clone());
    assert_eq!(format!("{t:?}"), format!("{h:?}"));
    assert_eq!(to_bytes(&t), to_bytes(&h));
    let back: TracedHistory = from_bytes(&to_bytes(&h)).expect("decodes");
    assert_eq!(back.0, h);
    assert_eq!(t.suffix_from(4), h.suffix_from(4));
    assert_eq!(t.total_len(), h.total_len());
    drop(span::drain_thread());
}

#[test]
fn host_clock_rescales_to_reference_time() {
    // The kernel is deterministic: every pass computes the same thing.
    assert_eq!(calib::pass(), calib::pass());
    let mut clock = HostClock::new();
    let (v, f) = clock.measure(|| 7);
    assert_eq!(v, 7);
    assert_eq!(clock.passes().len(), 2);
    let host = (clock.passes()[0] + clock.passes()[1]) as f64 / 2.0;
    assert!((f - REF_PASS_NS / host).abs() < 1e-9 * f);

    // On a host half as fast as the reference, times halve and
    // throughput doubles.
    let w = sim::workload("sim-faults").expect("known workload");
    let mut it = sim::run_iter::<CommandHistory<KvCmd>>(&w, 1, &samples());
    let (driven, cpu, cps) = (it.driven_ns, it.cpu_ns, it.cps());
    it.rescale(0.5);
    assert_eq!(it.driven_ns, (driven as f64 * 0.5).round() as u64);
    assert_eq!(it.cpu_ns, (cpu as f64 * 0.5).round() as u64);
    assert!((it.cps() / cps - 2.0).abs() < 1e-6);
}

fn samples<H: mcpaxos_perfbench::traced::Hist>() -> Samples<H> {
    Arc::new(Mutex::new(Vec::new()))
}

/// Each simulator workload, shortened, run untraced and traced at one
/// seed: the traced run must make exactly the same decisions, and its
/// layers' self times must account for its wall time.
#[test]
fn traced_run_is_the_same_program() {
    for (name, n) in [("sim-batched", 512), ("sim-paper", 32), ("sim-faults", 64)] {
        let mut w = sim::workload(name).expect("workload exists");
        w.commands = n;
        let plain: Iter = sim::run_iter::<CommandHistory<KvCmd>>(&w, 42, &samples());
        let traced: Iter = sim::run_iter::<TracedHistory>(&w, 42, &samples());
        assert_eq!(plain.events, traced.events, "{name}: events");
        assert_eq!(
            plain.outcome.first, traced.outcome.first,
            "{name}: learn ticks"
        );
        assert_eq!(
            plain.outcome.order, traced.outcome.order,
            "{name}: learned order"
        );
        assert_eq!(plain.outcome.distinct(), n, "{name}: all learned");
        let covered = traced.ledger.self_ns_total() as f64 / traced.wall_ns as f64;
        assert!(
            (0.9..=1.0).contains(&covered),
            "{name}: layer self times cover {covered:.3} of the wall time"
        );
        assert_eq!(
            plain.ledger,
            Ledger::default(),
            "{name}: untraced runs record nothing"
        );
    }
}
