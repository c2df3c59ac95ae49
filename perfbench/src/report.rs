//! Turning raw measurements into named metrics, and printing them.

use crate::span::{self, Layer, Ledger, OPS, ROLES, TAGS};
use crate::traced::{Hist, Samples};
use mcpaxos_actor::wire::Wire;
use mcpaxos_actor::Metrics;
use mcpaxos_core::agents::metrics as m;
use mcpaxos_core::Msg;
use mcpaxos_runtime::{
    METRIC_SEND_FAILURES, METRIC_TCP_FRAMES, METRIC_TCP_FRAME_BYTES, METRIC_TCP_QUEUE_DEPTH,
    METRIC_TCP_QUEUE_DROPS,
};
use std::collections::BTreeMap;
use std::hint::black_box;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a metric list.
#[derive(Default)]
pub struct MetricList {
    out: Vec<Metric>,
}

impl MetricList {
    /// Adds `name = value unit`. Non-finite values (an empty ratio) are
    /// reported as 0.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.out.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics added so far.
    pub fn finish(self) -> Vec<Metric> {
        self.out
    }
}

/// Agent and runtime counters summed over processes (and deployments):
/// name → (sum of values, number of observations).
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<&'static str, (i64, u64)>);

impl Counters {
    /// Adds every metric of `metrics`.
    pub fn add(&mut self, metrics: &Metrics) {
        for name in metrics.names() {
            let count: u64 = metrics
                .per_process(name)
                .iter()
                .map(|(p, _)| metrics.count_of(*p, name))
                .sum();
            let e = self.0.entry(name).or_default();
            e.0 += metrics.total(name);
            e.1 += count;
        }
    }

    /// Adds every counter of `other`.
    pub fn merge(&mut self, other: &Counters) {
        for (name, (s, c)) in &other.0 {
            let e = self.0.entry(name).or_default();
            e.0 += s;
            e.1 += c;
        }
    }

    /// Sum of `name` (0 if never recorded).
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map(|e| e.0 as f64).unwrap_or(0.0)
    }

    /// Observations of `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map(|e| e.1 as f64).unwrap_or(0.0)
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean encode and decode time per message over `samples`, ns. Spans
/// the codec opens are discarded.
pub fn codec_ns<H: Hist>(samples: &Samples<H>) -> (f64, f64) {
    let msgs = samples.lock().expect("sample buffer poisoned");
    if msgs.is_empty() {
        return (0.0, 0.0);
    }
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(msgs.len());
    let t0 = span::now_ns();
    for msg in msgs.iter() {
        let mut b = Vec::new();
        black_box(msg).encode(&mut b);
        bufs.push(b);
    }
    let t1 = span::now_ns();
    for b in &bufs {
        let decoded =
            Msg::<H>::decode(&mut black_box(b.as_slice())).expect("sampled message decodes");
        black_box(decoded);
    }
    let t2 = span::now_ns();
    drop(span::drain_thread());
    let n = msgs.len() as f64;
    ((t1 - t0) as f64 / n, (t2 - t1) as f64 / n)
}

/// What a traced run measured, from outside every layer.
pub struct Profile {
    /// Spans of the traced deployments.
    pub ledger: Ledger,
    /// Distinct commands learned.
    pub cmds: f64,
    /// Deployments traced.
    pub deployments: f64,
    /// Wall time of the traced deployments, ns (single-threaded runs).
    pub wall_ns: f64,
    /// Process CPU time of the traced deployments, ns.
    pub cpu_ns: f64,
    /// Simulator events processed (0 over TCP).
    pub events: f64,
    /// Agent and runtime counters.
    pub counters: Counters,
    /// Synchronous disk writes.
    pub syncs: f64,
    /// Mean encode and decode time per sampled message, ns.
    pub codec_ns: (f64, f64),
    /// Commands learned more than once, and never learned.
    pub dup_cmds: f64,
    /// Proposed commands never learned.
    pub missing_cmds: f64,
    /// Failed over attempted commands.
    pub failed_frac: f64,
    /// Generator lateness p99 and max, ms.
    pub gen_lag_ms: (f64, f64),
    /// Untraced over traced throughput, minus one.
    pub trace_overhead: f64,
    /// Nearest-rank p99 commit latency, ticks.
    pub p99_ticks: f64,
    /// Longest time without service, ticks.
    pub stall_ticks: f64,
    /// Median pass time of the host kernel over the run, ms.
    pub host_pass_ms: f64,
    /// Whether the run used the live runtime.
    pub tcp: bool,
}

const TAG_TIMER: usize = 11;
const TAG_OTHER: usize = 12;

/// The per-layer metrics, named as in `BENCHMARK.json`.
pub fn per_layer(p: &Profile) -> Vec<Metric> {
    let l = &p.ledger;
    let c = &p.counters;
    let per_cmd = |x: f64| x / p.cmds;
    let per_dep = |x: f64| x / p.deployments;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = MetricList::default();

    let sim_self = l.get(span::SIM_RUN).self_ns as f64;
    out.put("simnet.events_per_cmd", per_cmd(p.events), "count");
    out.put("simnet.self_ns_per_event", ratio(sim_self, p.events), "ns");
    out.put("simnet.self_share", ratio(sim_self, p.wall_ns), "ratio");

    let mut core_busy = 0.0;
    for (r, role) in ROLES.iter().enumerate() {
        let stats: Vec<span::Stat> = (0..TAGS.len())
            .map(|t| l.get(span::core_name(r, t)))
            .collect();
        let calls: u64 = stats.iter().map(|s| s.calls).sum();
        let busy: u64 = stats.iter().map(|s| s.total_ns).sum();
        let own: i64 = stats.iter().map(|s| s.self_ns).sum();
        core_busy += busy as f64;
        out.put(
            format!("core.{role}.calls_per_cmd"),
            per_cmd(calls as f64),
            "count",
        );
        out.put(
            format!("core.{role}.busy_us_per_cmd"),
            per_cmd(busy as f64) / 1e3,
            "us",
        );
        out.put(
            format!("core.{role}.self_us_per_cmd"),
            per_cmd(own as f64) / 1e3,
            "us",
        );
    }
    let mut msgs = 0u64;
    for (t, tag) in TAGS.iter().enumerate() {
        let (calls, total) = (0..ROLES.len())
            .map(|r| l.get(span::core_name(r, t)))
            .fold((0u64, 0u64), |(c, n), s| (c + s.calls, n + s.total_ns));
        if t != TAG_TIMER && t != TAG_OTHER {
            msgs += calls;
        }
        out.put(
            format!("core.tag.{tag}.ns_per_call"),
            ratio(total as f64, calls as f64),
            "ns",
        );
    }
    let (batches, batched) = (c.sum(m::BATCHES), c.sum(m::BATCHED_CMDS));
    let cmds_per_wave = if batches > 0.0 {
        batched / batches
    } else {
        ratio(p.cmds, c.sum(m::PHASE2A))
    };
    out.put("core.msgs_per_cmd", per_cmd(msgs as f64), "count");
    out.put("core.cmds_per_wave", cmds_per_wave, "count");
    out.put(
        "core.full_resyncs_per_cmd",
        per_cmd(c.sum(m::FULL_RESYNCS)),
        "count",
    );
    out.put(
        "core.collisions",
        per_dep(c.sum(m::COLLISION_MC) + c.sum(m::COLLISION_FAST)),
        "count",
    );
    out.put(
        "core.rounds_started",
        per_dep(c.sum(m::ROUNDS_STARTED)),
        "count",
    );
    out.put("core.resends", per_dep(c.sum(m::RESENDS)), "count");
    out.put("core.failovers", per_dep(c.sum(m::FAILOVERS)), "count");
    out.put("core.sheds", per_dep(c.sum(m::BACKPRESSURE_SHEDS)), "count");

    for (o, op) in OPS.iter().enumerate() {
        let s = l.get(span::cstruct_name(o));
        out.put(
            format!("cstruct.{op}.calls_per_cmd"),
            per_cmd(s.calls as f64),
            "count",
        );
        out.put(
            format!("cstruct.{op}.ns_per_call"),
            ratio(s.total_ns as f64, s.calls as f64),
            "ns",
        );
    }
    let cstruct_self = l.layer_self_ns(Layer::Cstruct) as f64;
    let cstruct_base = if p.tcp { p.cpu_ns } else { p.wall_ns };
    out.put("cstruct.share", ratio(cstruct_self, cstruct_base), "ratio");

    let (w, f) = (l.get(span::STORE_WRITE), l.get(span::STORE_FLUSH));
    out.put(
        "actor.storage.writes_per_cmd",
        per_cmd(w.calls as f64),
        "count",
    );
    out.put("actor.storage.flushes_per_cmd", per_cmd(p.syncs), "count");
    out.put(
        "actor.storage.records_per_flush",
        ratio(w.calls as f64, p.syncs),
        "count",
    );
    out.put(
        "actor.storage.write_ns",
        ratio(w.total_ns as f64, w.calls as f64),
        "ns",
    );
    out.put(
        "actor.storage.flush_ns",
        ratio(f.total_ns as f64, f.calls as f64),
        "ns",
    );

    out.put(
        "actor.wire.bytes_per_cmd",
        per_cmd(c.sum(m::BYTES_SENT)),
        "bytes",
    );
    out.put("actor.wire.encode_ns_per_msg", p.codec_ns.0, "ns");
    out.put("actor.wire.decode_ns_per_msg", p.codec_ns.1, "ns");

    let tcp = |x: f64| if p.tcp { x } else { 0.0 };
    out.put(
        "runtime.frames_per_cmd",
        per_cmd(c.sum(METRIC_TCP_FRAMES)),
        "count",
    );
    out.put(
        "runtime.frame_bytes_per_cmd",
        per_cmd(c.sum(METRIC_TCP_FRAME_BYTES)),
        "bytes",
    );
    out.put(
        "runtime.queue_depth_mean",
        ratio(
            c.sum(METRIC_TCP_QUEUE_DEPTH),
            c.count(METRIC_TCP_QUEUE_DEPTH),
        ),
        "count",
    );
    out.put(
        "runtime.queue_drops",
        c.sum(METRIC_TCP_QUEUE_DROPS),
        "count",
    );
    out.put(
        "runtime.send_failures",
        c.sum(METRIC_SEND_FAILURES),
        "count",
    );
    out.put(
        "runtime.handler_cpu_share",
        tcp(ratio(core_busy, p.cpu_ns)),
        "ratio",
    );
    out.put(
        "runtime.other_cpu_us_per_cmd",
        tcp(per_cmd((p.cpu_ns - core_busy).max(0.0)) / 1e3),
        "us",
    );

    let apply = l.get(span::SMR_APPLY);
    out.put(
        "smr.apply_ns_per_cmd",
        ratio(apply.total_ns as f64, apply.calls as f64),
        "ns",
    );
    out.put("gbcast.dup_cmds", per_dep(p.dup_cmds), "count");
    out.put("gbcast.missing_cmds", per_dep(p.missing_cmds), "count");

    out.put("oracle.p99_ticks", p.p99_ticks, "ticks");
    out.put("oracle.stall_ticks", p.stall_ticks, "ticks");
    out.put("bench.gen_lag_p99_ms", p.gen_lag_ms.0, "ms");
    out.put("bench.gen_lag_max_ms", p.gen_lag_ms.1, "ms");
    out.put("bench.trace_overhead", p.trace_overhead, "ratio");
    let coverage = if p.tcp {
        0.0
    } else {
        ratio(l.self_ns_total() as f64, p.wall_ns)
    };
    out.put("bench.span_coverage", coverage, "ratio");
    out.put("bench.failed_frac", p.failed_frac, "ratio");
    out.put("bench.host_pass_ms", p.host_pass_ms, "ms");
    out.finish()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
