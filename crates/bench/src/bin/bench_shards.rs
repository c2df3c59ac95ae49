//! CI-facing sharding benchmark: throughput scaling across parallel
//! consensus instances (experiment E12).
//!
//! Pushes the same command count through 1, 2 and 4 shards at cross-shard
//! transfer fractions of 0%, 1% and 10%, emits `BENCH_shards.json` (a flat
//! array of per-cell records) so every CI run leaves a comparable
//! artifact, and prints the scaling table. Each cell is measured five
//! times, interleaved — every repeat visits every cell once, so host drift
//! during the measurement hits all cells alike — and reports its median
//! throughput. With `--check`, exits non-zero unless
//!
//! * every run learns and applies all commands (merge completeness),
//! * every run's merged bank state matches the 1-shard runs of the same
//!   workload (sharding must not change semantics),
//! * 4 shards at 1% cross-shard traffic sustain ≥ 3× the 1-shard
//!   throughput, cell medians against each other (the
//!   near-linear-scaling floor).
//!
//! Usage: `cargo run --release -p mcpaxos-bench --bin bench_shards [--check] [--out PATH]`

use mcpaxos_bench::shard_bench::{
    shard_batched_run, shard_run, ShardRunStats, SHARD_BENCH_COMMANDS,
};
use std::fmt::Write as _;

const SHARD_COUNTS: [u16; 3] = [1, 2, 4];
const TRANSFER_FRACTIONS: [f64; 3] = [0.0, 0.01, 0.10];
const SEED: u64 = 42;

/// The scaling floor `--check` enforces at 4 shards, 1% cross-shard.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Runs per cell; a cell reports its median-throughput run.
const REPEATS: usize = 5;

fn json_record(s: &ShardRunStats, speedup: f64, cps_runs: &[String]) -> String {
    format!(
        "{{\"shards\":{},\"transfer_pct\":{},\"commands\":{},\"cross_shard\":{},\
         \"applied\":{},\"elapsed_ms\":{:.1},\"cps\":{:.0},\"speedup_vs_1shard\":{:.2},\
         \"bank_total\":{},\"cps_runs\":[{}]}}",
        s.shards,
        s.transfer_pct,
        s.commands,
        s.cross_shard,
        s.applied,
        s.elapsed_ms,
        s.cps,
        speedup,
        s.bank_total,
        cps_runs.join(","),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_shards.json".to_string());

    let cells: Vec<(f64, u16)> = TRANSFER_FRACTIONS
        .iter()
        .flat_map(|&frac| SHARD_COUNTS.iter().map(move |&shards| (frac, shards)))
        .collect();
    // Every run, per cell in run order.
    let mut samples: Vec<Vec<ShardRunStats>> = vec![Vec::new(); cells.len()];
    for rep in 1..=REPEATS {
        for (cell, &(frac, shards)) in cells.iter().enumerate() {
            let s = shard_run(shards, frac, SHARD_BENCH_COMMANDS, SEED);
            eprintln!(
                "run {rep}/{REPEATS} shards={} transfers={:>4.1}%: {} cmds ({} cross) in {:.0} ms = {:.0} cps",
                s.shards, s.transfer_pct, s.commands, s.cross_shard, s.elapsed_ms, s.cps
            );
            samples[cell].push(s);
        }
    }
    // Each cell's median-throughput run.
    let runs: Vec<ShardRunStats> = samples
        .iter()
        .map(|cell| {
            let mut by_cps = cell.clone();
            by_cps.sort_by(|a, b| a.cps.total_cmp(&b.cps));
            by_cps.swap_remove(REPEATS / 2)
        })
        .collect();

    let base_cps = |pct: f64| {
        runs.iter()
            .find(|r| r.shards == 1 && (r.transfer_pct - pct).abs() < 1e-9)
            .map(|r| r.cps)
            .unwrap_or(f64::NAN)
    };

    // Batched-vs-unbatched scaling rows (informational, not gated): the
    // same 4-shard/1% workload with E14's batch=16/depth=8 knobs dialed
    // into every shard, measured in deterministic simulator ticks. The
    // 1/1 lockstep row is the disciplined single-wave baseline; knobs
    // off is free-running (every proposal ships immediately).
    let plain = shard_batched_run(4, 0, 0, SHARD_BENCH_COMMANDS, SEED);
    let lockstep = shard_batched_run(4, 1, 1, SHARD_BENCH_COMMANDS, SEED);
    let batched = shard_batched_run(4, 16, 8, SHARD_BENCH_COMMANDS, SEED);
    eprintln!(
        "shards=4: unbatched {} ticks, lockstep 1/1 {} ticks, batched 16/8 {} ticks ({:.1}x vs 1/1)",
        plain.end_ticks,
        lockstep.end_ticks,
        batched.end_ticks,
        lockstep.end_ticks as f64 / batched.end_ticks.max(1) as f64
    );

    let mut json = String::from("[\n");
    for (s, cell) in runs.iter().zip(&samples) {
        let cps_runs: Vec<String> = cell.iter().map(|r| format!("{:.0}", r.cps)).collect();
        let _ = writeln!(
            json,
            "  {},",
            json_record(s, s.cps / base_cps(s.transfer_pct), &cps_runs)
        );
    }
    let batched_rows = [&plain, &lockstep, &batched];
    for (i, s) in batched_rows.into_iter().enumerate() {
        let sep = if i + 1 < batched_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "  {{\"shards\":{},\"batch\":{},\"depth\":{},\"commands\":{},\"learned\":{},\
             \"end_ticks\":{},\"bank_total\":{}}}{sep}",
            s.shards, s.batch, s.depth, s.commands, s.learned, s.end_ticks, s.bank_total
        );
    }
    json.push_str("]\n");
    std::fs::write(&out, &json).expect("write BENCH_shards.json");
    eprintln!("wrote {out} ({} bytes)", json.len());

    println!(
        "throughput scaling ({} commands, wall-clock, median of {REPEATS} interleaved runs):",
        SHARD_BENCH_COMMANDS
    );
    println!("  transfers |  1 shard |  2 shards |  4 shards | 4-shard speedup");
    for &frac in &TRANSFER_FRACTIONS {
        let row: Vec<&ShardRunStats> = runs
            .iter()
            .filter(|r| (r.transfer_pct - frac * 100.0).abs() < 1e-9)
            .collect();
        println!(
            "  {:>8.1}% | {:>8.0} | {:>9.0} | {:>9.0} | {:>14.2}x",
            frac * 100.0,
            row[0].cps,
            row[1].cps,
            row[2].cps,
            row[2].cps / row[0].cps
        );
    }

    if check {
        let mut failed = Vec::new();
        for s in samples.iter().flatten() {
            if s.applied != s.commands as u64 {
                failed.push(format!(
                    "{}-shard {}% run applied {} of {} commands",
                    s.shards, s.transfer_pct, s.applied, s.commands
                ));
            }
        }
        for &frac in &TRANSFER_FRACTIONS {
            let pct = frac * 100.0;
            let totals: Vec<u64> = samples
                .iter()
                .flatten()
                .filter(|r| (r.transfer_pct - pct).abs() < 1e-9)
                .map(|r| r.bank_total)
                .collect();
            if totals.windows(2).any(|w| w[0] != w[1]) {
                failed.push(format!(
                    "{pct}% runs disagree on final bank total: {totals:?}"
                ));
            }
        }
        let speedup = runs
            .iter()
            .find(|r| r.shards == 4 && (r.transfer_pct - 1.0).abs() < 1e-9)
            .map(|r| r.cps / base_cps(1.0))
            .unwrap_or(0.0);
        if speedup < SPEEDUP_FLOOR {
            failed.push(format!(
                "4-shard speedup {speedup:.2}x < {SPEEDUP_FLOOR}x floor at 1% cross-shard"
            ));
        }
        if failed.is_empty() {
            println!(
                "CHECK PASSED (>= {SPEEDUP_FLOOR}x at 4 shards / 1% cross-shard, all applied, states agree)"
            );
        } else {
            for f in &failed {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
