//! A fixed reference workload that measures how fast the host runs
//! right now.
//!
//! On a shared host the same deterministic deployment runs a quarter
//! slower or faster from one minute to the next, with no steal time to
//! show for it: the neighbours share the core's caches and memory
//! bandwidth, not its run queue. The kernel below does a fixed amount of
//! the kind of work the stack does — small allocations, ordered-map and
//! hash-map churn, vector clones, sorting and `Debug` formatting — in
//! code of the benchmark's own, so a change to the repository cannot
//! move it. Timed next to each deployment, it gives the host's speed at
//! that moment, and a rate divided by it no longer follows the host.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Elements in the kernel's working set (a few MiB, like a deployment's).
const N: usize = 1 << 14;

/// Pass time, ns, of the host the simulator workloads' times are
/// expressed on: a quiet 2-vCPU Xeon VM took 7–8 ms per pass.
pub const REF_PASS_NS: f64 = 8e6;

#[derive(Clone, Debug)]
struct Rec {
    id: (u64, u32),
    key: u64,
    // Read through `Debug` only.
    #[allow(dead_code)]
    payload: Vec<u8>,
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One pass of the kernel; returns a checksum so nothing is optimised
/// away.
pub fn pass() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let recs: Vec<Rec> = (0..N)
        .map(|i| {
            let v = next(&mut x);
            Rec {
                id: (v & 7, i as u32),
                key: v % 4096,
                payload: vec![v as u8; 8 + (v % 24) as usize],
            }
        })
        .collect();
    let mut tree: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut hash: HashMap<(u64, u32), usize> = HashMap::new();
    let mut sum = 0u64;
    for (i, r) in recs.iter().enumerate() {
        tree.entry(r.key).or_default().push(r.id.1);
        hash.insert(r.id, i);
        if i % 3 == 0 {
            let old = (next(&mut x) & 7, (next(&mut x) % N as u64) as u32);
            sum += hash.remove(&old).unwrap_or(0) as u64;
        }
    }
    let mut copies = Vec::new();
    for chunk in recs.chunks(N / 16) {
        copies.push(chunk.to_vec());
    }
    let mut keys: Vec<u64> = copies.iter().flatten().map(|r| r.key ^ r.id.0).collect();
    keys.sort_unstable();
    let mut text = String::new();
    for r in recs.iter().step_by(8) {
        text.clear();
        let _ = write!(text, "{r:?}");
        sum += text.len() as u64;
    }
    for (k, v) in tree.range(1000..3000) {
        sum += k ^ v.len() as u64;
    }
    sum + keys[N / 2] + black_box(&copies).len() as u64
}

/// Nanoseconds one pass takes now.
pub fn pass_ns() -> u64 {
    let t = Instant::now();
    black_box(pass());
    t.elapsed().as_nanos() as u64
}

/// Brackets measurements with kernel passes. Consecutive measurements
/// share the pass between them, so the kernel costs one pass each.
#[derive(Debug)]
pub struct HostClock {
    last_ns: u64,
    passes: Vec<u64>,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    /// Times the first pass.
    pub fn new() -> Self {
        let last_ns = pass_ns();
        Self {
            last_ns,
            passes: vec![last_ns],
        }
    }

    /// Runs `f` between two passes. Returns its result and the factor
    /// that turns times measured during it into reference-host times:
    /// [`REF_PASS_NS`] over the mean of the two passes.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let now = pass_ns();
        let host = (self.last_ns + now) as f64 / 2.0;
        self.last_ns = now;
        self.passes.push(now);
        (out, REF_PASS_NS / host)
    }

    /// Every pass timed so far, ns.
    pub fn passes(&self) -> &[u64] {
        &self.passes
    }
}
