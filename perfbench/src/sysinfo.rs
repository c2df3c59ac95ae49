//! Process CPU time and peak resident set size from `/proc/self`.

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 per second
/// for every userspace interface on Linux.
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process, in nanoseconds
/// (`utime + stime` from `/proc/self/stat`; 10 ms resolution).
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> u64 { fields[i].parse().expect("numeric stat field") };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after field 3.
    (tick(11) + tick(12)) * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("numeric VmHWM");
    kb / 1024.0
}

/// On-CPU time of the calling thread, in nanoseconds (the first field
/// of `/proc/thread-self/schedstat`).
///
/// # Panics
///
/// Panics if `/proc/thread-self/schedstat` is unreadable or malformed.
pub fn thread_cpu_ns() -> u64 {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").expect("read schedstat");
    s.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("numeric schedstat run time")
}
