//! Host facts and process counters read from the kernel, plus the small
//! statistics the report needs.
//!
//! Everything here is std-only: the two libc calls are declared by hand, and
//! the rest comes from `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process (every thread, including
/// threads that have already exited).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` matches the kernel's 64-bit `struct rusage` layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`). Unlike
/// `getrusage`'s `ru_maxrss`, this is not inherited across `execve` from the
/// launching process (e.g. `cargo run`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// Involuntary context switches of the process so far (all threads).
pub fn involuntary_switches() -> u64 {
    rusage().nivcsw.max(0) as u64
}

/// Steal ticks summed over all CPUs (`/proc/stat`, eighth field of `cpu`).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?.to_owned();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One-minute load average (`/proc/loadavg`).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Revision of the checkout, read from `.git` without running git; the
/// benchmark may run in an export with no repository, then "unknown".
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Host facts taken at the start of a run, and the counters that show how
/// much the machine interfered while it ran.
pub struct HostRecord {
    nproc: usize,
    load_1m: f64,
    steal_start: u64,
    switches_start: u64,
}

impl HostRecord {
    /// Take the start-of-run facts.
    pub fn start() -> Self {
        HostRecord {
            nproc: nproc(),
            load_1m: load_average(),
            steal_start: steal_ticks(),
            switches_start: involuntary_switches(),
        }
    }

    /// The record as one JSON object, with the run's deltas.
    pub fn to_json(&self) -> String {
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        format!(
            "{{\"nproc\": {}, \"profile\": \"{profile}\", \"git_revision\": \"{}\", \
             \"load_1m_at_start\": {}, \"steal_ticks\": {}, \"involuntary_switches\": {}}}",
            self.nproc,
            git_revision(),
            self.load_1m,
            steal_ticks().saturating_sub(self.steal_start),
            involuntary_switches().saturating_sub(self.switches_start),
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Median of the samples (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn process_counters_move() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
