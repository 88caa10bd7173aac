//! Host facts the benchmark needs: CPU pinning, process CPU time, the
//! pinned CPU's steal counter, and peak resident memory.

use std::fs;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it may currently run on. Returns that CPU.
///
/// Must run before the benchmark spawns any thread: threads inherit the
/// mask at creation, and the in-process program's workers, reactor and
/// server threads are all spawned later.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size passed to the kernel, and outlives the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// User plus system CPU time of this process so far, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of this tail.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    (ticks(11) + ticks(12)) as f64 * 1000.0 / hz
}

/// `(steal, total)` jiffies of one CPU from `/proc/stat`.
pub fn cpu_steal(cpu: usize) -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let label = format!("cpu{cpu}");
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(label.as_str()) {
            continue;
        }
        let values: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so the total stops at steal.
        let total = values.iter().take(8).sum();
        return (values.get(7).copied().unwrap_or(0), total);
    }
    (0, 0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
