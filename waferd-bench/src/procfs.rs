//! What the benchmark reads from `/proc`: per-thread CPU time at
//! nanosecond resolution (`schedstat`; the tick counters in `stat` move
//! in 10 ms steps), resident memory, and the machine stamp printed with
//! every run.

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// On-CPU nanoseconds from the text of a `schedstat` file: its first
/// field ("time spent on the cpu", then run-queue wait and timeslices).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds summed over every thread of process `pid`
/// (`/proc/<pid>/task/*/schedstat`). Threads that exit between the
/// listing and the read are skipped.
pub fn process_cpu_ns(pid: u32) -> u64 {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    dir.flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .sum()
}

/// On-CPU nanoseconds of the listed threads of this process.
pub fn threads_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter()
        .filter_map(|tid| fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok())
        .filter_map(|s| parse_schedstat(&s))
        .sum()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread. Its own `schedstat` would
/// lag by up to a scheduler tick while it runs; this clock does not.
pub fn this_thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout, and
    // the clock id is a valid Linux clock.
    let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if ok == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn this_thread_id() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `VmRSS` of a process in KiB, from the text of its `status` file.
pub fn parse_vm_rss_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident KiB of process `pid` (`"self"` for this one).
pub fn rss_kb(pid: &str) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_rss_kb(&s))
        .unwrap_or(0)
}

/// Steal time in clock ticks from `/proc/stat`: the eighth value of the
/// `cpu` line (`cpu: None`, machine-wide) or of one `cpuN` line.
pub fn parse_steal_ticks(stat: &str, cpu: Option<usize>) -> Option<u64> {
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

pub fn steal_ticks(cpu: Option<usize>) -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s, cpu))
        .unwrap_or(0)
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as it started (before any
/// [`pin`]); empty if the kernel would not say.
pub fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16]; // cpu_set_t: 1024 bits
                                   // SAFETY: `mask` is a live, writable 128-byte buffer, the size
                                   // passed is its size, and pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// CPUs available to the benchmark.
pub fn nproc() -> usize {
    cpus().len().max(1)
}

/// Restricts the calling thread (and the threads and processes it
/// starts afterwards) to `cpus`. Returns whether the kernel accepted it.
pub fn pin(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised 128-byte buffer, the size
    // passed is its size, and pid 0 names the calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// The checkout's commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line describing the machine a run happened on.
pub fn stamp(root: &Path) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let load = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "commit {} nproc {} kernel {} loadavg {}",
        commit(root),
        nproc(),
        kernel.trim(),
        load.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("garbage 1 2"), None);
    }

    #[test]
    fn live_schedstat_parses_and_grows() {
        let a = this_thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = this_thread_cpu_ns();
        assert!(b > a, "{a} -> {b}");
        // A thread's schedstat is brought up to date when it sleeps.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let tid = this_thread_id().expect("thread id");
        let own = threads_cpu_ns(&[tid]);
        assert!(own > 0 && own <= this_thread_cpu_ns(), "{own}");
        assert!(process_cpu_ns(std::process::id()) >= own);
    }

    #[test]
    fn pinning_to_every_allowed_cpu_is_accepted() {
        assert!(!cpus().is_empty());
        assert!(pin(cpus()));
        assert!(!pin(&[]));
    }

    #[test]
    fn status_and_stat_fields() {
        let status = "Name:\twaferd\nVmPeak:\t  9000 kB\nVmRSS:\t    5120 kB\n";
        assert_eq!(parse_vm_rss_kb(status), Some(5120));
        assert_eq!(parse_vm_rss_kb("Name: x\n"), None);
        let stat = "cpu  24332 0 4654 332565 425 0 296 19023 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat, None), Some(19023));
        assert_eq!(parse_steal_ticks(stat, Some(0)), Some(8));
        assert_eq!(parse_steal_ticks(stat, Some(1)), None);
        assert!(rss_kb("self") > 0);
    }
}
