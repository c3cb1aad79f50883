//! Host description and process resource readings (Linux `/proc`).

use std::path::Path;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Self {
            nproc: nproc(),
            cpu_model,
            kernel,
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Run `f` on a thread of its own and wait for it.
///
/// Hash-heavy code runs at one of two speeds on the main thread, about 2x
/// apart, fixed for the life of the process: on a 2-vCPU Xeon VM about one
/// process in seven hashed its seed accounts at half speed.  The main
/// thread's stack starts at a random offset within its page (stack ASLR);
/// a spawned thread's stack starts at the same offset every time, and no
/// process hashed slowly there.  Timed hashing therefore runs off the main
/// thread.
pub fn off_main_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(f).join().expect("helper thread"))
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run in an export that is no repository at all).
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
                return Some(hash.trim().to_string());
            }
            let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        }
    }
}

/// User + system CPU time of the whole process (every thread), in ms.
pub fn cpu_time_ms() -> f64 {
    // utime and stime are fields 14 and 15 of /proc/self/stat, counted in
    // USER_HZ ticks (100 per second on Linux).
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// Host-wide CPU ticks since boot: (all, stolen by the hypervisor), from
/// the first line of /proc/stat.  Steal is time this VM's CPUs were ready
/// to run but the host ran something else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
