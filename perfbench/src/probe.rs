//! Readings the benchmark takes from the operating system: process CPU
//! time, peak resident memory, bytes read, thread count, and the host-side
//! noise record (steal ticks, load average, tmpfs).

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sync();
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by this process so far.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Writes every dirty page back to disk and waits for it (`sync(2)`), so
/// the write-back of files made before a measured phase, and the discards
/// of files deleted before it, do not land inside it.
pub fn flush_disk() {
    // SAFETY: `sync` takes no arguments, cannot fail and touches no memory
    // of this process.
    unsafe { sync() }
}

fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Restarts the `VmHWM` high-water mark at the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows. Where the kernel refuses, the
/// mark keeps counting from process start, which can only over-report.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Number of threads the process has right now.
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// Bytes the process has read through `read(2)` and friends (`rchar`).
pub fn read_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Host-side readings that explain an outlier: ticks the hypervisor stole
/// from this VM, the load average and the bytes written to disk.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    steal_ticks: u64,
    load1: f64,
    disk_write_sectors: u64,
}

impl HostSample {
    /// Reads `/proc/stat`, `/proc/loadavg` and `/sys/block/*/stat`.
    pub fn now() -> HostSample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu  user nice system idle iowait irq softirq steal ...
        let steal_ticks = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .unwrap_or_default()
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        // Field 7 of /sys/block/<dev>/stat: 512-byte sectors written.
        let disk_write_sectors = std::fs::read_dir("/sys/block")
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|dev| std::fs::read_to_string(dev.path().join("stat")).ok())
            .filter_map(|stat| stat.split_whitespace().nth(6)?.parse::<u64>().ok())
            .sum();
        HostSample {
            steal_ticks,
            load1,
            disk_write_sectors,
        }
    }
}

/// One line of JSON describing the host while the measured phase ran, with
/// the process's peak thread count and whether the work directory sits on
/// tmpfs.
pub fn noise_record(
    before: HostSample,
    after: HostSample,
    threads_peak: u64,
    work: &Path,
) -> String {
    format!(
        "{{\"steal_ticks\":{},\"disk_write_mb\":{:.1},\"load1_before\":{},\"load1_after\":{},\"threads_peak\":{},\"nproc\":{},\"work_on_tmpfs\":{}}}",
        after.steal_ticks.saturating_sub(before.steal_ticks),
        after.disk_write_sectors.saturating_sub(before.disk_write_sectors) as f64 * 512.0 / 1e6,
        before.load1,
        after.load1,
        threads_peak,
        nproc(),
        on_tmpfs(work)
    )
}

/// Compute workers the machine offers (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether `path` lies on a tmpfs mount (longest matching mount point in
/// `/proc/mounts`).
fn on_tmpfs(path: &Path) -> bool {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then_some((point.len(), fstype == "tmpfs"))
        })
        .max_by_key(|(len, _)| *len)
        .is_some_and(|(_, tmpfs)| tmpfs)
}
