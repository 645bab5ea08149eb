//! The host side of the measurement: CPU pinning and `/proc/self` readings.
//!
//! The simulator runs one OS thread per rank and hands a baton between
//! them, so exactly one thread is runnable at any moment. Left to the
//! scheduler, that baton migrates between CPUs and the *same*
//! deterministic run takes 0.9 s or 7 s; pinned to one CPU it repeats.
//! Threads inherit the affinity mask of their creator, so pinning the
//! main thread before anything else pins every rank thread too.

use std::fmt;
use std::sync::OnceLock;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Words of the affinity mask: 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// `M_ARENA_MAX` of glibc's `malloc.h`.
const M_ARENA_MAX: i32 = -8;

/// A CPU affinity mask as the kernel stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    fn single(cpu: usize) -> CpuMask {
        let mut m = [0u64; MASK_WORDS];
        m[cpu / 64] = 1 << (cpu % 64);
        CpuMask(m)
    }

    /// Number of CPUs in the mask.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Highest-numbered CPU in the mask (CPU 0 takes most interrupts, so
    /// the far end of the allowed set is the quieter choice).
    fn highest(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
    }
}

/// Why the process could not be confined to one CPU and one arena.
#[derive(Debug)]
pub struct PinError(String);

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot pin the process: {}", self.0)
    }
}

/// The affinity mask of the calling thread.
fn affinity() -> Result<CpuMask, PinError> {
    let mut m = [0u64; MASK_WORDS];
    // SAFETY: `m` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
    if rc != 0 {
        return Err(PinError(format!("sched_getaffinity: {}", std::io::Error::last_os_error())));
    }
    Ok(CpuMask(m))
}

/// Set the affinity mask of the calling thread; threads it spawns
/// afterwards inherit it.
fn set_affinity(mask: &CpuMask) -> Result<(), PinError> {
    // SAFETY: `mask.0` is a live buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) };
    if rc != 0 {
        return Err(PinError(format!("sched_setaffinity: {}", std::io::Error::last_os_error())));
    }
    Ok(())
}

/// The affinity mask the process started with, kept for [`unpinned`].
static STARTUP_MASK: OnceLock<CpuMask> = OnceLock::new();

/// Pin the calling thread to one CPU of its allowed set and verify the
/// kernel took it. Returns `(cpu, mask before pinning)`.
pub fn pin_to_one_cpu() -> Result<(usize, CpuMask), PinError> {
    // The first call sees the start-up mask and keeps it; later calls
    // (after an unpinned probe) pin within that same set again.
    let now = affinity()?;
    let before = *STARTUP_MASK.get_or_init(|| now);
    let cpu = before.highest().ok_or_else(|| PinError("empty affinity mask".into()))?;
    set_affinity(&CpuMask::single(cpu))?;
    let after = affinity()?;
    if after != CpuMask::single(cpu) {
        return Err(PinError(format!(
            "asked for cpu {cpu}, kernel reports {} cpus",
            after.count()
        )));
    }
    Ok((cpu, before))
}

/// Run `f` under the start-up affinity mask, then pin again: the
/// `sim.unpinned_x` probe. Panics if the masks cannot be switched, which
/// would leave every later measurement unpinned.
pub fn unpinned<R>(f: impl FnOnce() -> R) -> R {
    let mask = STARTUP_MASK.get().expect("pin_to_one_cpu ran at start-up");
    set_affinity(mask).expect("restore the start-up affinity mask");
    let out = f();
    pin_to_one_cpu().expect("pin again after the unpinned probe");
    out
}

/// Keep every thread on glibc's main malloc arena. By default each new
/// thread may get an arena of its own, chosen by when it happens to start
/// and exit, and what an arena keeps after a free differs: the same run
/// then peaks at 207 or 241 MB. With one runnable thread at a time a
/// single arena is never contended, and `peak_rss_mb` repeats within 1–2 %.
/// Must be called before the first thread is spawned.
pub fn use_one_malloc_arena() -> Result<(), PinError> {
    // SAFETY: mallopt only reads its two integer arguments.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err(PinError("mallopt(M_ARENA_MAX, 1) was refused".into()))
    }
}

/// Clock ticks per second of the `utime`/`stime` fields.
fn clk_tck() -> f64 {
    // SAFETY: sysconf has no memory preconditions.
    let v = unsafe { sysconf(SC_CLK_TCK) };
    if v > 0 {
        v as f64
    } else {
        100.0
    }
}

/// User and system CPU seconds of this process so far.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    /// Share of the CPU time between `earlier` and `self` spent in the kernel.
    pub fn sys_share_since(&self, earlier: &CpuTimes) -> f64 {
        let (u, s) = (self.user_s - earlier.user_s, self.sys_s - earlier.sys_s);
        if u + s > 0.0 {
            s / (u + s)
        } else {
            0.0
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15, in clock ticks) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_status_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_ascii_whitespace();
    let v = it.next()?.parse().ok()?;
    (it.next()? == "kB").then_some(v)
}

/// CPU times of this process from `/proc/self/stat`.
pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (u, s) = parse_stat_ticks(&stat).expect("utime/stime in /proc/self/stat");
    let tck = clk_tck();
    CpuTimes { user_s: u as f64 / tck, sys_s: s as f64 / tck }
}

/// Peak resident set of this process in MB (10^6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // comm with a space and a ')' inside, as the kernel prints it.
        let line = "4242 (lay) er bench) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some((1234, 56)));
        assert_eq!(parse_stat_ticks("no paren here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_is_read_in_kb() {
        let status = "Name:\tlayerbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_kb(status), Some(20480));
        assert_eq!(parse_status_hwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_status_hwm_kb("VmHWM:\t 100 MB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let t = cpu_times();
        assert!(t.user_s >= 0.0 && t.sys_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn sys_share_is_a_ratio_of_deltas() {
        let a = CpuTimes { user_s: 1.0, sys_s: 1.0 };
        let b = CpuTimes { user_s: 4.0, sys_s: 2.0 };
        assert!((b.sys_share_since(&a) - 0.25).abs() < 1e-12);
        assert_eq!(a.sys_share_since(&a), 0.0);
    }

    #[test]
    fn mask_helpers_agree() {
        let m = CpuMask::single(67);
        assert_eq!(m.count(), 1);
        assert_eq!(m.highest(), Some(67));
        assert_eq!(CpuMask([0; MASK_WORDS]).highest(), None);
    }
}
