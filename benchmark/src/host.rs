//! What the numbers were measured on: the host stamp, a fixed
//! calibration kernel that tells a slow host from a slow program, and
//! the process's own peak memory.

use std::process::Command;
use std::time::Instant;

/// Commit, core count, CPU model and compiler of this measurement.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Stamp {
    pub fn take() -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            // The acceptance driver's checkout is not a git repository.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Words in the calibration kernel's table: 8 MiB, larger than the
/// host's L2, so the walk pays for memory as the simulator's queues do.
const CALIB_WORDS: usize = 1 << 20;
const CALIB_STEPS: usize = 1 << 21;

/// Times the calibration kernel once: a dependent pseudo-random walk
/// over an 8 MiB table with an integer mix per step. Fixed work, no
/// allocation inside the timed part, result fed to `black_box`.
pub fn calibrate_once() -> f64 {
    let mut table: Vec<u64> = (0..CALIB_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..CALIB_STEPS {
        let slot = (x as usize) & (CALIB_WORDS - 1);
        x = (x ^ table[slot])
            .wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .rotate_left(29);
        table[slot] = x;
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box((x, &table));
    ns
}

/// One calibration figure: the minimum of three kernel runs, about
/// 50 ms in all.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| calibrate_once())
        .fold(f64::INFINITY, f64::min)
}

/// The kernel's time on the reference host when it is quiet, ns. A
/// constant: it only fixes the unit of the scaled times.
pub const CALIB_REFERENCE_NS: f64 = 15.0e6;

/// The factor that scales a time measured between two calibration
/// figures to the reference host's speed.
///
/// This host slows down by up to a third for tens of seconds at a time
/// (neighbours on the same cores and memory), the memory-bound workloads
/// the most; the minimum over a run's repetitions does not escape a slow
/// phase that outlasts the run. The kernel slows down with them, so
/// `time × reference ÷ kernel time beside it` is steadier: on ten runs of
/// one seed the spread of the minimum fell from 0.19 to 0.09 on
/// `flood_local` and from 0.16 to 0.08 on `fabric_all2all`, and stayed
/// at 0.08–0.09 on the other four (README, "Noise").
pub fn reference_scale(calib_before_ns: f64, calib_after_ns: f64) -> f64 {
    CALIB_REFERENCE_NS / ((calib_before_ns + calib_after_ns) / 2.0)
}

// glibc's `sched_{get,set}affinity(2)` wrappers; `mask` points at
// `cpusetsize` bytes of CPU bitmap.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the first CPU it is allowed on. Returns that CPU's number, or
/// `None` when the kernel refuses (the caller then runs unpinned).
///
/// `fabric_all2all` runs under this: `Engine::Sharded { threads: 1 }` is
/// a coordinator and one worker that hand over at three barriers per
/// 500 µs window. On one CPU a hand-over is a context switch; across two
/// vCPUs of this host it is a wake-up whose latency swings more than
/// tenfold with the neighbours' load, which drowns the workload.
pub fn pin_to_one_cpu() -> Option<usize> {
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, &bits)| bits != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << bits.trailing_zeros();
    // SAFETY: `only` is a live buffer of exactly `bytes` bytes that the
    // call only reads, and pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_and_peak_rss_read_this_host() {
        let stamp = Stamp::take();
        assert!(stamp.nproc >= 1);
        assert!(!stamp.cpu_model.is_empty());
        assert!(peak_rss_mib().expect("linux /proc") > 1.0);
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // On its own thread: the restriction is per thread and sticks.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("a thread may narrow its own affinity");
            let mut mask = [0u64; 16];
            // SAFETY: `mask` is a live, writable buffer of the size passed.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            assert_eq!(rc, 0);
            assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(mask[cpu / 64] & (1 << (cpu % 64)), 0);
        })
        .join()
        .expect("pinning thread");
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calibrate_once() > 100_000.0);
    }
}
