//! CPU affinity for the untraced run.
//!
//! On the 2-vCPU shared VM this benchmark is sized for, the host takes a
//! vCPU away for seconds to minutes at a time. A single busy thread rides
//! that out on the other vCPU; two threads in lockstep (the socket workers)
//! stall at every barrier and ran 35–50 % slower for whole runs. Pinned to
//! one CPU the same section repeats within ±4 % with a spinner on the other
//! CPU, at 1.25× its two-CPU time. So every end-to-end number is taken on
//! one CPU; parallel speed-up is a per-layer metric of the traced run.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns from now on, to
/// the CPU it is running on. Returns that CPU, or `None` if the platform
/// refused (the run then proceeds unpinned and says so).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // The kernel's default `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    // SAFETY: takes no arguments and only reads the caller's scheduler state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}
