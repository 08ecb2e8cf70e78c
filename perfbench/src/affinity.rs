//! Pinning a benchmark thread to one CPU.
//!
//! Two busy threads on two CPUs still share one CPU whenever the scheduler
//! puts them there: they then take turns by timeslice, almost never
//! contend, and a direct run measures an uncontended object. On a 2-vCPU
//! host that happened for part of many runs (per-run p50 down to ~260 ns
//! against ~800 ns contended), so the direct workload pins each of its
//! threads to a CPU of its own. A host that deschedules a whole vCPU can
//! still leave one thread alone for a while; the median over runs absorbs
//! that.

/// `cpu_set_t`: a bit mask of 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty when
/// they cannot be read.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64 * set.len())
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; false if the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_current(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    let Some(word) = set.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of exactly the size passed; pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current(_cpu: usize) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_may_run_only_on_its_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let cpu = *cpus.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin_current(cpu));
            assert_eq!(allowed_cpus(), vec![cpu]);
        })
        .join()
        .unwrap();
        // Pinning a spawned thread leaves the caller's mask alone.
        assert_eq!(allowed_cpus(), cpus);
    }
}
