//! CPU pinning for the serve workloads' threads.
//!
//! With one request in flight every request is two thread wake-ups, and
//! on a two-core virtual machine their cost depends on where the kernel
//! happened to place the reactor: beside the load generator, across from
//! it on an idle (halted) core, or behind a compile. Unpinned, the same
//! seed gave 12.1k to 15.1k req/s from one process to the next. Pinning
//! fixes the placement — generator and reactor on the first allowed
//! core, where they take turns, the compile worker on the last — so runs
//! measure the program and not the placement.

/// Words of the kernel's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending (empty where the platform
/// has no affinity call).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread; the kernel writes at
        // most `cpusetsize` bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..MASK_WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread (and threads it spawns later) to `cpus`.
/// Returns whether the kernel accepted the mask; a refusal leaves the
/// thread where it was, which only costs steadiness.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read by the kernel; pid 0 names the calling thread.
        return !cpus.is_empty()
            && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    }
    #[allow(unreachable_code)]
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_restores_the_allowed_set() {
        std::thread::spawn(|| {
            let all = allowed_cpus();
            assert!(!all.is_empty());
            assert!(pin_current_thread(&all[..1]));
            assert_eq!(allowed_cpus(), all[..1]);
            assert!(pin_current_thread(&all));
            assert_eq!(allowed_cpus(), all);
            assert!(!pin_current_thread(&[]));
        })
        .join()
        .unwrap();
    }
}
