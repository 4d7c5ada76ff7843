//! Confining the benchmark to one processor, for the workload whose ops are
//! shorter than waking a second processor takes (`serve_hot`; see the
//! README). std has no call for it, so this goes to libc the way `t2v-net`
//! goes to epoll: by `extern "C"`, Linux only.

use std::io;

/// Words of a `cpu_set_t`: 1024 processors, glibc's own size.
const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live array of the size passed; pid 0 is the caller.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Lowest processor named by `mask`.
fn lowest(mask: &CpuSet) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// The calling thread confined to the lowest processor it was allowed, until
/// dropped. Threads spawned meanwhile inherit the confinement and keep it.
pub struct OneCpu {
    before: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    pub fn pin() -> io::Result<OneCpu> {
        let mut before: CpuSet = [0; WORDS];
        // SAFETY: as in `set`; the kernel writes at most the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), before.as_mut_ptr()) } != 0
        {
            return Err(io::Error::last_os_error());
        }
        let cpu = lowest(&before).ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let mut one: CpuSet = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one)?;
        Ok(OneCpu { before, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Nothing useful to do if the kernel refuses what it allowed before.
        let _ = set(&self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_processor_of_a_mask() {
        let mut mask: CpuSet = [0; WORDS];
        assert_eq!(lowest(&mask), None);
        mask[1] = 0b1100;
        assert_eq!(lowest(&mask), Some(66));
        mask[0] = 1 << 63;
        assert_eq!(lowest(&mask), Some(63));
    }

    #[test]
    fn threads_spawned_while_pinned_see_one_processor_and_the_mask_comes_back() {
        // On its own thread: the test harness's thread keeps its mask.
        std::thread::spawn(|| {
            let allowed = || std::thread::available_parallelism().unwrap().get();
            let before = allowed();
            {
                let pin = OneCpu::pin().unwrap();
                assert_eq!(allowed(), 1);
                assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
                assert!(pin.cpu < 1024);
            }
            assert_eq!(allowed(), before);
        })
        .join()
        .unwrap();
    }
}
