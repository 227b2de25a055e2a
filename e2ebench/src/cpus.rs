//! Spreads single-threaded timed work over the CPUs the process may use.
//!
//! On a shared host, another tenant slows one of the benchmark's CPUs at a
//! time, for a second or for minutes, while the other CPU often runs clean.
//! A thread the kernel leaves on the slowed CPU would read slow for the
//! whole stretch, and taking the best of its samples would not help. Moving
//! each timed step onto the next CPU in turn gives every CPU its share of
//! the samples, so the best of them comes from a clean CPU whenever one
//! exists.

/// A CPU set as the kernel's `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

/// Pins timed steps to the process's CPUs in turn.
#[derive(Debug)]
pub struct Rotation {
    /// The CPUs the process may use, restored after each step.
    allowed: Mask,
    cpus: Vec<usize>,
    next: usize,
}

impl Default for Rotation {
    fn default() -> Self {
        let allowed = get().unwrap_or_default();
        let cpus = (0..allowed.len() * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Rotation {
            allowed,
            cpus,
            next: 0,
        }
    }
}

impl Rotation {
    /// Runs `f` on the next CPU in turn, then lets the thread run on every
    /// allowed CPU again, so that threads spawned outside `f` (the
    /// compressor's workers) still spread over all of them. Where CPUs
    /// cannot be pinned, `f` runs where the kernel puts it.
    pub fn pinned<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let Some(&cpu) = self.cpus.get(self.next % self.cpus.len().max(1)) else {
            return f();
        };
        self.next += 1;
        let mut one = Mask::default();
        one[cpu / 64] |= 1 << (cpu % 64);
        let pinned = set(&one);
        let out = f();
        if pinned {
            set(&self.allowed);
        }
        out
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set.
fn get() -> Option<Mask> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = Mask::default();
        // SAFETY: the kernel writes at most `size` bytes into `mask`, which
        // is exactly that large; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Sets the calling thread's CPU set; whether it took.
fn set(mask: &Mask) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: the kernel reads `size` bytes from `mask`, which is
        // exactly that large; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = mask;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_undone_after_each_step() {
        let mut rotation = Rotation::default();
        let before = get();
        let seen: Vec<Option<Mask>> = (0..3).map(|_| rotation.pinned(get)).collect();
        assert_eq!(get(), before);
        if rotation.cpus.len() > 1 {
            assert_ne!(seen[0], seen[1], "consecutive steps run on different CPUs");
        }
    }
}
