//! CPU pinning and process memory, straight from the OS.
//!
//! Tile programs are parked OS threads, so an unpinned run spends its
//! time in cross-CPU futex handoffs and repeats within a factor of ten
//! (see the README's noise floor). Everything host-timed therefore runs
//! on one CPU: the last one the process is allowed on, chosen before any
//! thread is spawned so every thread inherits the mask.

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and every thread it spawns afterwards) to the
/// highest-numbered CPU of its current affinity set. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_last_allowed_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    let cpu = last_set_bit(&mask).ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed
    // and is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_allowed_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented for Linux".into())
}

fn last_set_bit(mask: &[u64; MASK_WORDS]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0).ok_or_else(|| "no VmHWM line".into())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_set_bit_scans_from_the_top() {
        let mut m = [0u64; MASK_WORDS];
        assert_eq!(last_set_bit(&m), None);
        m[0] = 0b11;
        assert_eq!(last_set_bit(&m), Some(1));
        m[2] = 1 << 5;
        assert_eq!(last_set_bit(&m), Some(133));
    }

    #[test]
    fn vm_hwm_parses_the_proc_format() {
        let status = "Name:\tpmcbench\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }
}
