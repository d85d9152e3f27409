//! The benchmark's clock: CPU time of the whole process.
//!
//! On a shared virtual machine, wall time includes the time the hypervisor
//! runs other guests on this vCPU (steal time), which moves timings by tens
//! of percent between minutes and has nothing to do with the program. The
//! kernel accounts CPU time net of steal, so CPU time measures the work the
//! program did. It leaves out time spent blocked on I/O (the store's and
//! checkpoints' fsyncs) and sums every thread, so a section timed with it
//! must not overlap unrelated work on other threads.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock below assumes 64-bit Linux's `struct timespec`");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed so far by every thread of this process.
pub fn seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and the clock id
    // is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU milliseconds `f` takes, with its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = seconds();
    let out = f();
    (out, (seconds() - c0) * 1e3)
}
