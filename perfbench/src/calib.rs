//! The host-speed probe the end-to-end times are scaled by.
//!
//! The reference host is a shared 2-vCPU virtual machine whose speed drifts
//! by ±15% over minutes with its neighbours' load; left raw, that drift is
//! most of the run-to-run spread of every timing. Each measuring process
//! runs this probe between pieces of its work and reports time at the
//! reference speed: `raw × REFERENCE_PROBE_S / probe`. The probe is a
//! fixed integer workload that shares no code with the repository
//! (xorshift, data-dependent branches, updates to an L1-resident table),
//! and it only runs while none of the program's threads do, so no change
//! to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the reference host (Intel Xeon, 2 vCPUs, rustc
/// 1.95, this package's release profile) when it is not contended.
pub const REFERENCE_PROBE_S: f64 = 0.0022;

const STEPS: u32 = 400_000;

fn kernel(steps: u32) -> u64 {
    let mut table = [0u64; 2048];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & 2047;
        match x & 3 {
            0 => acc = acc.wrapping_add(table[k]),
            1 => table[k] ^= acc,
            _ => acc ^= x >> (i & 31),
        }
        let j = (acc as usize) & 2047;
        table[j] = table[j].wrapping_add(1);
    }
    acc ^ table[7]
}

/// CPU time the calling thread has consumed, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points at a live, writable value laid out as the C
    // struct (two 64-bit fields on 64-bit Linux).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// One probe, in seconds of on-CPU time where the kernel reports it — so
/// time the probe spends preempted by other tenants of the host does not
/// count — and of wall time elsewhere.
fn probe_once() -> f64 {
    let cpu = thread_cpu_s();
    let start = Instant::now();
    black_box(kernel(black_box(STEPS)));
    let wall = start.elapsed().as_secs_f64();
    match (cpu, thread_cpu_s()) {
        (Some(a), Some(b)) if b > a => b - a,
        _ => wall,
    }
}

/// Median time of `reps` probes, in seconds.
pub fn probe(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| probe_once()).collect();
    crate::median(&times)
}

/// How much slower than the reference the host ran, from probe times.
pub fn slowdown(probes: &[f64]) -> f64 {
    crate::median(probes) / REFERENCE_PROBE_S
}
