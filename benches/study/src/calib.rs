//! The process CPU clock, and host-speed calibration.
//!
//! The reference host is a shared VM. Its hypervisor takes a vCPU away for
//! up to 40% of the time, and while it runs, a vCPU switches between a
//! fast and a slow speed within a second. Wall time carries both, so a raw median over one
//! window moves with the host rather than with the code. Every time this
//! benchmark measures is therefore the process's CPU time, which leaves
//! out the stolen time, and is then calibrated for the speed: a kernel
//! compiled into this benchmark, and so identical on every commit, is
//! timed before the first operation and after every operation, and each
//! operation's time is scaled by [`C_REF`] over the mean of the two samples
//! around it.
//!
//! The kernel mixes three kinds of code because they slow by different
//! factors in the slow state, as the simulators and the resampler do. The
//! geometric mean of the three follows the operations closer than any one
//! part does.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::hint::black_box;

/// One sample's value, in CPU seconds, on the reference host (a 2-vCPU
/// Intel Xeon KVM guest) in its fast state: the median of the 38% of 600
/// consecutive samples that read below 1.25 times their 5th percentile.
pub const C_REF: f64 = 0.01426;

/// Floats formatted with six decimals and parsed back.
const FLOATS: usize = 60_000;
/// B-tree operations, cycling insert, get and remove.
const TREE_OPS: u64 = 120_000;
/// Distinct keys the B-tree operations draw from.
const TREE_KEYS: u64 = 40_000;
/// Integers sorted and deduplicated, and binary searches after.
const SORTED: usize = 150_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds the process has run, all threads, to the nanosecond. The
/// `/proc` counters of the same time advance in whole scheduler ticks
/// for a running thread, too coarse for a 15-ms kernel part.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which on 64-bit Linux is two `long`s as in `Timespec`, and
    // `ts` is a live local that nothing else borrows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides the process CPU clock");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t0 = cpu_seconds();
    black_box(f());
    cpu_seconds() - t0
}

fn format_floats() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0.0f64;
    for _ in 0..FLOATS {
        let v = (xorshift(&mut x) >> 11) as f64 / (1u64 << 20) as f64;
        let s = format!("{:.6}", black_box(v));
        acc += s.parse::<f64>().expect("a formatted float parses");
    }
    acc.to_bits()
}

fn btree() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..TREE_OPS {
        let k = xorshift(&mut x) % TREE_KEYS;
        match i % 3 {
            0 => {
                map.insert(k, i);
            }
            1 => acc = acc.wrapping_add(map.get(&k).copied().unwrap_or(0)),
            _ => acc = acc.wrapping_add(map.remove(&k).unwrap_or(0)),
        }
    }
    acc ^ map.len() as u64
}

fn sort_search() -> u64 {
    let mut x = 0xD1B5_4A32_D192_ED03_u64;
    let mut v: Vec<u64> = (0..SORTED)
        .map(|_| xorshift(&mut x) % (4 * SORTED as u64))
        .collect();
    v.sort_unstable();
    v.dedup();
    let mut found = 0u64;
    for _ in 0..SORTED {
        let k = xorshift(&mut x) % (4 * SORTED as u64);
        found += u64::from(black_box(&v).binary_search(&k).is_ok());
    }
    found ^ v.len() as u64
}

/// Times the kernel once: the geometric mean of its three parts' CPU
/// seconds.
pub fn sample() -> f64 {
    let parts = [timed(format_floats), timed(btree), timed(sort_search)];
    parts.iter().product::<f64>().cbrt()
}

/// `secs` brought to the reference host's fast speed, given the kernel
/// samples taken just before and just after it was measured.
pub fn calibrate(secs: f64, before: f64, after: f64) -> f64 {
    secs * C_REF / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic host that runs at reference speed, then at half speed
    /// from the middle of the third operation on.
    #[test]
    fn calibrated_times_undo_a_host_that_halves_speed_mid_run() {
        // Every operation does the same work: 1 s at reference speed.
        let samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0].map(|k| k * C_REF);
        let measured = [1.0, 1.0, 1.5, 2.0, 2.0];
        let calibrated: Vec<f64> = measured
            .iter()
            .enumerate()
            .map(|(i, &m)| calibrate(m, samples[i], samples[i + 1]))
            .collect();
        for (i, c) in calibrated.iter().enumerate() {
            assert!((c - 1.0).abs() < 1e-12, "operation {i}: {c}");
        }
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let t0 = cpu_seconds();
        black_box(sort_search());
        assert!(cpu_seconds() > t0);
    }

    #[test]
    fn the_kernel_takes_time() {
        let s = sample();
        assert!(s > 0.0 && s.is_finite(), "{s}");
    }
}
