//! The host-speed loop: a fixed loop of this benchmark's own code, timed
//! right before each invocation, so that host-time metrics can be given
//! in normalized seconds.
//!
//! The benchmark runs on shared hosts whose speed changes by up to 2×
//! within a minute, on both cores at once.  Raw invocation times then
//! spread by 15–25 % over ten runs, more than a bound can hold.  An
//! invocation and the loop timed just before it slow down together, so
//! their ratio spreads by a few percent instead.  A normalized value is
//! `seconds × NOMINAL_LOOP_S / loop seconds`: on a host that runs the loop
//! in [`NOMINAL_LOOP_S`] it equals the seconds measured.
//!
//! The loop must not call the repository's code: a change that sped up
//! the simulator would speed up the loop too and hide its own gain.  It
//! mixes the kinds of work the simulator does: branchy integer arithmetic,
//! and read-modify-write at random places in a table that fits a core's
//! L2 cache and in one that does not.

use std::hint::black_box;
use std::time::Instant;

/// The loop's time, in seconds, that normalized seconds are scaled to:
/// about its time (0.15–0.18 s) on the 2-vCPU x86-64 development host
/// while the README's baselines were measured.
pub const NOMINAL_LOOP_S: f64 = 0.15;

/// The loop's tables, allocated once so that a timing never includes
/// page faults.
pub struct HostSpeed {
    small: Vec<u32>,
    large: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            small: vec![1; 1 << 16],
            large: vec![1; 1 << 21],
        }
    }

    /// Runs the fixed loop once and returns its wall seconds.
    pub fn loop_s(&mut self) -> f64 {
        let started = Instant::now();
        black_box(arithmetic(18_000_000));
        black_box(scatter(&mut self.small, 7_500_000));
        black_box(scatter(&mut self.large, 3_000_000));
        started.elapsed().as_secs_f64()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Data-dependent branches over a xorshift stream.
fn arithmetic(steps: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..steps {
        let r = xorshift(&mut x);
        if r & 3 == 0 {
            acc = acc.wrapping_add(r.rotate_left((i & 31) as u32));
        } else {
            acc ^= r.wrapping_mul(i | 1);
        }
    }
    acc
}

/// Read-modify-write of `steps` random entries of `table`, whose length
/// is a power of two.
fn scatter(table: &mut [u32], steps: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let mut x = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for _ in 0..steps {
        let r = xorshift(&mut x);
        let slot = &mut table[(r & mask) as usize];
        let v = *slot;
        acc = acc.wrapping_add(u64::from(v));
        *slot = v.wrapping_mul(2_654_435_761).wrapping_add(r as u32);
        if v & 1 == 0 {
            acc ^= r >> 3;
        }
    }
    acc
}
