//! Host-speed correction for timings.
//!
//! The reference machine shares its cores and caches with other tenants,
//! and the same work there takes up to 1.6 times as long in a busy period
//! as in a quiet one, over stretches of seconds to minutes. A median over
//! one run cannot take that out, so the benchmark samples a fixed
//! reference kernel between the steps it times and scales each raw time by
//! [`REFERENCE_S`] over the kernel's mean time in that stretch.
//!
//! The kernel and its input belong to the benchmark: no change to the
//! program moves it, so a change that makes the program faster moves a
//! corrected time by the same share as the raw one. The kernel is an
//! order-2 context table in a hash map, the kind of work the value
//! predictors do, so it slows down with them when a neighbour competes
//! for the caches.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::common::derive_seed;

/// The kernel's seconds in a quiet period on the reference machine (a
/// 2-vCPU Xeon virtual machine), so that corrected times read as seconds
/// there.
pub const REFERENCE_S: f64 = 0.010;

/// PCs and records of the kernel's fixed input.
const PCS: u64 = 64;
const RECORDS: u64 = 400_000;

type Table = HashMap<(u32, u64, u64), u64, BuildHasherDefault<DefaultHasher>>;

struct Clock {
    input: Vec<(u32, u64)>,
    /// The kernel's table, kept between samples so that a sample does not
    /// fault fresh pages in: page faults in a virtual machine cost the host,
    /// and would make the kernel far more sensitive to its load than the
    /// program is.
    table: Mutex<Table>,
    /// Seconds and count of the samples since the last [`take`].
    pending: Mutex<(f64, u32)>,
}

fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| {
        let input = input();
        let mut table = Table::default();
        kernel(&input, &mut table);
        Clock { input, table: Mutex::new(table), pending: Mutex::new((0.0, 0)) }
    })
}

/// The kernel's input: per PC a mix of strides, short cycles and values
/// drawn from a pool, so the table holds tens of thousands of contexts.
fn input() -> Vec<(u32, u64)> {
    (0..RECORDS)
        .map(|i| {
            let pc = i % PCS;
            let step = i / PCS;
            let value = match pc % 4 {
                0 => step * 8,
                1 => step % 7,
                _ => derive_seed(pc, step) % 65_536,
            };
            (pc as u32, value)
        })
        .collect()
}

/// One pass of the kernel over `input`, starting from an empty `table`:
/// seconds taken and predictions that came true.
fn kernel(input: &[(u32, u64)], table: &mut Table) -> (f64, u64) {
    let start = Instant::now();
    table.clear();
    let mut context = [(0u64, 0u64); PCS as usize];
    let mut hits = 0u64;
    for &(pc, value) in input {
        let c = &mut context[pc as usize];
        let key = (pc, c.0, c.1);
        if table.insert(key, value) == Some(value) {
            hits += 1;
        }
        *c = (c.1, value);
    }
    (start.elapsed().as_secs_f64(), std::hint::black_box(hits))
}

/// Runs the kernel once and keeps its time for the next [`take`].
pub fn sample() {
    let clock = clock();
    let (secs, _) = kernel(&clock.input, &mut clock.table.lock().expect("host clock poisoned"));
    let mut pending = clock.pending.lock().expect("host clock poisoned");
    pending.0 += secs;
    pending.1 += 1;
    let (a, b) = (alu(), small());
    eprintln!("S {:.4} {secs:.6} {a:.6} {b:.6}", t0());
    let mut e = EXTRA.lock().unwrap(); e.0 += a; e.1 += b;
}

/// Drops the samples taken since the last [`take`] and takes a fresh one,
/// so that the samples of the next stretch bracket it.
pub fn restart() {
    *clock().pending.lock().expect("host clock poisoned") = (0.0, 0);
    sample();
}

/// The mean kernel seconds of the samples since the last call, sampling
/// once first if there are none.
pub fn take() -> f64 {
    if clock().pending.lock().expect("host clock poisoned").1 == 0 {
        sample();
    }
    let (secs, count) = std::mem::take(&mut *clock().pending.lock().expect("host clock poisoned"));
    secs / f64::from(count)
}

/// `raw_s` as it would read on the reference machine when quiet, given the
/// kernel's mean seconds beside it.
#[must_use]
pub fn corrected(raw_s: f64, reference_s: f64) -> f64 {
    raw_s * REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_finds_the_cycles() {
        let (input, mut table) = (input(), Table::default());
        let (_, hits) = kernel(&input, &mut table);
        assert_eq!(hits, kernel(&input, &mut table).1);
        // The short cycles repeat their contexts, so a quarter of the
        // records (less the warm-up) are predicted.
        assert!(hits > RECORDS / 5, "{hits}");
    }

    #[test]
    fn take_averages_the_pending_samples() {
        restart();
        sample();
        let mean = take();
        assert!(mean > 0.0);
        assert_eq!(clock().pending.lock().unwrap().1, 0);
        assert!(take() > 0.0, "an empty take samples once");
    }

    #[test]
    fn correction_scales_by_the_reference() {
        assert_eq!(corrected(3.0, REFERENCE_S), 3.0);
        assert_eq!(corrected(3.0, 2.0 * REFERENCE_S), 1.5);
    }
}

pub fn alu() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..3_000_000u64 { x = derive_seed(x, i); }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}
pub fn small() -> f64 {
    let clock = clock();
    let mut t = Table::default();
    let start = Instant::now();
    for _ in 0..20 { kernel(&clock.input[..20_000], &mut t); }
    start.elapsed().as_secs_f64()
}
pub static EXTRA: Mutex<(f64, f64)> = Mutex::new((0.0, 0.0));

pub fn t0() -> f64 { static T: OnceLock<Instant> = OnceLock::new(); T.get_or_init(Instant::now).elapsed().as_secs_f64() }
