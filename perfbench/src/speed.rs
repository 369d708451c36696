//! The host-speed reference of `advise_large`.
//!
//! The shared 2-core VM the benchmark runs on changes speed by up to a
//! third for tens of seconds to minutes at a time, and every stage of an
//! advisory moves with it. Whole runs fall into slow or fast spells, so
//! no statistic within a run removes them. `advise_large` therefore
//! times a fixed kernel after every pass and reports its timings at the
//! reference speed: raw × [`NOMINAL_MS`] ÷ the run's median kernel time.
//! The kernel is the benchmark's own code and reads no input, so a
//! change in the program under test does not move it. It sorts and
//! hashes a few MiB, about the advisory's working set; smaller kernels
//! slowed less than the advisories in slow spells. The raw figures stay
//! in the result document.

use std::time::Instant;

use crate::util::{median, ms_since, Rng};

/// The kernel's typical median time on the 2-core VM the bounds were
/// set on; it makes the adjusted figures read close to raw ones there.
pub const NOMINAL_MS: f64 = 6.8;

/// Keys sorted and hashed per kernel call.
const KEYS: usize = 1 << 17;
/// Slots of the kernel's open-addressing table (a power of two).
const SLOTS: usize = 1 << 19;

/// A fixed mix of the work an advisory does: a sort, hash-table inserts
/// and probes, and dependent floating-point arithmetic.
fn kernel(keys: &mut Vec<u64>, table: &mut [u64]) -> u64 {
    let mut rng = Rng::new(0x5eed);
    keys.clear();
    keys.extend((0..KEYS).map(|_| rng.next_u64() | 1));
    keys.sort_unstable();
    table.fill(0);
    let mask = SLOTS - 1;
    for &k in keys.iter() {
        let mut slot = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        while table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        table[slot] = k;
    }
    let mut found = 0u64;
    let mut acc = 1.0f64;
    for &k in keys.iter().step_by(2) {
        let probe = k ^ (k >> 7);
        let mut slot = (probe.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        while table[slot] != 0 && table[slot] != probe {
            slot = (slot + 1) & mask;
        }
        found += u64::from(table[slot] == probe);
        acc = acc * 0.999_9 + (k >> 44) as f64 / (1.0 + acc);
    }
    found ^ acc.to_bits()
}

/// Timings of the reference kernel over one run.
pub struct Reference {
    keys: Vec<u64>,
    table: Vec<u64>,
    times_ms: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            keys: Vec::with_capacity(KEYS),
            table: vec![0; SLOTS],
            times_ms: Vec::new(),
        }
    }

    /// Runs and times the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(kernel(&mut self.keys, &mut self.table));
        self.times_ms.push(ms_since(start));
    }

    /// The median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.times_ms)
    }

    pub fn samples(&self) -> usize {
        self.times_ms.len()
    }

    /// The factor that brings this run's timings to the reference
    /// speed; 1 without samples.
    pub fn factor(&self) -> f64 {
        if self.times_ms.is_empty() {
            1.0
        } else {
            NOMINAL_MS / self.median_ms()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_the_median_to_the_nominal_time() {
        let mut host = Reference::new();
        assert_eq!(host.factor(), 1.0);
        for _ in 0..3 {
            host.sample();
        }
        assert_eq!(host.samples(), 3);
        assert!((host.factor() * host.median_ms() - NOMINAL_MS).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        let (mut keys, mut table) = (Vec::new(), vec![0; SLOTS]);
        let first = kernel(&mut keys, &mut table);
        assert_eq!(kernel(&mut keys, &mut table), first);
    }
}
