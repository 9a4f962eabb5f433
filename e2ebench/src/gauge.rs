//! A gauge of how fast the shared host runs this process at the moment.
//!
//! Between measured runs the benchmark runs a fixed reference kernel,
//! shaped like plan ranking: per query it allocates 1,300 small records,
//! scores each with floating-point arithmetic, sorts the indices by score
//! and files the best 200 in a `BTreeMap`. It uses only `std`, so no
//! change to the program changes its work. The end-to-end times are
//! scaled by the kernel's median CPU time over [`NOMINAL_S`]: they read as
//! on a host that runs the kernel in [`NOMINAL_S`].
//!
//! On the 2-vCPU baseline host, whose speed for this program swung by up
//! to a third within minutes, the kernel's time over 15-60 s windows
//! correlated 0.82-0.92 with `scale100`'s (elasticity 0.76-0.84), and
//! dividing by it cut the interquartile spread of the windows' rates from
//! 0.10-0.12 to 0.03-0.05. An ALU loop and pointer chases over 8 and
//! 64 MiB tracked the program worse and are not used.

use crate::stats;
use crate::timed::Stamp;

/// The CPU time the reference kernel is scaled to, in seconds.
pub const NOMINAL_S: f64 = 0.1;

/// Queries per kernel run, plans per query, plans filed per query.
const QUERIES: usize = 600;
const PLANS: u32 = 1_300;
const FILED: usize = 200;

/// One scored record, about the size of a plan's cost inputs.
struct Record {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    server: u32,
    tag: Vec<u16>,
}

/// The reference kernel; returns a checksum of its work.
pub fn kernel() -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sum = 0.0;
    for _ in 0..QUERIES {
        let records: Vec<Record> = (0..PLANS)
            .map(|i| Record {
                a: next(),
                b: next(),
                c: next() * 10.0,
                d: next(),
                server: i % 100,
                tag: vec![i as u16; 3],
            })
            .collect();
        let scores: Vec<f64> = records
            .iter()
            .map(|r| (r.a / (1.0 - r.b + 1e-3)).ln_1p() + r.c.sqrt() * r.d + r.server as f64 * 1e-3)
            .collect();
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by(|&x, &y| scores[x].total_cmp(&scores[y]));
        let filed: std::collections::BTreeMap<u32, usize> =
            order.iter().take(FILED).map(|&o| (records[o].server, o)).collect();
        sum += scores[order[0]] + filed.len() as f64 + records[order[1]].tag.len() as f64;
    }
    sum
}

/// Reference-kernel CPU times sampled over one benchmark run.
#[derive(Default)]
pub struct Gauge {
    samples: Vec<f64>,
}

impl Gauge {
    /// Runs the kernel once and records its CPU time.
    pub fn sample(&mut self) {
        let t0 = Stamp::now();
        std::hint::black_box(kernel());
        self.samples.push(t0.elapsed().cpu);
    }

    /// How many times slower than nominal the host ran the kernel: the
    /// median sample over [`NOMINAL_S`]. Multiply a rate by it, divide a
    /// time by it.
    pub fn slowdown(&self) -> f64 {
        assert!(!self.samples.is_empty(), "the gauge was sampled");
        stats::median(&self.samples) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_the_slowdown_is_a_median() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        let mut g = Gauge { samples: vec![0.3, 0.1, 0.2] };
        assert!((g.slowdown() - 2.0).abs() < 1e-12);
        g.sample();
        assert_eq!(g.samples.len(), 4);
        assert!(g.samples[3] > 0.0);
    }
}
