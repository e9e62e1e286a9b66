//! The machine's current speed, from a fixed calibration kernel.
//!
//! The shared 2-core virtual machine the benchmark was tuned on runs
//! everything up to ~2× slower for minutes at a time (neighbours on the
//! same host; guest steal time stays near zero). A median absorbs short
//! spells but not that: over ten runs the interquartile range of raw
//! medians reached 0.5–0.8 of the median. The benchmark therefore times
//! this kernel — its own code, which no change to the program touches —
//! around every slice of work, and reports the bounded end-to-end
//! timings at *reference speed*: each measured time multiplied by
//! [`REFERENCE_MS`] over the kernel's time around its slice. The raw
//! times are reported too, by the traced run.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an unloaded run of the 2-core VM the benchmark was
/// tuned on, ms. It sets only the scale of reference-speed values.
pub const REFERENCE_MS: f64 = 5.0;

const SORT_LEN: usize = 1 << 17;
const TABLE_LEN: usize = 1 << 20;
const GATHERS: usize = 1 << 19;
/// Kernel runs per measurement; the median is kept.
const REPEATS: usize = 3;

/// The kernel's buffers and its last measurement.
pub struct Speed {
    keys: Vec<u64>,
    table: Vec<u32>,
    last_ms: f64,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// Allocates the kernel's buffers and takes a first measurement.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = xorshift(x);
                (x % TABLE_LEN as u64) as u32
            })
            .collect();
        let mut speed = Speed {
            keys: vec![0; SORT_LEN],
            table,
            last_ms: 0.0,
        };
        speed.last_ms = speed.measure();
        speed
    }

    /// The factor that brings the slice of work since the previous call
    /// to reference speed: [`REFERENCE_MS`] over the mean kernel time
    /// before and after the slice.
    pub fn slice_factor(&mut self) -> f64 {
        let after = self.measure();
        let factor = REFERENCE_MS / (0.5 * (self.last_ms + after));
        self.last_ms = after;
        factor
    }

    /// Median of [`REPEATS`] kernel runs, ms.
    fn measure(&mut self) -> f64 {
        let mut times = [0.0; REPEATS];
        for t in &mut times {
            *t = self.kernel_ms();
        }
        times.sort_by(f64::total_cmp);
        times[REPEATS / 2]
    }

    /// One kernel run — a sort (branches, cache-resident data) and a
    /// dependent gather over a 4 MiB table (cache misses) — in ms.
    fn kernel_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for key in &mut self.keys {
            x = xorshift(x);
            *key = x;
        }
        self.keys.sort_unstable();
        let mut at = (self.keys[SORT_LEN / 2] % TABLE_LEN as u64) as usize;
        let mut acc = 0u64;
        for _ in 0..GATHERS {
            at = self.table[at] as usize;
            acc = acc.wrapping_add(at as u64);
        }
        black_box(acc);
        1e3 * start.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
