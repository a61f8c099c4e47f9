//! Host-speed reference.
//!
//! The boxes this benchmark runs on are shared: for a minute at a time the
//! memory system is contended and everything that streams data runs 10–30 %
//! slower, which moves the *median of ten runs* by as much (two back-to-back
//! ten-seed sets of raw `warm_sweep_highskew` medians differed by 25 %) and
//! would drown any regression bound. So the end-to-end operations of a pass
//! are interleaved with a fixed reference kernel — 64 MiB streamed from DRAM
//! through a hash into a cache-resident table, on as many threads as the
//! campaign has workers, about 50 ms — and the pass's timings are reported
//! in **normalised seconds**: measured seconds × ([`NOMINAL_S`] ÷ the median
//! reference time of the pass). On the reference box in a quiet minute a
//! normalised second is a second; over twenty runs spanning quiet and
//! contended minutes the normalised `warm_sweep_noskew` medians stayed
//! within 9 % of each other while the raw ones spread over 31 %.
//!
//! The kernel belongs to the harness, not to the system under test, so no
//! change to the system can move it. Raw seconds are printed beside the
//! normalised ones; per-layer metrics are raw, with `host.ref_s` to relate
//! them.

use std::time::Instant;

/// What the reference kernel takes on the reference box (2 × Xeon @ 2.1 GHz
/// vCPUs) when nothing else runs.
pub const NOMINAL_S: f64 = 0.050;

/// 64 MiB: several times any last-level cache, so the kernel is paced by the
/// same memory system the trace-streaming simulator is.
const STREAM_WORDS: usize = 8 << 20;
/// 64 KiB of table: stays in the core's own caches.
const TABLE_WORDS: usize = 1 << 13;

fn kernel(stream: &[u64]) -> u64 {
    let mut table = vec![0u64; TABLE_WORDS];
    let mut acc = 1u64;
    for &word in stream {
        let hashed = (word ^ acc).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let slot = (hashed >> 40) as usize & (TABLE_WORDS - 1);
        table[slot] ^= hashed;
        acc = acc.wrapping_add(table[slot] >> 3);
    }
    acc
}

/// The reference kernel's input and worker count.
#[derive(Debug)]
pub struct Reference {
    stream: Vec<u64>,
    threads: usize,
}

impl Reference {
    pub fn new(threads: usize) -> Self {
        let mut x = 0x9876_5432_10fe_dcbau64;
        let stream = (0..STREAM_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self { stream, threads }
    }

    /// Runs the kernel on every worker at once; returns its wall-clock.
    pub fn measure(&self) -> f64 {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| std::hint::black_box(kernel(std::hint::black_box(&self.stream))));
            }
        });
        started.elapsed().as_secs_f64()
    }
}

/// Raw seconds → normalised seconds, given the pass's median reference time.
pub fn normalise(seconds: f64, ref_s: f64) -> f64 {
    seconds * NOMINAL_S / ref_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_shrinks_and_a_fast_host_stretches() {
        assert_eq!(normalise(1.0, NOMINAL_S), 1.0);
        assert_eq!(normalise(1.0, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(normalise(1.0, 0.5 * NOMINAL_S), 2.0);
    }

    #[test]
    fn the_kernel_is_deterministic_work() {
        let reference = Reference::new(1);
        assert_eq!(
            kernel(&reference.stream[..4096]),
            kernel(&reference.stream[..4096])
        );
        assert!(reference.measure() > 0.0);
    }
}
