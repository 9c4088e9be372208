//! The host's speed, measured beside the program.
//!
//! The benchmark runs on shared hosts whose speed drifts: on a 2-core KVM
//! guest, the same learning pass over the same 2M-row CSV took anywhere from
//! 0.71 s to 1.52 s within four minutes, in stretches of tens of seconds, so
//! the median of a 30-second run still moved by a quarter or more from run
//! to run. Learning times are therefore scaled to a nominal host. Around
//! each timed learning pass (or registry load) a yardstick is timed: a fixed
//! amount of work in code of this package, none of the program's. The
//! pass's times are multiplied by the yardstick's nominal time over its
//! measured time. A slower host stretches both and cancels out; a change to
//! the program moves only the pass, so it shows in full.
//!
//! The yardstick has two halves of about equal time, each matching a kind of
//! work the learner does: tokenizing a 34 MB CSV on one thread, as the trace
//! decoder streams its input, and a random walk over a 2 MB table on every
//! core at once, as the SAT solvers of the learner's portfolio work in
//! cache. Over ten 30-second `learn_sat` runs, the spread of the learn
//! time's medians fell from 0.104 of their median unscaled to 0.034 scaled.
//! Serving passes are not scaled: the yardstick did not follow the speed of
//! the server's two threads handing events to each other.

use std::time::Instant;

use tracelearn_workloads::Workload;

use crate::inputs;
use crate::stats::Samples;

/// The yardstick's time on an unloaded host: the fastest tenth of its
/// measurements on a 2-core KVM guest of a Xeon (Sapphire Rapids) server.
pub const NOMINAL_S: f64 = 0.060;

/// Rows of the tokenized CSV (34 MB), and the fixed seed it is made from,
/// so that every run of every workload measures the same yardstick.
const ROWS: usize = 2_000_000;
const SEED: u64 = 0x7A2D_5717;
/// Fields are hashed into a table this large, as a decoder interns values.
const TABLE: usize = 1 << 16;
/// Random-walk table entries per thread (2 MB) and steps.
const WALK_TABLE: usize = 1 << 18;
const WALK_STEPS: u64 = 2_000_000;

pub struct Yardstick {
    csv: Vec<u8>,
    threads: usize,
    /// The speed factor measured after the previous pass.
    last: Option<f64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            csv: inputs::csv(Workload::LinuxKernel, ROWS, SEED),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            last: None,
        }
    }
}

impl Yardstick {
    /// Times one yardstick and returns the host-speed factor: the nominal
    /// time over the measured time (below 1 on a slow host).
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(tokenize(&self.csv));
        std::thread::scope(|scope| {
            for thread in 0..self.threads {
                scope.spawn(move || std::hint::black_box(walk(thread as u64)));
            }
        });
        NOMINAL_S / start.elapsed().as_secs_f64().max(1e-9)
    }

    /// Call before a timed pass: measures the host unless the previous
    /// pass's closing measurement stands.
    pub fn open(&mut self) {
        if self.last.is_none() {
            self.last = Some(self.measure());
        }
    }

    /// Call after a timed pass: the factor its times are scaled by, the
    /// mean of the measurements just before and just after it.
    pub fn close(&mut self) -> f64 {
        let after = self.measure();
        let before = self.last.replace(after).unwrap_or(after);
        (before + after) / 2.0
    }
}

/// A note on the factors a run's times were scaled by.
pub fn summary(factors: &Samples) -> String {
    format!(
        "host speed: times scaled to the nominal host by factors with median {:.3} \
         (p10 {:.3}, p90 {:.3}) over {} passes",
        factors.median().unwrap_or(f64::NAN),
        factors.quantile(0.1).unwrap_or(f64::NAN),
        factors.quantile(0.9).unwrap_or(f64::NAN),
        factors.len()
    )
}

/// Splits `bytes` into comma- and newline-separated fields, hashes each
/// (FNV-1a) and counts it in a table; returns a checksum of the table.
fn tokenize(bytes: &[u8]) -> u64 {
    let mut table = vec![0u32; TABLE];
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        if byte == b',' || byte == b'\n' {
            if let Some(count) = table.get_mut(hash as usize & (TABLE - 1)) {
                *count = count.wrapping_add(1);
            }
            hash = 0x811c_9dc5;
        } else {
            hash = (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193);
        }
    }
    table
        .iter()
        .enumerate()
        .map(|(slot, &count)| slot as u64 * u64::from(count))
        .sum()
}

/// A data-dependent random walk over a table, updating what it visits.
fn walk(seed: u64) -> u64 {
    let mut table: Vec<u64> = (0..WALK_TABLE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mask = WALK_TABLE as u64 - 1;
    let mut x = 0x1234_5678 + seed;
    for _ in 0..WALK_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let Some(slot) = table.get_mut((x & mask) as usize) else {
            continue;
        };
        *slot = slot.wrapping_add(x).rotate_left(7);
        if *slot & 3 == 0 {
            x = x.wrapping_add(table.get((x >> 20 & mask) as usize).map_or(0, |&v| v));
        }
    }
    table.iter().fold(x, |acc, &v| acc ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_hashes_every_field() {
        assert_eq!(tokenize(b"a,b\nc,d\n"), tokenize(b"a,b\nc,d\n"));
        assert_ne!(tokenize(b"a,b\n"), tokenize(b"a,c\n"));
        assert_eq!(tokenize(b""), 0);
    }

    #[test]
    fn a_pass_is_scaled_by_the_mean_of_its_neighbouring_measurements() {
        let mut yardstick = Yardstick {
            csv: b"a,b\n".repeat(1 << 12),
            threads: 1,
            last: None,
        };
        yardstick.open();
        let opened = yardstick.last.unwrap();
        let first = yardstick.close();
        let between = yardstick.last.unwrap();
        assert!((first - (opened + between) / 2.0).abs() < 1e-12);
        let second = yardstick.close();
        assert!((second - (between + yardstick.last.unwrap()) / 2.0).abs() < 1e-12);
        assert!(first > 0.0 && second.is_finite());
    }
}
