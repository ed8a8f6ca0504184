//! Measurement helpers shared by every workload: order statistics,
//! the seeded input generator, and the process's own CPU, runqueue and
//! memory counters from `/proc`.

use std::time::Instant;

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `p`-th percentile (0–100) of `values`, linearly interpolated
/// between order statistics (`p/100 · (n−1)`); `0.0` for no samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Whether a timing loop started at `started` goes on, having timed
/// `steady` units: it runs for `budget` seconds and until `min` units
/// are timed, but stops at a quarter past the budget — or, while no
/// unit has been steady yet, at a minute.
#[must_use]
pub fn keep_timing(started: Instant, budget: f64, steady: usize, min: usize) -> bool {
    let elapsed = secs_since(started);
    let cap = if steady == 0 {
        (1.25 * budget).max(60.0)
    } else {
        1.25 * budget
    };
    (steady < min.max(1) || elapsed < budget) && elapsed < cap
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The probe's time, in seconds, on the machine the benchmark was
/// calibrated on (a 2-vCPU Intel Xeon virtual machine). Reported times
/// are scaled by `REFERENCE_PROBE_S / probe()`, measured next to each
/// timed unit, so they read as seconds at that reference speed.
pub const REFERENCE_PROBE_S: f64 = 0.018;

/// Times the probe: a fixed CPU kernel owned by the benchmark (sort
/// seeded floats, then bucket them into an ordered map), branchy and
/// cache-bound like the simulator. On a shared machine, neighbours
/// slow the simulator and the probe alike, for seconds or minutes at a
/// time; dividing by a probe timed next to each unit cancels that
/// drift, which raw host time cannot.
#[must_use]
pub fn probe() -> f64 {
    let started = Instant::now();
    let mut rng = Rng::new(99, 9);
    let mut values: Vec<f64> = (0..240_000).map(|_| rng.uniform(0.0, 1.0)).collect();
    values.sort_by(f64::total_cmp);
    let mut buckets = std::collections::BTreeMap::new();
    for (i, x) in values.iter().enumerate().step_by(3) {
        *buckets.entry((x * 5000.0) as u64).or_insert(0.0) += (i as f64).ln_1p();
    }
    std::hint::black_box(buckets.len());
    secs_since(started)
}

/// The factor that converts host seconds measured now into seconds at
/// the reference speed, and the raw probe time it came from.
#[must_use]
pub fn speed_scale() -> (f64, f64) {
    let probe_s = probe();
    (REFERENCE_PROBE_S / probe_s, probe_s)
}

/// The most the probe may change across one timed unit, relative to
/// its first reading, for the unit's times to count.
///
/// The calibration machine switches between a fast and a 1.5× slower
/// speed every second or so. A unit during which it switched is
/// scaled by a probe that matches neither part of it; its times are
/// left out (and counted as `bench.unsteady_units`), while its outputs
/// are still checked.
pub const MAX_PROBE_DRIFT: f64 = 0.1;

/// The probe timed on both sides of one unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    before_s: f64,
}

impl Bracket {
    /// Times the probe before the unit.
    #[must_use]
    pub fn open() -> Self {
        Bracket { before_s: probe() }
    }

    /// Times the probe after the unit. Returns the factor that converts
    /// the unit's host seconds into seconds at the reference speed, the
    /// mean probe time, and whether the machine kept its speed (see
    /// [`MAX_PROBE_DRIFT`]).
    #[must_use]
    pub fn close(self) -> (f64, f64, bool) {
        let after_s = probe();
        let mean_s = (self.before_s + after_s) / 2.0;
        let steady = (after_s / self.before_s - 1.0).abs() <= MAX_PROBE_DRIFT;
        (REFERENCE_PROBE_S / mean_s, mean_s, steady)
    }
}

/// `true` when `n` samples leave at least ten beyond the `p`-th
/// percentile (as [`percentile`] ranks it), the least that makes that
/// percentile worth reporting.
#[must_use]
pub fn percentile_supported(n: usize, p: f64) -> bool {
    if n == 0 {
        return false;
    }
    let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - rank >= 10
}

/// SplitMix64: the benchmark's input generator. The same seed always
/// yields the same inputs; the program under test never sees the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// sharing a seed draw unrelated inputs.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Puts `items` in a uniformly random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// On-CPU and runqueue-wait time of every live thread of this process,
/// in seconds, from `/proc/self/task/*/schedstat`. A run whose wall
/// time grew while its runqueue wait stayed near zero was slowed by
/// the hardware, not by waiting for a CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub cpu_s: f64,
    /// Time spent runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

impl SchedStat {
    /// The current totals (zero where `/proc` is unavailable).
    #[must_use]
    pub fn now() -> Self {
        let mut total = SchedStat::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<f64>().unwrap_or(0.0));
            total.cpu_s += fields.next().unwrap_or(0.0) / 1e9;
            total.runq_wait_s += fields.next().unwrap_or(0.0) / 1e9;
        }
        total
    }

    /// The time accrued since `earlier`, by threads alive at both reads.
    #[must_use]
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
            runq_wait_s: (self.runq_wait_s - earlier.runq_wait_s).max(0.0),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_its_rank() {
        // p90 of 91 samples sits at rank 81: only 9 lie beyond it.
        assert!(!percentile_supported(91, 90.0));
        assert!(percentile_supported(92, 90.0));
        assert!(percentile_supported(100, 90.0));
        assert!(percentile_supported(21, 50.0));
        assert!(!percentile_supported(0, 50.0));
    }

    #[test]
    fn the_generator_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
