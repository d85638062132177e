//! Summary statistics and output checks: medians and the tail-percentile
//! rule for timings, the `Stats` digest, and the counting identities every
//! simulation must satisfy.

use mcs_model::{ProcStats, Stats};
use std::fmt::Debug;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// A tail latency: the value at `pct` over `samples` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used.
    pub pct: f64,
    /// Samples behind it.
    pub samples: usize,
    /// The nearest-rank value at `pct`.
    pub value: f64,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it (nearest rank). With fewer than twenty samples no percentile
/// qualifies and the [`median`] is returned, with `pct` = 50 saying so.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |pct: f64| ((pct * n as f64 / 100.0).ceil() as usize).max(1);
    match TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p)) >= 10)
    {
        Some(pct) => Tail {
            pct,
            samples: n,
            value: v[rank(pct) - 1],
        },
        None => Tail {
            pct: 50.0,
            samples: n,
            value: median(&v),
        },
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a value's full `Debug` rendering: every field, every
/// processor, every by-op counter (the maps are ordered, so it is stable).
pub fn digest<T: Debug + ?Sized>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Checks hits + misses = refs for every processor, and reads + writes =
/// refs + `rmw_ops` over the run: an atomic read-modify-write counts as
/// both a read and a write, so each of the workload's `rmw_ops` adds one.
pub fn check_identities(stats: &Stats, rmw_ops: u64) -> Result<(), String> {
    for (i, p) in stats.per_proc.iter().enumerate() {
        if p.hits + p.misses != p.refs {
            return Err(format!(
                "P{i}: hits {} + misses {} != refs {}",
                p.hits, p.misses, p.refs
            ));
        }
    }
    let sum = |f: fn(&ProcStats) -> u64| stats.per_proc.iter().map(f).sum::<u64>();
    let (reads, writes, refs) = (sum(|p| p.reads), sum(|p| p.writes), sum(|p| p.refs));
    if reads + writes != refs + rmw_ops {
        return Err(format!(
            "reads {reads} + writes {writes} != refs {refs} + read-modify-writes {rmw_ops}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99.5 leaves 5, p99 leaves exactly 10.
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 99.0,
                samples: 1000,
                value: 990.0
            }
        );
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 now leaves 9 (rank 990 of 999); p98 leaves 19.
        assert_eq!(tail(&xs).pct, 98.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 90.0,
                samples: 100,
                value: 90.0
            }
        );
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 50.0,
                samples: 20,
                value: 10.0
            }
        );
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 50.0,
                samples: 3,
                value: 3.0
            }
        );
        assert_eq!(
            tail(&[4.0, 1.0]),
            Tail {
                pct: 50.0,
                samples: 2,
                value: 2.5
            }
        );
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn identities_reject_a_miscount() {
        let mut s = Stats::new(2);
        s.per_proc[1].refs = 3;
        s.per_proc[1].reads = 2;
        s.per_proc[1].writes = 2;
        s.per_proc[1].hits = 3;
        assert!(check_identities(&s, 1).is_ok());
        assert!(check_identities(&s, 0).is_err(), "one op too many");
        s.per_proc[1].misses = 1;
        assert!(check_identities(&s, 1).is_err(), "hits + misses overcounts");
    }
}
