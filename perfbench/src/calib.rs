//! Host-speed calibration for the end-to-end host times.
//!
//! The benchmark host is a few vCPUs of a shared machine. Its other
//! tenants slow the benchmark down in phases that last from seconds to
//! minutes, by up to 2× on the simulation workloads, so a run's raw median
//! depends on which phases it happened to meet. A fixed reference
//! computation, the probe, is timed between repetitions, and each
//! repetition's host times are rescaled by `REFERENCE_S / probe`, with
//! `probe` the mean of the probes timed just before and just after it. The
//! result is the time the repetition would have taken on a host as fast as
//! the benchmark host when quiet. The probe is part of the benchmark, not
//! of the program, so a change to the program moves the rescaled times
//! exactly as it moves the raw ones. The raw times are printed alongside.
//!
//! The probe formats short JSON lines and copies each into a fresh heap
//! allocation through the benchmark's global allocator: short branchy
//! calls and small allocations, as in the simulator's event and
//! bookkeeping code. On the benchmark host it slowed 1.53× while
//! `sharing_4p` slowed 1.56×, and 1.13× while `lock_obs_16p` slowed 1.18×.
//! Register-only loops and pointer chases through 1–32 MB barely slowed in
//! those phases, and adding a 4 MiB chase to the probe for `sharing_256p`
//! (3 MB of heap) helped in some phases and hurt in others, so the probe
//! is the same for every workload.

use crate::trace::now_ns;
use std::fmt::Write as _;
use std::hint::black_box;

/// The probe's time on the benchmark host (2-vCPU Xeon VM) in a quiet
/// phase: the host speed every rescaled time refers to.
pub const REFERENCE_S: f64 = 2.0e-3;

/// Lines the probe formats.
const PROBE_LINES: u64 = 16_384;

/// Runs the probe once on the calling thread and returns its host seconds.
///
/// It runs on one thread even where the measured code uses more (the paper
/// regeneration's sweep): probing every core at once tracked that
/// workload's phases less well than probing the calling thread.
pub fn probe_s() -> f64 {
    let start = now_ns();
    let mut line = String::new();
    let mut bytes = 0usize;
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..black_box(PROBE_LINES) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.clear();
        let kind = if x.is_multiple_of(3) { "read" } else { "write" };
        let _ = write!(
            line,
            "{{\"cycle\":{},\"proc\":{},\"kind\":\"{kind}\",\"block\":{}}}",
            i * 7,
            i % 16,
            x % 4096
        );
        // A fresh allocation per line, as an event record would make.
        let copy: Vec<u8> = line.as_bytes().to_vec();
        bytes += black_box(copy).len();
    }
    black_box(bytes);
    (now_ns() - start) as f64 * 1e-9
}

/// Times the probe between repetitions and turns raw host times into
/// rescaled ones.
#[derive(Debug)]
pub struct Speed {
    before: f64,
    scale: f64,
    /// Every probe time so far, seconds.
    pub probes: Vec<f64>,
}

impl Speed {
    /// Times the first probe.
    pub fn new() -> Self {
        let before = probe_s();
        Speed {
            before,
            scale: 1.0,
            probes: vec![before],
        }
    }

    /// Times the probe after a repetition and fixes the scale for that
    /// repetition's times; the probe also serves as the next one's
    /// "before".
    pub fn after_rep(&mut self) {
        let after = probe_s();
        self.scale = REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        self.probes.push(after);
    }

    /// `raw` host seconds rescaled to the reference host speed, using the
    /// scale of the last repetition.
    pub fn rescale(&self, raw: f64) -> f64 {
        raw * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_follows_the_probe() {
        let mut speed = Speed::new();
        speed.after_rep();
        let scale = speed.rescale(1.0);
        assert!(scale.is_finite() && scale > 0.0);
        assert!((speed.rescale(2.0) - 2.0 * scale).abs() < 1e-12);
        let (before, after) = (speed.probes[0], speed.probes[1]);
        assert!((scale - REFERENCE_S / ((before + after) / 2.0)).abs() < 1e-12);
    }
}
