//! The measured experiments E1–E13 (see `DESIGN.md` §5 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured).
//!
//! Every experiment returns a [`Report`](crate::report::Report); its tests
//! assert the *shape* the paper claims (who wins, by what rough factor,
//! where crossovers fall), never absolute cycle counts.

pub mod e1_shared_data;
pub mod e10_rudolph_segall;
pub mod e11_directory;
pub mod e12_rmw_methods;
pub mod e13_berkeley_wc;
pub mod e2_locking;
pub mod e3_busywait;
pub mod e4_dirty_status;
pub mod e5_invalidation_signal;
pub mod e6_read_for_write;
pub mod e7_source_policy;
pub mod e8_write_no_fetch;
pub mod e9_transfer_units;

use crate::harness::RunSpec;
use crate::report::Report;
use mcs_core::ProtocolKind;
use mcs_model::Stats;
use mcs_sync::{LockSchemeKind, LockSchemeStats};
use mcs_workloads::{
    CriticalSectionBuilder, CriticalSectionWorkload, RandomSharingConfig, RandomSharingWorkload,
};

/// Hard ceiling for experiment runs; hitting it means a deadlock.
const MAX_CYCLES: u64 = 30_000_000;

/// The run builder every measured experiment goes through.
fn spec(kind: ProtocolKind, procs: usize, words_per_block: usize, cache_blocks: usize) -> RunSpec {
    RunSpec::new(kind).procs(procs).geometry(cache_blocks, words_per_block).max_cycles(MAX_CYCLES)
}

/// Outcome of a critical-section run.
#[derive(Debug, Clone)]
pub struct CsOutcome {
    /// Simulator statistics.
    pub stats: Stats,
    /// Completed critical sections.
    pub sections: u64,
    /// Lock-scheme counters.
    pub scheme: LockSchemeStats,
    /// Mean acquire latency in cycles.
    pub mean_acquire: f64,
}

impl CsOutcome {
    /// Bus busy cycles per completed section.
    pub fn bus_cycles_per_section(&self) -> f64 {
        if self.sections == 0 {
            f64::INFINITY
        } else {
            self.stats.bus.busy_cycles as f64 / self.sections as f64
        }
    }

    /// Bus transactions per completed section.
    pub fn bus_txns_per_section(&self) -> f64 {
        if self.sections == 0 {
            f64::INFINITY
        } else {
            self.stats.bus.txns as f64 / self.sections as f64
        }
    }

    /// Unsuccessful lock attempts (failed test-and-sets plus protocol-level
    /// bus retries) per acquisition — the quantity Section E.4's efficient
    /// busy wait drives to zero.
    pub fn failed_attempts_per_acquire(&self) -> f64 {
        let acquires = self.scheme.acquires.max(1);
        (self.scheme.failed_tas + self.stats.bus.retries) as f64 / acquires as f64
    }
}

/// Runs a critical-section workload on `kind` with the given lock `scheme`.
///
/// `configure` tweaks the builder (locks, payload, iterations, …);
/// `words_per_block`/`cache_blocks` set the cache geometry (Rudolph-Segall
/// requires one-word blocks).
pub fn run_cs(
    kind: ProtocolKind,
    procs: usize,
    scheme: LockSchemeKind,
    words_per_block: usize,
    cache_blocks: usize,
    configure: impl Fn(CriticalSectionBuilder) -> CriticalSectionBuilder,
) -> CsOutcome {
    let mut workload = configure(
        CriticalSectionWorkload::builder().scheme(scheme).words_per_block(words_per_block),
    )
    .build();
    let run = spec(kind, procs, words_per_block, cache_blocks).run(&mut workload, None);
    CsOutcome {
        stats: run.stats,
        sections: workload.completed_sections(),
        scheme: *workload.scheme_stats(),
        mean_acquire: workload.mean_acquire_latency(),
    }
}

/// Runs the Smith-calibrated random-sharing workload on `kind`.
pub fn run_random(
    kind: ProtocolKind,
    procs: usize,
    words_per_block: usize,
    cache_blocks: usize,
    cfg: RandomSharingConfig,
) -> Stats {
    spec(kind, procs, words_per_block, cache_blocks)
        .run(&mut RandomSharingWorkload::new(cfg), None)
        .stats
}

/// An experiment runner: regenerates one experiment's report.
pub type Runner = fn() -> Report;

/// Every experiment runner with its id, in E1..E13 order.
pub const RUNNERS: [(&str, Runner); 13] = [
    ("e1", e1_shared_data::run),
    ("e2", e2_locking::run),
    ("e3", e3_busywait::run),
    ("e4", e4_dirty_status::run),
    ("e5", e5_invalidation_signal::run),
    ("e6", e6_read_for_write::run),
    ("e7", e7_source_policy::run),
    ("e8", e8_write_no_fetch::run),
    ("e9", e9_transfer_units::run),
    ("e10", e10_rudolph_segall::run),
    ("e11", e11_directory::run),
    ("e12", e12_rmw_methods::run),
    ("e13", e13_berkeley_wc::run),
];

/// All experiment reports, in order, for the `exp` binary.
pub fn all() -> Vec<Report> {
    // Each experiment is an independent deterministic simulation; fan the
    // thirteen runners out over threads, reports returned in E1..E13 order.
    crate::sweep::sweep(&RUNNERS, |_, (_, run)| run())
}

/// Runs an experiment by id (`e1`…`e13`), or `None` for an unknown id.
pub fn by_id(id: &str) -> Option<Report> {
    RUNNERS.iter().find(|(name, _)| *name == id).map(|(_, run)| run())
}

/// A compact outcome for contention sweeps (E10).
#[derive(Debug, Clone, Copy)]
pub struct ContenderOutcome {
    /// Completed critical sections.
    pub sections: u64,
    /// Bus busy cycles per completed section.
    pub cycles_per_section: f64,
    /// Unsuccessful lock attempts per acquisition.
    pub failed_per_acquire: f64,
}

/// One contention sweep point with one-word blocks (Rudolph-Segall's
/// requirement; used by E10 so both schemes run the same geometry).
pub fn measure_point(
    kind: ProtocolKind,
    scheme: LockSchemeKind,
    procs: usize,
) -> ContenderOutcome {
    let out = run_cs(kind, procs, scheme, 1, 128, |b| {
        b.locks(1).payload_blocks(2).payload_reads(1).payload_writes(2).think_cycles(10).iterations(10)
    });
    ContenderOutcome {
        sections: out.sections,
        cycles_per_section: out.bus_cycles_per_section(),
        failed_per_acquire: out.failed_attempts_per_acquire(),
    }
}
