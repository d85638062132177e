//! Shared run harness: one place that builds a system from a compact spec,
//! runs a workload on it, and collects every observability output.
//!
//! The measured experiments ([`crate::experiments`]), the observed-run
//! library ([`crate::obsrun`]) and the `faultmatrix` binary all build their
//! systems through [`RunSpec`], so a change to how a run is constructed (a
//! new config knob, a different default geometry) lands in one place. The
//! repository benchmark (`perfbench/`, declared in `BENCHMARK.json`) times
//! these same paths. Only the directed figure and ablation scenarios, which
//! drive a system step by step, build their own.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::Stats;
use mcs_obs::{EventSink, IntervalSampler, LatencyHists};
use mcs_sim::faults::{FaultPlan, FaultStats, WatchdogConfig, WatchdogReport};
use mcs_sim::{SimError, System, SystemConfig, Workload};

/// Compact description of one experiment/observed system: protocol, scale,
/// cache geometry, cycle ceiling and which observability outputs to record.
#[derive(Debug, Clone)]
pub struct RunSpec {
    kind: ProtocolKind,
    procs: usize,
    cache_blocks: usize,
    words_per_block: usize,
    histograms: bool,
    timeline_window: Option<u64>,
    max_cycles: u64,
    faults: Option<FaultPlan>,
    watchdog: Option<WatchdogConfig>,
    trace_capacity: Option<usize>,
}

/// Everything one harness run produces. Statistics are collected even when
/// the run aborted (`error` set), covering the simulated prefix.
#[derive(Debug, Clone)]
pub struct HarnessRun {
    /// Scalar statistics.
    pub stats: Stats,
    /// Whether every processor finished before the cycle ceiling (false on
    /// an abort or a deadline cut-off).
    pub completed: bool,
    /// Latency histograms, when the spec enabled them.
    pub hists: Option<LatencyHists>,
    /// Interval time-series, when the spec enabled it.
    pub timeline: Option<IntervalSampler>,
    /// Injected-fault counters, when the spec armed the fault layer.
    pub faults: Option<FaultStats>,
    /// Watchdog summary, when the spec armed the watchdog.
    pub watchdog: Option<WatchdogReport>,
    /// Events kept in the bounded trace, when the spec enabled it.
    pub trace_len: usize,
    /// Events the bounded trace ring dropped.
    pub trace_dropped: u64,
    /// The typed error that ended the run early, if any.
    pub error: Option<SimError>,
}

impl RunSpec {
    /// A 4-processor system on `kind` with the default geometry (64
    /// fully-associative blocks, word blocks where the protocol needs them),
    /// no observability, and a generous cycle ceiling (hitting it means a
    /// deadlock).
    pub fn new(kind: ProtocolKind) -> Self {
        RunSpec {
            kind,
            procs: 4,
            cache_blocks: 64,
            words_per_block: if kind.requires_word_blocks() { 1 } else { 4 },
            histograms: false,
            timeline_window: None,
            max_cycles: 300_000_000,
            faults: None,
            watchdog: None,
            trace_capacity: None,
        }
    }

    /// Sets the number of processors.
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = procs;
        self
    }

    /// Sets the fully-associative cache geometry: `cache_blocks` blocks of
    /// `words_per_block` words each.
    pub fn geometry(mut self, cache_blocks: usize, words_per_block: usize) -> Self {
        self.cache_blocks = cache_blocks;
        self.words_per_block = words_per_block;
        self
    }

    /// Enables latency histograms.
    pub fn histograms(mut self) -> Self {
        self.histograms = true;
        self
    }

    /// Enables the interval time-series with the given window.
    pub fn timeline(mut self, window_cycles: u64) -> Self {
        self.timeline_window = Some(window_cycles);
        self
    }

    /// Caps the run at `max_cycles` simulated cycles.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms the liveness watchdog.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Enables the in-memory trace bounded to a ring of `capacity` events.
    pub fn bounded_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The words-per-block this spec resolved for its protocol.
    pub fn words_per_block(&self) -> usize {
        self.words_per_block
    }

    /// Builds the system, attaches `sink` if given, runs `workload` and
    /// collects the outputs — **never panicking**: a simulation abort (a
    /// watchdog trip, an oracle violation, an unrecoverable fault) lands in
    /// [`HarnessRun::error`] with the statistics of the simulated prefix.
    pub fn try_run<W: Workload>(
        &self,
        workload: &mut W,
        sink: Option<Box<dyn EventSink>>,
    ) -> HarnessRun {
        let cache = CacheConfig::fully_associative(self.cache_blocks, self.words_per_block)
            .expect("valid cache geometry");
        with_protocol!(self.kind, p => {
            let mut cfg = SystemConfig::new(self.procs).with_cache(cache);
            if self.histograms {
                cfg = cfg.with_histograms(true);
            }
            if let Some(window) = self.timeline_window {
                cfg = cfg.with_timeline(window);
            }
            if let Some(plan) = &self.faults {
                cfg = cfg.with_faults(plan.clone());
            }
            if let Some(wd) = self.watchdog {
                cfg = cfg.with_watchdog(wd);
            }
            if let Some(cap) = self.trace_capacity {
                cfg = cfg.with_trace(true).with_trace_capacity(cap);
            }
            let mut sys = System::new(p, cfg).expect("valid system");
            if let Some(sink) = sink {
                sys.add_sink(sink);
            }
            let (stats, completed, error) = match sys.run(workload, self.max_cycles) {
                Ok(report) => (report.stats, report.completed, None),
                Err(e) => (sys.stats().clone(), false, Some(e)),
            };
            sys.finish_sinks();
            HarnessRun {
                stats,
                completed,
                hists: sys.histograms().cloned(),
                timeline: sys.timeline().cloned(),
                faults: sys.fault_stats().cloned(),
                watchdog: sys.watchdog_report(),
                trace_len: sys.trace().len(),
                trace_dropped: sys.trace().dropped(),
                error,
            }
        })
    }

    /// [`Self::try_run`], panicking on simulation errors — for experiments
    /// and observed runs where a failure is a bug, not a condition to
    /// handle.
    pub fn run<W: Workload>(&self, workload: &mut W, sink: Option<Box<dyn EventSink>>) -> HarnessRun {
        let run = self.try_run(workload, sink);
        if let Some(e) = &run.error {
            panic!("{} harness run failed: {e}", self.kind);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sync::LockSchemeKind;
    use mcs_workloads::CriticalSectionWorkload;

    fn tiny_cs() -> CriticalSectionWorkload {
        CriticalSectionWorkload::builder()
            .scheme(LockSchemeKind::CacheLock)
            .words_per_block(4)
            .locks(1)
            .payload_blocks(1)
            .payload_reads(2)
            .payload_writes(2)
            .think_cycles(10)
            .iterations(3)
            .build()
    }

    #[test]
    fn spec_defaults_resolve_block_size_from_protocol() {
        assert_eq!(RunSpec::new(ProtocolKind::BitarDespain).words_per_block(), 4);
        assert_eq!(RunSpec::new(ProtocolKind::RudolphSegall).words_per_block(), 1);
        let overridden = RunSpec::new(ProtocolKind::RudolphSegall).geometry(128, 8);
        assert_eq!((overridden.cache_blocks, overridden.words_per_block()), (128, 8));
    }

    #[test]
    fn run_collects_requested_outputs() {
        let base = RunSpec::new(ProtocolKind::BitarDespain);
        let plain = base.clone().run(&mut tiny_cs(), None);
        assert!(plain.stats.cycles > 0);
        assert!(plain.hists.is_none());
        assert!(plain.timeline.is_none());
        let observed = base.histograms().timeline(100).run(&mut tiny_cs(), None);
        assert_eq!(observed.stats, plain.stats, "observability must not change behaviour");
        assert!(observed.hists.is_some());
        assert!(observed.timeline.is_some());
    }

    #[test]
    fn try_run_surfaces_typed_errors_instead_of_panicking() {
        // Every unlock lost, no recovery: the watchdog must end the run
        // with a typed error and the harness must hand it back.
        let run = RunSpec::new(ProtocolKind::BitarDespain)
            .procs(2)
            .faults(FaultPlan::new(0xDEAD).lose_unlock(1000))
            .watchdog(WatchdogConfig::new().check_interval(1_000).stall_threshold(10_000))
            .bounded_trace(64)
            .try_run(&mut tiny_cs(), None);
        assert!(!run.completed);
        assert!(matches!(run.error, Some(SimError::Watchdog(_))), "got: {:?}", run.error);
        assert!(run.faults.expect("fault layer on").lost_unlocks > 0);
        assert!(run.watchdog.expect("watchdog armed").checks > 0);
        assert!(run.trace_len > 0, "prefix trace must be available post-mortem");
        assert!(run.stats.cycles > 0, "prefix stats must be available post-mortem");
    }
}
