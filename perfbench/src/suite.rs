//! The four workloads and the one code path that runs each of their
//! simulations, plain or traced.
//!
//! Why these four (see `perfbench/README.md` for the full rationale):
//! `sharing_4p` and `sharing_256p` run the same reference stream on a small
//! and a large machine, so engine-scaling work shows on one and must not
//! show on the other; `lock_obs_16p` is the only workload with the
//! observability layer on and the paper's lock path; `paper_regen` is the
//! "regenerate the paper" user action and the only one that exercises the
//! sweep and the experiment runners.

use crate::stats::check_identities;
use crate::trace::{now_ns, CountingWriter, TracedProtocol, TracedSink, TracedWorkload};
use mcs_bench::{experiments, figures, sweep::sweep};
use mcs_cache::CacheConfig;
use mcs_core::{table1, table2, with_protocol, ProtocolKind};
use mcs_model::{Protocol, Stats};
use mcs_obs::{EventSink, JsonlSink, RunMeta, DEFAULT_WINDOW};
use mcs_sim::faults::WatchdogConfig;
use mcs_sim::{System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{CriticalSectionWorkload, RandomSharingConfig, RandomSharingWorkload};
use std::fmt::Write as _;

/// References in one sharing repetition, split evenly over the processors
/// (64k each on 4 processors, 1k each on 256).
pub const SHARING_REFS: usize = 1 << 18;

/// Critical sections each of the 16 lock contenders completes per run.
pub const LOCK_ITERATIONS: usize = 60;

/// Cycle ceiling for one simulation; reaching it means a deadlock.
const MAX_CYCLES: u64 = 300_000_000;

/// Ring capacity of the bounded trace, as in `obsreport`.
const TRACE_RING: usize = 16_384;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Random sharing, 4 processors, Bitar-Despain, observability off.
    Sharing4p,
    /// The same stream and total references on 256 processors.
    Sharing256p,
    /// The E3 lock contenders on 16 processors with observability on.
    LockObs16p,
    /// One full in-process regeneration of the paper.
    PaperRegen,
}

impl WorkloadId {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Sharing4p,
        WorkloadId::Sharing256p,
        WorkloadId::LockObs16p,
        WorkloadId::PaperRegen,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Sharing4p => "sharing_4p",
            WorkloadId::Sharing256p => "sharing_256p",
            WorkloadId::LockObs16p => "lock_obs_16p",
            WorkloadId::PaperRegen => "paper_regen",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `Stats` digest of the default-seed repetition (`paper_regen`: of
    /// the rendered report text), recorded with the benchmark. A change
    /// that alters simulated behaviour changes it; the mismatch message
    /// prints the new value.
    pub fn reference_digest(self) -> u64 {
        match self {
            WorkloadId::Sharing4p => 0x78b3_fa83_0d62_9e0d,
            WorkloadId::Sharing256p => 0x4f95_a476_ba60_043c,
            WorkloadId::LockObs16p => 0x8c2a_76ed_89f4_2f17,
            WorkloadId::PaperRegen => 0x0640_4d92_8932_95c7,
        }
    }

    /// The simulations one repetition runs, in order (none for
    /// `paper_regen`, whose simulations happen inside the experiments).
    pub fn parts(self, seed: u64) -> Vec<Part> {
        let sharing = |procs| Part {
            kind: ProtocolKind::BitarDespain,
            procs,
            load: Load::Sharing {
                seed,
                refs_per_proc: SHARING_REFS / procs,
            },
            obs: false,
        };
        match self {
            WorkloadId::Sharing4p => vec![sharing(4)],
            WorkloadId::Sharing256p => vec![sharing(256)],
            WorkloadId::LockObs16p => [
                (ProtocolKind::BitarDespain, LockSchemeKind::CacheLock),
                (ProtocolKind::Illinois, LockSchemeKind::TestAndTestAndSet),
            ]
            .map(|(kind, scheme)| Part {
                kind,
                procs: 16,
                load: Load::Lock(scheme),
                obs: true,
            })
            .to_vec(),
            WorkloadId::PaperRegen => Vec::new(),
        }
    }
}

/// What a simulation's processors execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `RandomSharingConfig` defaults but for the seed and the length.
    Sharing {
        /// Generator seed.
        seed: u64,
        /// References each processor issues.
        refs_per_proc: usize,
    },
    /// E3's critical sections (one lock, think 10) under `scheme`.
    Lock(LockSchemeKind),
}

/// One simulation of a repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    /// Protocol.
    pub kind: ProtocolKind,
    /// Processors.
    pub procs: usize,
    /// Workload.
    pub load: Load,
    /// Run under the `obsreport` configuration: histograms, timeline,
    /// armed watchdog, 16k trace ring and a JSONL sink into a byte counter.
    pub obs: bool,
}

impl Part {
    fn words_per_block(&self) -> usize {
        if self.kind.requires_word_blocks() {
            1
        } else {
            4
        }
    }

    fn config(&self) -> SystemConfig {
        let cache = CacheConfig::fully_associative(64, self.words_per_block())
            .expect("valid cache geometry");
        let cfg = SystemConfig::new(self.procs).with_cache(cache);
        if !self.obs {
            return cfg;
        }
        cfg.with_histograms(true)
            .with_timeline(DEFAULT_WINDOW)
            .with_watchdog(WatchdogConfig::default())
            .with_trace(true)
            .with_trace_capacity(TRACE_RING)
    }

    fn meta(&self) -> RunMeta {
        RunMeta::new()
            .with_str("protocol", self.kind.id())
            .with_u64("procs", self.procs as u64)
    }
}

/// The deterministic outputs of one simulation: what every check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOut {
    /// Simulator statistics.
    pub stats: Stats,
    /// JSONL bytes the sink wrote (0 with observability off).
    pub jsonl_bytes: u64,
    /// Watchdog progress checks (0 with observability off).
    pub watchdog_checks: u64,
}

/// [`now_ns`] stamps of one simulation: start, workload built, system
/// built (sink attached), run returned, sinks finished.
pub type Stamps = [u64; 5];

/// Per-layer counters of one traced simulation.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `proc_access`, `snoop`, `complete`, `evict` calls.
    pub protocol_calls: [u64; 4],
    /// Estimated seconds inside protocol calls.
    pub protocol_s: f64,
    /// Workload `next` calls.
    pub next_calls: u64,
    /// Workload `complete` calls.
    pub complete_calls: u64,
    /// `next` calls that returned `Idle`/`IdleUntil`.
    pub idle_polls: u64,
    /// Estimated seconds inside workload calls.
    pub workload_s: f64,
    /// Events recorded by the sink.
    pub events: u64,
    /// Estimated seconds inside the sink's `record`.
    pub sink_s: f64,
    /// Clock reads the sampling made inside `System::run`.
    pub clock_reads: u64,
}

/// How to run a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Build the workload and the system, then drop them.
    SetupOnly,
    /// Build and run.
    Plain,
    /// Build and run behind the tracing wrappers.
    Traced,
}

/// One simulation's result.
#[derive(Debug)]
pub struct Sim {
    /// Outputs (`None` for [`Mode::SetupOnly`]).
    pub out: Option<SimOut>,
    /// Host-time stamps.
    pub stamps: Stamps,
    /// Layer counters (traced mode only).
    pub layers: Option<Layers>,
}

/// Runs one simulation. `clock_ns` is the cost of one clock read, used to
/// correct sampled call times.
pub fn simulate(part: &Part, mode: Mode, clock_ns: f64) -> Result<Sim, String> {
    with_protocol!(part.kind, p => match part.load {
        Load::Sharing { seed, refs_per_proc } => {
            let cfg = RandomSharingConfig { refs_per_proc, seed, ..Default::default() };
            // The generator issues plain reads and writes only.
            dispatch(p, part, mode, clock_ns, || RandomSharingWorkload::new(cfg), |_| 0)
        }
        Load::Lock(scheme) => dispatch(
            p,
            part,
            mode,
            clock_ns,
            || lock_workload(scheme, part.words_per_block()),
            |w| w.scheme_stats().tas_ops,
        ),
    })
}

fn lock_workload(scheme: LockSchemeKind, words_per_block: usize) -> CriticalSectionWorkload {
    CriticalSectionWorkload::builder()
        .scheme(scheme)
        .words_per_block(words_per_block)
        .locks(1)
        .payload_blocks(1)
        .payload_reads(1)
        .payload_writes(2)
        .think_cycles(10)
        .iterations(LOCK_ITERATIONS)
        .build()
}

fn dispatch<P: Protocol, W: Workload>(
    protocol: P,
    part: &Part,
    mode: Mode,
    clock_ns: f64,
    make: impl FnOnce() -> W,
    rmw_ops: fn(&W) -> u64,
) -> Result<Sim, String> {
    if mode != Mode::Traced {
        let (out, stamps, _, _) = run(
            protocol,
            part,
            mode == Mode::SetupOnly,
            make,
            rmw_ops,
            |s| s,
        )?;
        return Ok(Sim {
            out,
            stamps,
            layers: None,
        });
    }
    let mut sink_calls = None;
    let (out, stamps, sys, workload) = run(
        TracedProtocol::new(protocol),
        part,
        false,
        || TracedWorkload::new(make()),
        |w| rmw_ops(&w.inner),
        |sink| {
            let (traced, calls) = TracedSink::new(sink);
            sink_calls = Some(calls);
            Box::new(traced)
        },
    )?;
    let proto = &sys.protocol().calls;
    let wl = &workload.calls;
    let record = sink_calls.as_deref();
    let sampled = proto
        .all()
        .iter()
        .chain(wl.all().iter())
        .chain(record.iter())
        .map(|c| c.sampled())
        .sum::<u64>();
    let layers = Layers {
        protocol_calls: proto.all().map(|c| c.calls()),
        protocol_s: proto.all().iter().map(|c| c.estimate_s(clock_ns)).sum(),
        next_calls: wl.next.calls(),
        complete_calls: wl.complete.calls(),
        idle_polls: wl.idle,
        workload_s: wl.all().iter().map(|c| c.estimate_s(clock_ns)).sum(),
        events: record.map_or(0, |c| c.calls()),
        sink_s: record.map_or(0.0, |c| c.estimate_s(clock_ns)),
        clock_reads: 2 * sampled,
    };
    Ok(Sim {
        out,
        stamps,
        layers: Some(layers),
    })
}

type Ran<P, W> = (Option<SimOut>, Stamps, System<P>, W);

fn run<P: Protocol, W: Workload>(
    protocol: P,
    part: &Part,
    setup_only: bool,
    make: impl FnOnce() -> W,
    rmw_ops: impl FnOnce(&W) -> u64,
    wrap_sink: impl FnOnce(Box<dyn EventSink>) -> Box<dyn EventSink>,
) -> Result<Ran<P, W>, String> {
    let writer = CountingWriter::default();
    let t0 = now_ns();
    let mut workload = make();
    let t1 = now_ns();
    let mut sys =
        System::new(protocol, part.config()).map_err(|e| format!("{}: {e}", part.kind))?;
    if part.obs {
        sys.add_sink(wrap_sink(Box::new(JsonlSink::new(
            writer.clone(),
            &part.meta(),
        ))));
    }
    let t2 = now_ns();
    if setup_only {
        return Ok((None, [t0, t1, t2, t2, t2], sys, workload));
    }
    let report = sys.run(&mut workload, MAX_CYCLES);
    let t3 = now_ns();
    sys.finish_sinks();
    let t4 = now_ns();
    let what = format!("{} on {} processors", part.kind, part.procs);
    let report = report.map_err(|e| format!("{what}: {e}"))?;
    if !report.completed {
        return Err(format!("{what}: not done within {MAX_CYCLES} cycles"));
    }
    check_identities(&report.stats, rmw_ops(&workload)).map_err(|e| format!("{what}: {e}"))?;
    let out = SimOut {
        stats: report.stats,
        jsonl_bytes: writer.bytes(),
        watchdog_checks: report.watchdog.map_or(0, |w| w.checks),
    };
    Ok((Some(out), [t0, t1, t2, t3, t4], sys, workload))
}

/// The parts whose set-up `paper_regen` reports: one E3-style
/// critical-section system per protocol on the experiments' default
/// 4-processor geometry, i.e. what each regeneration grid point builds.
pub fn regen_setup_parts() -> Vec<Part> {
    ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let scheme = if kind == ProtocolKind::BitarDespain {
                LockSchemeKind::CacheLock
            } else {
                LockSchemeKind::TestAndTestAndSet
            };
            Part {
                kind,
                procs: 4,
                load: Load::Lock(scheme),
                obs: false,
            }
        })
        .collect()
}

/// Experiment ids in report order.
pub const EXPERIMENT_IDS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];

/// One regeneration of the paper: its text and the [`now_ns`] interval of
/// each piece.
#[derive(Debug, Clone)]
pub struct Regen {
    /// Experiment reports, figures, Table 1 and Table 2, rendered.
    pub text: String,
    /// Interval of each experiment runner, in `EXPERIMENT_IDS` order.
    pub experiments: Vec<(u64, u64)>,
    /// Interval of `figures::all()` and its rendering.
    pub figures: (u64, u64),
    /// Interval of Tables 1 and 2.
    pub tables: (u64, u64),
}

/// Regenerates the paper with each experiment runner timed: the sweep
/// `experiments::all()` runs, over the same runners (by id), with a stamp
/// on each side of every runner.
pub fn regenerate() -> Result<Regen, String> {
    let runs = sweep(&EXPERIMENT_IDS, |_, id| {
        let start = now_ns();
        let report = experiments::by_id(id).map(|r| r.render());
        (report, (start, now_ns()))
    });
    let mut text = String::new();
    let mut intervals = Vec::with_capacity(runs.len());
    for (id, (report, interval)) in EXPERIMENT_IDS.iter().zip(runs) {
        let report = report.ok_or_else(|| format!("unknown experiment {id}"))?;
        let _ = writeln!(text, "{report}");
        intervals.push(interval);
    }
    let (figs, figures) = timed(render_figures);
    let (tabs, tables) = timed(render_tables);
    text.push_str(&figs);
    text.push_str(&tabs);
    Ok(Regen {
        text,
        experiments: intervals,
        figures,
        tables,
    })
}

/// The same text, produced by `experiments::all()` itself, with no stamps.
pub fn regenerate_plain() -> String {
    let mut text = String::new();
    for report in experiments::all() {
        let _ = writeln!(text, "{}", report.render());
    }
    text + &render_figures() + &render_tables()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let start = now_ns();
    let r = f();
    (r, (start, now_ns()))
}

fn render_figures() -> String {
    let mut text = String::new();
    for fig in figures::all() {
        let _ = writeln!(
            text,
            "==== Figure {}. {} ====\n{}\n",
            fig.number, fig.caption, fig.body
        );
    }
    text
}

fn render_tables() -> String {
    let columns = sweep(
        &ProtocolKind::EVOLUTION,
        |_, kind| with_protocol!(*kind, p => table1::column_for(&p)),
    );
    table1::render(&columns) + &table2::render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;

    /// Tiny versions of both simulation families on `kind`, with the lock
    /// family under the observability configuration.
    fn tiny_parts(kind: ProtocolKind) -> [Part; 2] {
        let scheme = if kind == ProtocolKind::BitarDespain {
            LockSchemeKind::CacheLock
        } else {
            LockSchemeKind::TestAndTestAndSet
        };
        [
            Part {
                kind,
                procs: 64,
                load: Load::Sharing {
                    seed: 3,
                    refs_per_proc: 100,
                },
                obs: false,
            },
            Part {
                kind,
                procs: 3,
                load: Load::Lock(scheme),
                obs: true,
            },
        ]
    }

    #[test]
    fn wrappers_leave_every_protocols_outputs_unchanged() {
        for kind in ProtocolKind::ALL {
            for part in tiny_parts(kind) {
                let plain = simulate(&part, Mode::Plain, 0.0).unwrap();
                let traced = simulate(&part, Mode::Traced, 0.0).unwrap();
                assert_eq!(
                    plain.out, traced.out,
                    "{kind} {:?}: tracing changed the outputs",
                    part.load
                );
                let layers = traced.layers.expect("traced mode counts calls");
                let stats = &plain.out.expect("a run has outputs").stats;
                assert_eq!(
                    layers.complete_calls,
                    stats.total_refs(),
                    "{kind}: one completion per reference"
                );
                assert_eq!(
                    layers.events > 0,
                    part.obs,
                    "{kind}: events flow only with observability on"
                );
            }
        }
    }

    #[test]
    fn repetitions_are_deterministic_and_seeded() {
        let load = Load::Sharing {
            seed: 9,
            refs_per_proc: 500,
        };
        let part = Part {
            kind: ProtocolKind::BitarDespain,
            procs: 4,
            load,
            obs: false,
        };
        let a = simulate(&part, Mode::Plain, 0.0).unwrap().out;
        let b = simulate(&part, Mode::Plain, 0.0).unwrap().out;
        assert_eq!(a, b);
        let other = Part {
            load: Load::Sharing {
                seed: 10,
                refs_per_proc: 500,
            },
            ..part
        };
        assert_ne!(
            a,
            simulate(&other, Mode::Plain, 0.0).unwrap().out,
            "the seed reaches the generator"
        );
    }

    #[test]
    fn digest_catches_a_change_to_any_single_field() {
        let part = tiny_parts(ProtocolKind::Illinois)[1];
        let out = simulate(&part, Mode::Plain, 0.0).unwrap().out.unwrap();
        let base = digest(&out);
        let edits: [fn(&mut SimOut); 8] = [
            |o| o.stats.cycles += 1,
            |o| o.stats.per_proc[2].hits += 1,
            |o| o.stats.per_proc[0].lock_wait_cycles += 1,
            |o| *o.stats.bus.by_op.values_mut().next().unwrap() += 1,
            |o| o.stats.locks.denied += 1,
            |o| o.stats.sources.from_cache += 1,
            |o| o.stats.directory.interference_cycles += 1,
            |o| o.jsonl_bytes += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut changed = out.clone();
            edit(&mut changed);
            assert_ne!(digest(&changed), base, "edit {i} went unnoticed");
        }
    }

    #[test]
    fn setup_only_builds_without_running() {
        let sim = simulate(&regen_setup_parts()[0], Mode::SetupOnly, 0.0).unwrap();
        assert!(sim.out.is_none());
        assert!(sim.stamps[2] >= sim.stamps[0]);
    }
}
