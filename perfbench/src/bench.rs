//! Measurement loops and metrics.
//!
//! Each workload runs as a closed loop: one repetition after another on
//! one thread until `--seconds` have passed (at least [`MIN_REPS`]), and
//! every timing is reported as a median over repetitions. Before the loop,
//! one untimed repetition of the default seed warms up and is checked
//! against the recorded digest. The untraced run reports the end-to-end
//! metrics, with every host time rescaled to the reference host speed by
//! the probe timed between repetitions (see `calib`) and the raw times
//! printed alongside; the traced run alternates untraced and traced
//! repetitions and reports the per-layer metrics and the tracing overhead.

use crate::alloc;
use crate::calib::Speed;
use crate::cli::DEFAULT_SEED;
use crate::stats::{digest, median, tail};
use crate::suite::{
    regen_setup_parts, regenerate, regenerate_plain, simulate, Layers, Mode, Part, SimOut, Stamps,
    WorkloadId, EXPERIMENT_IDS,
};
use crate::trace::{now_ns, union_ns, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// End-to-end metrics (untraced run) and their units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("exp_ms_p50", "ms"),
];

/// Per-layer metrics (traced run) and their units, as in `BENCHMARK.json`.
/// A layer a workload does not reach from outside reads 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.self_s", "s"),
    ("sim.ns_per_ref", "ns"),
    ("sim.ns_per_txn", "ns"),
    ("setup.system_new_s", "s"),
    ("setup.workload_new_s", "s"),
    ("protocols.proc_access_calls", "count"),
    ("protocols.snoop_calls", "count"),
    ("protocols.complete_calls", "count"),
    ("protocols.evict_calls", "count"),
    ("protocols.self_s", "s"),
    ("protocols.ns_per_ref", "ns"),
    ("protocols.snoops_per_txn", "ratio"),
    ("workloads.next_calls", "count"),
    ("workloads.complete_calls", "count"),
    ("workloads.self_s", "s"),
    ("workloads.ns_per_ref", "ns"),
    ("workloads.idle_poll_ratio", "ratio"),
    ("obs.events", "count"),
    ("obs.sink_self_s", "s"),
    ("obs.ns_per_event", "ns"),
    ("obs.bytes_per_event", "B"),
    ("obs.overhead", "ratio"),
    ("regen.e1_s", "s"),
    ("regen.e2_s", "s"),
    ("regen.e3_s", "s"),
    ("regen.e4_s", "s"),
    ("regen.e5_s", "s"),
    ("regen.e6_s", "s"),
    ("regen.e7_s", "s"),
    ("regen.e8_s", "s"),
    ("regen.e9_s", "s"),
    ("regen.e10_s", "s"),
    ("regen.e11_s", "s"),
    ("regen.e12_s", "s"),
    ("regen.e13_s", "s"),
    ("regen.figures_s", "s"),
    ("regen.tables_s", "s"),
    ("sweep.critical_path_s", "s"),
    ("sweep.utilization", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("bus.utilization", "ratio"),
    ("bus.txns_per_ref", "ratio"),
    ("bus.retries_per_txn", "ratio"),
    ("bus.invalidations", "count"),
    ("bus.unlock_broadcasts", "count"),
    ("bus.cache_to_cache_ratio", "ratio"),
    ("locks.acquires", "count"),
    ("locks.denied_ratio", "ratio"),
    ("locks.wait_cycles_per_acquire", "cycles"),
    ("faults.watchdog_checks", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Set-up-only constructions made before each repetition, so `setup_s` is
/// a median over many samples spread across the run even where
/// repetitions are few.
const SETUP_PROBES: usize = 8;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload's run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulation runs (or regenerations) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed, mismatched or broke an identity.
    pub failed: u64,
    /// Each distinct failure with how often it happened.
    pub errors: Vec<(String, u64)>,
    /// The gated metrics: every end-to-end metric (untraced) or every
    /// per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Printed alongside, not gated.
    pub info: Vec<Metric>,
    /// Free-form facts recorded with the result (percentile used, …).
    pub notes: Vec<(&'static str, String)>,
    /// Spans of the traced repetitions.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn with_metrics(table: &[(&str, &'static str)]) -> Self {
        let metrics = table
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            })
            .collect();
        Outcome {
            metrics,
            ..Default::default()
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .expect("metric listed in the table");
        m.value = if value.is_finite() { value } else { 0.0 };
    }

    fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn fail(&mut self, runs: u64, error: String) {
        self.failed += runs;
        match self.errors.iter_mut().find(|(e, _)| *e == error) {
            Some((_, n)) => *n += 1,
            None => self.errors.push((error, 1)),
        }
    }

    /// Whether every run and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Settings shared by every measurement.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: u64,
    /// Cost of one clock read, ns.
    pub clock_ns: f64,
}

impl Ctx {
    fn deadline(&self) -> u64 {
        now_ns() + self.seconds * 1_000_000_000
    }
}

/// Runs `workload` untraced (end-to-end metrics) or traced (per-layer).
pub fn measure(workload: WorkloadId, traced: bool, ctx: &Ctx) -> Outcome {
    match (workload, traced) {
        (WorkloadId::PaperRegen, false) => regen_untraced(ctx),
        (WorkloadId::PaperRegen, true) => regen_traced(ctx),
        (w, false) => sim_untraced(w, ctx),
        (w, true) => sim_traced(w, ctx),
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

const MB: f64 = 1024.0 * 1024.0;

/// Records the process's peak resident memory (not gated: see `alloc`).
fn record_rss(o: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    match kb {
        Some(kb) => o.info("peak_rss_mb", kb / 1024.0, "MB"),
        None => o.notes.push((
            "peak_rss_mb",
            "unavailable (no VmHWM in /proc/self/status)".to_string(),
        )),
    }
}

// ---- simulation workloads ------------------------------------------------

/// One repetition of a simulation workload.
#[derive(Debug)]
struct Rep {
    outs: Vec<SimOut>,
    stamps: Vec<Stamps>,
    layers: Vec<Layers>,
}

impl Rep {
    fn run(parts: &[Part], mode: Mode, clock_ns: f64) -> Result<Rep, String> {
        catch(|| {
            let mut rep = Rep {
                outs: Vec::new(),
                stamps: Vec::new(),
                layers: Vec::new(),
            };
            for part in parts {
                let sim = simulate(part, mode, clock_ns)?;
                rep.outs.extend(sim.out);
                rep.stamps.push(sim.stamps);
                rep.layers.extend(sim.layers);
            }
            Ok(rep)
        })
    }

    /// Host seconds running (`System::run` plus flushing sinks).
    fn run_s(&self) -> f64 {
        self.stamps.iter().map(|s| secs(s[4] - s[2])).sum()
    }

    /// Host seconds building workloads and systems.
    fn setup_s(&self) -> f64 {
        self.stamps.iter().map(|s| secs(s[2] - s[0])).sum()
    }

    /// Host seconds from the first set-up to the last flush.
    fn wall_s(&self) -> f64 {
        match (self.stamps.first(), self.stamps.last()) {
            (Some(a), Some(b)) => secs(b[4] - a[0]),
            _ => 0.0,
        }
    }
}

/// Runs one repetition and checks it against the first of its kind.
fn checked_rep(
    o: &mut Outcome,
    parts: &[Part],
    mode: Mode,
    ctx: &Ctx,
    first: &mut Option<Vec<SimOut>>,
) -> Option<Rep> {
    let runs = parts.len() as u64;
    o.attempted += runs;
    let rep = match Rep::run(parts, mode, ctx.clock_ns) {
        Ok(rep) => rep,
        Err(e) => {
            o.fail(runs, e);
            return None;
        }
    };
    match first {
        None => *first = Some(rep.outs.clone()),
        Some(f) if *f != rep.outs => {
            o.fail(
                runs,
                format!(
                    "{mode:?} repetition differs from the first one (digest {:#018x})",
                    digest(&rep.outs)
                ),
            );
            return None;
        }
        Some(_) => {}
    }
    Some(rep)
}

/// The untimed default-seed repetition, checked against the recorded digest.
fn reference_check(o: &mut Outcome, w: WorkloadId, ctx: &Ctx) {
    let mut first = None;
    if let Some(rep) = checked_rep(o, &w.parts(DEFAULT_SEED), Mode::Plain, ctx, &mut first) {
        let got = digest(&rep.outs);
        if got != w.reference_digest() {
            let want = w.reference_digest();
            o.fail(
                rep.outs.len() as u64,
                format!("default-seed Stats digest {got:#018x}, recorded {want:#018x}"),
            );
        }
    }
}

/// Appends the workload and system set-up times (each summed over
/// `parts`) of [`SETUP_PROBES`] set-up-only constructions to `samples`,
/// and records their spans under repetition `rep` when one is given.
fn setup_probes(
    o: &mut Outcome,
    parts: &[Part],
    ctx: &Ctx,
    rep: Option<usize>,
    samples: &mut Vec<(f64, f64)>,
) {
    for _ in 0..SETUP_PROBES {
        match Rep::run(parts, Mode::SetupOnly, ctx.clock_ns) {
            Ok(probe) => {
                let wl: f64 = probe.stamps.iter().map(|s| secs(s[1] - s[0])).sum();
                let sys: f64 = probe.stamps.iter().map(|s| secs(s[2] - s[1])).sum();
                samples.push((wl, sys));
                if let Some(rep) = rep {
                    for s in &probe.stamps {
                        o.spans.push(Span {
                            name: "setup.workload_new",
                            rep,
                            parent: None,
                            start_ns: s[0],
                            end_ns: s[1],
                        });
                        o.spans.push(Span {
                            name: "setup.system_new",
                            rep,
                            parent: None,
                            start_ns: s[1],
                            end_ns: s[2],
                        });
                    }
                }
            }
            Err(e) => {
                o.attempted += parts.len() as u64;
                o.fail(parts.len() as u64, format!("set-up: {e}"));
            }
        }
    }
}

fn sum_pairs(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|(a, b)| a + b).collect()
}

fn totals(outs: &[SimOut]) -> (f64, f64, f64) {
    let refs = outs.iter().map(|o| o.stats.total_refs()).sum::<u64>() as f64;
    let txns = outs.iter().map(|o| o.stats.bus.txns).sum::<u64>() as f64;
    let cycles = outs.iter().map(|o| o.stats.cycles).sum::<u64>() as f64;
    (refs, txns, cycles)
}

fn sim_untraced(w: WorkloadId, ctx: &Ctx) -> Outcome {
    let mut o = Outcome::with_metrics(&END_TO_END);
    reference_check(&mut o, w, ctx);
    let parts = w.parts(ctx.seed);
    let (mut first, mut tries) = (None, 0);
    let (mut run, mut latency_ms, mut heap, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut raw_run, mut raw_latency_ms, mut raw_setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Speed::new();
    let deadline = ctx.deadline();
    while tries < MIN_REPS || now_ns() < deadline {
        tries += 1;
        let mut probes = Vec::new();
        setup_probes(&mut o, &parts, ctx, None, &mut probes);
        let live = alloc::reset_peak();
        let rep = checked_rep(&mut o, &parts, Mode::Plain, ctx, &mut first);
        let peak = alloc::peak_bytes();
        speed.after_rep();
        let mut setups = sum_pairs(&probes);
        if let Some(rep) = rep {
            heap.push((peak - live) as f64 / MB);
            setups.push(rep.setup_s());
            raw_run.push(rep.run_s());
            run.push(speed.rescale(rep.run_s()));
            raw_latency_ms.push(rep.wall_s() * 1e3);
            latency_ms.push(speed.rescale(rep.wall_s()) * 1e3);
        }
        setup.extend(setups.iter().map(|&s| speed.rescale(s)));
        raw_setup.extend(setups);
    }
    o.set("wall_s", median(&run));
    o.set("setup_s", median(&setup));
    o.set("peak_heap_mb", median(&heap));
    record_rss(&mut o);
    o.set("exp_ms_p50", median(&latency_ms));
    let t = tail(&latency_ms);
    o.info("exp_ms_tail", t.value, "ms");
    o.notes.push((
        "exp_ms_tail",
        format!("p{} of {} repetitions", t.pct, t.samples),
    ));
    o.notes.push(("repetitions", run.len().to_string()));
    let raw_wall = median(&raw_run);
    record_raw(&mut o, raw_wall, &raw_setup, &raw_latency_ms, &speed);
    let (refs, txns, cycles) = first.as_deref().map(totals).unwrap_or_default();
    o.info("refs_per_s", refs / raw_wall, "1/s");
    o.info("txns_per_s", txns / raw_wall, "1/s");
    o.info("sim_cycles_per_s", cycles / raw_wall, "1/s");
    o.info(
        "error_rate",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );
    o
}

/// Records the raw (not rescaled) host times and the probe's median.
fn record_raw(o: &mut Outcome, wall: f64, setup: &[f64], latency_ms: &[f64], speed: &Speed) {
    o.info("raw_wall_s", wall, "s");
    o.info("raw_setup_s", median(setup), "s");
    o.info("raw_exp_ms_p50", median(latency_ms), "ms");
    o.info("probe_ms", median(&speed.probes) * 1e3, "ms");
}

fn sim_traced(w: WorkloadId, ctx: &Ctx) -> Outcome {
    let mut o = Outcome::with_metrics(&PER_LAYER);
    reference_check(&mut o, w, ctx);
    let parts = w.parts(ctx.seed);
    let obs = parts.iter().any(|p| p.obs);
    let parts_off: Vec<Part> = parts.iter().map(|&p| Part { obs: false, ..p }).collect();
    let (mut first, mut first_off) = (None, None);
    let (mut plain, mut traced, mut off) = (Vec::new(), Vec::new(), Vec::new());
    let mut tries = 0;
    let deadline = ctx.deadline();
    while tries < MIN_REPS || now_ns() < deadline {
        tries += 1;
        plain.extend(checked_rep(&mut o, &parts, Mode::Plain, ctx, &mut first));
        // Compared with the same `first`: traced output must equal untraced.
        traced.extend(checked_rep(&mut o, &parts, Mode::Traced, ctx, &mut first));
        if obs {
            off.extend(checked_rep(
                &mut o,
                &parts_off,
                Mode::Plain,
                ctx,
                &mut first_off,
            ));
        }
    }
    let Some(outs) = first else { return o };
    if let Some(off_outs) = &first_off {
        if off_outs
            .iter()
            .map(|x| &x.stats)
            .ne(outs.iter().map(|x| &x.stats))
        {
            o.fail(
                parts.len() as u64,
                "observability changed the simulated Stats".to_string(),
            );
        }
        let on: Vec<f64> = plain.iter().map(Rep::run_s).collect();
        let base: Vec<f64> = off.iter().map(Rep::run_s).collect();
        o.set("obs.overhead", median(&on) / median(&base));
    }
    let (refs, txns, _) = totals(&outs);
    let per_rep = |f: &dyn Fn(&Rep, &Layers) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| f(r, &sum_layers(&r.layers)))
            .collect();
        median(&v)
    };
    let clock_s = ctx.clock_ns * 1e-9;
    let sim_self = per_rep(&|r, l| {
        let run: f64 = r.stamps.iter().map(|s| secs(s[3] - s[2])).sum();
        run - l.protocol_s - l.workload_s - l.sink_s - l.clock_reads as f64 * clock_s
    });
    o.set("sim.self_s", sim_self);
    o.set("sim.ns_per_ref", sim_self / refs * 1e9);
    o.set("sim.ns_per_txn", sim_self / txns * 1e9);
    o.set(
        "setup.system_new_s",
        per_rep(&|r, _| r.stamps.iter().map(|s| secs(s[2] - s[1])).sum()),
    );
    o.set(
        "setup.workload_new_s",
        per_rep(&|r, _| r.stamps.iter().map(|s| secs(s[1] - s[0])).sum()),
    );
    let protocol_s = per_rep(&|_, l| l.protocol_s);
    let workload_s = per_rep(&|_, l| l.workload_s);
    let sink_s = per_rep(&|_, l| l.sink_s);
    if let Some(last) = traced.last() {
        let l = sum_layers(&last.layers);
        let [access, snoop, complete, evict] = l.protocol_calls.map(|c| c as f64);
        o.set("protocols.proc_access_calls", access);
        o.set("protocols.snoop_calls", snoop);
        o.set("protocols.complete_calls", complete);
        o.set("protocols.evict_calls", evict);
        o.set("protocols.snoops_per_txn", snoop / txns);
        o.set("workloads.next_calls", l.next_calls as f64);
        o.set("workloads.complete_calls", l.complete_calls as f64);
        o.set(
            "workloads.idle_poll_ratio",
            l.idle_polls as f64 / l.next_calls as f64,
        );
        o.set("obs.events", l.events as f64);
        o.set("obs.ns_per_event", sink_s / l.events as f64 * 1e9);
        let bytes: u64 = outs.iter().map(|x| x.jsonl_bytes).sum();
        o.set("obs.bytes_per_event", bytes as f64 / l.events as f64);
    }
    o.set("protocols.self_s", protocol_s);
    o.set("protocols.ns_per_ref", protocol_s / refs * 1e9);
    o.set("workloads.self_s", workload_s);
    o.set("workloads.ns_per_ref", workload_s / refs * 1e9);
    o.set("obs.sink_self_s", sink_s);
    set_simulated_counts(&mut o, &outs);
    let walls = |reps: &[Rep]| median(&reps.iter().map(Rep::wall_s).collect::<Vec<_>>());
    o.set("trace.overhead", walls(&traced) / walls(&plain));
    let mut coverage = Vec::new();
    for (i, r) in traced.iter().enumerate() {
        let (start, end) = (r.stamps[0][0], r.stamps[r.stamps.len() - 1][4]);
        let root = o.spans.len();
        o.spans.push(Span {
            name: "rep",
            rep: i,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        let mut covered = Vec::new();
        for s in &r.stamps {
            let children = [
                ("setup.workload_new", 0),
                ("setup.system_new", 1),
                ("sim.run", 2),
                ("obs.finish", 3),
            ];
            for (name, k) in children {
                o.spans.push(Span {
                    name,
                    rep: i,
                    parent: Some(root),
                    start_ns: s[k],
                    end_ns: s[k + 1],
                });
                covered.push((s[k], s[k + 1]));
            }
        }
        coverage.push(union_ns(covered) as f64 / (end - start) as f64);
    }
    o.set("trace.coverage", median(&coverage));
    o.notes.push((
        "repetitions",
        format!("{} traced, {} untraced", traced.len(), plain.len()),
    ));
    o
}

fn sum_layers(layers: &[Layers]) -> Layers {
    layers.iter().fold(Layers::default(), |mut a, l| {
        for (x, y) in a.protocol_calls.iter_mut().zip(l.protocol_calls) {
            *x += y;
        }
        a.protocol_s += l.protocol_s;
        a.next_calls += l.next_calls;
        a.complete_calls += l.complete_calls;
        a.idle_polls += l.idle_polls;
        a.workload_s += l.workload_s;
        a.events += l.events;
        a.sink_s += l.sink_s;
        a.clock_reads += l.clock_reads;
        a
    })
}

/// The deterministic simulated quantities, summed over a repetition's parts.
fn set_simulated_counts(o: &mut Outcome, outs: &[SimOut]) {
    let sum = |f: &dyn Fn(&SimOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let refs = sum(&|x| x.stats.total_refs());
    let txns = sum(&|x| x.stats.bus.txns);
    let acquires = sum(&|x| x.stats.locks.acquires);
    let denied = sum(&|x| x.stats.locks.denied);
    o.set(
        "cache.hit_rate",
        sum(&|x| x.stats.per_proc.iter().map(|p| p.hits).sum()) / refs,
    );
    o.set(
        "bus.utilization",
        sum(&|x| x.stats.bus.busy_cycles) / sum(&|x| x.stats.cycles),
    );
    o.set("bus.txns_per_ref", txns / refs);
    o.set("bus.retries_per_txn", sum(&|x| x.stats.bus.retries) / txns);
    o.set("bus.invalidations", sum(&|x| x.stats.bus.invalidations));
    o.set(
        "bus.unlock_broadcasts",
        sum(&|x| x.stats.bus.unlock_broadcasts),
    );
    o.set(
        "bus.cache_to_cache_ratio",
        sum(&|x| x.stats.sources.from_cache) / sum(&|x| x.stats.sources.fetches),
    );
    o.set("locks.acquires", acquires);
    o.set("locks.denied_ratio", denied / (denied + acquires));
    o.set(
        "locks.wait_cycles_per_acquire",
        sum(&|x| x.stats.locks.total_wait_cycles) / acquires,
    );
    o.set("faults.watchdog_checks", sum(&|x| x.watchdog_checks));
}

// ---- paper regeneration --------------------------------------------------

/// Threads the outer experiment sweep uses (the sweep's own rule).
pub fn regen_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(EXPERIMENT_IDS.len())
}

fn check_text(o: &mut Outcome, text: &str) {
    let got = digest(text);
    let want = WorkloadId::PaperRegen.reference_digest();
    if got != want {
        o.fail(
            1,
            format!("report text digest {got:#018x}, recorded {want:#018x}"),
        );
    }
}

fn regen_untraced(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::with_metrics(&END_TO_END);
    o.attempted += 1;
    match catch(regenerate) {
        Ok(r) => check_text(&mut o, &r.text),
        Err(e) => o.fail(1, e),
    }
    let (mut walls, mut exp_ms, mut heap, mut setup, mut tries) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0);
    let (mut raw_walls, mut raw_exp_ms, mut raw_setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed = Speed::new();
    let deadline = ctx.deadline();
    while tries < MIN_REPS || now_ns() < deadline {
        tries += 1;
        let mut probes = Vec::new();
        setup_probes(&mut o, &regen_setup_parts(), ctx, None, &mut probes);
        o.attempted += 1;
        let live = alloc::reset_peak();
        let start = now_ns();
        let result = catch(regenerate);
        let end = now_ns();
        let peak = alloc::peak_bytes();
        speed.after_rep();
        let setups = sum_pairs(&probes);
        setup.extend(setups.iter().map(|&s| speed.rescale(s)));
        raw_setup.extend(setups);
        match result {
            Ok(r) => {
                raw_walls.push(secs(end - start));
                walls.push(speed.rescale(secs(end - start)));
                heap.push((peak - live) as f64 / MB);
                for (a, b) in &r.experiments {
                    raw_exp_ms.push(secs(b - a) * 1e3);
                    exp_ms.push(speed.rescale(secs(b - a)) * 1e3);
                }
                check_text(&mut o, &r.text);
            }
            Err(e) => o.fail(1, e),
        }
    }
    o.set("wall_s", median(&walls));
    o.set("setup_s", median(&setup));
    o.set("peak_heap_mb", median(&heap));
    record_rss(&mut o);
    o.set("exp_ms_p50", median(&exp_ms));
    let t = tail(&exp_ms);
    o.info("exp_ms_tail", t.value, "ms");
    o.notes.push((
        "exp_ms_tail",
        format!("p{} of {} experiment runs", t.pct, t.samples),
    ));
    o.notes.push(("repetitions", walls.len().to_string()));
    let raw_wall = median(&raw_walls);
    record_raw(&mut o, raw_wall, &raw_setup, &raw_exp_ms, &speed);
    o.info("regenerations_per_s", 1.0 / raw_wall, "1/s");
    o.info(
        "error_rate",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );
    o
}

/// Span names of the experiment runners, in `EXPERIMENT_IDS` order.
const EXPERIMENT_SPANS: [&str; 13] = [
    "regen.e1",
    "regen.e2",
    "regen.e3",
    "regen.e4",
    "regen.e5",
    "regen.e6",
    "regen.e7",
    "regen.e8",
    "regen.e9",
    "regen.e10",
    "regen.e11",
    "regen.e12",
    "regen.e13",
];

fn regen_traced(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::with_metrics(&PER_LAYER);
    let (mut plain, mut traced, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exp_s, mut figures, mut tables, mut critical, mut utilization, mut coverage) = (
        vec![Vec::new(); EXPERIMENT_IDS.len()],
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let threads = regen_threads() as f64;
    let mut tries = 0;
    let deadline = ctx.deadline();
    while tries < MIN_REPS || now_ns() < deadline {
        tries += 1;
        setup_probes(&mut o, &regen_setup_parts(), ctx, Some(tries), &mut setup);
        o.attempted += 2;
        let start = now_ns();
        match catch(|| Ok(regenerate_plain())) {
            Ok(text) => {
                plain.push(secs(now_ns() - start));
                check_text(&mut o, &text);
            }
            Err(e) => o.fail(1, e),
        }
        let start = now_ns();
        let r = match catch(regenerate) {
            Ok(r) => r,
            Err(e) => {
                o.fail(1, e);
                continue;
            }
        };
        let end = now_ns();
        traced.push(secs(end - start));
        check_text(&mut o, &r.text);
        let rep = tries;
        let root = o.spans.len();
        o.spans.push(Span {
            name: "regen",
            rep,
            parent: None,
            start_ns: start,
            end_ns: end,
        });
        let mut pieces = r.experiments.clone();
        pieces.push(r.figures);
        pieces.push(r.tables);
        let names = EXPERIMENT_SPANS
            .iter()
            .chain(&["regen.figures", "regen.tables"]);
        for (&name, &(a, b)) in names.zip(&pieces) {
            o.spans.push(Span {
                name,
                rep,
                parent: Some(root),
                start_ns: a,
                end_ns: b,
            });
        }
        for (samples, (a, b)) in exp_s.iter_mut().zip(&r.experiments) {
            samples.push(secs(b - a));
        }
        figures.push(secs(r.figures.1 - r.figures.0));
        tables.push(secs(r.tables.1 - r.tables.0));
        let spans: Vec<f64> = r.experiments.iter().map(|(a, b)| secs(b - a)).collect();
        critical.push(spans.iter().copied().fold(0.0, f64::max));
        let phase_start = r.experiments.iter().map(|e| e.0).min().unwrap_or(start);
        let phase_end = r.experiments.iter().map(|e| e.1).max().unwrap_or(end);
        utilization.push(spans.iter().sum::<f64>() / (threads * secs(phase_end - phase_start)));
        coverage.push(union_ns(pieces) as f64 / (end - start) as f64);
    }
    o.set(
        "setup.workload_new_s",
        median(&setup.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    o.set(
        "setup.system_new_s",
        median(&setup.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    for (i, samples) in exp_s.iter().enumerate() {
        o.set(&format!("regen.e{}_s", i + 1), median(samples));
    }
    o.set("regen.figures_s", median(&figures));
    o.set("regen.tables_s", median(&tables));
    o.set("sweep.critical_path_s", median(&critical));
    o.set("sweep.utilization", median(&utilization));
    o.set("trace.overhead", median(&traced) / median(&plain));
    o.set("trace.coverage", median(&coverage));
    o.notes.push((
        "repetitions",
        format!("{} traced, {} untraced", traced.len(), plain.len()),
    ));
    o
}
