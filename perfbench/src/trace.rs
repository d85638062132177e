//! Outside-in tracing: transparent wrappers around the simulator's three
//! extension traits (`Protocol`, `Workload`, `EventSink`), a byte-counting
//! writer, and the span type and clock every timing uses.
//!
//! Every wrapper forwards each call unchanged, so a traced run produces the
//! same `Stats` as an untraced one (checked on every traced repetition and
//! by the tests below). Call counts are exact. Call *times* are sampled:
//! one call in [`SAMPLE_PERIOD`] is bracketed by two clock reads, because a
//! clock read costs more than most protocol transitions. A layer's time is
//! estimated as `calls × mean(sampled duration − clock cost)`.

use mcs_model::{
    AccessKind, BlockAddr, BusTxn, CompleteOutcome, Event, EvictAction, FeatureSet, ProcAction,
    ProcId, ProcOp, Protocol, SnoopOutcome, SnoopSummary,
};
use mcs_obs::EventSink;
use mcs_sim::{AccessResult, WaitBehavior, WorkItem, Workload};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One call in this many is timed (a power of two).
pub const SAMPLE_PERIOD: u64 = 64;

/// Median cost of one `Instant::now()` on this host, in nanoseconds,
/// measured from back-to-back reads.
pub fn clock_read_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Exact call count plus sampled durations for one traced entry point.
///
/// Atomics only so the protocol wrapper stays `Sync`; each wrapper belongs
/// to one simulation thread, so plain load/store pairs are enough.
#[derive(Debug, Default)]
pub struct CallStat {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl CallStat {
    /// Runs `f`, counting the call and timing it when it is a sampled one.
    #[inline]
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.load(Relaxed);
        self.calls.store(n + 1, Relaxed);
        if !n.is_multiple_of(SAMPLE_PERIOD) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled.store(self.sampled.load(Relaxed) + 1, Relaxed);
        self.sampled_ns
            .store(self.sampled_ns.load(Relaxed) + ns, Relaxed);
        r
    }

    /// Exact number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Number of timed calls (each cost two clock reads).
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Relaxed)
    }

    /// Estimated seconds spent inside the wrapped calls: the mean sampled
    /// duration, less one clock read, times the exact call count.
    pub fn estimate_s(&self, clock_ns: f64) -> f64 {
        let sampled = self.sampled();
        if sampled == 0 {
            return 0.0;
        }
        let mean_ns = self.sampled_ns.load(Relaxed) as f64 / sampled as f64 - clock_ns;
        mean_ns.max(0.0) * self.calls() as f64 * 1e-9
    }
}

/// Counters of the protocol wrapper, one per `Protocol` entry point.
#[derive(Debug, Default)]
pub struct ProtocolCalls {
    /// `proc_access` calls.
    pub proc_access: CallStat,
    /// `snoop` calls.
    pub snoop: CallStat,
    /// `complete` calls.
    pub complete: CallStat,
    /// `evict` calls.
    pub evict: CallStat,
}

impl ProtocolCalls {
    /// All four entry points.
    pub fn all(&self) -> [&CallStat; 4] {
        [&self.proc_access, &self.snoop, &self.complete, &self.evict]
    }
}

/// A `Protocol` that forwards to `P` and counts every call.
pub struct TracedProtocol<P> {
    inner: P,
    /// The call counters.
    pub calls: ProtocolCalls,
}

impl<P: Protocol> TracedProtocol<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TracedProtocol {
            inner,
            calls: ProtocolCalls::default(),
        }
    }
}

impl<P: Protocol> Protocol for TracedProtocol<P> {
    type State = P::State;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn features(&self) -> FeatureSet {
        self.inner.features()
    }

    fn proc_access(&self, state: P::State, kind: AccessKind) -> ProcAction<P::State> {
        self.calls
            .proc_access
            .call(|| self.inner.proc_access(state, kind))
    }

    fn snoop(&self, state: P::State, txn: &BusTxn) -> SnoopOutcome<P::State> {
        self.calls.snoop.call(|| self.inner.snoop(state, txn))
    }

    fn complete(
        &self,
        state: P::State,
        kind: AccessKind,
        txn: &BusTxn,
        summary: &SnoopSummary,
    ) -> CompleteOutcome<P::State> {
        self.calls
            .complete
            .call(|| self.inner.complete(state, kind, txn, summary))
    }

    fn evict(&self, state: P::State) -> EvictAction {
        self.calls.evict.call(|| self.inner.evict(state))
    }
}

/// Counters of the workload wrapper.
#[derive(Debug, Default)]
pub struct WorkloadCalls {
    /// `next` calls.
    pub next: CallStat,
    /// `complete` calls.
    pub complete: CallStat,
    /// `on_lock_wait` calls.
    pub lock_wait: CallStat,
    /// `next` calls that returned `Idle` or `IdleUntil` (wasted polls).
    pub idle: u64,
}

impl WorkloadCalls {
    /// All three entry points.
    pub fn all(&self) -> [&CallStat; 3] {
        [&self.next, &self.complete, &self.lock_wait]
    }
}

/// A `Workload` that forwards to `W` and counts every call.
pub struct TracedWorkload<W> {
    /// The wrapped workload.
    pub inner: W,
    /// The call counters.
    pub calls: WorkloadCalls,
}

impl<W: Workload> TracedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        TracedWorkload {
            inner,
            calls: WorkloadCalls::default(),
        }
    }
}

impl<W: Workload> Workload for TracedWorkload<W> {
    fn next(&mut self, proc: ProcId, now: u64) -> WorkItem {
        let inner = &mut self.inner;
        let item = self.calls.next.call(|| inner.next(proc, now));
        if matches!(item, WorkItem::Idle | WorkItem::IdleUntil(_)) {
            self.calls.idle += 1;
        }
        item
    }

    fn complete(&mut self, proc: ProcId, op: &ProcOp, result: &AccessResult, now: u64) {
        let inner = &mut self.inner;
        self.calls
            .complete
            .call(|| inner.complete(proc, op, result, now))
    }

    fn on_lock_wait(&mut self, proc: ProcId, block: BlockAddr, now: u64) -> WaitBehavior {
        let inner = &mut self.inner;
        self.calls
            .lock_wait
            .call(|| inner.on_lock_wait(proc, block, now))
    }
}

/// An `EventSink` that forwards to another sink and counts every event.
/// The counter is shared because the system owns the sink; `finish` is
/// timed by its own span.
pub struct TracedSink {
    inner: Box<dyn EventSink>,
    record: Arc<CallStat>,
}

impl TracedSink {
    /// Wraps `inner`, returning the wrapper and a handle on its `record`
    /// counter.
    pub fn new(inner: Box<dyn EventSink>) -> (Self, Arc<CallStat>) {
        let record = Arc::new(CallStat::default());
        (
            TracedSink {
                inner,
                record: Arc::clone(&record),
            },
            record,
        )
    }
}

impl EventSink for TracedSink {
    fn record(&mut self, cycle: u64, event: &Event) {
        let inner = &mut self.inner;
        self.record.call(|| inner.record(cycle, event))
    }

    fn finish(&mut self) {
        self.inner.finish()
    }
}

/// An `io::Write` that discards its input and counts the bytes.
#[derive(Debug, Clone, Default)]
pub struct CountingWriter(Arc<AtomicU64>);

impl CountingWriter {
    /// Bytes written so far, across all clones.
    pub fn bytes(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One timed interval at a layer boundary, kept in memory and written out
/// (with `--out`) when the benchmark ends.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `sim.run`.
    pub name: &'static str,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end_ns: u64,
}

/// Nanoseconds since the first call in this process: the one clock every
/// span and stamp is read from.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Length of the union of `[start, end)` intervals, in nanoseconds.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_stat_counts_every_call_and_samples_some() {
        let c = CallStat::default();
        for i in 0..1000u64 {
            assert_eq!(c.call(|| i * 2), i * 2);
        }
        assert_eq!(c.calls(), 1000);
        assert_eq!(c.sampled(), 1000u64.div_ceil(SAMPLE_PERIOD));
        assert!(c.estimate_s(0.0) >= 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 40)]), 40);
    }

    #[test]
    fn counting_writer_counts_across_clones() {
        use std::io::Write as _;
        let w = CountingWriter::default();
        let mut clone = w.clone();
        clone.write_all(b"hello").unwrap();
        assert_eq!(w.bytes(), 5);
    }
}
