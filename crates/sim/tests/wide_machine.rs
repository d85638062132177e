//! Golden runs past the 64-processor snoop-filter limit.
//!
//! The mode-equivalence suite compares the two engine modes with each
//! other, so it cannot see a change both modes share: both go through the
//! same `step`. These tests pin 96-processor behaviour to constants
//! recorded from the engine as it stood before the event core was rebuilt
//! around a deadline calendar and arbitration bitsets: the full `Stats`
//! and trace of random sharing and of an E3-style critical section, and
//! the exact bus-grant sequences of round-robin hand-off, grant starvation
//! and busy-wait re-lock scenarios.
//!
//! Every constant is checked in both engine modes.

use mcs_cache::CacheConfig;
use mcs_core::{with_protocol, ProtocolKind};
use mcs_model::{Addr, AgentId, Event, ProcId, ProcOp, Stats, Word};
use mcs_sim::faults::FaultPlan;
use mcs_sim::{EngineMode, ParallelScriptWorkload, ScriptStep, System, SystemConfig, Workload};
use mcs_sync::LockSchemeKind;
use mcs_workloads::{CriticalSectionWorkload, RandomSharingConfig, RandomSharingWorkload};

const PROCS: usize = 96;
const MAX_CYCLES: u64 = 5_000_000;
const MODES: [EngineMode; 2] = [EngineMode::CycleAccurate, EngineMode::EventDriven];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a value's full `Debug` rendering.
fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Runs `workload` on `kind` with 96 processors and the trace on.
fn run<W: Workload>(
    kind: ProtocolKind,
    mode: EngineMode,
    faults: Option<FaultPlan>,
    mut workload: W,
) -> (Stats, Vec<(u64, Event)>) {
    let words = if kind.requires_word_blocks() { 1 } else { 4 };
    let cache = CacheConfig::fully_associative(64, words).expect("valid cache");
    with_protocol!(kind, p => {
        let mut cfg = SystemConfig::new(PROCS).with_cache(cache).with_trace(true).with_engine(mode);
        if let Some(plan) = faults {
            cfg = cfg.with_faults(plan);
        }
        let mut sys = System::new(p, cfg).expect("valid system");
        let report = sys
            .run(&mut workload, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{kind} ({mode:?}): {e}"));
        assert!(report.completed, "{kind} ({mode:?}): run must finish");
        (report.stats, sys.trace().to_vec())
    })
}

/// The bus grants of a trace, in order: `(cycle, requester, high priority)`.
fn grants(trace: &[(u64, Event)]) -> Vec<(u64, usize, bool)> {
    trace
        .iter()
        .filter_map(|(cycle, e)| match e {
            Event::Bus { txn, .. } => match txn.requester {
                AgentId::Cache(c) => Some((*cycle, c.0, txn.high_priority)),
                AgentId::Io => None,
            },
            _ => None,
        })
        .collect()
}

/// Requesters of a grant sequence, dropping cycles and priority.
fn requesters(g: &[(u64, usize, bool)]) -> Vec<usize> {
    g.iter().map(|&(_, p, _)| p).collect()
}

/// Asserts `(stats digest, trace digest)` of a golden run in both modes.
fn assert_golden<W: Workload>(
    label: &str,
    kind: ProtocolKind,
    expected: (u64, u64),
    make: impl Fn() -> W,
) {
    for mode in MODES {
        let (stats, trace) = run(kind, mode, None, make());
        assert!(
            stats.total_refs() > 0,
            "{label} {kind}: workload must do real work"
        );
        let got = (digest(&stats), digest(&trace));
        assert_eq!(
            got, expected,
            "{label} {kind} ({mode:?}): digests {:#018x}/{:#018x} drifted from the recorded run",
            got.0, got.1
        );
    }
}

#[test]
fn random_sharing_at_96_processors_matches_recorded_run() {
    let cases = [
        (
            ProtocolKind::BitarDespain,
            (0x3c17_75a3_5c39_806c, 0xaa04_796e_8745_3730),
        ),
        (
            ProtocolKind::Illinois,
            (0x22b4_1ad3_276e_4092, 0x1fb4_a914_147c_1fcb),
        ),
        (
            ProtocolKind::Dragon,
            (0xcb49_0c49_c2ea_023f, 0x9237_b951_a708_0b0d),
        ),
    ];
    for (kind, expected) in cases {
        assert_golden("random sharing", kind, expected, || {
            RandomSharingWorkload::new(RandomSharingConfig {
                refs_per_proc: 40,
                seed: 0x96_5EED,
                ..Default::default()
            })
        });
    }
}

#[test]
fn critical_section_at_96_processors_matches_recorded_run() {
    // E3's contenders: the paper's cache-state lock on Bitar-Despain, a
    // test-and-test-and-set loop elsewhere; one lock, heavy contention.
    let cases = [
        (
            ProtocolKind::BitarDespain,
            LockSchemeKind::CacheLock,
            (0xb037_ceaf_810b_b107, 0x665f_0872_8b53_697e),
        ),
        (
            ProtocolKind::Illinois,
            LockSchemeKind::TestAndTestAndSet,
            (0x555d_6c0c_abe8_2ca8, 0x3e20_5b6e_7589_ada4),
        ),
        (
            ProtocolKind::Dragon,
            LockSchemeKind::TestAndTestAndSet,
            (0x2741_48c5_f411_254e, 0x782c_1a2c_70f5_8005),
        ),
    ];
    for (kind, scheme, expected) in cases {
        let words = if kind.requires_word_blocks() { 1 } else { 4 };
        assert_golden("critical section", kind, expected, || {
            CriticalSectionWorkload::builder()
                .scheme(scheme)
                .words_per_block(words)
                .locks(1)
                .payload_blocks(1)
                .payload_reads(1)
                .payload_writes(2)
                .think_cycles(10)
                .iterations(1)
                .build()
        });
    }
}

/// Processor `p`'s private word `k` (distinct blocks, so every read misses).
fn private(p: usize, k: u64) -> Addr {
    Addr(0x10_000 + 64 * p as u64 + 4 * k)
}

/// `procs` each read two private words; all but `first` compute one cycle
/// before the first read, so `first` is granted alone and leaves the
/// round-robin pointer just past itself.
fn contenders(first: usize, procs: &[usize]) -> ParallelScriptWorkload {
    let mut w = ParallelScriptWorkload::new();
    for &p in procs {
        let mut steps = vec![ScriptStep::Op(ProcOp::read(private(p, 0)))];
        if p != first {
            steps.insert(0, ScriptStep::Compute(1));
        }
        steps.push(ScriptStep::Op(ProcOp::read(private(p, 1))));
        w = w.program(ProcId(p), steps);
    }
    w
}

#[test]
fn round_robin_crosses_the_word_boundary_and_wraps() {
    let procs: Vec<usize> = [0, 1, 2, 3, 60, 61, 62, 63, 64, 65, 66, 67, 92, 93, 94, 95].to_vec();
    // Proc 62 goes first, so the pointer sits at 63: the hand-off walks
    // 63 -> 64 across the 64-bit word boundary, runs to 95, wraps to 0,
    // serves 60 and 61, and starts the second reads back at 62.
    let round = [62, 63, 64, 65, 66, 67, 92, 93, 94, 95, 0, 1, 2, 3, 60, 61];
    let expected: Vec<usize> = round.iter().chain(&round).copied().collect();
    for mode in MODES {
        let (_, trace) = run(
            ProtocolKind::BitarDespain,
            mode,
            None,
            contenders(62, &procs),
        );
        let g = grants(&trace);
        assert_eq!(requesters(&g), expected, "{mode:?}: grant order");
        assert!(
            g.iter().all(|&(_, _, hi)| !hi),
            "{mode:?}: no busy-wait traffic"
        );
        // One 10-cycle fetch every 10 cycles from cycle 1: no idle slot.
        let cycles: Vec<u64> = g.iter().map(|&(c, _, _)| c).collect();
        let back_to_back: Vec<u64> = (0..expected.len() as u64).map(|k| 1 + 10 * k).collect();
        assert_eq!(cycles, back_to_back, "{mode:?}: grant cycles");
    }
}

#[test]
fn starved_victim_above_63_is_skipped_then_served() {
    let procs: Vec<usize> = (64..76).chain([5, 6]).collect();
    // The unfair arbiter passes over proc 70 each time it is the first
    // candidate, three times: at both of the pointer's passes through 70,
    // then when it is the only requester left.
    let plan = FaultPlan::new(0x57A4).starve(70, 3);
    let others: Vec<usize> = (64..70).chain(71..76).chain([5, 6]).collect();
    let expected: Vec<usize> = others
        .iter()
        .chain(&others)
        .copied()
        .chain([70, 70])
        .collect();
    for mode in MODES {
        let (_, trace) = run(
            ProtocolKind::BitarDespain,
            mode,
            Some(plan.clone()),
            contenders(64, &procs),
        );
        let g = grants(&trace);
        assert_eq!(requesters(&g), expected, "{mode:?}: grant order");
        // The third skip leaves the bus with no other requester: the grant
        // slot at 261 goes unused and 70 is granted one cycle later.
        assert_eq!(
            &g[25..],
            &[(251, 6, false), (262, 70, false), (273, 70, false)],
            "{mode:?}"
        );
    }
}

#[test]
fn relocked_waiters_leave_the_high_priority_level() {
    // Proc 0 takes the lock; 70, 80 and 90 are denied and arm their
    // busy-wait registers. Each unlock wakes every remaining waiter, one
    // wins the high-priority arbitration, and the re-lock puts the losers
    // back to sleep: they must not be granted again until the next unlock.
    let lock = Addr(0x400);
    let holder = |hold: u64| {
        vec![
            ScriptStep::Op(ProcOp::lock_read(lock)),
            ScriptStep::Compute(hold),
            ScriptStep::Op(ProcOp::unlock_write(lock, Word(0))),
        ]
    };
    let mut w = ParallelScriptWorkload::new().program(ProcId(0), holder(200));
    for p in [70, 80, 90] {
        let mut steps = vec![ScriptStep::Compute(20)];
        steps.extend(holder(100));
        w = w.program(ProcId(p), steps);
    }
    for mode in MODES {
        let (stats, trace) = run(ProtocolKind::BitarDespain, mode, None, w.clone());
        // Denials at 21/23/25; each unlock (212, 321, 430) is followed two
        // cycles later by exactly one high-priority grant, in pointer
        // order; the losers stay off the bus until the next unlock.
        let expected = [
            (1, 0, false),
            (21, 70, false),
            (23, 80, false),
            (25, 90, false),
            (212, 0, false),
            (214, 70, true),
            (321, 70, false),
            (323, 80, true),
            (430, 80, false),
            (432, 90, true),
            (539, 90, false),
        ];
        assert_eq!(grants(&trace), expected, "{mode:?}: grant sequence");
        assert_eq!(stats.locks.acquires, 4, "{mode:?}");
        assert_eq!(stats.locks.wakeups, 3, "{mode:?}");
    }
}
