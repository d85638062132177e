//! Exhaustive exploration of the Bitar-Despain state machine — the
//! executable form of the paper's **Figure 10** ("Cache State
//! Transitions"; its caption warns that *arcs not shown would be bugs*).
//!
//! Three arc families are enumerated:
//!
//! * **processor arcs** — what each [`AccessKind`] does to each state
//!   locally (hit/zero-time transitions, or the bus request issued);
//! * **snoop arcs** — how each state reacts to each bus request from
//!   another cache;
//! * **completion arcs** — how the requester installs a state for each
//!   (request, snoop-summary) combination, over the canonical summaries
//!   (no other copy / clean source / dirty source / shared without source /
//!   locked / woken high-priority).
//!
//! Tests assert determinism, totality, agreement with the figure's arcs,
//! and that every one of the eight states is reachable from Invalid.

use crate::protocol::{BitarDespain, BitarState};
use mcs_model::{
    AccessKind, AgentId, BlockAddr, BusOp, BusTxn, CacheId, CompleteOutcome, LineState, Privilege,
    ProcAction, Protocol, SnoopSummary,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// All processor access kinds, for enumeration.
pub const ALL_KINDS: [AccessKind; 7] = [
    AccessKind::Read,
    AccessKind::Write,
    AccessKind::ReadForWrite,
    AccessKind::LockRead,
    AccessKind::UnlockWrite,
    AccessKind::Rmw,
    AccessKind::WriteNoFetch,
];

/// A processor-side arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcArc {
    /// Starting state.
    pub from: BitarState,
    /// Processor request.
    pub kind: AccessKind,
    /// Either a local transition or a bus request.
    pub action: ProcArcAction,
}

/// What a processor arc does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcArcAction {
    /// Zero-time local transition to the given state.
    Local(BitarState),
    /// Bus request issued.
    Bus(BusOp),
}

/// A snoop arc: reaction to another agent's bus request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnoopArc {
    /// Starting state.
    pub from: BitarState,
    /// The observed bus request (mnemonic).
    pub op: BusOp,
    /// Resulting state.
    pub to: BitarState,
    /// Whether the snooper supplies the block.
    pub supplies: bool,
    /// Whether the request is denied (locked).
    pub denies: bool,
}

/// A completion arc: requester installs a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteArc {
    /// State before the transaction (usually Invalid or a read state).
    pub from: BitarState,
    /// The processor access that caused the transaction.
    pub kind: AccessKind,
    /// The bus request.
    pub op: BusOp,
    /// Canonical snoop-summary label.
    pub summary: &'static str,
    /// Outcome.
    pub outcome: CompleteOutcome<BitarState>,
}

fn txn(op: BusOp, hi: bool) -> BusTxn {
    BusTxn { op, block: BlockAddr(0), requester: AgentId::Cache(CacheId(0)), high_priority: hi }
}

/// The bus requests another cache can observe from the Bitar protocol.
pub fn observable_ops() -> Vec<BusOp> {
    vec![
        BusOp::Fetch { privilege: Privilege::Read, need_data: true },
        BusOp::Fetch { privilege: Privilege::Write, need_data: true },
        BusOp::Fetch { privilege: Privilege::Write, need_data: false },
        BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
        BusOp::Fetch { privilege: Privilege::Lock, need_data: false },
        BusOp::ClaimNoFetch,
        BusOp::UnlockBroadcast,
        BusOp::IoInput,
        BusOp::IoOutput { paging: true },
        BusOp::IoOutput { paging: false },
    ]
}

/// Canonical snoop summaries for completion enumeration.
pub fn canonical_summaries() -> Vec<(&'static str, SnoopSummary)> {
    vec![
        ("no-copy", SnoopSummary::default()),
        (
            "clean-source",
            SnoopSummary {
                any_hit: true,
                sharers: 1,
                source_dirty: Some(false),
                data_from_cache: true,
                memory_inhibited: true,
                ..Default::default()
            },
        ),
        (
            "dirty-source",
            SnoopSummary {
                any_hit: true,
                sharers: 1,
                source_dirty: Some(true),
                data_from_cache: true,
                memory_inhibited: true,
                ..Default::default()
            },
        ),
        ("shared-no-source", SnoopSummary { any_hit: true, sharers: 2, ..Default::default() }),
        (
            "locked",
            SnoopSummary { any_hit: true, sharers: 1, locked: true, ..Default::default() },
        ),
    ]
}

/// Enumerates every processor arc.
pub fn proc_arcs() -> Vec<ProcArc> {
    let p = BitarDespain;
    let mut arcs = Vec::new();
    for &from in BitarState::all() {
        for kind in ALL_KINDS {
            let action = match p.proc_access(from, kind) {
                ProcAction::Hit { next } => ProcArcAction::Local(next),
                ProcAction::Bus { op } => ProcArcAction::Bus(op),
            };
            arcs.push(ProcArc { from, kind, action });
        }
    }
    arcs
}

/// Enumerates every snoop arc.
pub fn snoop_arcs() -> Vec<SnoopArc> {
    let p = BitarDespain;
    let mut arcs = Vec::new();
    for &from in BitarState::all() {
        for op in observable_ops() {
            let out = p.snoop(from, &txn(op, false));
            arcs.push(SnoopArc {
                from,
                op,
                to: out.next,
                supplies: out.reply.supplies_data,
                denies: out.reply.locked,
            });
        }
    }
    arcs
}

/// Enumerates completion arcs over the canonical summaries (plus the
/// high-priority woken lock fetch of Figure 9).
pub fn complete_arcs() -> Vec<CompleteArc> {
    let p = BitarDespain;
    let mut arcs = Vec::new();
    let cases: Vec<(AccessKind, BusOp)> = vec![
        (AccessKind::Read, BusOp::Fetch { privilege: Privilege::Read, need_data: true }),
        (AccessKind::Write, BusOp::Fetch { privilege: Privilege::Write, need_data: true }),
        (AccessKind::Write, BusOp::Fetch { privilege: Privilege::Write, need_data: false }),
        (AccessKind::LockRead, BusOp::Fetch { privilege: Privilege::Lock, need_data: true }),
        (AccessKind::LockRead, BusOp::Fetch { privilege: Privilege::Lock, need_data: false }),
        (AccessKind::Rmw, BusOp::Fetch { privilege: Privilege::Lock, need_data: true }),
        (AccessKind::UnlockWrite, BusOp::UnlockBroadcast),
        (AccessKind::WriteNoFetch, BusOp::ClaimNoFetch),
    ];
    for (kind, op) in cases {
        for (label, summary) in canonical_summaries() {
            let from = BitarState::Invalid;
            let outcome = p.complete(from, kind, &txn(op, false), &summary);
            arcs.push(CompleteArc { from, kind, op, summary: label, outcome });
        }
    }
    // Figure 9: the woken waiter's high-priority lock fetch.
    let outcome = p.complete(
        BitarState::Invalid,
        AccessKind::LockRead,
        &txn(BusOp::Fetch { privilege: Privilege::Lock, need_data: true }, true),
        &SnoopSummary::default(),
    );
    arcs.push(CompleteArc {
        from: BitarState::Invalid,
        kind: AccessKind::LockRead,
        op: BusOp::Fetch { privilege: Privilege::Lock, need_data: true },
        summary: "woken-hi-pri",
        outcome,
    });
    arcs
}

/// States reachable from Invalid through any combination of arcs.
pub fn reachable_states() -> BTreeSet<BitarState> {
    let mut reached: BTreeSet<BitarState> = BTreeSet::new();
    reached.insert(BitarState::Invalid);
    let procs = proc_arcs();
    let snoops = snoop_arcs();
    let completes = complete_arcs();
    loop {
        let mut grew = false;
        let snapshot: Vec<_> = reached.iter().copied().collect();
        for s in snapshot {
            for a in &procs {
                if a.from == s {
                    if let ProcArcAction::Local(next) = a.action {
                        grew |= reached.insert(next);
                    }
                }
            }
            for a in &snoops {
                if a.from == s {
                    grew |= reached.insert(a.to);
                }
            }
        }
        for a in &completes {
            if reached.contains(&a.from) {
                if let CompleteOutcome::Installed { next }
                | CompleteOutcome::InstalledRetryOp { next } = a.outcome
                {
                    grew |= reached.insert(next);
                }
            }
        }
        if !grew {
            break;
        }
    }
    reached
}

/// Renders the whole transition relation (the textual Figure 10).
pub fn render() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10. Cache State Transitions (Bitar-Despain)");
    let _ = writeln!(out, "\n-- Processor arcs (state x request -> action) --");
    for a in proc_arcs() {
        match a.action {
            ProcArcAction::Local(next) => {
                let (from, next) = (a.from.name(), next.name());
                let _ = writeln!(out, "{from:>5} --{}--> {next}  (local)", a.kind);
            }
            ProcArcAction::Bus(op) => {
                let _ = writeln!(out, "{:>5} --{}--> [bus: {}]", a.from.name(), a.kind, op);
            }
        }
    }
    let _ = writeln!(out, "\n-- Snoop arcs (state x bus request -> state) --");
    for a in snoop_arcs() {
        if a.from == a.to && !a.supplies && !a.denies {
            continue; // self-loops without effect are omitted, as in the figure
        }
        let mut notes = Vec::new();
        if a.supplies {
            notes.push("supplies");
        }
        if a.denies {
            notes.push("LOCKED");
        }
        let notes = if notes.is_empty() { String::new() } else { format!("  ({})", notes.join(", ")) };
        let _ = writeln!(out, "{:>5} --{}--> {}{notes}", a.from.name(), a.op, a.to.name());
    }
    let _ = writeln!(out, "\n-- Completion arcs (request x snoop summary -> state) --");
    for a in complete_arcs() {
        let result = match a.outcome {
            CompleteOutcome::Installed { next } => next.name().to_string(),
            CompleteOutcome::InstalledRetryOp { next } => format!("{} (retry op)", next.name()),
            CompleteOutcome::Retry => "RETRY".into(),
            CompleteOutcome::LockDenied => "DENIED -> busy wait".into(),
        };
        let _ = writeln!(out, "{} via {} [{}] -> {}", a.kind, a.op, a.summary, result);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use BitarState as S;

    #[test]
    fn transition_relation_is_total_and_deterministic() {
        // Totality: 8 states x 7 kinds processor arcs; 8 x ops snoop arcs.
        assert_eq!(proc_arcs().len(), 8 * 7);
        assert_eq!(snoop_arcs().len(), 8 * observable_ops().len());
        // Determinism: enumerating twice yields identical relations.
        assert_eq!(proc_arcs(), proc_arcs());
        assert_eq!(snoop_arcs(), snoop_arcs());
        assert_eq!(complete_arcs(), complete_arcs());
    }

    #[test]
    fn all_eight_states_reachable_from_invalid() {
        let reached = reachable_states();
        for &s in BitarState::all() {
            let name = s.name();
            assert!(reached.contains(&s), "state {name} unreachable — missing arc (a Figure 10 bug)");
        }
    }

    #[test]
    fn figure10_key_arcs_hold() {
        let procs = proc_arcs();
        let find = |from: S, kind: AccessKind| {
            procs.iter().find(|a| a.from == from && a.kind == kind).unwrap()
        };
        // Lock on a write-privilege block is local (zero time).
        assert_eq!(find(S::WriteSourceDirty, AccessKind::LockRead).action, ProcArcAction::Local(S::LockSourceDirty));
        // Unlock without waiter is local; with waiter broadcasts.
        assert_eq!(find(S::LockSourceDirty, AccessKind::UnlockWrite).action, ProcArcAction::Local(S::WriteSourceDirty));
        assert_eq!(
            find(S::LockSourceDirtyWaiter, AccessKind::UnlockWrite).action,
            ProcArcAction::Bus(BusOp::UnlockBroadcast)
        );
        // Reads hit on every valid state.
        for s in [S::Read, S::ReadSourceClean, S::ReadSourceDirty, S::WriteSourceClean, S::WriteSourceDirty] {
            assert_eq!(find(s, AccessKind::Read).action, ProcArcAction::Local(s));
        }
        // A write on a read copy requests privilege only (Figure 5).
        assert_eq!(
            find(S::Read, AccessKind::Write).action,
            ProcArcAction::Bus(BusOp::Fetch { privilege: Privilege::Write, need_data: false })
        );
        // From Invalid, the bus request also fetches the block (figure
        // note 2).
        assert_eq!(
            find(S::Invalid, AccessKind::Write).action,
            ProcArcAction::Bus(BusOp::Fetch { privilege: Privilege::Write, need_data: true })
        );
    }

    #[test]
    fn snoop_arcs_match_figure() {
        let arcs = snoop_arcs();
        let find = |from: S, op: BusOp| arcs.iter().find(|a| a.from == from && a.op == op).unwrap();
        let read_fetch = BusOp::Fetch { privilege: Privilege::Read, need_data: true };
        let write_fetch = BusOp::Fetch { privilege: Privilege::Write, need_data: true };
        let lock_fetch = BusOp::Fetch { privilege: Privilege::Lock, need_data: true };

        // Sources cede source status to the last fetcher and supply.
        let a = find(S::WriteSourceDirty, read_fetch);
        assert_eq!(a.to, S::Read);
        assert!(a.supplies);
        // Write requests invalidate everywhere.
        assert_eq!(find(S::Read, write_fetch).to, S::Invalid);
        assert_eq!(find(S::ReadSourceClean, write_fetch).to, S::Invalid);
        // Locked blocks deny and record the waiter.
        let a = find(S::LockSourceDirty, lock_fetch);
        assert_eq!(a.to, S::LockSourceDirtyWaiter);
        assert!(a.denies);
        let a = find(S::LockSourceDirtyWaiter, write_fetch);
        assert_eq!(a.to, S::LockSourceDirtyWaiter);
        assert!(a.denies);
        // Unlock broadcasts do not disturb other caches' lines.
        assert_eq!(find(S::Read, BusOp::UnlockBroadcast).to, S::Read);
        // Non-paging I/O output leaves the source in place (Section E.2).
        assert_eq!(find(S::WriteSourceDirty, BusOp::IoOutput { paging: false }).to, S::WriteSourceDirty);
        assert_eq!(find(S::WriteSourceDirty, BusOp::IoOutput { paging: true }).to, S::Invalid);
    }

    #[test]
    fn no_invalid_state_ever_denies_or_supplies() {
        for a in snoop_arcs() {
            if a.from == S::Invalid {
                assert!(!a.supplies && !a.denies);
                assert_eq!(a.to, S::Invalid);
            }
        }
    }

    #[test]
    fn completion_arcs_match_figure() {
        let arcs = complete_arcs();
        // Read with no hit -> write privilege (Figure 1).
        let a = arcs
            .iter()
            .find(|a| a.kind == AccessKind::Read && a.summary == "no-copy")
            .unwrap();
        assert_eq!(a.outcome, CompleteOutcome::Installed { next: S::WriteSourceClean });
        // Locked summary denies every kind of fetch.
        for a in arcs.iter().filter(|a| a.summary == "locked") {
            assert_eq!(a.outcome, CompleteOutcome::LockDenied, "{:?} must deny", a.kind);
        }
        // Woken high-priority lock fetch installs the waiter state (Fig 9).
        let a = arcs.iter().find(|a| a.summary == "woken-hi-pri").unwrap();
        assert_eq!(a.outcome, CompleteOutcome::Installed { next: S::LockSourceDirtyWaiter });
    }

    #[test]
    fn render_mentions_every_state() {
        let s = render();
        for state in BitarState::all() {
            assert!(s.contains(state.name()));
        }
        assert!(s.contains("LOCKED"));
        assert!(s.contains("busy wait"));
    }
}
