//! Copy-on-write Save/Restore tests.
//!
//! Every saved search state is a COW snapshot held by the snapshot
//! store, which saves along one of two paths: pressure-free (no byte
//! budget: no hashing, no interning) or under a budget (every save is
//! content-keyed and identical snapshots are interned, charged once).
//! The two paths must be observationally identical: same verdicts, same
//! TE/GE/RE/SA counters, same behaviour across checkpoint/resume — only
//! the cost differs. These tests pin that equivalence and the
//! `snapshot_bytes` accounting that must never wrap across stop/resume.

use protocols::tp0;
use tango::{AnalysisOptions, SearchStats, Trace, Verdict};

/// The counters the paper's tables report; `wall_time` is excluded since
/// the two paths differ precisely in how long the same work takes.
fn counters(s: &SearchStats) -> (u64, u64, u64, u64) {
    (s.transitions_executed, s.generates, s.restores, s.saves)
}

/// The store's pressure-free path (`false`) or its interning path under
/// a budget too large to ever stop the search (`true`).
fn with_budget(budget: bool) -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    o.limits.max_state_bytes = budget.then_some(usize::MAX);
    o
}

fn invalid_tp0_trace() -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(3, 3, 1))
        .expect("complete trace has a data output to corrupt")
}

#[test]
fn store_modes_agree_on_valid_and_invalid_tp0() {
    let a = tp0::analyzer();
    for (trace, want) in [
        (tp0::complete_valid_trace(3, 3, 1), Verdict::Valid),
        (invalid_tp0_trace(), Verdict::Invalid),
    ] {
        let free = a.analyze(&trace, &with_budget(false)).unwrap();
        let keyed = a.analyze(&trace, &with_budget(true)).unwrap();
        assert_eq!(free.verdict, want);
        assert_eq!(keyed.verdict, want);
        assert_eq!(counters(&free.stats), counters(&keyed.stats));
        assert_eq!(free.stats.intern_hits, 0, "the pressure-free path never interns");
        assert!(
            keyed.stats.peak_snapshot_bytes <= free.stats.peak_snapshot_bytes,
            "deduplicated accounting can only shrink the peak"
        );
    }
}

#[test]
fn checkpoint_resume_totals_match_under_both_modes() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let mut totals = Vec::new();
    for budget in [false, true] {
        let opts = with_budget(budget);
        let baseline = a.analyze(&bad, &opts).unwrap();
        assert_eq!(baseline.verdict, Verdict::Invalid);

        // Interrupt a third of the way in, then resume with the cap lifted.
        let mut limited = opts.clone();
        limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
        let stopped = a.analyze(&bad, &limited).unwrap();
        let cp = stopped.checkpoint.expect("limit stop must be resumable");
        let resumed = a.analyze_resume(*cp, &opts).unwrap();

        assert_eq!(resumed.verdict, Verdict::Invalid);
        assert_eq!(counters(&resumed.stats), counters(&baseline.stats));
        totals.push((baseline.verdict.clone(), counters(&baseline.stats)));
    }
    assert_eq!(
        totals[0], totals[1],
        "both store paths must do identical search work"
    );
}

#[test]
fn snapshot_bytes_never_wraps_across_stop_resume_rounds() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    // Force several stop/resume rounds; a subtraction wrap anywhere in
    // the rebuilt accounting would catapult `snapshot_bytes` toward
    // `usize::MAX` and trip the sanity bound (or the debug assertion in
    // debug builds).
    let sane = 1usize << 40;
    let step = (baseline.stats.transitions_executed / 5).max(1);
    let mut cap = step;
    let mut limited = opts.clone();
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let mut rounds = 0;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        assert!(
            report.stats.snapshot_bytes < sane,
            "snapshot_bytes wrapped: {}",
            report.stats.snapshot_bytes
        );
        assert!(report.stats.peak_snapshot_bytes < sane);
        assert!(report.stats.snapshot_bytes <= report.stats.peak_snapshot_bytes);
        let cp = report.checkpoint.take().expect("resumable");
        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = a.analyze_resume(*cp, &next).unwrap();
    }
    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(counters(&report.stats), counters(&baseline.stats));
    assert_eq!(
        report.stats.snapshot_bytes, 0,
        "an exhausted search must release every snapshot byte"
    );
}
