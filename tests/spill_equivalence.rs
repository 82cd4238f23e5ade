//! RAM/disk equivalence: the spill tier changes where bytes live, never
//! what the search decides.
//!
//! Every test runs the same analysis twice — once all in RAM, once under
//! a snapshot budget tight enough to force constant eviction to disk —
//! and requires the verdict and the paper's TE/GE/RE/SA counters to be
//! bit-identical. Covered: static DFS and the on-line MDFS, and a stop/resume
//! round whose checkpoint travels through a file while the spill
//! directory persists across the "processes".

use protocols::tp0;
use std::path::PathBuf;
use tango::{AnalysisOptions, Checkpoint, SearchStats, SpillMode, StaticSource, Trace, Verdict};

fn counters(s: &SearchStats) -> (u64, u64, u64, u64) {
    (s.transitions_executed, s.generates, s.restores, s.saves)
}

fn invalid_tp0_trace() -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(4, 4, 1))
        .expect("complete trace has a data output to corrupt")
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-spill-equiv-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `opts` with a budget small enough that essentially every snapshot
/// must leave RAM, spilling into `dir`.
fn spilled(opts: &AnalysisOptions, dir: PathBuf) -> AnalysisOptions {
    let mut o = opts.clone();
    o.limits.max_state_bytes = Some(256);
    o.spill.mode = SpillMode::On;
    o.spill.dir = Some(dir);
    o
}

#[test]
fn dfs_verdict_and_counters_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let good = tp0::complete_valid_trace(3, 3, 1);

    let opts = AnalysisOptions::default();
    for (tag, trace, verdict) in [
        ("invalid", &bad, Verdict::Invalid),
        ("valid", &good, Verdict::Valid),
    ] {
        let baseline = a.analyze(trace, &opts).unwrap();
        assert_eq!(baseline.verdict, verdict);

        let dir = spill_dir(&format!("dfs-{}", tag));
        let tiered = a.analyze(trace, &spilled(&opts, dir.clone())).unwrap();
        assert_eq!(tiered.verdict, baseline.verdict, "{}", tag);
        assert_eq!(
            counters(&tiered.stats),
            counters(&baseline.stats),
            "spill must not change TE/GE/RE/SA ({})",
            tag
        );
        assert!(
            tiered.stats.spill_evictions > 0,
            "a 256-byte budget must actually evict ({})",
            tag
        );
        assert!(tiered.spill_faults.is_empty(), "{:?}", tiered.spill_faults);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn dfs_best_effort_localization_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let dir = spill_dir("best-effort");
    let tiered = a.analyze(&bad, &spilled(&opts, dir.clone())).unwrap();
    let (b, t) = (
        baseline.best_effort.expect("invalid verdict localizes"),
        tiered.best_effort.expect("invalid verdict localizes"),
    );
    assert_eq!(t.events_explained, b.events_explained);
    assert_eq!(t.path, b.path, "the best-effort path itself is unchanged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mdfs_verdict_and_counters_identical_ram_vs_spill() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let good = tp0::complete_valid_trace(3, 3, 1);

    let opts = AnalysisOptions::default();
    for (tag, trace, verdict) in [
        ("invalid", &bad, Verdict::Invalid),
        ("valid", &good, Verdict::Valid),
    ] {
        let mut src = StaticSource::new(trace.clone());
        let baseline = a.analyze_online(&mut src, &opts, &mut |_| true).unwrap();
        assert_eq!(baseline.verdict, verdict);

        let dir = spill_dir(&format!("mdfs-{}", tag));
        let mut src = StaticSource::new(trace.clone());
        let tiered = a
            .analyze_online(&mut src, &spilled(&opts, dir.clone()), &mut |_| true)
            .unwrap();
        assert_eq!(tiered.verdict, baseline.verdict, "{}", tag);
        assert_eq!(
            counters(&tiered.stats),
            counters(&baseline.stats),
            "spill must not change MDFS TE/GE/RE/SA ({})",
            tag
        );
        assert!(
            tiered.stats.spill_evictions > 0,
            "a 256-byte budget must actually evict ({})",
            tag
        );
        assert!(tiered.spill_faults.is_empty(), "{:?}", tiered.spill_faults);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stop_resume_through_disk_checkpoint_while_spilled_matches_baseline() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let dir = spill_dir("resume");
    let tmp = std::env::temp_dir().join(format!(
        "tango-spill-equiv-resume-ckpt-{}.bin",
        std::process::id()
    ));

    // Interrupt the spilled run partway with an absolute transition cap,
    // round-trip the checkpoint through a file (the cross-process path),
    // and finish under a fresh options value pointing at the *same*
    // spill directory — the reopened tier adopts the earlier segments.
    let step = (baseline.stats.transitions_executed / 3).max(1);
    let mut cap = step;
    let mut limited = spilled(&opts, dir.clone());
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let mut rounds = 0;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        let cp = report
            .checkpoint
            .take()
            .expect("limit-stopped spilled run must stay resumable");
        cp.write_to(&tmp).expect("checkpoint writes while spilled");
        let cp = Checkpoint::read_from(&tmp).expect("checkpoint reads back");
        cap += step;
        let mut next = spilled(&opts, dir.clone());
        next.limits.max_transitions = cap;
        report = a.analyze_resume(cp, &next).unwrap();
    }
    assert!(rounds >= 1, "the cap must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(counters(&report.stats), counters(&baseline.stats));
    assert!(
        report.stats.spill_evictions > 0,
        "the resumed rounds keep spilling"
    );
    assert!(report.spill_faults.is_empty(), "{:?}", report.spill_faults);
    std::fs::remove_file(&tmp).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_limit_never_fires_with_the_tier_enabled() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    // The budget that used to kill the run (`max_state_bytes = 1` is the
    // fault_injection pin for Inconclusive(MemoryLimit)) now completes
    // with identical counters: the tier turns the limit into tiering.
    let dir = spill_dir("no-memlimit");
    let mut o = spilled(&opts, dir.clone());
    o.limits.max_state_bytes = Some(1);
    let report = a.analyze(&bad, &o).unwrap();
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(counters(&report.stats), counters(&baseline.stats));
    std::fs::remove_dir_all(&dir).ok();
}
