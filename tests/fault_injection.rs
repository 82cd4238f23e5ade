//! Fault-injection and resource-governance integration tests.
//!
//! Exercises the resilience layer end to end: wall-clock deadlines and
//! snapshot-memory budgets stopping a static DFS with a resumable
//! checkpoint, stop/resume chains preserving the paper's TE/GE/RE/SA
//! counters exactly, and dynamic sources that corrupt, stall, duplicate,
//! truncate or rotate — none of which may panic, wedge the monitor, or
//! lose the diagnostic explaining what went wrong.

use protocols::tp0;
use std::time::Duration;
use tango::{
    AnalysisOptions, FaultPlan, FaultySource, FollowFileSource, InconclusiveReason,
    RecoveryPolicy, SearchStats, SourceFaultPlan, Trace, TraceSource, Verdict,
};

/// The counters the paper's tables report; `wall_time` is excluded since
/// wall-clock obviously differs between interrupted and straight runs.
fn counters(s: &SearchStats) -> (u64, u64, u64, u64) {
    (s.transitions_executed, s.generates, s.restores, s.saves)
}

fn invalid_tp0_trace() -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(4, 4, 1))
        .expect("complete trace has a data output to corrupt")
}

#[test]
fn deadline_stops_with_checkpoint_and_resume_matches_uninterrupted() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();

    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let mut tight = opts.clone();
    tight.limits.max_wall_time = Some(Duration::from_micros(1));
    let stopped = a.analyze(&bad, &tight).unwrap();
    assert_eq!(
        stopped.verdict,
        Verdict::Inconclusive(InconclusiveReason::TimeLimit)
    );
    let cp = stopped.checkpoint.expect("limit stop must be resumable");
    assert_eq!(cp.events_total(), bad.len());

    // Resume with the deadline lifted: same verdict, same totals.
    let resumed = a.analyze_resume(*cp, &opts).unwrap();
    assert_eq!(resumed.verdict, Verdict::Invalid);
    assert_eq!(counters(&resumed.stats), counters(&baseline.stats));
    let (rb, bb) = (
        resumed.best_effort.expect("invalid verdict localizes"),
        baseline.best_effort.expect("invalid verdict localizes"),
    );
    assert_eq!(rb.events_explained, bb.events_explained);
    assert_eq!(rb.path, bb.path);
}

#[test]
fn memory_budget_stops_with_checkpoint_and_resume_matches_uninterrupted() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();

    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let mut tiny = opts.clone();
    tiny.limits.max_state_bytes = Some(1);
    let stopped = a.analyze(&bad, &tiny).unwrap();
    assert_eq!(
        stopped.verdict,
        Verdict::Inconclusive(InconclusiveReason::MemoryLimit)
    );
    assert!(stopped.stats.peak_snapshot_bytes > 1);
    let cp = stopped.checkpoint.expect("limit stop must be resumable");

    let resumed = a.analyze_resume(*cp, &opts).unwrap();
    assert_eq!(resumed.verdict, Verdict::Invalid);
    assert_eq!(counters(&resumed.stats), counters(&baseline.stats));
}

#[test]
fn chained_stop_resume_rounds_preserve_counter_totals() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    // Raise the (absolute, since counters continue) transition cap a
    // fifth of the uninterrupted total at a time, forcing several
    // stop/resume rounds before the search can finish.
    let step = (baseline.stats.transitions_executed / 5).max(1);
    let mut cap = step;
    let mut limited = opts.clone();
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let mut rounds = 0;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        let cp = report
            .checkpoint
            .take()
            .expect("every limit-stopped round must be resumable");
        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = a.analyze_resume(*cp, &next).unwrap();
    }
    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(counters(&report.stats), counters(&baseline.stats));
    assert_eq!(
        report.best_effort.unwrap().events_explained,
        baseline.best_effort.unwrap().events_explained
    );
}

#[test]
fn corrupted_online_feed_is_skipped_and_diagnosed() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(2, 2, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    let plan = SourceFaultPlan {
        corrupt_every: 5,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    // Events were lost, so the verdict is whatever the damaged trace
    // deserves — but the run must terminate conclusively (the eof still
    // arrives) and the corruption must be visible in the report.
    assert!(report.verdict.is_conclusive());
    assert!(src.skipped_lines() > 0);
    assert!(!report.source_faults.is_empty());
}

#[test]
fn duplicating_and_stalling_online_feed_terminates() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(1, 1, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    let plan = SourceFaultPlan {
        duplicate_every: 3,
        stall_every: 2,
        stall_polls: 3,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert!(report.verdict.is_conclusive());
}

#[test]
fn midline_truncation_in_feed_is_diagnosed() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(1, 1, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    let plan = SourceFaultPlan {
        truncate_every: 4,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert!(report.verdict.is_conclusive());
    assert!(src.skipped_lines() > 0, "cut lines must surface as skips");
    assert!(!report.source_faults.is_empty());
}

#[test]
fn stalled_source_cannot_wedge_a_deadlined_monitor() {
    let a = tp0::analyzer();
    // One event, then the source stalls forever: without a deadline the
    // monitor would poll indefinitely waiting for the eof.
    let plan = SourceFaultPlan {
        stall_every: 1,
        stall_polls: usize::MAX,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new("in U.tconreq\n", Some(a.module().clone()), plan);
    let mut opts = AnalysisOptions::default();
    opts.limits.max_wall_time = Some(Duration::from_millis(40));
    let report = a.analyze_online(&mut src, &opts, &mut |_| true).unwrap();
    assert_eq!(
        report.verdict,
        Verdict::Inconclusive(InconclusiveReason::TimeLimit)
    );
}

#[test]
fn injected_read_errors_retry_under_restart_policy() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(2, 2, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    // Every third read attempt errors; Restart retries the same line on
    // the next poll, so no data is lost and the verdict stays Valid.
    let plan = SourceFaultPlan {
        read_error_every: 3,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan)
        .with_recovery(RecoveryPolicy::Restart);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    assert!(
        report
            .source_faults
            .iter()
            .any(|f| f.contains("injected read error") && f.contains("retrying")),
        "{:?}",
        report.source_faults
    );
}

#[test]
fn injected_read_error_fails_closed_under_fail_policy() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(2, 2, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    let plan = SourceFaultPlan {
        read_error_every: 3,
        ..SourceFaultPlan::default()
    };
    // Default policy is Fail: the first injected error reads as
    // end-of-trace, so the analysis terminates conclusively on the
    // delivered prefix with the fault on the record.
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert!(report.verdict.is_conclusive());
    assert!(
        report
            .source_faults
            .iter()
            .any(|f| f.contains("injected read error") && f.contains("end-of-trace")),
        "{:?}",
        report.source_faults
    );
}

#[test]
fn short_reads_under_fail_policy_skip_and_diagnose() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(2, 2, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    let plan = SourceFaultPlan {
        short_read_every: 4,
        ..SourceFaultPlan::default()
    };
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    // Partial data is delivered as-is under Fail; the half-lines fail to
    // parse, the monitor keeps going, and the eof still terminates it.
    assert!(report.verdict.is_conclusive());
    assert!(src.skipped_lines() > 0, "half-lines must surface as skips");
    assert!(
        report
            .source_faults
            .iter()
            .any(|f| f.contains("injected short read")),
        "{:?}",
        report.source_faults
    );

    // Restart discards the partial read and redelivers the whole line:
    // nothing is lost and the trace stays Valid.
    let mut src = FaultySource::new(&text, Some(a.module().clone()), plan)
        .with_recovery(RecoveryPolicy::Restart);
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    assert_eq!(src.skipped_lines(), 0, "retried reads lose nothing");
}

fn temp_trace_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-fault-injection-{}-{}",
        tag,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("trace.txt")
}

/// The first two events of a valid TP0 run — a fully explainable prefix,
/// so the monitor reaches a `ValidSoFar` interim verdict (which is when
/// the `on_status` callback fires and the tests below mutate the file).
fn tp0_prefix_text(a: &tango::TraceAnalyzer) -> String {
    let full = tp0::complete_valid_trace(1, 1, 1);
    let prefix = Trace::new(full.events[..2].to_vec());
    tango::render_trace(&prefix, Some(a.module()), false)
}

#[test]
fn follow_file_truncation_fails_closed_with_diagnostic() {
    let a = tp0::analyzer();
    let path = temp_trace_path("fail");
    std::fs::write(&path, tp0_prefix_text(&a)).unwrap();

    let mut src = FollowFileSource::new(&path, Some(a.module().clone()))
        .with_recovery(RecoveryPolicy::Fail);
    let mut shrunk = false;
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| {
            // The prefix is explained and the monitor is idle: shrink the
            // file under it, as a crashing writer would.
            if !shrunk {
                shrunk = true;
                std::fs::write(&path, "").unwrap();
            }
            true
        })
        .unwrap();
    // Fail-closed: truncation reads as end-of-trace, so the explained
    // prefix concludes Valid — with the fault on the record, not silent.
    assert_eq!(report.verdict, Verdict::Valid);
    assert_eq!(src.rotations_seen(), 1);
    assert!(report
        .source_faults
        .iter()
        .any(|f| f.contains("truncated")));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn follow_file_rotation_restarts_from_the_top() {
    let a = tp0::analyzer();
    let path = temp_trace_path("restart");
    std::fs::write(&path, tp0_prefix_text(&a)).unwrap();

    let mut src = FollowFileSource::new(&path, Some(a.module().clone()))
        .with_recovery(RecoveryPolicy::Restart);
    let mut rotated = false;
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| {
            // Rotate: replace the log with a shorter file that closes the
            // trace. The source must restart from offset 0 and read it.
            if !rotated {
                rotated = true;
                std::fs::write(&path, "eof\n").unwrap();
            }
            true
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    assert_eq!(src.rotations_seen(), 1);
    assert!(report
        .source_faults
        .iter()
        .any(|f| f.contains("restarting")));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn unified_plan_arms_the_source_site_like_a_hand_built_one() {
    let a = tp0::analyzer();
    let good = tp0::complete_valid_trace(2, 2, 1);
    let text = tango::render_trace(&good, Some(a.module()), true);
    // The composed plan spec is the CLI's `--fault-plan` language; the
    // source it builds must behave exactly like the struct-literal plan
    // the pre-unification tests used.
    let plan =
        FaultPlan::parse("seed=1,source.read_error_every=3,source.recovery=restart").unwrap();
    let mut src = plan
        .build_source(&text, Some(a.module().clone()))
        .expect("source site armed");
    let report = a
        .analyze_online(&mut src, &AnalysisOptions::default(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    assert!(src.fault_retries() > 0, "restart policy counts retries");
    assert_eq!(src.fault_giveups(), 0);
    assert!(report
        .source_faults
        .iter()
        .any(|f| f.contains("injected read error")));
}
