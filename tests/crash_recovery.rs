//! Durable stop/resume: library-level recovery tests.
//!
//! PR 1 established that an in-memory checkpoint resumes to the exact
//! totals of an uninterrupted run. These tests push the same equivalence
//! through the on-disk codec: stop, serialize, *forget everything*,
//! deserialize in what may as well be a different process, resume — and
//! the verdict and TE/GE/RE/SA totals must still match, including across
//! snapshot-store mode changes (no budget vs. an interning budget) and
//! over multiple rounds of accumulated wall time. (The actual SIGKILL harness lives in
//! `crates/tango-cli/tests/crash_recovery.rs`, next to the binary it
//! kills.)

use protocols::tp0;
use std::path::PathBuf;
use tango::{AnalysisOptions, Checkpoint, SearchStats, Trace, Verdict};

fn counters(s: &SearchStats) -> (u64, u64, u64, u64) {
    (s.transitions_executed, s.generates, s.restores, s.saves)
}

/// The snapshot store's two save paths: pressure-free (no budget: no
/// hashing, no interning) or under a byte budget (every save is keyed
/// and identical snapshots are interned). The budget here is too large
/// to ever stop the search.
fn with_budget(budget: bool) -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    o.limits.max_state_bytes = budget.then_some(usize::MAX);
    o
}

fn invalid_tp0_trace() -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(3, 3, 1))
        .expect("complete trace has a data output to corrupt")
}

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-crash-recovery-{}-{}",
        tag,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("checkpoint.bin")
}

/// Stop a third of the way in, write the checkpoint to disk, read it
/// back, resume with raised limits: identical verdict and totals.
#[test]
fn resume_from_disk_with_raised_limits_matches_uninterrupted_run() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    let mut limited = opts.clone();
    limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    let cp = stopped.checkpoint.expect("limit stop must be resumable");

    let path = temp_file("raised-limits");
    cp.write_to(&path).expect("checkpoint writes");
    drop(cp); // everything the resume uses comes from the file

    let cp = Checkpoint::read_from(&path).expect("checkpoint reads");
    let resumed = a.analyze_resume(cp, &opts).unwrap();
    assert_eq!(resumed.verdict, Verdict::Invalid);
    assert_eq!(counters(&resumed.stats), counters(&baseline.stats));
}

/// A checkpoint carries each frame's state inline, so a file saved by a
/// pressure-free store resumes correctly in an interning (budgeted) one
/// and vice versa — the search totals are store-mode independent.
#[test]
fn cross_mode_save_and_resume_through_disk() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let baseline = a.analyze(&bad, &with_budget(false)).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    for (save_budget, resume_budget) in [(false, true), (true, false)] {
        let mut limited = with_budget(save_budget);
        limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
        let stopped = a.analyze(&bad, &limited).unwrap();
        let cp = stopped.checkpoint.expect("limit stop must be resumable");

        let path = temp_file(if save_budget { "budget-to-free" } else { "free-to-budget" });
        cp.write_to(&path).expect("checkpoint writes");
        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");

        let resumed = a.analyze_resume(cp, &with_budget(resume_budget)).unwrap();
        assert_eq!(
            resumed.verdict,
            Verdict::Invalid,
            "save budget={} resume budget={}",
            save_budget,
            resume_budget
        );
        assert_eq!(
            counters(&resumed.stats),
            counters(&baseline.stats),
            "save budget={} resume budget={}",
            save_budget,
            resume_budget
        );
    }
}

/// A checkpoint carries search structure, not executor artifacts: a file
/// saved while running the tree-walking interpreter (`--exec=interp`)
/// resumes under the bytecode VM (and vice versa) with the verdict and
/// TE/GE/RE/SA totals of an uninterrupted run in either mode.
#[test]
fn cross_exec_mode_save_and_resume_through_disk() {
    use estelle_runtime::ExecMode;
    let with_exec = |exec| AnalysisOptions {
        exec_mode: exec,
        ..AnalysisOptions::default()
    };
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let baseline = a.analyze(&bad, &with_exec(ExecMode::Compiled)).unwrap();
    assert_eq!(baseline.verdict, Verdict::Invalid);

    for (save_exec, resume_exec) in [
        (ExecMode::Interp, ExecMode::Compiled),
        (ExecMode::Compiled, ExecMode::Interp),
    ] {
        let mut limited = with_exec(save_exec);
        limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
        let stopped = a.analyze(&bad, &limited).unwrap();
        let cp = stopped.checkpoint.expect("limit stop must be resumable");

        let path = temp_file(if save_exec == ExecMode::Interp {
            "interp-to-compiled"
        } else {
            "compiled-to-interp"
        });
        cp.write_to(&path).expect("checkpoint writes");
        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");

        let resumed = a.analyze_resume(cp, &with_exec(resume_exec)).unwrap();
        assert_eq!(
            resumed.verdict,
            Verdict::Invalid,
            "save exec={} resume exec={}",
            save_exec.name(),
            resume_exec.name()
        );
        assert_eq!(
            counters(&resumed.stats),
            counters(&baseline.stats),
            "save exec={} resume exec={}",
            save_exec.name(),
            resume_exec.name()
        );
    }
}

/// `SearchStats::wall_time` must accumulate across stop/resume rounds —
/// each round adds its own elapsed time to the total carried by the
/// checkpoint (in memory and through the file's nanosecond encoding)
/// instead of restarting the clock.
#[test]
fn wall_time_accumulates_across_disk_resume_rounds() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let step = (baseline.stats.transitions_executed / 4).max(1);
    let mut cap = step;
    let mut limited = opts.clone();
    limited.limits.max_transitions = cap;
    let mut report = a.analyze(&bad, &limited).unwrap();
    let path = temp_file("cpu-time");
    let mut rounds = 0;
    let mut last_cpu = report.stats.wall_time;
    while let Verdict::Inconclusive(_) = report.verdict {
        rounds += 1;
        assert!(rounds < 100, "stop/resume chain must converge");
        let cp = report.checkpoint.take().expect("resumable");

        // Round-trip through disk: the file stores wall_time at
        // nanosecond resolution, so the carried total survives exactly.
        cp.write_to(&path).expect("checkpoint writes");
        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");
        assert_eq!(cp.stats().wall_time, report.stats.wall_time);

        cap += step;
        let mut next = opts.clone();
        next.limits.max_transitions = cap;
        report = a.analyze_resume(cp, &next).unwrap();
        assert!(
            report.stats.wall_time >= last_cpu,
            "wall_time went backwards across a resume: {:?} -> {:?}",
            last_cpu,
            report.stats.wall_time
        );
        last_cpu = report.stats.wall_time;
    }
    assert!(rounds >= 2, "the cap steps must actually interrupt the run");
    assert_eq!(report.verdict, Verdict::Invalid);
    assert_eq!(counters(&report.stats), counters(&baseline.stats));
}

/// Saving the same stop twice and resuming each copy independently is
/// safe: reading a checkpoint does not consume or mutate the file.
#[test]
fn checkpoint_file_is_reusable() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace();
    let opts = AnalysisOptions::default();
    let baseline = a.analyze(&bad, &opts).unwrap();

    let mut limited = opts.clone();
    limited.limits.max_transitions = (baseline.stats.transitions_executed / 2).max(1);
    let stopped = a.analyze(&bad, &limited).unwrap();
    let cp = stopped.checkpoint.expect("resumable");
    let path = temp_file("reusable");
    cp.write_to(&path).unwrap();

    let first = a
        .analyze_resume(Checkpoint::read_from(&path).unwrap(), &opts)
        .unwrap();
    let second = a
        .analyze_resume(Checkpoint::read_from(&path).unwrap(), &opts)
        .unwrap();
    assert_eq!(first.verdict, second.verdict);
    assert_eq!(counters(&first.stats), counters(&second.stats));
    assert_eq!(counters(&first.stats), counters(&baseline.stats));
}

/// `--exec=auto` round-trips through save/resume: the cost model is a
/// pure function of the compiled spec (transition count), so a resumed
/// run re-selects the same executor the saving run used, on both sides
/// of the selection threshold, with uninterrupted totals.
#[test]
fn auto_exec_mode_round_trips_through_checkpoint() {
    use estelle_runtime::{ExecMode, AUTO_COMPILED_MIN_TRANSITIONS};
    use protocols::synthetic::SyntheticSpec;
    use tango::ChoicePolicy;

    let with_auto = || AnalysisOptions {
        exec_mode: ExecMode::Auto,
        ..AnalysisOptions::default()
    };

    // Small spec (below the threshold → interp) and large spec (above
    // → compiled), both stopped mid-run and resumed under Auto.
    let small = tp0::analyzer();
    let small_trace = invalid_tp0_trace();

    let big_spec = SyntheticSpec::new(4, AUTO_COMPILED_MIN_TRANSITIONS + 20);
    let big = big_spec.analyzer();
    let big_trace = big
        .generate_trace(&big_spec.workload(40), ChoicePolicy::First, 100_000)
        .expect("workload runs");

    for (tag, a, trace, want_exec) in [
        ("small", &small, &small_trace, ExecMode::Interp),
        ("big", &big, &big_trace, ExecMode::Compiled),
    ] {
        assert_eq!(
            a.machine.exec_view(ExecMode::Auto).resolved_exec(),
            want_exec,
            "{}: cost model must resolve as calibrated",
            tag
        );
        let baseline = a.analyze(trace, &with_auto()).unwrap();

        let mut limited = with_auto();
        limited.limits.max_transitions = (baseline.stats.transitions_executed / 3).max(1);
        let stopped = a.analyze(trace, &limited).unwrap();
        let cp = stopped.checkpoint.expect("limit stop must be resumable");
        let path = temp_file(&format!("auto-{}", tag));
        cp.write_to(&path).expect("checkpoint writes");

        let cp = Checkpoint::read_from(&path).expect("checkpoint reads");
        let resumed = a.analyze_resume(cp, &with_auto()).unwrap();
        assert_eq!(resumed.verdict, baseline.verdict, "{}", tag);
        assert_eq!(
            counters(&resumed.stats),
            counters(&baseline.stats),
            "{}: auto resume must re-select the same executor and finish \
             with uninterrupted totals",
            tag
        );
    }
}
