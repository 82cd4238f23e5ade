//! Multi-core MDFS determinism: N workers must be observationally
//! indistinguishable from one.
//!
//! The work-stealing search (DESIGN §6.13) promises that the verdict and
//! the paper's TE/GE/RE/SA counters are a function of the trace and the
//! options alone, never of the worker count or the steal schedule. Every
//! test here runs the same analysis at workers ∈ {1, 2, 4, 8} and
//! requires bit-identical results — against the single-worker MDFS run
//! *and* against static DFS where both modes terminate. Checkpoints
//! saved from an N-worker run must resume at any other worker count to
//! the exact uninterrupted totals.

use protocols::{ack, tp0};
use std::path::PathBuf;
use tango::{
    AnalysisOptions, Checkpoint, InconclusiveReason, OrderOptions, SearchStats, SpillMode,
    StaticSource, Trace, Verdict,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn counters(s: &SearchStats) -> (u64, u64, u64, u64) {
    (s.transitions_executed, s.generates, s.restores, s.saves)
}

/// Verdict, witness and TE/GE/RE/SA/PG-nodes of one run, as recorded
/// from the single-consumer MDFS loop that preceded the burst engine:
/// every worker count shares one engine now, so these literals are the
/// only reference independent of it.
type Golden = (Verdict, Option<&'static [&'static str]>, [u64; 5]);

fn check_golden(tag: &str, r: &tango::AnalysisReport, (verdict, witness, counts): &Golden) {
    let s = &r.stats;
    assert_eq!(&r.verdict, verdict, "{}", tag);
    let w: Option<Vec<&str>> = r.witness.as_ref().map(|w| w.iter().map(String::as_str).collect());
    assert_eq!(w.as_deref(), *witness, "{}", tag);
    let got = [s.transitions_executed, s.generates, s.restores, s.saves, s.pg_nodes];
    assert_eq!(&got, counts, "{}: TE/GE/RE/SA/PG", tag);
}

/// The recorded one-worker run of `invalid_tp0_trace(3)` under NR.
const INVALID_3_NR: Golden = (Verdict::Invalid, None, [88329, 88329, 88329, 36687, 0]);

/// An invalid trace whose NR-order search backtracks hard: `up` data
/// units each way gives ~90k transitions at 3+3 — enough work to spread
/// over eight workers, small enough to run the whole matrix in seconds.
fn invalid_tp0_trace(up: usize) -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(up, up, 1))
        .expect("complete trace has a data output to corrupt")
}

fn online(a: &tango::TraceAnalyzer, trace: &Trace, opts: &AnalysisOptions) -> tango::AnalysisReport {
    let mut src = StaticSource::new(trace.clone());
    a.analyze_online(&mut src, opts, &mut |_| true).unwrap()
}

fn with_workers(opts: &AnalysisOptions, n: usize) -> AnalysisOptions {
    let mut o = opts.clone();
    o.workers = n;
    o
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tango-mdfs-par-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The backbone: DFS vs MDFS vs MDFS×{2,4,8} on a backtracking-heavy
/// invalid trace and a complete valid one. DFS and MDFS are different
/// engines with different GE/RE/SA bookkeeping (PG-node revival
/// re-generates, DFS restores per frame), so across *modes* the contract
/// is verdict + TE; across *worker counts* within MDFS it is everything.
#[test]
fn worker_count_never_changes_verdict_or_counters() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace(3);
    let good = tp0::complete_valid_trace(3, 3, 1);

    let goldens: [[Golden; 2]; 2] = [
        [
            INVALID_3_NR,
            (
                Verdict::Valid,
                Some(&[
                    "t10", "t11", "t13", "t13", "t13", "t14", "t14", "t14", "t15", "t15", "t15",
                    "t16", "t16", "t16", "t17",
                ]),
                [15, 15, 16, 16, 0],
            ),
        ],
        [
            (Verdict::Invalid, None, [26, 26, 26, 17, 0]),
            (
                Verdict::Valid,
                Some(&[
                    "t10", "t11", "t15", "t16", "t13", "t14", "t15", "t16", "t13", "t15", "t13",
                    "t14", "t16", "t14", "t17",
                ]),
                [17, 17, 18, 16, 0],
            ),
        ],
    ];
    for (order, [bad_golden, good_golden]) in
        [OrderOptions::none(), OrderOptions::full()].into_iter().zip(&goldens)
    {
        let opts = AnalysisOptions {
            order,
            ..Default::default()
        };
        for (tag, trace, verdict, golden) in [
            ("invalid", &bad, Verdict::Invalid, bad_golden),
            ("valid", &good, Verdict::Valid, good_golden),
        ] {
            let dfs = a.analyze(trace, &opts).unwrap();
            assert_eq!(dfs.verdict, verdict, "{}", tag);
            let seq = online(&a, trace, &opts);
            assert_eq!(seq.verdict, verdict, "{}", tag);
            check_golden(tag, &seq, golden);
            assert_eq!(
                seq.stats.transitions_executed, dfs.stats.transitions_executed,
                "DFS and MDFS disagree on TE for a static trace ({})",
                tag
            );
            for n in WORKER_COUNTS {
                let par = online(&a, trace, &with_workers(&opts, n));
                assert_eq!(par.verdict, seq.verdict, "workers={} {}", n, tag);
                assert_eq!(
                    counters(&par.stats),
                    counters(&seq.stats),
                    "workers={} changed TE/GE/RE/SA ({})",
                    n,
                    tag
                );
                assert_eq!(par.witness, seq.witness, "workers={} {}", n, tag);
            }
        }
    }
}

/// §3.1's ack scenario needs PG-node revival to find T1 T2 T3 T1; the
/// sequential-exact witness must survive any steal schedule (the replay
/// pass reruns a witness-bearing burst single-threaded).
#[test]
fn parallel_witness_is_the_sequential_witness() {
    use tango::{ChannelSource, Event, Feed};
    let a = ack::analyzer();
    let ack_source = || {
        let (tx, source) = ChannelSource::pair();
        for line in [
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
            Event::input("A", "x", vec![]),
        ] {
            tx.send(Feed::Event(line)).unwrap();
        }
        tx.send(Feed::Eof).unwrap();
        source
    };
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let mut source = ack_source();
    let seq = a.analyze_online(&mut source, &opts, &mut |_| true).unwrap();
    assert_eq!(seq.verdict, Verdict::Valid);
    let golden = (Verdict::Valid, Some(&["T1", "T1", "T2", "T3"][..]), [5, 6, 7, 6, 0]);
    check_golden("ack", &seq, &golden);
    let seq_witness = seq.witness.clone().expect("valid verdict carries a witness");

    for n in [2, 4, 8] {
        let mut source = ack_source();
        let par = a
            .analyze_online(&mut source, &with_workers(&opts, n), &mut |_| true)
            .unwrap();
        assert_eq!(par.verdict, Verdict::Valid, "workers={}", n);
        assert_eq!(
            par.witness.as_ref(),
            Some(&seq_witness),
            "workers={} found a different witness",
            n
        );
        assert_eq!(counters(&par.stats), counters(&seq.stats), "workers={}", n);
    }
}

/// The sharded store must keep the spill tier's guarantees: a 256-byte
/// budget forces constant eviction, and still nothing about the verdict
/// or the counters may move at any worker count.
#[test]
fn spilled_parallel_run_matches_all_ram_sequential() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace(2);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let baseline = online(&a, &bad, &opts);
    assert_eq!(baseline.verdict, Verdict::Invalid);
    let golden = (Verdict::Invalid, None, [1130, 1342, 1342, 695, 0]);
    check_golden("invalid 2+2", &baseline, &golden);

    for n in WORKER_COUNTS {
        let dir = spill_dir(&format!("w{}", n));
        let mut o = with_workers(&opts, n);
        o.limits.max_state_bytes = Some(256);
        o.spill.mode = SpillMode::On;
        o.spill.dir = Some(dir.clone());
        let tiered = online(&a, &bad, &o);
        assert_eq!(tiered.verdict, baseline.verdict, "workers={}", n);
        assert_eq!(
            counters(&tiered.stats),
            counters(&baseline.stats),
            "spill under workers={} changed TE/GE/RE/SA",
            n
        );
        assert!(
            tiered.stats.spill_evictions > 0,
            "a 256-byte budget must actually evict (workers={})",
            n
        );
        assert!(tiered.spill_faults.is_empty(), "{:?}", tiered.spill_faults);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Stop an N-worker run on a transition limit after eof, round-trip the
/// checkpoint through a file, resume at M workers: the final verdict,
/// witness and TE/GE/RE/SA must equal the uninterrupted run's, for every
/// (N, M) — on an exhaustive invalid search and on a valid trace, where
/// the stopped burst's racing front is not the sequential one.
#[test]
fn checkpoint_saved_at_n_workers_resumes_at_m() {
    let a = tp0::analyzer();
    let cases = [
        (
            "invalid 3+3 NR",
            invalid_tp0_trace(3),
            OrderOptions::none(),
            [1usize, 4],
        ),
        (
            "valid 300+300 FULL",
            tp0::valid_trace(300, 300, 7),
            OrderOptions::full(),
            [2, 4],
        ),
    ];
    for (tag, trace, order, save_ats) in cases {
        let opts = AnalysisOptions::with_order(order);
        let uninterrupted = online(&a, &trace, &opts);
        if tag.starts_with("invalid") {
            check_golden("uninterrupted", &uninterrupted, &INVALID_3_NR);
        } else {
            assert_eq!(uninterrupted.verdict, Verdict::Valid);
            assert_eq!(uninterrupted.stats.transitions_executed, 1674, "{}", tag);
        }
        let cap = uninterrupted.stats.transitions_executed / 2;
        assert!(cap > 0, "workload too small to interrupt");

        for save_at in save_ats {
            let mut limited = with_workers(&opts, save_at);
            limited.limits.max_transitions = cap;
            let stopped = online(&a, &trace, &limited);
            assert_eq!(
                stopped.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit),
                "{} save_at={}",
                tag,
                save_at
            );
            let cp = stopped
                .checkpoint
                .expect("a post-eof limit stop must be checkpointable");
            let tmp = std::env::temp_dir().join(format!(
                "tango-mdfs-par-ckpt-{}-{}.bin",
                save_at,
                std::process::id()
            ));
            cp.write_to(&tmp).expect("checkpoint writes");

            for resume_at in [1usize, 2, 8] {
                let cp = Checkpoint::read_from(&tmp).expect("checkpoint reads back");
                let resumed = a
                    .analyze_online_resume(cp, &with_workers(&opts, resume_at), &mut |_| true)
                    .unwrap();
                let at = format!("{} save_at={} resume_at={}", tag, save_at, resume_at);
                assert_eq!(resumed.verdict, uninterrupted.verdict, "{}", at);
                assert!(resumed.witness == uninterrupted.witness, "witness drifted ({})", at);
                assert_eq!(
                    counters(&resumed.stats),
                    counters(&uninterrupted.stats),
                    "resume at a different worker count drifted ({})",
                    at
                );
            }
            std::fs::remove_file(&tmp).ok();
        }
    }
}

/// The budget gauge is exact at any worker count: with a budget of a
/// few snapshots and spill on, the resident peak never exceeds it, even
/// while several workers save and evict at once.
#[test]
fn resident_peak_stays_within_the_budget_at_every_worker_count() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace(3);
    let opts = AnalysisOptions::with_order(OrderOptions::none());
    let baseline = online(&a, &bad, &opts);
    let budget = 2048;
    for n in [1usize, 2, 4] {
        let dir = spill_dir(&format!("peak-w{}", n));
        let mut o = with_workers(&opts, n);
        o.limits.max_state_bytes = Some(budget);
        o.spill.mode = SpillMode::On;
        o.spill.dir = Some(dir.clone());
        let tiered = online(&a, &bad, &o);
        assert_eq!(counters(&tiered.stats), counters(&baseline.stats), "workers={}", n);
        assert!(tiered.stats.spill_reads > 0, "the budget must spill (workers={})", n);
        assert!(
            tiered.stats.peak_snapshot_bytes <= budget,
            "workers={}: resident peak {} over the {}-byte budget",
            n,
            tiered.stats.peak_snapshot_bytes,
            budget
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Steal telemetry: a multi-worker run reports per-worker busy time and
/// only exports steal counters when steals actually happened; a
/// single-worker run never grows the new series.
#[test]
fn steal_counters_only_appear_on_multi_worker_runs() {
    let a = tp0::analyzer();
    let bad = invalid_tp0_trace(3);
    let opts = AnalysisOptions::with_order(OrderOptions::none());

    let seq = online(&a, &bad, &opts);
    check_golden("one worker", &seq, &INVALID_3_NR);
    assert_eq!(seq.stats.steals, 0, "one worker cannot steal");
    assert_eq!(seq.stats.steal_failures, 0);

    let par = online(&a, &bad, &with_workers(&opts, 4));
    // Steals are schedule-dependent; the *accounting* must at least be
    // internally consistent and the run observationally sequential.
    assert_eq!(counters(&par.stats), counters(&seq.stats));
}

