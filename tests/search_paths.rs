//! Pinned search paths: the witnesses and best-effort paths the searches
//! report, as literal goldens.
//!
//! Both searches keep their path as shared-prefix transition indices and
//! only turn it into names when a report is built. These goldens were
//! recorded from the earlier name-vector representation, so any change
//! to which path is reported — a witness, the most-explaining attempt of
//! an invalid trace, or either after a checkpoint round trip — fails here.
//! Long witnesses are pinned as (length, FNV-1a digest of the names
//! joined with `\n`).

use protocols::{lapd, tp0};
use tango::{
    AnalysisOptions, AnalysisReport, Checkpoint, InconclusiveReason, OrderOptions, StaticSource,
    Trace, TraceAnalyzer, Verdict,
};

/// FNV-1a over the transition names joined with `\n`.
fn digest(names: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in names.join("\n").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn witness(r: &AnalysisReport) -> (usize, u64) {
    assert_eq!(r.verdict, Verdict::Valid);
    let w = r
        .witness
        .as_ref()
        .expect("a valid verdict carries a witness");
    (w.len(), digest(w))
}

fn best_effort(r: &AnalysisReport) -> (usize, String) {
    assert_eq!(r.verdict, Verdict::Invalid);
    let b = r
        .best_effort
        .as_ref()
        .expect("an invalid verdict localizes");
    (b.events_explained, b.path.join(","))
}

fn online(a: &TraceAnalyzer, t: &Trace, opts: &AnalysisOptions) -> AnalysisReport {
    let mut src = StaticSource::new(t.clone());
    a.analyze_online(&mut src, opts, &mut |_| true).unwrap()
}

fn with_workers(opts: &AnalysisOptions, workers: usize) -> AnalysisOptions {
    let mut o = opts.clone();
    o.workers = workers;
    o
}

fn capped(opts: &AnalysisOptions, max_transitions: u64) -> AnalysisOptions {
    let mut o = opts.clone();
    o.limits.max_transitions = max_transitions;
    o
}

/// Write `cp` to a file and read it back.
fn through_disk(cp: Checkpoint, tag: &str) -> Checkpoint {
    let path = std::env::temp_dir().join(format!(
        "tango-search-paths-{}-{}.ckpt",
        tag,
        std::process::id()
    ));
    cp.write_to(&path).expect("checkpoint writes");
    let back = Checkpoint::read_from(&path).expect("checkpoint reads back");
    std::fs::remove_file(&path).ok();
    back
}

fn full() -> AnalysisOptions {
    AnalysisOptions::with_order(OrderOptions::full())
}

/// Valid TP0 300+300 under FULL: the witness is found after hundreds of
/// backtracks, so it is neither the first attempt nor trivially linear.
fn valid_tp0() -> Trace {
    tp0::valid_trace(300, 300, 7)
}
const VALID_TP0_WITNESS: (usize, u64) = (1164, 0x4110_16d6_ad6c_bd2b);

fn invalid_tp0() -> Trace {
    tp0::invalidate_last_data(&tp0::complete_valid_trace(3, 3, 13))
        .expect("complete trace ends in DATA")
}
const INVALID_TP0_FULL_BEST: (usize, &str) =
    (15, "t10,t11,t15,t13,t13,t15,t16,t16,t13,t14,t14,t15,t14");
const INVALID_TP0_NR_BEST: (usize, &str) = (
    17,
    "t10,t11,t13,t13,t13,t14,t14,t14,t15,t15,t15,t16,t16,t17",
);

#[test]
fn dfs_witness_on_valid_tp0_300_full() {
    let r = tp0::analyzer().analyze(&valid_tp0(), &full()).unwrap();
    assert_eq!(r.stats.restores, 510, "the witness follows backtracking");
    assert_eq!(witness(&r), VALID_TP0_WITNESS);
}

#[test]
fn dfs_witness_on_lapd_di20_full() {
    let r = lapd::analyzer()
        .analyze(&lapd::valid_trace(20, 20, 20), &full())
        .unwrap();
    assert_eq!(r.stats.restores, 44);
    assert_eq!(witness(&r), (84, 0x5695_0b1c_91d9_7d78));
}

#[test]
fn dfs_best_effort_on_invalid_tp0_full_and_nr() {
    let a = tp0::analyzer();
    let bad = invalid_tp0();
    let r = a.analyze(&bad, &full()).unwrap();
    let (n, p) = best_effort(&r);
    assert_eq!((n, p.as_str()), INVALID_TP0_FULL_BEST);
    let r = a
        .analyze(&bad, &AnalysisOptions::with_order(OrderOptions::none()))
        .unwrap();
    let (n, p) = best_effort(&r);
    assert_eq!((n, p.as_str()), INVALID_TP0_NR_BEST);
}

/// The most-explaining attempt is the very first one, recorded before
/// any backtrack: `ta` matches the first exchange, then neither
/// transition can produce `rsp(9)`, and `tb` at the root explains less.
#[test]
fn best_effort_can_be_the_never_backtracked_first_attempt() {
    let two = tango::Tango::generate(
        r#"
        specification two;
        channel C(env, m);
            by env: req(n : integer);
            by m: rsp(n : integer);
        end;
        module M process; ip P : C(m); end;
        body MB for M;
            state S;
            initialize to S begin end;
            trans
            from S to S when P.req name ta: begin output P.rsp(n + 1) end;
            from S to S when P.req name tb: begin output P.rsp(n + 2) end;
        end;
        end.
        "#,
    )
    .expect("spec is valid");
    let trace = tango::parse_trace(
        "in P.req(1)\nout P.rsp(2)\nin P.req(1)\nout P.rsp(9)\n",
        None,
    )
    .expect("trace parses");
    let r = two.analyze(&trace, &AnalysisOptions::default()).unwrap();
    assert_eq!(
        (
            r.stats.transitions_executed,
            r.stats.restores,
            r.stats.saves
        ),
        (4, 2, 2)
    );
    assert_eq!(best_effort(&r), (2, "ta".to_string()));
}

#[test]
fn mdfs_witness_is_the_same_at_1_2_and_4_workers() {
    let a = tp0::analyzer();
    let t = valid_tp0();
    for workers in [1usize, 2, 4] {
        let r = online(&a, &t, &with_workers(&full(), workers));
        assert_eq!(r.stats.transitions_executed, 1674, "{} workers", workers);
        assert_eq!(witness(&r), VALID_TP0_WITNESS, "{} workers", workers);
    }
}

/// Stop at half the transitions, write the checkpoint, read it back and
/// resume: the witness and the best-effort path are the uninterrupted
/// run's.
#[test]
fn checkpoint_round_trip_at_half_te_keeps_the_paths() {
    let a = tp0::analyzer();
    let stop_and_resume = |t: &Trace, opts: &AnalysisOptions, te: u64, tag: &str| {
        let stopped = a.analyze(t, &capped(opts, te / 2)).unwrap();
        assert_eq!(
            stopped.verdict,
            Verdict::Inconclusive(InconclusiveReason::TransitionLimit)
        );
        let cp = through_disk(*stopped.checkpoint.expect("limit stop checkpoints"), tag);
        a.analyze_resume(cp, opts).unwrap()
    };

    let r = stop_and_resume(&valid_tp0(), &full(), 1674, "dfs-valid");
    assert_eq!(witness(&r), VALID_TP0_WITNESS);

    let r = stop_and_resume(&invalid_tp0(), &full(), 65, "dfs-invalid");
    let (n, p) = best_effort(&r);
    assert_eq!((n, p.as_str()), INVALID_TP0_FULL_BEST);

    // The on-line search, stopped after eof at one worker and resumed at
    // two. (A stop taken at two or more workers does not yet resume to
    // the uninterrupted witness and counters on a valid trace.)
    let stopped = online(&a, &valid_tp0(), &capped(&full(), 1674 / 2));
    assert_eq!(
        stopped.verdict,
        Verdict::Inconclusive(InconclusiveReason::TransitionLimit)
    );
    let cp = through_disk(
        *stopped.checkpoint.expect("post-eof stop checkpoints"),
        "mdfs",
    );
    let r = a
        .analyze_online_resume(cp, &with_workers(&full(), 2), &mut |_| true)
        .unwrap();
    assert_eq!(r.stats.transitions_executed, 1674);
    assert_eq!(witness(&r), VALID_TP0_WITNESS);
}
