//! Integration tests for on-line trace analysis (paper §3).
//!
//! These exercise the multi-threaded depth-first search end-to-end on the
//! paper's own examples: the `ack` specification of Figure 1 (where plain
//! DFS would deadlock) and the `ip3`/`ip3'` pair of Figure 2 (where MDFS
//! stays inconclusive unless `t4`/`t5` exist).

use protocols::{ack, ip3};
use tango::{
    AnalysisOptions, ChannelSource, Event, Feed, OrderOptions, StaticSource, Verdict,
};

fn nr_options() -> AnalysisOptions {
    AnalysisOptions::with_order(OrderOptions::none())
}

/// Verdict, witness and TE/GE/RE/SA/PG-nodes of one run, as recorded
/// from the single-consumer MDFS loop that preceded the burst engine:
/// every worker count shares one engine now, so these literals are the
/// only reference independent of it.
type Golden = (Verdict, Option<&'static [&'static str]>, [u64; 5]);

fn check_golden(r: &tango::AnalysisReport, (verdict, witness, counts): &Golden) {
    let s = &r.stats;
    assert_eq!(&r.verdict, verdict);
    let w: Option<Vec<&str>> = r.witness.as_ref().map(|w| w.iter().map(String::as_str).collect());
    assert_eq!(w.as_deref(), *witness);
    let got = [s.transitions_executed, s.generates, s.restores, s.saves, s.pg_nodes];
    assert_eq!(&got, counts, "TE/GE/RE/SA/PG");
}

/// §3.1: the greedy path T1,T1,T1 consumes all the x's and dead-ends;
/// MDFS must keep the earlier states alive and find T1 T2 T3 T1.
#[test]
fn ack_scenario_resolves_online() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    // Feed everything up front, then close the trace.
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

    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    let witness = report.witness.clone().unwrap();
    assert!(witness.contains(&"T3".to_string()));
    check_golden(&report, &(Verdict::Valid, Some(&["T1", "T1", "T2", "T3"]), [5, 6, 7, 6, 0]));
}

/// The same scenario delivered one event at a time from another thread.
#[test]
fn ack_scenario_with_incremental_feed() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    let feeder = std::thread::spawn(move || {
        let events = [
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
            Event::input("A", "x", vec![]),
        ];
        for e in events {
            tx.send(Feed::Event(e)).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        tx.send(Feed::Eof).unwrap();
    });
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    feeder.join().unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    // Incremental arrival forces PG-node bookkeeping.
    assert!(report.stats.pg_nodes > 0, "expected PG-nodes: {:?}", report.stats);
}

/// §3.1.2, `ip3'`: the traced output `o` can never be generated, but the
/// TAM keeps verifying B/C data and waiting — the verdict stays "likely
/// invalid" while the trace remains open.
#[test]
fn ip3_prime_is_inconclusive_while_open() {
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    // Keep the trace open: B/C might still deliver data.
    let mut statuses = Vec::new();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |v| {
            statuses.push(v.clone());
            false // stop at the first interim verdict
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::LikelyInvalid);
    assert_eq!(statuses.last(), Some(&Verdict::LikelyInvalid));
    check_golden(&report, &(Verdict::LikelyInvalid, None, [1, 2, 2, 1, 1]));
}

/// §3.1.2, `ip3'` continued: as new data interactions keep arriving at B,
/// they are verified and the analyzer keeps waiting — still inconclusive.
#[test]
fn ip3_prime_keeps_consuming_data_but_stays_inconclusive() {
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    let mut seen = 0;
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |v| {
            assert_eq!(v, &Verdict::LikelyInvalid);
            seen += 1;
            if seen <= 3 {
                // More relayed data arrives; the verdict must not improve.
                tx.send(Feed::Event(Event::input("B", "data", vec![]))).unwrap();
                tx.send(Feed::Event(Event::output("C", "data", vec![]))).unwrap();
                true
            } else {
                false
            }
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::LikelyInvalid);
    assert_eq!(seen, 4);
    check_golden(&report, &(Verdict::LikelyInvalid, None, [7, 17, 17, 4, 10]));
}

/// §3.1.2, full `ip3`: once `finished` arrives at B, t4 then t5 explain
/// the `o` and the trace becomes valid.
#[test]
fn ip3_full_resolves_once_finished_arrives() {
    let analyzer = ip3::analyzer_full();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    tx.send(Feed::Event(Event::output("A", "o", vec![]))).unwrap();
    let mut fed_finished = false;
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| {
            if !fed_finished {
                fed_finished = true;
                tx.send(Feed::Event(Event::input("B", "finished", vec![]))).unwrap();
                tx.send(Feed::Eof).unwrap();
            }
            true
        })
        .unwrap();
    assert_eq!(report.verdict, Verdict::Valid);
    let witness = report.witness.clone().unwrap();
    assert_eq!(witness, vec!["t4".to_string(), "t5".to_string()]);
    check_golden(&report, &(Verdict::Valid, Some(&["t4", "t5"]), [3, 4, 5, 3, 1]));
}

/// A PGAV-node yields "valid so far": everything received is explained,
/// the trace just is not finished.
#[test]
fn valid_prefix_reports_valid_so_far() {
    let analyzer = ack::analyzer();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("A", "x", vec![]))).unwrap();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| false)
        .unwrap();
    assert_eq!(report.verdict, Verdict::ValidSoFar);
    check_golden(&report, &(Verdict::ValidSoFar, None, [2, 2, 4, 3, 2]));
}

/// Invalid input that no future data can repair gives a conclusive
/// `Invalid` even though the trace is still open (§3.1.2: "this can
/// happen only if invalid interactions exist … early enough").
#[test]
fn conclusively_invalid_without_eof() {
    // ack: an `ack` output with no `y` ever consumable — feed `out ack`
    // with no inputs at all; B may still grow, so the root stays PG and
    // the verdict is only "likely invalid". But an *input* the spec can
    // never consume from its current states is conclusive: use ip3'
    // where `finished` has no receiving transition.
    let analyzer = ip3::analyzer_prime();
    let (tx, mut source) = ChannelSource::pair();
    tx.send(Feed::Event(Event::input("B", "finished", vec![]))).unwrap();
    tx.send(Feed::Event(Event::input("B", "data", vec![]))).unwrap();
    // `finished` blocks B's FIFO forever; A/C queues stay open though, so
    // the analyzer can only say "likely invalid" until we close the trace.
    tx.send(Feed::Eof).unwrap();
    let report = analyzer
        .analyze_online(&mut source, &nr_options(), &mut |_| true)
        .unwrap();
    assert_eq!(report.verdict, Verdict::Invalid);
    check_golden(&report, &(Verdict::Invalid, None, [0, 1, 1, 1, 0]));
}

/// MDFS over a static source agrees with plain DFS.
#[test]
fn mdfs_agrees_with_dfs_on_static_traces() {
    let analyzer = protocols::tp0::analyzer();
    let goldens: [Golden; 2] = [
        (
            Verdict::Valid,
            Some(&[
                "t10", "t11", "t13", "t13", "t13", "t14", "t14", "t15", "t15", "t16", "t16", "t17",
            ]),
            [17, 17, 18, 13, 0],
        ),
        (
            Verdict::Valid,
            Some(&["t10", "t11", "t13", "t13", "t13", "t15", "t15", "t17"]),
            [12, 12, 13, 9, 0],
        ),
    ];
    for (seed, golden) in [1, 5].into_iter().zip(&goldens) {
        let trace = protocols::tp0::valid_trace(3, 2, seed);
        let dfs = analyzer.analyze(&trace, &nr_options()).unwrap();
        let mut source = StaticSource::new(trace);
        let mdfs = analyzer
            .analyze_online(&mut source, &nr_options(), &mut |_| true)
            .unwrap();
        assert_eq!(dfs.verdict, mdfs.verdict);
        assert_eq!(dfs.verdict, Verdict::Valid);
        check_golden(&mdfs, golden);
    }

    let bad = protocols::tp0::invalidate_last_data(&protocols::tp0::valid_trace(2, 2, 9)).unwrap();
    let dfs = analyzer
        .analyze(&bad, &AnalysisOptions::with_order(OrderOptions::full()))
        .unwrap();
    let mut source = StaticSource::new(bad);
    let mdfs = analyzer
        .analyze_online(
            &mut source,
            &AnalysisOptions::with_order(OrderOptions::full()),
            &mut |_| true,
        )
        .unwrap();
    assert_eq!(dfs.verdict, Verdict::Invalid);
    assert_eq!(mdfs.verdict, Verdict::Invalid);
    check_golden(&mdfs, &(Verdict::Invalid, None, [16, 16, 16, 9, 0]));
}

/// §3.1.3: basic MDFS and reordering MDFS agree on verdicts; reordering
/// reaches them with no more saved states when fresh input extends the
/// most recent partial solution.
#[test]
fn basic_and_reordering_mdfs_agree() {
    let analyzer = protocols::ack::analyzer();
    for reorder in [true, false] {
        let (tx, mut source) = ChannelSource::pair();
        for e in [
            Event::input("A", "x", vec![]),
            Event::input("A", "x", vec![]),
            Event::input("B", "y", vec![]),
            Event::output("A", "ack", vec![]),
        ] {
            tx.send(Feed::Event(e)).unwrap();
        }
        tx.send(Feed::Eof).unwrap();
        let mut options = nr_options();
        options.mdfs_reorder = reorder;
        let report = analyzer
            .analyze_online(&mut source, &options, &mut |_| true)
            .unwrap();
        assert_eq!(report.verdict, Verdict::Valid, "reorder={}", reorder);
        check_golden(&report, &(Verdict::Valid, Some(&["T1", "T2", "T3"]), [4, 5, 6, 5, 0]));
    }
}

