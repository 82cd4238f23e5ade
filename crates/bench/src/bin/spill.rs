//! Memory tiering under pressure: finish on disk instead of dying.
//!
//! ROADMAP item 4's acceptance story in one harness. The workload is an
//! NR-order invalid TP0 trace — the worst-fanout backtracking blowup —
//! run once unlimited (the all-RAM baseline), then under a ladder of
//! snapshot budgets taken as fractions of the measured peak residency
//! (50% / 25% / 10% / 5%), each with the spill tier enabled. Every
//! tiered row must reproduce the baseline verdict and TE/GE/RE/SA
//! exactly: the tier trades disk bandwidth for memory, never search
//! decisions. The final row reruns the tightest budget with spilling
//! *off* and must die `Inconclusive(MemoryLimit)` — the before/after
//! proof that a run which previously could not complete now does.
//!
//!
//! The `mdfs` section runs the trace on-line (MDFS; 3+3 under
//! `--quick`) at 25% of its all-RAM peak with the tier on, at one
//! worker and at one worker per core
//! (`available_parallelism()`): best of three interleaved passes, each
//! repeating the analysis for a minimum wall time. Both rows must agree
//! on the verdict and TE/GE/RE/SA, and on a host with more than one core
//! `--check` refuses a record whose N-worker spilled wall time exceeds
//! the one-worker one.
//!
//! ```sh
//! cargo run -p bench --bin spill --release            # full record
//! cargo run -p bench --bin spill --release -- --quick # CI smoke (<5 s)
//! cargo run -p bench --bin spill -- --check FILE      # validate JSON
//! ```

use bench::json;
use protocols::tp0;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tango::{
    AnalysisOptions, AnalysisReport, InconclusiveReason, OrderOptions, SpillMode, StaticSource,
    Trace, TraceAnalyzer, Verdict,
};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spill.json");

struct RowResult {
    label: String,
    budget_bytes: Option<usize>,
    spill: bool,
    cpu_seconds: f64,
    nodes_per_sec: f64,
    te: u64,
    ge: u64,
    re: u64,
    sa: u64,
    peak_snapshot_bytes: usize,
    peak_spilled_bytes: usize,
    spill_writes: u64,
    spill_reads: u64,
    spill_retries: u64,
    spill_evictions: u64,
    verdict: Verdict,
}

fn run_row(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    label: &str,
    budget: Option<usize>,
    spill: bool,
    dir: &Path,
) -> RowResult {
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.limits.max_state_bytes = budget;
    if spill {
        options.spill.mode = SpillMode::On;
        options.spill.dir = Some(dir.to_path_buf());
    }
    let r = analyzer.analyze(trace, &options).expect("analysis runs");
    assert!(
        r.spill_faults.is_empty(),
        "{}: a healthy disk must not fault: {:?}",
        label,
        r.spill_faults
    );
    RowResult {
        label: label.to_string(),
        budget_bytes: budget,
        spill,
        cpu_seconds: r.stats.wall_time.as_secs_f64(),
        nodes_per_sec: r.stats.transitions_per_second(),
        te: r.stats.transitions_executed,
        ge: r.stats.generates,
        re: r.stats.restores,
        sa: r.stats.saves,
        peak_snapshot_bytes: r.stats.peak_snapshot_bytes,
        peak_spilled_bytes: r.stats.peak_spilled_bytes,
        spill_writes: r.stats.spill_writes,
        spill_reads: r.stats.spill_reads,
        spill_retries: r.stats.spill_retries,
        spill_evictions: r.stats.spill_evictions,
        verdict: r.verdict,
    }
}

fn row_json(m: &RowResult) -> String {
    format!(
        "    {{\"label\": \"{}\", \"budget_bytes\": {}, \"spill\": {}, \
         \"cpu_seconds\": {}, \"nodes_per_sec\": {}, \
         \"te\": {}, \"ge\": {}, \"re\": {}, \"sa\": {}, \
         \"peak_snapshot_bytes\": {}, \"peak_spilled_bytes\": {}, \
         \"spill_writes\": {}, \"spill_reads\": {}, \"spill_retries\": {}, \
         \"spill_evictions\": {}, \"verdict\": \"{}\"}}",
        json::escape(&m.label),
        m.budget_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string()),
        m.spill,
        json::number(m.cpu_seconds),
        json::number(m.nodes_per_sec),
        m.te,
        m.ge,
        m.re,
        m.sa,
        m.peak_snapshot_bytes,
        m.peak_spilled_bytes,
        m.spill_writes,
        m.spill_reads,
        m.spill_retries,
        m.spill_evictions,
        json::escape(&m.verdict.to_string())
    )
}

/// Interleaved timing passes of the `mdfs` section; a row keeps its
/// best (lowest) per-run wall time.
const MDFS_PASSES: usize = 3;

/// One worker-count row of the `mdfs` section.
struct MdfsRow {
    workers: usize,
    /// Best pass's mean wall seconds per analysis.
    wall_seconds: f64,
    runs: usize,
    report: AnalysisReport,
}

/// One timing pass: repeat the spilled on-line analysis at `workers`
/// until `min_seconds` of analysis wall time have accumulated (each run
/// on a fresh spill directory, cleared outside the timed span). Returns
/// the mean wall seconds per run, the run count and the last report.
fn mdfs_pass(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    workers: usize,
    budget: usize,
    min_seconds: f64,
) -> (f64, usize, AnalysisReport) {
    let dir = spill_dir(&format!("mdfs-w{}", workers));
    let mut options = AnalysisOptions::with_order(OrderOptions::none());
    options.workers = workers;
    options.limits.max_state_bytes = Some(budget);
    options.spill.mode = SpillMode::On;
    options.spill.dir = Some(dir.clone());
    let mut spent = Duration::ZERO;
    let mut runs = 0;
    loop {
        let _ = std::fs::remove_dir_all(&dir);
        let mut src = StaticSource::new(trace.clone());
        let t = Instant::now();
        let r = analyzer
            .analyze_online(&mut src, &options, &mut |_| true)
            .expect("analysis runs");
        spent += t.elapsed();
        runs += 1;
        assert!(r.spill_faults.is_empty(), "{:?}", r.spill_faults);
        if spent.as_secs_f64() >= min_seconds {
            std::fs::remove_dir_all(&dir).ok();
            return (spent.as_secs_f64() / runs as f64, runs, r);
        }
    }
}

/// The `mdfs` section: the spilled on-line analysis at one worker and
/// at one worker per core, interleaved passes, best pass per row.
fn mdfs_rows(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    budget: usize,
    cores: usize,
    min_seconds: f64,
) -> Vec<MdfsRow> {
    let counts: Vec<usize> = if cores > 1 { vec![1, cores] } else { vec![1] };
    let mut rows: Vec<MdfsRow> = Vec::new();
    for pass in 0..MDFS_PASSES {
        for (i, &workers) in counts.iter().enumerate() {
            let (wall, runs, report) = mdfs_pass(analyzer, trace, workers, budget, min_seconds);
            if pass == 0 {
                rows.push(MdfsRow {
                    workers,
                    wall_seconds: wall,
                    runs,
                    report,
                });
                continue;
            }
            let row = &mut rows[i];
            row.runs += runs;
            if wall < row.wall_seconds {
                row.wall_seconds = wall;
                row.report = report;
            }
        }
    }
    rows
}

fn mdfs_row_json(m: &MdfsRow) -> String {
    let s = &m.report.stats;
    format!(
        "      {{\"workers\": {}, \"wall_seconds\": {}, \"runs\": {}, \
         \"te\": {}, \"ge\": {}, \"re\": {}, \"sa\": {}, \
         \"peak_snapshot_bytes\": {}, \"spill_writes\": {}, \"spill_reads\": {}, \
         \"verdict\": \"{}\"}}",
        m.workers,
        json::number(m.wall_seconds),
        m.runs,
        s.transitions_executed,
        s.generates,
        s.restores,
        s.saves,
        s.peak_snapshot_bytes,
        s.spill_writes,
        s.spill_reads,
        json::escape(&m.report.verdict.to_string())
    )
}

/// The `--check` gate over a record's `mdfs` section: on a host with
/// more than one core, the N-worker spilled wall time must not exceed
/// the one-worker one.
fn mdfs_gate(text: &str) -> Result<(), String> {
    let cores = json::numbers_for_key(text, "cores");
    let workers = json::numbers_for_key(text, "workers");
    let walls = json::numbers_for_key(text, "wall_seconds");
    if cores.len() != 1 || workers.first() != Some(&1.0) || workers.len() != walls.len() {
        return Err("missing or malformed mdfs section".to_string());
    }
    let (cores, n) = (cores[0], workers[workers.len() - 1]);
    let (wall_1, wall_n) = (walls[0], walls[walls.len() - 1]);
    if cores > 1.0 && (n != cores || wall_n > wall_1) {
        return Err(format!(
            "{} workers took {:.4} s against {:.4} s at one worker on a {}-core host",
            n, wall_n, wall_1, cores
        ));
    }
    Ok(())
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tango-bench-spill-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or(OUT_PATH);
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("spill --check: cannot read {}: {}", path, e);
                std::process::exit(1);
            }
        };
        if let Err(e) = json::validate(&text) {
            eprintln!("spill --check: {}: {}", path, e);
            std::process::exit(1);
        }
        if !text.contains("\"benchmark\": \"spill\"") {
            eprintln!("spill --check: {}: not a spill record", path);
            std::process::exit(1);
        }
        if let Err(e) = mdfs_gate(&text) {
            eprintln!("spill --check: {}: mdfs gate: {}", path, e);
            std::process::exit(1);
        }
        println!("{}: well-formed spill record", path);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");

    // NR keeps the fanout at its worst, and corrupting the trailing DATA
    // forces the search to backtrack over every interleaving before it
    // can reject — peak snapshot residency scales with the blowup.
    let (up, down) = if quick { (2, 2) } else { (4, 4) };
    let analyzer = tp0::analyzer();
    let trace = tp0::invalidate_last_data(&tp0::complete_valid_trace(up, down, 13))
        .expect("complete trace ends in DATA");

    println!(
        "{:>18} {:>12} {:>6} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "row", "budget", "spill", "CPUT(s)", "peak RAM", "peak disk", "evict", "verdict"
    );
    let show = |m: &RowResult| {
        println!(
            "{:>18} {:>12} {:>6} {:>10.3} {:>12} {:>12} {:>10} {:>8}",
            m.label,
            m.budget_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_string()),
            m.spill,
            m.cpu_seconds,
            m.peak_snapshot_bytes,
            m.peak_spilled_bytes,
            m.spill_evictions,
            m.verdict
        )
    };

    let mut rows = Vec::new();
    let dir = spill_dir("baseline");
    let baseline = run_row(&analyzer, &trace, "all-ram", None, false, &dir);
    assert_eq!(baseline.verdict, Verdict::Invalid, "the workload is conclusive");
    show(&baseline);

    // Budget ladder: fractions of the baseline's measured peak residency.
    let peak = baseline.peak_snapshot_bytes;
    let fractions: &[(u32, &str)] = if quick {
        &[(50, "50%"), (10, "10%")]
    } else {
        &[(50, "50%"), (25, "25%"), (10, "10%"), (5, "5%")]
    };
    let mut tightest = peak;
    for &(pct, label) in fractions {
        let budget = (peak * pct as usize / 100).max(1);
        tightest = tightest.min(budget);
        let dir = spill_dir(label.trim_end_matches('%'));
        let row = run_row(
            &analyzer,
            &trace,
            &format!("spill-{}", label),
            Some(budget),
            true,
            &dir,
        );
        show(&row);
        assert_eq!(
            (row.verdict.clone(), row.te, row.ge, row.re, row.sa),
            (
                baseline.verdict.clone(),
                baseline.te,
                baseline.ge,
                baseline.re,
                baseline.sa
            ),
            "{}: the tier must not change the verdict or TE/GE/RE/SA",
            row.label
        );
        assert!(
            row.spill_evictions > 0,
            "{}: a {} budget must actually evict",
            row.label,
            label
        );
        assert!(
            row.peak_snapshot_bytes <= budget.max(baseline.peak_snapshot_bytes / 2),
            "{}: residency must track the budget (peak {} vs budget {})",
            row.label,
            row.peak_snapshot_bytes,
            budget
        );
        std::fs::remove_dir_all(&dir).ok();
        rows.push(row);
    }

    // The before/after proof: the tightest budget with spilling off is
    // the run that used to die. It must stop Inconclusive(MemoryLimit) —
    // the exact kill this PR turns into tiering.
    let dir = spill_dir("no-spill");
    let died = run_row(&analyzer, &trace, "no-spill", Some(tightest), false, &dir);
    show(&died);
    assert_eq!(
        died.verdict,
        Verdict::Inconclusive(InconclusiveReason::MemoryLimit),
        "without the tier the tightest budget must still be a kill switch"
    );
    assert!(
        died.te < baseline.te,
        "the killed run must have stopped short of the full search"
    );

    // MDFS at 25% of its own all-RAM peak: one worker against one
    // worker per core. Quick mode uses the 3+3 trace, whose runs are
    // long enough to time.
    let mdfs_up = if quick { 3 } else { up };
    let mdfs_trace = tp0::invalidate_last_data(&tp0::complete_valid_trace(mdfs_up, mdfs_up, 13))
        .expect("complete trace ends in DATA");
    let mut src = StaticSource::new(mdfs_trace.clone());
    let all_ram = AnalysisOptions::with_order(OrderOptions::none());
    let mdfs_baseline = analyzer
        .analyze_online(&mut src, &all_ram, &mut |_| true)
        .expect("analysis runs");
    assert_eq!(mdfs_baseline.verdict, Verdict::Invalid, "the workload is conclusive");
    let budget = (mdfs_baseline.stats.peak_snapshot_bytes / 4).max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let min_seconds = if quick { 0.3 } else { 1.0 };
    let mdfs = mdfs_rows(&analyzer, &mdfs_trace, budget, cores, min_seconds);
    for m in &mdfs {
        let s = &m.report.stats;
        println!(
            "mdfs-25% workers={} {:.4} s/run ({} runs) writes={} reads={} peak RAM {} {}",
            m.workers,
            m.wall_seconds,
            m.runs,
            s.spill_writes,
            s.spill_reads,
            s.peak_snapshot_bytes,
            m.report.verdict
        );
        let counters = |r: &AnalysisReport| {
            let s = &r.stats;
            (r.verdict.clone(), s.transitions_executed, s.generates, s.restores, s.saves)
        };
        assert_eq!(
            counters(&m.report),
            counters(&mdfs_baseline),
            "mdfs workers={}: the tier changed the verdict or TE/GE/RE/SA",
            m.workers
        );
        assert!(m.report.stats.spill_reads > 0, "the 25% budget must spill");
        assert!(
            m.report.stats.peak_snapshot_bytes <= budget,
            "mdfs workers={}: residency over the budget",
            m.workers
        );
    }

    rows.insert(0, baseline);
    rows.push(died);
    let doc = format!(
        "{{\n  \"benchmark\": \"spill\",\n  \"quick\": {},\n  \
         \"workload\": \"tp0-invalid-{}+{}-NR\",\n  \"trace_len\": {},\n  \"rows\": [\n{}\n  ],\n  \
         \"mdfs\": {{\"workload\": \"tp0-invalid-{}+{}-NR\", \"budget_bytes\": {}, \
         \"cores\": {}, \"passes\": {}, \"min_seconds\": {}, \"rows\": [\n{}\n    ]}}\n}}\n",
        quick,
        up,
        down,
        trace.len(),
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
        mdfs_up,
        mdfs_up,
        budget,
        cores,
        MDFS_PASSES,
        json::number(min_seconds),
        mdfs.iter().map(mdfs_row_json).collect::<Vec<_>>().join(",\n")
    );
    let gate = mdfs_gate(&doc);
    json::validate(&doc).expect("emitted record is well-formed JSON");
    std::fs::write(OUT_PATH, &doc).expect("write BENCH_spill.json");
    println!("\nwrote {}", OUT_PATH);
    match gate {
        Ok(()) => println!("mdfs gate: ok"),
        Err(e) => println!("mdfs gate: FAILED: {}", e),
    }
}
