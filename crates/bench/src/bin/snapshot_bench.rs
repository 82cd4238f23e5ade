//! Copy-on-write Save/Restore through the snapshot store's two save paths.
//!
//! The paper's §3.2 names *Save* and *Restore* as the dominant cost of
//! trace analysis. Every saved state is a chunked COW snapshot held by
//! the snapshot store, which saves along one of two paths: `free` (no
//! memory budget: no content hash, no interning, no LRU) and `keyed`
//! (under a budget — here one too large to ever stop or spill — every
//! save is content-hashed and identical snapshots are interned). This
//! benchmark runs the same TP0 and LAPD workloads down both paths,
//! checks that the verdicts and the TE/GE/RE/SA counters are identical,
//! and records the throughput (nodes/sec), peak resident snapshot bytes,
//! intern hits and per-operation COW save/restore latencies in
//! `BENCH_snapshots.json` at the repo root.
//!
//! ```sh
//! cargo run -p bench --bin snapshot_bench --release            # full record
//! cargo run -p bench --bin snapshot_bench --release -- --quick # CI smoke (<5 s)
//! cargo run -p bench --bin snapshot_bench -- --check FILE      # validate JSON
//! ```

use bench::json;
use estelle_runtime::{Machine, Value};
use protocols::{lapd, tp0};
use std::hint::black_box;
use std::time::Instant;
use tango::{AnalysisOptions, OrderOptions, Trace, TraceAnalyzer};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshots.json");

/// One analysis run down one store path.
struct ModeResult {
    cpu_seconds: f64,
    nodes_per_sec: f64,
    peak_snapshot_bytes: usize,
    intern_hits: u64,
    te: u64,
    ge: u64,
    re: u64,
    sa: u64,
    verdict: String,
    /// Full `tango-metrics` document for this run, embedded in the record
    /// so downstream tooling gets the same schema `--metrics-out` writes.
    metrics: String,
}

fn run_mode(
    analyzer: &TraceAnalyzer,
    trace: &Trace,
    order: OrderOptions,
    keyed: bool,
    max_transitions: u64,
) -> ModeResult {
    let mut options = AnalysisOptions::with_order(order);
    options.limits.max_state_bytes = keyed.then_some(usize::MAX);
    options.limits.max_transitions = max_transitions;
    let r = analyzer.analyze(trace, &options).expect("analysis runs");
    ModeResult {
        cpu_seconds: r.stats.wall_time.as_secs_f64(),
        nodes_per_sec: r.stats.transitions_per_second(),
        peak_snapshot_bytes: r.stats.peak_snapshot_bytes,
        intern_hits: r.stats.intern_hits,
        te: r.stats.transitions_executed,
        ge: r.stats.generates,
        re: r.stats.restores,
        sa: r.stats.saves,
        verdict: r.verdict.to_string(),
        metrics: bench::metrics_json(&r),
    }
}

fn mode_json(m: &ModeResult) -> String {
    format!(
        "{{\"cpu_seconds\": {}, \"nodes_per_sec\": {}, \"peak_snapshot_bytes\": {}, \
         \"intern_hits\": {}, \"te\": {}, \"ge\": {}, \"re\": {}, \"sa\": {}, \"verdict\": \"{}\", \
         \"metrics\": {}}}",
        json::number(m.cpu_seconds),
        json::number(m.nodes_per_sec),
        m.peak_snapshot_bytes,
        m.intern_hits,
        m.te,
        m.ge,
        m.re,
        m.sa,
        json::escape(&m.verdict),
        m.metrics.trim_end()
    )
}

struct Workload {
    name: String,
    protocol: &'static str,
    order: OrderOptions,
    trace: Trace,
    /// Transition cap for this row. Rows that hit it measure a *fixed
    /// amount of search work* (identical TE down both paths), rows that
    /// finish under it measure the complete analysis.
    cap: u64,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let mut w = Vec::new();
    // TP0: invalid complete traces — the last DATA is corrupted, so the
    // search backtracks over every interleaving before rejecting. Heavy
    // backtracking ⇒ heavy Save/Restore traffic (the paper's Figure 4
    // regime). NR keeps the fanout at its worst. Two shapes:
    //
    // * small symmetric (3+3, 4+4): Figure 4's own sizes, run to the
    //   Invalid verdict — but states hold only a handful of buffered
    //   cells, so Save/Restore is a minor share of the runtime;
    // * long upload-heavy (100+0 .. 200+0, trace lengths 206–406, the
    //   same event-count range as LAPD at DI=100): the send buffer holds
    //   up to `up` live cells, so state snapshots dominate. These explode
    //   exponentially, so the rows are transition-capped — a fixed 5M-TE
    //   slice of the same search down both paths: the paper-length
    //   workload where Save/Restore is the §3.2 dominant cost.
    let tp0_sizes: &[(usize, usize, u64)] = if quick {
        &[(2, 2, 2_000_000)]
    } else {
        &[
            (3, 3, 50_000_000),
            (4, 4, 50_000_000),
            (100, 0, 5_000_000),
            (150, 0, 5_000_000),
            (200, 0, 5_000_000),
        ]
    };
    for &(up, down, cap) in tp0_sizes {
        let bad = tp0::invalidate_last_data(&tp0::complete_valid_trace(up, down, 13))
            .expect("complete trace ends in DATA");
        w.push(Workload {
            name: format!("tp0-invalid-{}+{}-NR", up, down),
            protocol: "tp0",
            order: OrderOptions::none(),
            trace: bad,
            cap,
        });
    }
    // LAPD: valid traces at the paper's Figure 3 DI sizes (linear search,
    // one save per branching node — measures steady-state save cost).
    let lapd_sizes: &[usize] = if quick { &[5] } else { &[50, 100] };
    for &di in lapd_sizes {
        w.push(Workload {
            name: format!("lapd-valid-DI{}-FULL", di),
            protocol: "lapd",
            order: OrderOptions::full(),
            trace: lapd::valid_trace(di, di, di as u64),
            cap: 50_000_000,
        });
    }
    w
}

/// Micro-benchmark the COW Save and Restore primitives on a TP0 machine
/// state whose heap holds `cells` live cells, in microseconds per
/// operation.
fn micro(cells: usize, iters: u32) -> [f64; 2] {
    let machine = Machine::from_source(tp0::SOURCE).expect("TP0 compiles");
    let mut st = machine.initial_state().expect("initial state");
    for i in 0..cells {
        st.heap.alloc(Value::Record(vec![
            Value::Int(i as i64),
            Value::Pointer(None),
        ]));
    }
    let per_op = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    // Save: what DFS pays per pushed frame. Restore: re-materializing the
    // live state from a saved frame on backtrack.
    let save = per_op(&mut || {
        black_box(st.snapshot());
    });
    let saved = st.snapshot();
    let restore = per_op(&mut || {
        black_box(saved.snapshot());
    });
    [save, restore]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or(OUT_PATH);
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("snapshot_bench --check: cannot read {}: {}", path, e);
                std::process::exit(1);
            }
        };
        if let Err(e) = json::validate(&text) {
            eprintln!("snapshot_bench --check: {}: {}", path, e);
            std::process::exit(1);
        }
        if !text.contains("\"benchmark\": \"snapshot_bench\"") {
            eprintln!("snapshot_bench --check: {}: not a snapshot_bench record", path);
            std::process::exit(1);
        }
        println!("{}: well-formed snapshot_bench record", path);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");

    let tp0_analyzer = tp0::analyzer();
    let lapd_analyzer = lapd::analyzer();

    let mut rows = Vec::new();
    println!(
        "{:>22} {:>6} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "workload", "path", "CPUT(s)", "nodes/s", "SA", "peak bytes", "interned"
    );
    for w in workloads(quick) {
        let analyzer = if w.protocol == "tp0" {
            &tp0_analyzer
        } else {
            &lapd_analyzer
        };
        let free = run_mode(analyzer, &w.trace, w.order, false, w.cap);
        let keyed = run_mode(analyzer, &w.trace, w.order, true, w.cap);
        for (label, m) in [("free", &free), ("keyed", &keyed)] {
            println!(
                "{:>22} {:>6} {:>12.3} {:>12.0} {:>8} {:>12} {:>10}",
                w.name, label, m.cpu_seconds, m.nodes_per_sec, m.sa, m.peak_snapshot_bytes,
                m.intern_hits
            );
        }
        let same = free.verdict == keyed.verdict
            && (free.te, free.ge, free.re, free.sa) == (keyed.te, keyed.ge, keyed.re, keyed.sa);
        assert!(
            same,
            "{}: the free and keyed store paths disagree (verdict {} vs {}, \
             TE/GE/RE/SA {}/{}/{}/{} vs {}/{}/{}/{})",
            w.name, free.verdict, keyed.verdict, free.te, free.ge, free.re, free.sa, keyed.te,
            keyed.ge, keyed.re, keyed.sa
        );
        let ratio = if keyed.nodes_per_sec > 0.0 && free.nodes_per_sec > 0.0 {
            free.nodes_per_sec / keyed.nodes_per_sec
        } else {
            0.0
        };
        rows.push(format!(
            "    {{\"name\": \"{}\", \"protocol\": \"{}\", \"order\": \"{}\", \
             \"trace_len\": {}, \"max_transitions\": {},\n     \"free\": {},\n     \
             \"keyed\": {},\n     \"free_over_keyed_nodes_per_sec\": {}, \"counters_match\": true}}",
            w.name,
            w.protocol,
            w.order.label(),
            w.trace.len(),
            w.cap,
            mode_json(&free),
            mode_json(&keyed),
            json::number(ratio)
        ));
    }

    let micro_cells = if quick { 64 } else { 512 };
    let micro_iters = if quick { 2_000 } else { 20_000 };
    let [save, restore] = micro(micro_cells, micro_iters);
    println!(
        "\nmicro ({} heap cells): COW save {:.2}us, restore {:.2}us",
        micro_cells, save, restore
    );

    let doc = format!(
        "{{\n  \"benchmark\": \"snapshot_bench\",\n  \"quick\": {},\n  \
         \"chunk_cells\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"micro\": {{\"heap_cells\": {}, \"iters\": {}, \"save_us\": {}, \"restore_us\": {}}}\n}}\n",
        quick,
        estelle_runtime::CHUNK_CELLS,
        rows.join(",\n"),
        micro_cells,
        micro_iters,
        json::number(save),
        json::number(restore)
    );
    json::validate(&doc).expect("emitted record is well-formed JSON");
    std::fs::write(OUT_PATH, &doc).expect("write BENCH_snapshots.json");
    println!("\nwrote {}", OUT_PATH);
}
