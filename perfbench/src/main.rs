//! Closed-loop benchmark of the release `tango` binary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds `tango-cli` in
//! release mode, writes the workload's spec and trace files (made from
//! the seed alone) under `perfbench/work/`, and drives the binary the way
//! a conformance engineer does: spec file + trace file → verdict line and
//! exit code. One client, closed loop: the next trace starts only after
//! the previous verdict, so at most one `tango` process runs at a time.
//! Every verdict and, for static traces, the TE/GE/RE/SA counters are
//! checked against the known answer and an in-process traced run.
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer ledger, measured from
//! outside by timing calls into each layer's public functions.

mod cli;
mod gen;
mod layers;
mod stats;

use cli::Run;
use gen::{Mode, Workload};
use layers::CaseRun;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tango::{AnalysisOptions, Tango, TraceAnalyzer, Verdict};

/// Set-up repetitions before the closed loop, and about how many more
/// the loop spreads evenly between its `tango` invocations.
const SETUP_WARM_REPS: usize = 15;
const SETUP_LOOP_REPS: usize = 64;

/// The closed loop stops after this many times `--seconds`, even with
/// passes left.
const LOOP_LIMIT: f64 = 1.4;

/// Where every `tango` invocation's standard error goes, in the run's
/// scratch directory.
const TANGO_STDERR: &str = "tango-stderr.log";

struct Args {
    /// A workload name, or `all` for every workload.
    workload: String,
    seed: u64,
    seconds: f64,
    /// `None`: per-layer and end-to-end runs with `all`, end-to-end only
    /// for a single workload.
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{} needs a value", flag));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{}`", other)),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<OsString> = std::env::args_os().collect();
    let result = if argv.get(1).is_some_and(|a| a == cli::SPAWN_FLAG) {
        match argv.get(2) {
            Some(bin) => cli::spawner(bin, &argv[3..]),
            None => Err("--spawn needs a program".to_string()),
        }
    } else {
        parse_args().and_then(|a| run_all(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            ExitCode::from(2)
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One timed `tango` invocation of the closed loop.
struct Sample {
    case: usize,
    recorder: bool,
    run: Run,
}

/// Checks and counts every verdict the closed loop gets back.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// In-process checks (known answers, resume equality) that failed.
    other_failures: u64,
}

impl Gate {
    fn fail(&self, what: String) {
        if self.failed + self.other_failures < 5 {
            eprintln!("perfbench: FAILED {}", what);
        }
    }
}

/// Build `tango`, then run the named workload, or with `all` every
/// workload in both modes.
fn run_all(a: &Args) -> Result<(), String> {
    let bin = cli::build_tango()?;
    if a.workload != "all" {
        return run(a, &a.workload, a.trace.unwrap_or(false), &bin);
    }
    let modes = a.trace.map_or(vec![false, true], |t| vec![t]);
    for name in gen::WORKLOADS {
        for &trace in &modes {
            run(a, name, trace, &bin)?;
        }
    }
    Ok(())
}

/// One run of one workload: its end-to-end metrics, or with `trace` its
/// per-layer ledger, printed last as one JSON line.
fn run(a: &Args, workload: &str, trace: bool, bin: &Path) -> Result<(), String> {
    let work = WorkDir(PathBuf::from("perfbench").join("work").join(format!(
        "{}-s{}-p{}",
        workload,
        a.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {}", work.0.display(), e))?;
    let dir = work.0.canonicalize().map_err(|e| e.to_string())?;

    // With the recorder A/B of the per-layer run, every trace runs twice.
    let measured_s = if trace { a.seconds / 2.0 } else { a.seconds };
    let w = gen::build(workload, a.seed, measured_s, &dir)?;
    gen::write_files(&w)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = AnalysisOptions {
        workers: 0,
        ..Default::default()
    }
    .resolved_workers();
    println!(
        "workload {}: {} traces, {} events, order {}, cap {}; host cores={} mdfs_workers={} seed={}",
        w.name,
        w.cases.len(),
        w.cases.iter().map(|c| c.events).sum::<usize>(),
        w.order,
        w.cap,
        cores,
        workers,
        a.seed
    );
    let analyzers: Vec<TraceAnalyzer> = w
        .specs
        .iter()
        .map(|s| Tango::generate(&s.source).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let mut gate = Gate::default();
    let mut setup = layers::SetupTimer::new(&w.specs, trace);
    for _ in 0..SETUP_WARM_REPS {
        setup.rep()?;
    }

    // The in-process pass: the traced counters for the gate, and the
    // per-layer times of the ledger.
    let in_process = in_process_pass(&w, &analyzers, &dir, trace, &mut gate)?;
    for (c, r) in w
        .cases
        .iter()
        .zip(in_process.iter().map(|p| &p.traced))
        .take(16)
    {
        println!(
            "  case {:<14} {:>6} events  TE={} GE={} RE={} SA={}  traced {:.4}s",
            c.label, c.events, r.counters.te, r.counters.ge, r.counters.re, r.counters.sa, r.wall_s
        );
    }

    // The closed loop, with tracing off: whole passes over the trace set,
    // as many as fill the measuring time on the reference host. The
    // per-layer run interleaves recorder-on and recorder-off invocations
    // of the same inputs.
    let mut samples: Vec<Sample> = Vec::new();
    let t0 = Instant::now();
    let passes = w.passes(measured_s);
    let invocations = passes * w.cases.len() * if trace { 2 } else { 1 };
    let setup_stride = (invocations / SETUP_LOOP_REPS).max(1);
    let mut pass = 0usize;
    // The time limit only bounds a run on a host (or a commit) much slower
    // than the reference, so that every run of a campaign ends in time.
    let limit_s = LOOP_LIMIT * a.seconds;
    while pass < passes && t0.elapsed().as_secs_f64() < limit_s {
        let order: &[bool] = match (trace, pass % 2) {
            (false, _) => &[true],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        for (i, p) in in_process.iter().enumerate() {
            for &recorder in order {
                let run = invoke(bin, &w, i, recorder, &dir)?;
                check(&w, i, &run, &p.traced, &mut gate);
                if samples.len().is_multiple_of(setup_stride) {
                    setup.rep()?;
                }
                samples.push(Sample {
                    case: i,
                    recorder,
                    run,
                });
            }
        }
        pass += 1;
    }

    let setup = setup.finish();
    let on: Vec<&Sample> = samples.iter().filter(|s| s.recorder).collect();
    let mut walls: Vec<f64> = on.iter().map(|s| s.run.wall_s).collect();
    let verdict_p50 = stats::median(&mut walls);
    let (tail_pct, verdict_tail) = stats::tail(&mut walls);
    // Where the median and the tail fall among the trace sizes.
    for (i, c) in w.cases.iter().enumerate().take(16) {
        let mut v: Vec<f64> = on
            .iter()
            .filter(|s| s.case == i)
            .map(|s| s.run.wall_s)
            .collect();
        println!(
            "  cli {:<14} {:>4} verdicts, median {:.4}s",
            c.label,
            v.len(),
            stats::median(&mut v)
        );
    }
    let events: usize = on.iter().map(|s| w.cases[s.case].events).sum();
    let wall: f64 = on.iter().map(|s| s.run.wall_s).sum();
    let peak_rss_mb = samples.iter().map(|s| s.run.max_rss_kib).max().unwrap_or(0) as f64 / 1024.0;
    println!(
        "e2e: {} verdicts in {} passes; setup_s={:.6} ({} reps) verdict_p50_s={:.6} \
         verdict_tail_s={:.6} (p{}) events_per_s={:.1} peak_rss_mb={:.2} failed={}",
        on.len(),
        pass,
        setup.total(),
        setup.reps,
        verdict_p50,
        verdict_tail,
        tail_pct,
        events as f64 / wall,
        peak_rss_mb,
        gate.failed
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !trace {
        metrics.extend([
            ("setup_s", setup.total(), "s"),
            ("verdict_p50_s", verdict_p50, "s"),
            ("verdict_tail_s", verdict_tail, "s"),
            ("events_per_s", events as f64 / wall, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]);
    } else {
        let ckpt = match layers::checkpoint_roundtrip(
            &analyzers[w.cases[0].spec],
            &w,
            &w.cases[0],
            &dir,
        ) {
            Ok(c) => c,
            Err(e) => {
                gate.other_failures += 1;
                gate.fail(format!("checkpoint resume on {}: {}", w.cases[0].label, e));
                (0.0, 0.0, 0)
            }
        };
        let ledger = Ledger {
            w: &w,
            setup: &setup,
            in_process: &in_process,
            samples: &samples,
            transitions: analyzers
                .iter()
                .map(|a| a.machine.module.transition_count())
                .sum(),
        };
        metrics = ledger.metrics(ckpt, &gate, on.len(), tail_pct, cores, workers, a.seed);
        ledger.print(&metrics);
    }

    let correct = gate.failed == 0 && gate.other_failures == 0;
    if !correct {
        let log = std::fs::read_to_string(dir.join(TANGO_STDERR)).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        eprintln!("perfbench: last lines tango wrote to stderr:");
        for l in &lines[lines.len().saturating_sub(20)..] {
            eprintln!("  {}", l);
        }
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct, gate.attempted, gate.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            name,
            v,
            unit
        );
    }
    out.push_str("}}");
    println!("{}", out);
    Ok(())
}

/// One case analyzed in-process: always traced, and untraced too for the
/// per-layer run.
struct InProcess {
    traced: CaseRun,
    untraced: Option<CaseRun>,
}

/// Analyze every case in-process and check each verdict against its
/// known answer. With `untraced`, every case also runs with telemetry
/// off, the two in alternating order so that drift cancels.
fn in_process_pass(
    w: &Workload,
    analyzers: &[TraceAnalyzer],
    dir: &Path,
    untraced: bool,
    gate: &mut Gate,
) -> Result<Vec<InProcess>, String> {
    let mut runs = Vec::with_capacity(w.cases.len());
    for (i, case) in w.cases.iter().enumerate() {
        let analyze = |traced: bool| -> Result<CaseRun, String> {
            let spill = fresh_dir(dir, "spill-in-process")?;
            let r = layers::analyze_case(&analyzers[case.spec], w, case, traced, &spill);
            let _ = std::fs::remove_dir_all(&spill);
            r
        };
        let (traced, untraced) = match (untraced, i % 2) {
            (false, _) => (analyze(true)?, None),
            (true, 0) => {
                let u = analyze(false)?;
                (analyze(true)?, Some(u))
            }
            (true, _) => {
                let t = analyze(true)?;
                (t, Some(analyze(false)?))
            }
        };
        for r in std::iter::once(&traced).chain(&untraced) {
            if r.verdict.as_ref() != Some(&case.expect) {
                gate.other_failures += 1;
                gate.fail(format!(
                    "in-process case {} ({}): verdict {:?}, expected {}",
                    i, case.label, r.verdict, case.expect
                ));
            }
        }
        runs.push(InProcess { traced, untraced });
    }
    Ok(runs)
}

fn fresh_dir(parent: &Path, name: &str) -> Result<PathBuf, String> {
    let d = parent.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {}", d.display(), e))?;
    Ok(d)
}

/// One `tango analyze|online` invocation on case `i`.
fn invoke(bin: &Path, w: &Workload, i: usize, recorder: bool, dir: &Path) -> Result<Run, String> {
    let case = &w.cases[i];
    let mut args: Vec<OsString> = vec![
        match w.mode {
            Mode::Static => "analyze",
            Mode::Online { .. } => "online",
        }
        .into(),
        w.specs[case.spec].file.clone().into(),
        case.file.clone().into(),
        "--order".into(),
        w.order.into(),
        "--max-transitions".into(),
        w.cap.to_string().into(),
        "--dump-file".into(),
        dir.join("postmortem.tangodump").into(),
    ];
    if !recorder {
        args.extend(["--flight-recorder".into(), "off".into()]);
    }
    let spill = if let Mode::Online { max_mem } = w.mode {
        let d = fresh_dir(dir, "spill-cli")?;
        args.extend([
            "--max-mem".into(),
            max_mem.to_string().into(),
            "--spill".into(),
            "on".into(),
            "--spill-dir".into(),
            d.clone().into(),
        ]);
        Some(d)
    } else {
        None
    };
    let run = cli::run(bin, &args, dir, &dir.join(TANGO_STDERR));
    if let Some(d) = spill {
        let _ = std::fs::remove_dir_all(d);
    }
    run
}

/// The correctness gate for one CLI verdict: exit code, `verdict:` line
/// and, for static traces, the counters of the traced in-process run.
/// `intern_hits` varies with worker scheduling and is never compared.
fn check(w: &Workload, i: usize, run: &Run, traced: &CaseRun, gate: &mut Gate) {
    let case = &w.cases[i];
    gate.attempted += 1;
    let want_exit = match case.expect {
        Verdict::Valid => 0,
        _ => 1,
    };
    let problem = match cli::parse_verdict(&run.stdout) {
        _ if run.exit != Some(want_exit) => {
            Some(format!("exit {:?}, expected {}", run.exit, want_exit))
        }
        None => Some("no verdict line".to_string()),
        Some((v, _)) if v != case.expect.to_string() => {
            Some(format!("verdict `{}`, expected `{}`", v, case.expect))
        }
        Some((_, c)) if w.mode == Mode::Static && c != traced.counters => Some(format!(
            "counters {:?}, traced in-process run {:?}",
            c, traced.counters
        )),
        Some(_) => None,
    };
    if let Some(p) = problem {
        gate.failed += 1;
        gate.fail(format!("case {} ({}): {}", i, case.label, p));
    }
}

/// The per-layer ledger of one workload. Times are per pass: one verdict
/// on every trace of the workload.
struct Ledger<'a> {
    w: &'a Workload,
    setup: &'a layers::Setup,
    in_process: &'a [InProcess],
    samples: &'a [Sample],
    /// Compiled transitions of the workload's specs.
    transitions: usize,
}

impl Ledger<'_> {
    /// Per case, the median of `f` over the CLI runs with the recorder on
    /// or off, summed over the cases.
    fn cli_pass(&self, recorder: bool, f: fn(&Run) -> f64) -> f64 {
        (0..self.w.cases.len())
            .map(|i| {
                let mut v: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.case == i && s.recorder == recorder)
                    .map(|s| f(&s.run))
                    .collect();
                stats::median(&mut v)
            })
            .sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn metrics(
        &self,
        ckpt: (f64, f64, u64),
        gate: &Gate,
        samples: usize,
        tail_pct: u32,
        cores: usize,
        workers: usize,
        seed: u64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let t: Vec<&CaseRun> = self.in_process.iter().map(|p| &p.traced).collect();
        let u: Vec<&CaseRun> = self
            .in_process
            .iter()
            .map(|p| {
                p.untraced
                    .as_ref()
                    .expect("the per-layer run analyzes untraced too")
            })
            .collect();
        let sum = |f: &dyn Fn(&CaseRun) -> f64| t.iter().map(|r| f(r)).sum::<f64>();
        let online = matches!(self.w.mode, Mode::Online { .. });
        let search_wall = sum(&|r| r.stats.wall_time.as_secs_f64());
        let generate = sum(&|r| r.generate_s);
        let fire = sum(&|r| r.fire_s);
        let te = sum(&|r| r.stats.transitions_executed as f64);
        let restores = sum(&|r| r.stats.restores as f64);
        let fires = sum(&|r| r.fires as f64);
        let attempts = sum(&|r| r.fire_attempts as f64);
        let gen_calls = sum(&|r| r.generate_calls as f64);
        let max = |f: &dyn Fn(&CaseRun) -> f64| t.iter().map(|r| f(r)).fold(0.0, f64::max);

        // Residual of the CLI: its wall minus what the layers explain.
        let cli_wall = self.cli_pass(true, |r| r.wall_s);
        let cli_setup: f64 = self
            .w
            .cases
            .iter()
            .map(|c| self.setup.per_spec[c.spec])
            .sum();
        let ingest: f64 = if online {
            0.0 // the on-line source is polled inside the search wall
        } else {
            u.iter().map(|r| r.parse_s + r.resolve_s).sum()
        };
        let untraced_search: f64 = u.iter().map(|r| r.stats.wall_time.as_secs_f64()).sum();
        let untraced_wall: f64 = u.iter().map(|r| r.wall_s).sum();

        // Wall per TE on the longest third of traces over the shortest.
        let mut by_len: Vec<usize> = (0..t.len()).collect();
        by_len.sort_by_key(|&i| self.w.cases[i].events);
        let third = (t.len() / 3).max(1);
        let per_te = |idx: &[usize]| {
            let wall: f64 = idx
                .iter()
                .map(|&i| t[i].stats.wall_time.as_secs_f64())
                .sum();
            let te: f64 = idx
                .iter()
                .map(|&i| t[i].stats.transitions_executed as f64)
                .sum();
            wall / te
        };
        let growth = per_te(&by_len[t.len() - third..]) / per_te(&by_len[..third]);

        let failed_share = gate.failed as f64 / gate.attempted.max(1) as f64;
        vec![
            ("frontend.parse_s", self.setup.parse_s, "s"),
            ("frontend.sema_s", self.setup.sema_s, "s"),
            ("runtime.compile_s", self.setup.compile_s, "s"),
            ("runtime.transitions", self.transitions as f64, "count"),
            ("machine.generate_s", generate, "s"),
            ("machine.generate_calls", gen_calls, "count"),
            (
                "machine.generate_us",
                generate * 1e6 / gen_calls.max(1.0),
                "us",
            ),
            ("machine.fire_s", fire, "s"),
            ("machine.fire_calls", te, "count"),
            (
                "machine.fire_success_ratio",
                fires / attempts.max(1.0),
                "ratio",
            ),
            ("trace.parse_s", sum(&|r| r.parse_s), "s"),
            ("trace.resolve_s", sum(&|r| r.resolve_s), "s"),
            (
                "trace.events",
                self.w.cases.iter().map(|c| c.events).sum::<usize>() as f64,
                "count",
            ),
            ("trace.source_s", sum(&|r| r.source_s), "s"),
            ("search.wall_s", search_wall, "s"),
            ("search.other_s", search_wall - generate - fire, "s"),
            ("search.te_per_s", te / search_wall, "1/s"),
            ("search.saves", sum(&|r| r.stats.saves as f64), "count"),
            ("search.restores", restores, "count"),
            ("search.backtrack_ratio", restores / te.max(1.0), "ratio"),
            (
                "search.peak_snapshot_bytes",
                max(&|r| r.stats.peak_snapshot_bytes as f64),
                "bytes",
            ),
            ("search.length_growth", growth, "ratio"),
            (
                "search.intern_hits",
                sum(&|r| r.stats.intern_hits as f64),
                "count",
            ),
            ("mdfs.busy_s", sum(&|r| r.mdfs_busy_s), "s"),
            ("mdfs.idle_s", sum(&|r| r.mdfs_idle_s), "s"),
            ("mdfs.steal_s", sum(&|r| r.mdfs_steal_s), "s"),
            ("mdfs.steals", sum(&|r| r.stats.steals as f64), "count"),
            (
                "mdfs.steal_failures",
                sum(&|r| r.stats.steal_failures as f64),
                "count",
            ),
            (
                "mdfs.workers",
                if online { workers as f64 } else { 0.0 },
                "count",
            ),
            (
                "spill.writes",
                sum(&|r| r.stats.spill_writes as f64),
                "count",
            ),
            ("spill.reads", sum(&|r| r.stats.spill_reads as f64), "count"),
            (
                "spill.evictions",
                sum(&|r| r.stats.spill_evictions as f64),
                "count",
            ),
            (
                "spill.retries",
                sum(&|r| r.stats.spill_retries as f64),
                "count",
            ),
            (
                "spill.peak_spilled_bytes",
                max(&|r| r.stats.peak_spilled_bytes as f64),
                "bytes",
            ),
            ("checkpoint.write_s", ckpt.0, "s"),
            ("checkpoint.read_s", ckpt.1, "s"),
            ("checkpoint.bytes", ckpt.2 as f64, "bytes"),
            (
                "telemetry.recorder_overhead",
                cli_wall / self.cli_pass(false, |r| r.wall_s),
                "ratio",
            ),
            (
                "telemetry.trace_overhead",
                sum(&|r| r.wall_s) / untraced_wall,
                "ratio",
            ),
            ("cli.wall_s", cli_wall, "s"),
            ("cli.cpu_s", self.cli_pass(true, |r| r.cpu_s), "s"),
            ("cli.setup_s", cli_setup, "s"),
            ("cli.ingest_s", ingest, "s"),
            ("cli.search_s", untraced_search, "s"),
            (
                "cli.other_s",
                cli_wall - cli_setup - ingest - untraced_search,
                "s",
            ),
            ("failed_share", failed_share, "share"),
            ("verdict_samples", samples as f64, "count"),
            ("verdict_tail_percentile", tail_pct as f64, "pct"),
            ("host.cores", cores as f64, "count"),
            ("host.mdfs_workers", workers as f64, "count"),
            ("run.seed", seed as f64, "count"),
        ]
    }

    fn print(&self, m: &[(&str, f64, &str)]) {
        let get = |k: &str| m.iter().find(|x| x.0 == k).map_or(0.0, |x| x.1);
        println!(
            "ledger (s per pass): cli wall {:.4} = setup {:.4} + ingest {:.4} + search {:.4} \
             + cli.other {:.4}",
            get("cli.wall_s"),
            get("cli.setup_s"),
            get("cli.ingest_s"),
            get("cli.search_s"),
            get("cli.other_s")
        );
        println!(
            "ledger (s per pass, traced): search wall {:.4} = generate {:.4} + fire {:.4} \
             + search.other {:.4}",
            get("search.wall_s"),
            get("machine.generate_s"),
            get("machine.fire_s"),
            get("search.other_s")
        );
        for (name, value, unit) in m {
            println!("  {:<28} {:>16.6} {}", name, value, unit);
        }
        // What this workload is for: the layer it should isolate.
        let (what, value, holds) = match self.w.name {
            "tp0-nr-blowup" => {
                let v = get("search.restores") / get("trace.events");
                ("search.restores / trace.events >= 1000", v, v >= 1000.0)
            }
            "lapd800-invalid-full" => {
                let v = get("machine.generate_s") / get("search.wall_s");
                ("machine.generate_s / search.wall_s > 0.5", v, v > 0.5)
            }
            "long-valid-full" => {
                let v = (get("machine.generate_s") + get("machine.fire_s")) / get("search.wall_s");
                ("(generate + fire) / search.wall_s < 0.1", v, v < 0.1)
            }
            _ => {
                let v = get("spill.reads");
                (
                    "spill.reads > 0 and mdfs.workers = host.cores",
                    v,
                    v > 0.0 && get("mdfs.workers") == get("host.cores"),
                )
            }
        };
        println!(
            "layer separation: {} -> {:.4} ({})",
            what,
            value,
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
    }
}
