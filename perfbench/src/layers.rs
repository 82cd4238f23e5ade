//! In-process runs that time each layer from outside: the benchmark calls
//! each layer's public functions itself and reads the counters the
//! program already exports (`SearchStats`, `MetricsRegistry`,
//! `TransitionProfile`).

use crate::cli::Counters;
use crate::gen::{Case, Mode, Spec, Workload};
use crate::stats::median;
use estelle_frontend::{parse_specification, sema::analyze_spec, SemaOptions};
use estelle_runtime::{compile, Machine};
use std::path::Path;
use std::time::{Duration, Instant};
use tango::trace::source::Poll;
use tango::trace::ResolvedTrace;
use tango::{
    AnalysisOptions, Checkpoint, FollowFileSource, OrderOptions, SearchStats, SpillMode, Tango,
    Telemetry, TraceAnalyzer, TraceSource, Verdict,
};

/// Set-up timings of one workload's specs: spec text → ready analyzer.
/// Repetitions are spread over the whole run (one after every `tango`
/// invocation), so the medians see the same host conditions as the
/// verdicts do.
pub struct SetupTimer<'a> {
    specs: &'a [Spec],
    /// Also time the front end and the compiler separately.
    layers: bool,
    /// Per spec: `Tango::generate` times.
    generate: Vec<Vec<f64>>,
    /// Per repetition, summed over the specs.
    parse: Vec<f64>,
    sema: Vec<f64>,
    compile: Vec<f64>,
}

/// Median set-up times, in seconds.
pub struct Setup {
    /// `Tango::generate`, per spec.
    pub per_spec: Vec<f64>,
    pub parse_s: f64,
    pub sema_s: f64,
    pub compile_s: f64,
    pub reps: usize,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.per_spec.iter().sum()
    }
}

impl<'a> SetupTimer<'a> {
    pub fn new(specs: &'a [Spec], layers: bool) -> Self {
        SetupTimer {
            specs,
            layers,
            generate: vec![Vec::new(); specs.len()],
            parse: Vec::new(),
            sema: Vec::new(),
            compile: Vec::new(),
        }
    }

    /// Set up every spec once more.
    pub fn rep(&mut self) -> Result<(), String> {
        let (mut p, mut s, mut c) = (0.0, 0.0, 0.0);
        for (i, spec) in self.specs.iter().enumerate() {
            let t = Instant::now();
            let a = Tango::generate(&spec.source).map_err(|e| e.to_string())?;
            self.generate[i].push(t.elapsed().as_secs_f64());
            std::hint::black_box(a);
            if self.layers {
                let t = Instant::now();
                let ast = parse_specification(&spec.source).map_err(|e| e.to_string())?;
                p += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let module =
                    analyze_spec(&ast, SemaOptions::default()).map_err(|e| e.to_string())?;
                s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let m = Machine::new(compile(module).map_err(|e| e.to_string())?);
                c += t.elapsed().as_secs_f64();
                std::hint::black_box(m);
            }
        }
        self.parse.push(p);
        self.sema.push(s);
        self.compile.push(c);
        Ok(())
    }

    pub fn finish(mut self) -> Setup {
        Setup {
            reps: self.parse.len(),
            per_spec: self.generate.iter_mut().map(|v| median(v)).collect(),
            parse_s: median(&mut self.parse),
            sema_s: median(&mut self.sema),
            compile_s: median(&mut self.compile),
        }
    }
}

/// One in-process analysis of a case, with its layer timings.
#[derive(Default)]
pub struct CaseRun {
    pub verdict: Option<Verdict>,
    pub counters: Counters,
    pub stats: SearchStats,
    /// Around the whole analysis call, ingest included.
    pub wall_s: f64,
    pub parse_s: f64,
    pub resolve_s: f64,
    /// Inside `TraceSource::poll` (on-line cases only).
    pub source_s: f64,
    pub generate_s: f64,
    pub generate_calls: u64,
    pub fire_s: f64,
    pub fires: u64,
    pub fire_attempts: u64,
    pub mdfs_busy_s: f64,
    pub mdfs_idle_s: f64,
    pub mdfs_steal_s: f64,
}

/// The options the CLI builds for this workload's flags.
pub fn options(w: &Workload, spill_dir: &Path) -> AnalysisOptions {
    let mut o = AnalysisOptions::with_order(match w.order {
        "nr" => OrderOptions::none(),
        _ => OrderOptions::full(),
    });
    o.limits.max_transitions = w.cap;
    if let Mode::Online { max_mem } = w.mode {
        o.workers = 0;
        o.limits.max_state_bytes = Some(max_mem);
        o.spill.mode = SpillMode::On;
        o.spill.dir = Some(spill_dir.to_path_buf());
    }
    o
}

/// A `TraceSource` that times every poll of the one it wraps.
struct TimedSource<S> {
    inner: S,
    spent: Duration,
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn poll(&mut self) -> Poll {
        let t = Instant::now();
        let p = self.inner.poll();
        self.spent += t.elapsed();
        p
    }
    fn diagnostics(&self) -> Vec<String> {
        self.inner.diagnostics()
    }
    fn fault_retries(&self) -> u64 {
        self.inner.fault_retries()
    }
    fn fault_giveups(&self) -> u64 {
        self.inner.fault_giveups()
    }
}

/// Analyze one case in-process, the way the CLI would, with telemetry
/// (metrics + transition profile) on or entirely off.
pub fn analyze_case(
    analyzer: &TraceAnalyzer,
    w: &Workload,
    case: &Case,
    traced: bool,
    spill_dir: &Path,
) -> Result<CaseRun, String> {
    let options = options(w, spill_dir);
    let mut tel = if traced {
        Telemetry::off()
            .with_metrics()
            .with_profile(analyzer.machine.module.transition_count())
    } else {
        Telemetry::off()
    };
    let mut run = CaseRun::default();
    let t0 = Instant::now();
    let report = match w.mode {
        Mode::Static => {
            let t = Instant::now();
            let trace = tango::parse_trace(&case.text, Some(analyzer.module()))
                .map_err(|e| e.to_string())?;
            run.parse_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let resolved =
                ResolvedTrace::resolve(&trace, analyzer.module()).map_err(|e| e.to_string())?;
            run.resolve_s = t.elapsed().as_secs_f64();
            analyzer
                .analyze_resolved_with(resolved, &options, &mut tel)
                .map_err(|e| e.to_string())?
        }
        Mode::Online { .. } => {
            let mut src = TimedSource {
                inner: FollowFileSource::new(&case.file, Some(analyzer.module().clone())),
                spent: Duration::ZERO,
            };
            let r = analyzer
                .analyze_online_with(&mut src, &options, &mut |_| true, &mut tel)
                .map_err(|e| e.to_string())?;
            run.source_s = src.spent.as_secs_f64();
            r
        }
    };
    run.wall_s = t0.elapsed().as_secs_f64();
    tel.finalize(&report.stats);
    if let Some(m) = tel.metrics() {
        if let Some(h) = m.histogram("search.generate_latency_us") {
            run.generate_s = h.sum() * 1e-6;
            run.generate_calls = h.count();
        }
        for i in 0..options.resolved_workers() {
            let g = |k: &str| {
                m.gauge(&format!("mdfs.worker{}.{}_seconds", i, k))
                    .unwrap_or(0.0)
            };
            run.mdfs_busy_s += g("busy");
            run.mdfs_idle_s += g("idle");
            run.mdfs_steal_s += g("steal");
        }
    }
    if let Some(p) = tel.profile() {
        for e in p.entries() {
            run.fire_s += e.nanos as f64 * 1e-9;
            run.fires += e.fires;
            run.fire_attempts += e.attempts();
        }
    }
    run.counters = Counters::of(&report.stats);
    run.verdict = Some(report.verdict);
    run.stats = report.stats;
    Ok(run)
}

/// Checkpoint layer, timed from outside: stop a static analysis of the
/// case halfway at a transition cap, write and read the checkpoint, resume
/// it, and check the final verdict and counters against an uninterrupted
/// run. Returns (write seconds, read seconds, file bytes).
pub fn checkpoint_roundtrip(
    analyzer: &TraceAnalyzer,
    w: &Workload,
    case: &Case,
    dir: &Path,
) -> Result<(f64, f64, u64), String> {
    let mut options = options(w, dir);
    options.workers = 1;
    options.limits.max_state_bytes = None;
    options.spill = Default::default();
    let full = analyzer
        .analyze_text(&case.text, &options)
        .map_err(|e| e.to_string())?;
    let mut capped = options.clone();
    capped.limits.max_transitions = (full.stats.transitions_executed / 2).max(1);
    let stopped = analyzer
        .analyze_text(&case.text, &capped)
        .map_err(|e| e.to_string())?;
    let cp = stopped
        .checkpoint
        .ok_or("the capped analysis stopped without a checkpoint")?;
    let path = dir.join("stopped.ckpt");
    let t = Instant::now();
    cp.write_to(&path).map_err(|e| e.to_string())?;
    let write_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let back = Checkpoint::read_from(&path).map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let resumed = analyzer
        .analyze_resume(back, &options)
        .map_err(|e| e.to_string())?;
    if resumed.verdict != full.verdict || Counters::of(&resumed.stats) != Counters::of(&full.stats)
    {
        return Err(format!(
            "resumed run ended {} {:?}, uninterrupted run {} {:?}",
            resumed.verdict,
            Counters::of(&resumed.stats),
            full.verdict,
            Counters::of(&full.stats)
        ));
    }
    Ok((write_s, read_s, bytes))
}
