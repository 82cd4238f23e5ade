//! `tango` — command-line trace analyzer generator for Estelle
//! specifications.
//!
//! Subcommands:
//!
//! ```text
//! tango check <spec.est>
//!     Parse and analyze a specification; print its model summary.
//!
//! tango analyze <spec.est> <trace.txt> [--order nr|io|ip|full]
//!     [--disable-ip NAME]... [--unobserved-ip NAME]...
//!     [--initial-state-search] [--state-hashing]
//!     Analyze a static trace file; exit code 0 = valid, 1 = invalid,
//!     2 = inconclusive.
//!
//! tango online <spec.est> <trace.txt> [--order ...]
//!     Follow a growing trace file (dynamic mode, MDFS) until its `eof`
//!     marker; interim verdicts are printed as they change.
//!
//! tango normalize <spec.est>
//!     Print the §5.3 normal form of the specification.
//!
//! tango generate <spec.est> <script.txt> [--seed N]
//!     Implementation-generation mode (§4.1): execute the specification
//!     against the scripted inputs (`in IP.interaction(args)` lines) and
//!     print the resulting valid trace.
//!
//! tango graph <spec.est>
//!     Emit a Graphviz `dot` rendering of the compiled EFSM.
//!
//! tango checkpoint-info <checkpoint.bin>
//!     Verify a checkpoint file's integrity and print its progress
//!     summary (depth, pending frames, events, counters) without
//!     loading any machine state.
//!
//! tango dump-info [--jsonl] <file.tangodump>
//!     Verify a post-mortem dump and render it human-readable (or as
//!     JSONL documents with --jsonl).
//!
//! tango http-get <host:port[/path]>
//!     Fetch one URL from a running `--listen` endpoint and print the
//!     body — a curl substitute for scripts and CI.
//! ```
//!
//! Durable analysis (static mode): `--checkpoint-file PATH` autosaves
//! the search every `--checkpoint-every N` executed transitions (and on
//! any limit stop), atomically, so a killed process loses at most one
//! interval of work; `--resume PATH` continues from such a file with the
//! counters intact.
//!
//! Black box (both modes): the flight recorder is on by default
//! (`--flight-recorder off` disables it) and costs a bounded ring of
//! compact records. Any non-completed outcome — an inconclusive verdict,
//! a fault giveup, an isolated specification panic — writes a post-mortem
//! dump (`--dump-file PATH`, default `tango-postmortem.tangodump`)
//! readable with `tango dump-info`. `--listen ADDR` additionally serves
//! live `/status`, `/metrics` and `/profile` JSON over HTTP while the
//! analysis runs.

use estelle_frontend::parse_specification;
use estelle_runtime::normal_form::normalize_specification;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tango::{
    should_dump, AnalysisOptions, AnalysisReport, Checkpoint, FaultPlan, FollowFileSource,
    InconclusiveReason, IntrospectionServer, JsonlSink, OrderOptions, PostMortemDump,
    ProgressMode, ProgressReporter, RecoveryPolicy, RetryPolicy, Tango, Telemetry,
    TraceAnalyzer, TraceSource, Verdict, DEFAULT_RING_CAPACITY,
};

/// Poll budget for draining a fault-injected source on a static chaos
/// run; generous enough for any plan `FaultPlan::random` can emit.
const CHAOS_MAX_POLLS: usize = 1_000_000;

/// Where the post-mortem dump lands unless `--dump-file` says otherwise.
const DEFAULT_DUMP_FILE: &str = "tango-postmortem.tangodump";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {}", msg);
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "check" => check(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "analyze" => analyze(&args[1..], false),
        "online" => analyze(&args[1..], true),
        "normalize" => normalize(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "graph" => graph(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "generate" => generate(&args[1..]),
        "checkpoint-info" => checkpoint_info(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "dump-info" => dump_info(&args[1..]),
        "http-get" => http_get(args.get(1).map(String::as_str).ok_or_else(usage)?),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{}`\n{}", other, usage())),
    }
}

fn usage() -> String {
    "usage: tango <check|analyze|online|normalize|graph|generate|checkpoint-info\
     |dump-info|http-get> \
     <spec.est|checkpoint.bin|file.tangodump|host:port/path> \
     [trace.txt|script.txt] [--order nr|io|ip|full] [--disable-ip NAME] \
     [--unobserved-ip NAME] [--initial-state-search] [--state-hashing] \
     [--exec=auto|compiled|interp] [--workers N] \
     [--max-seconds F] [--max-mem N[k|m|g][b]] \
     [--spill=on|off|auto] [--spill-dir PATH] \
     [--max-transitions N] [--checkpoint-file PATH] [--checkpoint-every N] \
     [--resume PATH] [--on-truncate restart|fail] [--seed N] \
     [--trace-out PATH] [--metrics-out PATH] [--progress SECS|jsonl[:SECS]] \
     [--profile] [--profile-dot PATH] [--pgo-out PATH] [--pgo-in PATH] \
     [--chaos-seed N] [--fault-plan SPEC] \
     [--flight-recorder on|off] [--dump-file PATH] [--listen ADDR] [--jsonl]"
        .to_string()
}

/// Parse a byte budget like `64k`, `16m`, `1g`, `64mb` or a plain byte
/// count. Rejects multiplier overflow instead of silently wrapping.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let bad = || format!("bad memory budget `{}`", s);
    let lower = s.to_ascii_lowercase();
    // An optional trailing `b` (`64mb`, `10kb`) is accepted and ignored —
    // but a bare `b` is not a number.
    let trimmed = match lower.strip_suffix('b') {
        Some(rest) if !rest.is_empty() => rest,
        Some(_) => return Err(bad()),
        None => lower.as_str(),
    };
    let (digits, shift) = match trimmed.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match trimmed.as_bytes()[trimmed.len() - 1] {
                b'k' => 10u32,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (trimmed, 0),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(1usize << shift).ok_or_else(bad)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {}", path, e))
}

fn check(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let analyzer = match Tango::generate(&source) {
        Ok(a) => a,
        Err(tango::TangoError::Build(estelle_runtime::BuildError::Frontend(e))) => {
            eprintln!("{}", e.render(&source));
            return Ok(ExitCode::from(1));
        }
        Err(e) => return Err(e.to_string()),
    };
    let m = analyzer.module();
    println!("specification {} / module {}", m.spec_name, m.module_name);
    println!("  states: {}", m.states.join(", "));
    for ip in &m.ips {
        println!(
            "  ip {}: {} receivable, {} sendable interaction(s)",
            ip.name,
            ip.inputs.len(),
            ip.outputs.len()
        );
    }
    println!(
        "  {} transition declaration(s), {} compiled transition(s)",
        m.declared_transition_count(),
        analyzer.machine.module.transition_count()
    );
    for w in &m.warnings {
        println!("  warning: {}", w);
    }
    Ok(ExitCode::SUCCESS)
}

/// Implementation-generation mode (§4.1): run the spec against scripted
/// inputs and print the trace it produces.
fn generate(args: &[String]) -> Result<ExitCode, String> {
    let mut seed: Option<u64> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed `{}`", v))?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}`", flag));
            }
            _ => positional.push(a.clone()),
        }
    }
    let [spec_path, script_path] = positional.as_slice() else {
        return Err(usage());
    };
    let source = read(spec_path)?;
    let analyzer = Tango::generate(&source).map_err(|e| e.to_string())?;

    // The script reuses the trace format; only `in` lines are accepted.
    let script_text = read(script_path)?;
    let script_trace = tango::parse_trace(&script_text, Some(analyzer.module()))
        .map_err(|e| e.to_string())?;
    let mut script = Vec::new();
    for e in &script_trace.events {
        if e.dir != tango::Dir::In {
            return Err(format!(
                "script may only contain `in` lines; found `out {}.{}`",
                e.ip, e.interaction
            ));
        }
        script.push(tango::ScriptedInput {
            ip: e.ip.clone(),
            interaction: e.interaction.clone(),
            params: e.params.clone(),
        });
    }

    let choice = match seed {
        Some(s) => tango::ChoicePolicy::Random(s),
        None => tango::ChoicePolicy::First,
    };
    let trace = analyzer
        .generate_trace(&script, choice, 10_000_000)
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        tango::render_trace(&trace, Some(analyzer.module()), true)
    );
    Ok(ExitCode::SUCCESS)
}

/// Emit a Graphviz rendering of the compiled EFSM.
fn graph(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let analyzer = Tango::generate(&source).map_err(|e| e.to_string())?;
    print!("{}", estelle_runtime::graph::to_dot(&analyzer.machine.module));
    Ok(ExitCode::SUCCESS)
}

fn normalize(spec_path: &str) -> Result<ExitCode, String> {
    let source = read(spec_path)?;
    let spec = parse_specification(&source).map_err(|e| e.render(&source))?;
    let normalized = normalize_specification(&spec).map_err(|e| e.to_string())?;
    print!("{}", estelle_ast::print::print_specification(&normalized));
    Ok(ExitCode::SUCCESS)
}

/// Durable-analysis flags (static mode only).
#[derive(Debug, Default)]
struct CheckpointFlags {
    /// Where to (auto)save the search when it stops on a limit.
    file: Option<PathBuf>,
    /// A previously saved checkpoint to continue from.
    resume: Option<PathBuf>,
    /// Autosave interval, in executed transitions.
    every: Option<u64>,
}

/// Telemetry flags (both modes): structured event stream, metrics
/// export, live progress heartbeats, per-transition profile.
#[derive(Debug, Default)]
struct TelemetryFlags {
    /// Write the JSONL search-event stream here.
    trace_out: Option<PathBuf>,
    /// Write the metrics-registry JSON document here after the run.
    metrics_out: Option<PathBuf>,
    /// Heartbeat mode and interval (`--progress SECS` or `jsonl[:SECS]`).
    progress: Option<(ProgressMode, Duration)>,
    /// Print the hot-transition table after the report.
    profile: bool,
    /// Write the Graphviz heat overlay here.
    profile_dot: Option<PathBuf>,
    /// Write the serializable PGO profile here after the run
    /// (`--pgo-out`; implies profile collection).
    pgo_out: Option<PathBuf>,
    /// Apply a previously recorded PGO profile before the run
    /// (`--pgo-in`; validated against the spec like a checkpoint).
    pgo_in: Option<PathBuf>,
    /// `--flight-recorder off`: disable the always-on black box (the
    /// recorder is the default; this exists for A/B timing and for
    /// proving the recorder changes nothing but the dump).
    recorder_off: bool,
    /// Post-mortem dump destination (`--dump-file`; defaults to
    /// [`DEFAULT_DUMP_FILE`] in the working directory).
    dump_file: Option<PathBuf>,
    /// Serve live `/status`, `/metrics`, `/profile` here (`--listen`).
    listen: Option<String>,
}

impl TelemetryFlags {
    /// Build the analysis telemetry handle these flags ask for, plus the
    /// live introspection server when `--listen` is set (kept alive by
    /// the caller for the duration of the run; dropping it frees the
    /// port).
    fn build(
        &self,
        analyzer: &TraceAnalyzer,
    ) -> Result<(Telemetry, Option<IntrospectionServer>), String> {
        let transition_count = analyzer.machine.module.transition_count();
        let mut tel = Telemetry::off();
        if let Some(path) = &self.trace_out {
            let f = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {}", path.display(), e))?;
            tel = tel.with_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
        }
        if self.metrics_out.is_some() || self.listen.is_some() {
            tel = tel.with_metrics();
        }
        if self.profile
            || self.profile_dot.is_some()
            || self.pgo_out.is_some()
            || self.listen.is_some()
        {
            tel = tel.with_profile(transition_count);
        }
        if let Some((mode, every)) = self.progress {
            tel = tel.with_progress(ProgressReporter::stderr(mode, every));
        }
        if !self.recorder_off {
            tel = tel.with_recorder(DEFAULT_RING_CAPACITY);
        }
        let mut server = None;
        if let Some(addr) = &self.listen {
            let s = IntrospectionServer::bind(addr)
                .map_err(|e| format!("cannot listen on {}: {}", addr, e))?;
            eprintln!("introspect: listening on http://{}/", s.local_addr());
            tel = tel.with_introspection(s.handle());
            server = Some(s);
        }
        if !self.recorder_off || self.listen.is_some() {
            tel = tel.with_transition_names(analyzer.transition_names());
        }
        Ok((tel, server))
    }

    /// The dump destination these flags select.
    fn dump_path(&self) -> PathBuf {
        self.dump_file
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_FILE))
    }
}

/// Parse the `--flight-recorder` mode: `on` (the default) or `off`.
fn parse_recorder(v: &str) -> Result<bool, String> {
    match v.to_ascii_lowercase().as_str() {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!(
            "bad --flight-recorder mode `{}` (expected on|off)",
            other
        )),
    }
}

/// Parse a `--progress` spec: `SECS` (human heartbeats) or `jsonl`
/// (machine-readable, default interval) or `jsonl:SECS`.
fn parse_progress(v: &str) -> Result<(ProgressMode, Duration), String> {
    let bad = || format!("bad --progress value `{}` (expected SECS or jsonl[:SECS])", v);
    let lower = v.to_ascii_lowercase();
    let (mode, secs_str) = match lower.strip_prefix("jsonl") {
        Some("") => return Ok((ProgressMode::Jsonl, Duration::from_secs(2))),
        Some(rest) => (ProgressMode::Jsonl, rest.strip_prefix(':').ok_or_else(bad)?),
        None => (ProgressMode::Human, lower.as_str()),
    };
    let secs: f64 = secs_str.parse().map_err(|_| bad())?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(bad());
    }
    Ok((mode, Duration::from_secs_f64(secs)))
}

#[allow(clippy::type_complexity)]
fn parse_options(
    args: &[String],
) -> Result<
    (
        AnalysisOptions,
        RecoveryPolicy,
        CheckpointFlags,
        TelemetryFlags,
        Vec<String>,
        Option<FaultPlan>,
    ),
    String,
> {
    let mut options = AnalysisOptions::default();
    let mut recovery = RecoveryPolicy::default();
    let mut ckpt = CheckpointFlags::default();
    let mut tflags = TelemetryFlags::default();
    let mut chaos: Option<FaultPlan> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--checkpoint-file" => {
                let v = it.next().ok_or("--checkpoint-file needs a path")?;
                ckpt.file = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = it.next().ok_or("--resume needs a path")?;
                ckpt.resume = Some(PathBuf::from(v));
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value `{}`", v))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
                ckpt.every = Some(n);
            }
            "--max-transitions" => {
                let v = it.next().ok_or("--max-transitions needs a value")?;
                options.limits.max_transitions = v
                    .parse()
                    .map_err(|_| format!("bad --max-transitions value `{}`", v))?;
            }
            "--max-seconds" => {
                let v = it.next().ok_or("--max-seconds needs a value")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --max-seconds value `{}`", v))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("bad --max-seconds value `{}`", v));
                }
                options.limits.max_wall_time = Some(Duration::from_secs_f64(secs));
            }
            "--max-mem" => {
                let v = it.next().ok_or("--max-mem needs a value")?;
                options.limits.max_state_bytes = Some(parse_bytes(v)?);
            }
            "--spill" => {
                let v = it.next().ok_or("--spill needs on|off|auto")?;
                options.spill.mode = v.parse()?;
            }
            flag if flag.starts_with("--spill=") => {
                options.spill.mode = flag["--spill=".len()..].parse()?;
            }
            "--spill-dir" => {
                let v = it.next().ok_or("--spill-dir needs a path")?;
                options.spill.dir = Some(PathBuf::from(v));
            }
            "--on-truncate" => {
                let v = it.next().ok_or("--on-truncate needs a value")?;
                recovery = match v.to_ascii_lowercase().as_str() {
                    "restart" => RecoveryPolicy::Restart,
                    "fail" => RecoveryPolicy::Fail,
                    other => return Err(format!("unknown truncation policy `{}`", other)),
                };
            }
            "--order" => {
                let v = it.next().ok_or("--order needs a value")?;
                options.order = match v.to_ascii_lowercase().as_str() {
                    "nr" | "none" => OrderOptions::none(),
                    "io" => OrderOptions::io(),
                    "ip" => OrderOptions::ip(),
                    "full" => OrderOptions::full(),
                    other => return Err(format!("unknown order mode `{}`", other)),
                };
            }
            "--disable-ip" => {
                let v = it.next().ok_or("--disable-ip needs a name")?;
                options.disabled_ips.insert(v.to_ascii_lowercase());
            }
            "--unobserved-ip" => {
                let v = it.next().ok_or("--unobserved-ip needs a name")?;
                options.unobserved_ips.insert(v.to_ascii_lowercase());
                options.policy = estelle_runtime::UndefinedPolicy::Propagate;
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                tflags.trace_out = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out needs a path")?;
                tflags.metrics_out = Some(PathBuf::from(v));
            }
            "--progress" => {
                let v = it.next().ok_or("--progress needs SECS or jsonl[:SECS]")?;
                tflags.progress = Some(parse_progress(v)?);
            }
            "--profile" => tflags.profile = true,
            "--profile-dot" => {
                let v = it.next().ok_or("--profile-dot needs a path")?;
                tflags.profile_dot = Some(PathBuf::from(v));
            }
            "--pgo-out" => {
                let v = it.next().ok_or("--pgo-out needs a path")?;
                tflags.pgo_out = Some(PathBuf::from(v));
            }
            flag if flag.starts_with("--pgo-out=") => {
                tflags.pgo_out = Some(PathBuf::from(&flag["--pgo-out=".len()..]));
            }
            "--pgo-in" => {
                let v = it.next().ok_or("--pgo-in needs a path")?;
                tflags.pgo_in = Some(PathBuf::from(v));
            }
            flag if flag.starts_with("--pgo-in=") => {
                tflags.pgo_in = Some(PathBuf::from(&flag["--pgo-in=".len()..]));
            }
            "--chaos-seed" => {
                let v = it.next().ok_or("--chaos-seed needs a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-seed value `{}`", v))?;
                chaos = Some(FaultPlan::random(n));
            }
            flag if flag.starts_with("--chaos-seed=") => {
                let v = &flag["--chaos-seed=".len()..];
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-seed value `{}`", v))?;
                chaos = Some(FaultPlan::random(n));
            }
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan needs a plan spec")?;
                chaos = Some(FaultPlan::parse(v).map_err(|e| e.to_string())?);
            }
            flag if flag.starts_with("--fault-plan=") => {
                let v = &flag["--fault-plan=".len()..];
                chaos = Some(FaultPlan::parse(v).map_err(|e| e.to_string())?);
            }
            "--flight-recorder" => {
                let v = it.next().ok_or("--flight-recorder needs on|off")?;
                tflags.recorder_off = !parse_recorder(v)?;
            }
            flag if flag.starts_with("--flight-recorder=") => {
                tflags.recorder_off = !parse_recorder(&flag["--flight-recorder=".len()..])?;
            }
            "--dump-file" => {
                let v = it.next().ok_or("--dump-file needs a path")?;
                tflags.dump_file = Some(PathBuf::from(v));
            }
            flag if flag.starts_with("--dump-file=") => {
                tflags.dump_file = Some(PathBuf::from(&flag["--dump-file=".len()..]));
            }
            "--listen" => {
                let v = it.next().ok_or("--listen needs an address (host:port)")?;
                tflags.listen = Some(v.clone());
                options.listen = Some(v.clone());
            }
            flag if flag.starts_with("--listen=") => {
                let v = flag["--listen=".len()..].to_string();
                tflags.listen = Some(v.clone());
                options.listen = Some(v);
            }
            "--initial-state-search" => options.initial_state_search = true,
            "--state-hashing" => options.state_hashing = true,
            "--exec" => {
                let v = it.next().ok_or("--exec needs auto|compiled|interp")?;
                options.exec_mode = v.parse()?;
            }
            flag if flag.starts_with("--exec=") => {
                options.exec_mode = flag["--exec=".len()..].parse()?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count (0 = one per core)")?;
                options.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value `{}`", v))?;
            }
            flag if flag.starts_with("--workers=") => {
                let v = &flag["--workers=".len()..];
                options.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value `{}`", v))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}`", flag));
            }
            _ => positional.push(a.clone()),
        }
    }
    if options.spill.mode == tango::SpillMode::On {
        if options.spill.dir.is_none() {
            return Err("--spill on requires --spill-dir PATH".to_string());
        }
        if options.limits.max_state_bytes.is_none() {
            return Err(
                "--spill on requires a --max-mem budget to tier against".to_string(),
            );
        }
    }
    Ok((options, recovery, ckpt, tflags, positional, chaos))
}

fn analyze(args: &[String], online: bool) -> Result<ExitCode, String> {
    let (mut options, recovery, ckpt, tflags, positional, chaos) = parse_options(args)?;
    if online {
        // On-line mode defaults to one worker per core; `--workers 1`
        // opts back into the single-threaded search.
        let explicit = args
            .iter()
            .any(|a| a == "--workers" || a.starts_with("--workers="));
        if !explicit {
            options.workers = 0;
        }
        // `--checkpoint-file`/`--resume` work on-line too (save on a limit
        // stop, resume an eof-reached front); only the autosave round loop
        // is static-only.
        if ckpt.every.is_some() {
            return Err("--checkpoint-every applies to static `analyze` only".to_string());
        }
    }
    if online && chaos.is_some() {
        return Err(
            "--chaos-seed/--fault-plan apply to static `analyze` only".to_string(),
        );
    }
    if let Some(plan) = &chaos {
        // Echo the full plan so any chaos run is reproducible from its
        // log alone: `--fault-plan '<this line>'` re-arms it exactly.
        eprintln!("chaos: plan={}", plan.describe());
        plan.apply(&mut options);
    }
    // With --resume the trace travels inside the checkpoint, so only the
    // specification is required (it is not serialized — the checkpoint is
    // validated against it on load instead).
    let (spec_path, trace_path) = match positional.as_slice() {
        [s, t] => (s, Some(t)),
        [s] if ckpt.resume.is_some() => (s, None),
        _ => return Err(usage()),
    };
    let source = read(spec_path)?;
    let mut analyzer = match Tango::generate(&source) {
        Ok(a) => a,
        Err(tango::TangoError::Build(estelle_runtime::BuildError::Frontend(e))) => {
            eprintln!("{}", e.render(&source));
            return Ok(ExitCode::from(3));
        }
        Err(e) => return Err(e.to_string()),
    };

    // Profile-guided optimization: validate the recorded profile against
    // this spec (like a checkpoint) and reorder the compiled program's
    // dispatch buckets and guard terms by the observed fire rates.
    if let Some(path) = &tflags.pgo_in {
        let text = read(&path.display().to_string())?;
        let pgo = tango::PgoProfile::parse(&text)
            .map_err(|e| format!("{}: {}", path.display(), e))?;
        analyzer
            .apply_pgo(&pgo)
            .map_err(|e| format!("{}: {}", path.display(), e))?;
    }
    let analyzer = analyzer;

    // `_server` must outlive the analysis: it serves /status, /metrics
    // and /profile until the final (done=true) push lands in finalize.
    let (mut tel, _server) = tflags.build(&analyzer)?;

    let report = if online {
        let mut on_status = |v: &Verdict| {
            println!("interim: {}", v);
            true
        };
        let report = match &ckpt.resume {
            Some(path) => {
                let cp = Checkpoint::read_from(path).map_err(|e| e.to_string())?;
                analyzer
                    .analyze_online_resume_with(cp, &options, &mut on_status, &mut tel)
                    .map_err(|e| e.to_string())?
            }
            None => {
                let trace_path = trace_path.ok_or_else(usage)?;
                let mut src =
                    FollowFileSource::new(trace_path, Some(analyzer.module().clone()))
                        .with_recovery(recovery);
                let report = analyzer
                    .analyze_online_with(&mut src, &options, &mut on_status, &mut tel)
                    .map_err(|e| e.to_string())?;
                if src.skipped_lines() > 0 {
                    eprintln!(
                        "warning: {} unparseable trace line(s) skipped",
                        src.skipped_lines()
                    );
                }
                report
            }
        };
        // A limit stop after eof carries a resumable multi-worker front;
        // persist it like static mode's autosave (single-shot, no rounds).
        if let (Some(path), Some(cp)) = (&ckpt.file, report.checkpoint.as_deref()) {
            let out = cp.write_to_with(path, &RetryPolicy::checkpoint(), None);
            match out.result {
                Ok(()) => tel.on_checkpoint(
                    cp.stats().transitions_executed,
                    &path.display().to_string(),
                ),
                Err(e) => eprintln!(
                    "warning: checkpoint save to {} failed: {}",
                    path.display(),
                    e
                ),
            }
        }
        report
    } else {
        run_static(
            &analyzer,
            trace_path.map(String::as_str),
            &options,
            &ckpt,
            chaos.as_ref(),
            &mut tel,
        )?
    };

    // Fold the cumulative counters into the metrics registry and flush
    // the event stream, then write the requested artifacts.
    tel.finalize(&report.stats);

    // Black box: any non-completed outcome gets a post-mortem dump. The
    // autosave path is named inside the dump so `dump-info` can point
    // straight at the file to resume from.
    if tel.recorder().is_some() && should_dump(&report) {
        let dump_path = tflags.dump_path();
        let resume_from = if report.checkpoint.is_some() {
            ckpt.file.as_deref()
        } else {
            None
        };
        let dump = PostMortemDump::capture(&report, &tel, resume_from, chaos.as_ref());
        match dump.write_to(&dump_path) {
            Ok(()) => eprintln!(
                "note: post-mortem dump written to {}; inspect with \
                 `tango dump-info {}`",
                dump_path.display(),
                dump_path.display()
            ),
            Err(e) => eprintln!(
                "warning: post-mortem dump to {} failed: {}",
                dump_path.display(),
                e
            ),
        }
    }

    if let Some(path) = &tflags.metrics_out {
        let doc = tel.metrics().expect("metrics enabled by flag").to_json();
        std::fs::write(path, doc)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    }
    if let Some(path) = &tflags.pgo_out {
        let p = tel.profile().expect("profile enabled by flag");
        std::fs::write(path, analyzer.pgo_snapshot(p).render())
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    }
    if let Some(path) = &tflags.profile_dot {
        let p = tel.profile().expect("profile enabled by flag");
        let dot = estelle_runtime::graph::to_dot_with_heat(
            &analyzer.machine.module,
            &p.heat_weights(),
            &p.heat_labels(),
            options.exec_mode.name(),
        );
        std::fs::write(path, dot)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    }

    println!("{}", report);
    if tflags.profile {
        let p = tel.profile().expect("profile enabled by flag");
        print!(
            "{}",
            p.render_table(&|i| analyzer.machine.transition_name(i).to_string())
        );
    }
    if let Some(w) = &report.witness {
        println!("witness: {}", w.join(" -> "));
    }
    for e in report.spec_errors.iter().take(3) {
        println!("note: branch abandoned with {}", e);
    }
    for fault in &report.source_faults {
        eprintln!("source fault: {}", fault);
    }
    for fault in &report.spill_faults {
        eprintln!("spill fault: {}", fault);
    }
    for fault in &report.checkpoint_faults {
        eprintln!("checkpoint fault: {}", fault);
    }
    if report.checkpoint.is_some() {
        match &ckpt.file {
            Some(path) => eprintln!(
                "note: search stopped on a resource limit; checkpoint saved to {}; \
                 rerun with --resume {} and raised limits to continue",
                path.display(),
                path.display()
            ),
            None => eprintln!(
                "note: search stopped on a resource limit; rerun with higher \
                 --max-seconds/--max-mem limits to continue"
            ),
        }
    }
    Ok(match report.verdict {
        Verdict::Valid => ExitCode::SUCCESS,
        Verdict::Invalid => ExitCode::from(1),
        _ => ExitCode::from(2),
    })
}

/// Static-mode analysis with durable checkpointing: fresh or resumed,
/// autosaving every `--checkpoint-every` transitions by running the
/// search in bounded rounds (each round ends on a *synthetic* transition
/// cap, the frozen checkpoint is written atomically, and the search
/// resumes in-process — the same stop/resume path a crashed process
/// recovers through, so the totals are identical either way).
fn run_static(
    analyzer: &TraceAnalyzer,
    trace_path: Option<&str>,
    options: &AnalysisOptions,
    ckpt: &CheckpointFlags,
    chaos: Option<&FaultPlan>,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, String> {
    let user_cap = options.limits.max_transitions;
    // Chaos bookkeeping lives outside the round loop: the search rounds
    // replace `report`, but source faults happen once (at drain) and
    // checkpoint faults accumulate across every autosave, so both fold
    // into whichever report turns out to be final.
    let mut injector = chaos.and_then(|p| p.checkpoint_injector());
    let mut source_faults: Vec<String> = Vec::new();
    let mut source_retries = 0u64;
    let mut source_giveups = 0u64;
    let mut ck_faults: Vec<String> = Vec::new();
    let mut ck_retries = 0u64;
    let mut ck_giveups = 0u64;
    // One search round: cap TE at the next autosave point, never above
    // the user's own limit.
    let round_options = |done: u64| {
        let mut o = options.clone();
        if let Some(every) = ckpt.every {
            o.limits.max_transitions = user_cap.min(done.saturating_add(every));
        }
        o
    };

    let mut report = match &ckpt.resume {
        Some(path) => {
            let cp = Checkpoint::read_from(path).map_err(|e| e.to_string())?;
            let done = cp.stats().transitions_executed;
            analyzer
                .analyze_resume_with(cp, &round_options(done), tel)
                .map_err(|e| e.to_string())?
        }
        None => {
            let text = read(trace_path.ok_or_else(usage)?)?;
            match chaos.and_then(|p| p.build_source(&text, Some(analyzer.module().clone()))) {
                Some(mut src) => {
                    // Source site armed: the whole trace is read through
                    // the injector first, then the search analyzes what
                    // the degraded feed actually delivered.
                    let (trace, faults) =
                        tango::fault::drain_source(&mut src, CHAOS_MAX_POLLS)
                            .map_err(|e| e.to_string())?;
                    source_faults = faults;
                    source_retries = src.fault_retries();
                    source_giveups = src.fault_giveups();
                    analyzer
                        .analyze_with(&trace, &round_options(0), tel)
                        .map_err(|e| e.to_string())?
                }
                None => analyzer
                    .analyze_text_with(&text, &round_options(0), tel)
                    .map_err(|e| e.to_string())?,
            }
        }
    };

    loop {
        // Autosave on every limit stop, synthetic or genuine. A write
        // failure (after the codec's own bounded retries) costs the
        // durability of this round, not the analysis: warn and carry on.
        if let (Some(path), Some(cp)) = (&ckpt.file, report.checkpoint.as_deref()) {
            let out = cp.write_to_with(path, &RetryPolicy::checkpoint(), injector.as_mut());
            ck_retries += u64::from(out.retries);
            match out.result {
                Ok(()) => tel.on_checkpoint(
                    cp.stats().transitions_executed,
                    &path.display().to_string(),
                ),
                Err(e) => {
                    ck_giveups += 1;
                    let fault = format!(
                        "autosave to {} at TE={} failed: {}",
                        path.display(),
                        cp.stats().transitions_executed,
                        e
                    );
                    eprintln!(
                        "warning: checkpoint {}; analysis continues \
                         (rerun will not be resumable past the last good save)",
                        fault
                    );
                    ck_faults.push(fault);
                }
            }
        }
        // A synthetic stop is a transition-limit stop below the user's
        // own cap: continue the next round in-process. Anything else —
        // conclusive verdict, genuine limit — is the final report.
        let synthetic = ckpt.every.is_some()
            && matches!(
                report.verdict,
                Verdict::Inconclusive(InconclusiveReason::TransitionLimit)
            )
            && report.stats.transitions_executed < user_cap
            && report.checkpoint.is_some();
        if !synthetic {
            report.stats.source_retries += source_retries;
            report.stats.source_giveups += source_giveups;
            if !source_faults.is_empty() {
                report.source_faults = source_faults;
            }
            report.stats.checkpoint_retries += ck_retries;
            report.stats.checkpoint_giveups += ck_giveups;
            report.checkpoint_faults = ck_faults;
            return Ok(report);
        }
        let cp = *report.checkpoint.take().expect("checked above");
        let done = cp.stats().transitions_executed;
        report = analyzer
            .analyze_resume_with(cp, &round_options(done), tel)
            .map_err(|e| e.to_string())?;
    }
}

/// Verify a checkpoint file and print its progress summary. Decodes only
/// the META section: no machine state, trace or search stack is loaded.
fn checkpoint_info(path: &str) -> Result<ExitCode, String> {
    let info = Checkpoint::read_info(std::path::Path::new(path))
        .map_err(|e| format!("{}: {}", path, e))?;
    println!("checkpoint: {}", path);
    println!("  format version: {}", info.version);
    println!("  mode: {}", info.mode);
    if let Some(n) = info.workers_at_save {
        println!("  workers at save: {}", n);
        let deque: usize = info.worker_loads.iter().map(|&(d, _)| d).sum();
        let parked: usize = info.worker_loads.iter().map(|&(_, p)| p).sum();
        println!("  front: {} deque node(s), {} parked node(s)", deque, parked);
        for (i, &(d, p)) in info.worker_loads.iter().enumerate() {
            println!("    worker {}: deque={} parked={}", i, d, p);
        }
    }
    println!("  depth: {}", info.depth);
    println!("  pending frames: {}", info.pending_frames);
    println!("  events: {}", info.events_total);
    println!("  {}", info.stats);
    // Codec v3 carries the fault/spill story; show it so a resumed run's
    // operator knows what the interrupted one survived.
    let s = &info.stats;
    println!(
        "  source faults: retries={} giveups={}",
        s.source_retries, s.source_giveups
    );
    println!(
        "  spill faults: retries={} giveups={}",
        s.spill_retries, s.spill_giveups
    );
    println!(
        "  checkpoint faults: retries={} giveups={}",
        s.checkpoint_retries, s.checkpoint_giveups
    );
    println!(
        "  peak memory: resident={} bytes, spilled={} bytes (peak_spilled_bytes)",
        s.peak_snapshot_bytes, s.peak_spilled_bytes
    );
    Ok(ExitCode::SUCCESS)
}

/// Verify a post-mortem dump (magic, version, per-section and whole-file
/// checksums) and render it.
fn dump_info(args: &[String]) -> Result<ExitCode, String> {
    let mut jsonl = false;
    let mut path: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--jsonl" => jsonl = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{}` (dump-info takes --jsonl)", flag));
            }
            p => {
                if path.replace(p).is_some() {
                    return Err(usage());
                }
            }
        }
    }
    let path = path.ok_or_else(usage)?;
    let dump = PostMortemDump::read_from(std::path::Path::new(path))
        .map_err(|e| format!("{}: {}", path, e))?;
    if jsonl {
        print!("{}", dump.render_jsonl());
    } else {
        println!("dump: {}", path);
        print!("{}", dump.render_human());
    }
    Ok(ExitCode::SUCCESS)
}

/// Minimal HTTP/1.1 GET over a plain `TcpStream` — enough to fetch the
/// `--listen` endpoints from `sh` scripts without curl. Prints the
/// response body; exits 0 only on a 200.
fn http_get(target: &str) -> Result<ExitCode, String> {
    use std::io::{Read, Write};
    let target = target.strip_prefix("http://").unwrap_or(target);
    let (addr, path) = match target.find('/') {
        Some(i) => (&target[..i], &target[i..]),
        None => (target, "/"),
    };
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {}: {}", addr, e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!(
                "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                path, addr
            )
            .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {}: {}", addr, e))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("cannot read response from {}: {}", addr, e))?;
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {}", addr))?;
    let status_line = head.lines().next().unwrap_or("");
    let ok = status_line.split_whitespace().nth(1) == Some("200");
    if !ok {
        eprintln!("http-get: {}", status_line);
    }
    print!("{}", body);
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_plain_and_suffixed() {
        assert_eq!(parse_bytes("128").unwrap(), 128);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("16m").unwrap(), 16 << 20);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
    }

    #[test]
    fn parse_bytes_accepts_trailing_b() {
        assert_eq!(parse_bytes("64mb").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("10KB").unwrap(), 10 << 10);
        assert_eq!(parse_bytes("1gb").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("7b").unwrap(), 7);
    }

    #[test]
    fn parse_bytes_rejects_multiplier_overflow() {
        // usize::MAX with a `g` suffix used to wrap via unchecked
        // multiplication; it must be an error.
        assert!(parse_bytes(&format!("{}g", usize::MAX)).is_err());
        assert!(parse_bytes(&format!("{}k", usize::MAX)).is_err());
        assert!(parse_bytes(&format!("{}gb", usize::MAX / 2)).is_err());
        // The largest representable budgets still parse.
        assert_eq!(parse_bytes(&format!("{}", usize::MAX)).unwrap(), usize::MAX);
        assert_eq!(
            parse_bytes(&format!("{}k", usize::MAX >> 10)).unwrap(),
            (usize::MAX >> 10) << 10
        );
    }

    #[test]
    fn parse_bytes_rejects_garbage() {
        for bad in ["", "b", "kb", "12q", "k12", "-5k", "1.5m", "64 m"] {
            assert!(parse_bytes(bad).is_err(), "`{}` must not parse", bad);
        }
    }

    #[test]
    fn spill_flag_both_spellings_and_validation() {
        use tango::SpillMode;
        let (opts, _, _, _, _, _) = parse_options(&["x".to_string()]).unwrap();
        assert_eq!(opts.spill.mode, SpillMode::Auto, "auto is the default");
        assert!(opts.spill.dir.is_none());

        let args: Vec<String> = ["--spill=on", "--spill-dir", "/tmp/s", "--max-mem", "1m", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, _, _, _, _, _) = parse_options(&args).unwrap();
        assert_eq!(opts.spill.mode, SpillMode::On);
        assert_eq!(opts.spill.dir.as_deref(), Some(std::path::Path::new("/tmp/s")));
        assert_eq!(opts.limits.max_state_bytes, Some(1 << 20));

        let args: Vec<String> = ["--spill", "off", "x"].iter().map(|s| s.to_string()).collect();
        let (opts, _, _, _, _, _) = parse_options(&args).unwrap();
        assert_eq!(opts.spill.mode, SpillMode::Off);

        assert!(parse_options(&["--spill=sideways".to_string()]).is_err());
        assert!(parse_options(&["--spill".to_string()]).is_err());
        // `on` without a directory or without a budget is rejected up front.
        let e = parse_options(
            &["--spill=on".to_string(), "--max-mem".to_string(), "1m".to_string()],
        )
        .unwrap_err();
        assert!(e.contains("--spill-dir"), "{}", e);
        let e = parse_options(&[
            "--spill=on".to_string(),
            "--spill-dir".to_string(),
            "/tmp/s".to_string(),
        ])
        .unwrap_err();
        assert!(e.contains("--max-mem"), "{}", e);
    }

    #[test]
    fn exec_flag_both_spellings() {
        use estelle_runtime::ExecMode;
        let (opts, _, _, _, _, _) = parse_options(&["x".to_string()]).unwrap();
        assert_eq!(opts.exec_mode, ExecMode::Auto, "auto selection is default");
        let (opts, _, _, _, _, _) =
            parse_options(&["--exec=interp".to_string(), "x".to_string()]).unwrap();
        assert_eq!(opts.exec_mode, ExecMode::Interp);
        let (opts, _, _, _, _, _) =
            parse_options(&["--exec".to_string(), "compiled".to_string()]).unwrap();
        assert_eq!(opts.exec_mode, ExecMode::Compiled);
        let (opts, _, _, _, _, _) =
            parse_options(&["--exec=auto".to_string(), "x".to_string()]).unwrap();
        assert_eq!(opts.exec_mode, ExecMode::Auto);
        // Unknown modes are rejected up front, naming the accepted set.
        let e = parse_options(&["--exec=jit".to_string()]).unwrap_err();
        assert!(e.contains("`auto`"), "{}", e);
        assert!(e.contains("`compiled`"), "{}", e);
        assert!(e.contains("`interp`"), "{}", e);
        assert!(parse_options(&["--exec".to_string()]).is_err());
    }

    #[test]
    fn pgo_flags_both_spellings() {
        let args: Vec<String> = ["--pgo-out", "/tmp/p.pgo", "--pgo-in=/tmp/q.pgo", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, _, _, tflags, _, _) = parse_options(&args).unwrap();
        assert_eq!(tflags.pgo_out.as_deref(), Some(std::path::Path::new("/tmp/p.pgo")));
        assert_eq!(tflags.pgo_in.as_deref(), Some(std::path::Path::new("/tmp/q.pgo")));
        assert!(parse_options(&["--pgo-out".to_string()]).is_err());
        assert!(parse_options(&["--pgo-in".to_string()]).is_err());
    }

    #[test]
    fn flight_recorder_flag_both_spellings_and_default_on() {
        let (_, _, _, tflags, _, _) = parse_options(&["x".to_string()]).unwrap();
        assert!(!tflags.recorder_off, "the black box is on by default");

        let (_, _, _, tflags, _, _) =
            parse_options(&["--flight-recorder=off".to_string(), "x".to_string()]).unwrap();
        assert!(tflags.recorder_off);
        let (_, _, _, tflags, _, _) = parse_options(&[
            "--flight-recorder".to_string(),
            "on".to_string(),
            "x".to_string(),
        ])
        .unwrap();
        assert!(!tflags.recorder_off);
        assert!(parse_options(&["--flight-recorder=maybe".to_string()]).is_err());
        assert!(parse_options(&["--flight-recorder".to_string()]).is_err());
    }

    #[test]
    fn dump_file_and_listen_flags_parse() {
        let args: Vec<String> = ["--dump-file=/tmp/d.tangodump", "--listen", "127.0.0.1:0", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, _, _, tflags, _, _) = parse_options(&args).unwrap();
        assert_eq!(
            tflags.dump_path(),
            PathBuf::from("/tmp/d.tangodump"),
            "--dump-file overrides the default destination"
        );
        assert_eq!(tflags.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            opts.listen.as_deref(),
            Some("127.0.0.1:0"),
            "--listen threads through AnalysisOptions too"
        );

        let (opts, _, _, tflags, _, _) = parse_options(&["x".to_string()]).unwrap();
        assert_eq!(tflags.dump_path(), PathBuf::from(DEFAULT_DUMP_FILE));
        assert!(tflags.listen.is_none());
        assert!(opts.listen.is_none());
        assert!(parse_options(&["--dump-file".to_string()]).is_err());
        assert!(parse_options(&["--listen".to_string()]).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_round_trip() {
        // --chaos-seed derives the same plan the library derives.
        let args: Vec<String> = ["--chaos-seed", "7", "x"].iter().map(|s| s.to_string()).collect();
        let (_, _, _, _, _, chaos) = parse_options(&args).unwrap();
        let plan = chaos.expect("plan armed");
        assert_eq!(plan, FaultPlan::random(7));

        // The echoed describe() line re-arms the identical plan through
        // --fault-plan: log line → exact reproduction.
        let spec = plan.describe();
        let (_, _, _, _, _, chaos) =
            parse_options(&[format!("--fault-plan={}", spec), "x".to_string()]).unwrap();
        assert_eq!(chaos.unwrap(), plan);

        let (_, _, _, _, _, chaos) = parse_options(&["x".to_string()]).unwrap();
        assert!(chaos.is_none(), "unarmed by default");
        assert!(parse_options(&["--chaos-seed".to_string()]).is_err());
        assert!(parse_options(&["--chaos-seed=pi".to_string()]).is_err());
        assert!(parse_options(&["--fault-plan=bogus.knob=1".to_string()]).is_err());
    }
}
