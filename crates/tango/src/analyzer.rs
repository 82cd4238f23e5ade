//! The generated trace analyzer — Tango's end product.
//!
//! [`Tango::generate`] plays the role of running the Tango tool on an
//! Estelle specification: it produces a [`TraceAnalyzer`], the analog of
//! the compiled TAM executable. The analyzer then checks traces in static
//! mode ([`TraceAnalyzer::analyze`]) or on-line dynamic mode
//! ([`TraceAnalyzer::analyze_online`]), supports the runtime options of
//! §2.4, and doubles as an implementation generator (§4.1's methodology).

use crate::checkpoint::{Checkpoint, CheckpointBody};
use crate::error::TangoError;
use crate::genimpl::{run_implementation, ChoicePolicy, ScriptedInput};
use crate::options::AnalysisOptions;
use crate::search::dfs::{resume_dfs, run_dfs, DfsOutcome};
use crate::search::mdfs::run_mdfs;
use crate::stats::SearchStats;
use crate::telemetry::{PgoError, PgoProfile, Telemetry};
use crate::trace::format::parse_trace;
use crate::trace::source::TraceSource;
use crate::trace::{ResolvedTrace, Trace};
use crate::env::TraceEnv;
use crate::verdict::{AnalysisReport, Verdict};
use estelle_frontend::sema::model::{AnalyzedModule, StateId};
use estelle_runtime::Machine;

/// The trace-analysis tool generator.
pub struct Tango;

impl Tango {
    /// Generate a trace analyzer from Estelle source — the whole pipeline
    /// the paper builds from Pet + Dingo + the Tango additions.
    pub fn generate(source: &str) -> Result<TraceAnalyzer, TangoError> {
        Ok(TraceAnalyzer::from_machine(Machine::from_source(source)?))
    }
}

/// A generated trace analysis module (TAM).
pub struct TraceAnalyzer {
    pub machine: Machine,
}

impl std::fmt::Debug for TraceAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceAnalyzer")
            .field("module", &self.module().module_name)
            .field("transitions", &self.machine.module.transition_count())
            .finish()
    }
}

impl TraceAnalyzer {
    pub fn from_machine(machine: Machine) -> Self {
        TraceAnalyzer { machine }
    }

    /// The analyzed specification model (IP names, states, types …).
    pub fn module(&self) -> &AnalyzedModule {
        &self.machine.module.analyzed
    }

    /// Display names of every compiled transition, indexed by id — what
    /// `Telemetry::with_transition_names` wants for dump hot-spot rows
    /// and the `/profile` endpoint.
    pub fn transition_names(&self) -> Vec<String> {
        (0..self.machine.module.transition_count())
            .map(|i| self.machine.transition_name(i).to_string())
            .collect()
    }

    /// Snapshot a recorded [`TransitionProfile`] into the serializable
    /// `--pgo-out` form, tagged with this analyzer's spec name and
    /// transition names for later validation.
    pub fn pgo_snapshot(&self, profile: &crate::telemetry::TransitionProfile) -> PgoProfile {
        PgoProfile::from_profile(&self.module().spec_name, profile, &|i| {
            self.machine.transition_name(i).to_string()
        })
    }

    /// Apply a previously recorded PGO profile to the compiled program:
    /// dispatch buckets are reordered by observed fire rate and
    /// conjunctive guard terms are re-sorted cheapest-first. The profile
    /// is validated like a checkpoint first — spec name, transition
    /// count and every transition name must match this analyzer, or a
    /// typed [`PgoError`] is returned and nothing changes. Verdicts and
    /// the TE/GE/RE/SA counters are identical with or without PGO.
    pub fn apply_pgo(&mut self, profile: &PgoProfile) -> Result<(), PgoError> {
        let hints = profile.hints_for(
            &self.module().spec_name,
            self.machine.module.transition_count(),
            &|i| self.machine.transition_name(i).to_string(),
        )?;
        self.machine.apply_pgo(&hints);
        Ok(())
    }

    /// Parse a trace file and analyze it (static mode).
    pub fn analyze_text(
        &self,
        trace_text: &str,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_text_with(trace_text, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_text`] with a telemetry handle.
    pub fn analyze_text_with(
        &self,
        trace_text: &str,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let trace = parse_trace(trace_text, Some(self.module()))?;
        self.analyze_with(&trace, options, tel)
    }

    /// Analyze a complete trace (static mode).
    pub fn analyze(
        &self,
        trace: &Trace,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_with(trace, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze`] with a telemetry handle receiving the
    /// search-event stream, metrics, progress heartbeats and the
    /// per-transition profile (whichever facilities the handle enables).
    pub fn analyze_with(
        &self,
        trace: &Trace,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let resolved = ResolvedTrace::resolve(trace, self.module())?;
        self.analyze_resolved_with(resolved, options, tel)
    }

    /// Analyze an already resolved trace (static mode), applying the
    /// §2.4.1 initial-state search when enabled.
    pub fn analyze_resolved(
        &self,
        trace: ResolvedTrace,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_resolved_with(trace, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_resolved`] with a telemetry handle. One
    /// handle covers the whole analysis: initial-state-search rounds
    /// continue the same event stream (one `meta` line, monotone
    /// sequence numbers).
    pub fn analyze_resolved_with(
        &self,
        trace: ResolvedTrace,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let machine = self
            .machine
            .policy_view(options.policy)
            .exec_view(options.exec_mode);
        let mut stats = SearchStats::default();
        tel.begin("dfs", &self.module().module_name);

        let mut env = TraceEnv::new(self.module(), trace.clone(), options, false)?;
        let start = machine.initial_state()?;
        let outcome = run_dfs(&machine, &mut env, start, options, &mut stats, tel)?;
        let mut report = report_from_outcome(&machine, outcome, stats, &trace);

        // §2.4.1: on failure, "backtrack to the point right after the
        // initialize transition was taken, choose another initial FSM
        // state, and begin the analysis again".
        if report.verdict == Verdict::Invalid && options.initial_state_search {
            let default_init = self.machine.module.init_to;
            for sid in 0..self.module().states.len() {
                let sid = StateId(sid as u32);
                if sid == default_init {
                    continue;
                }
                let mut env = TraceEnv::new(self.module(), trace.clone(), options, false)?;
                let start = machine.initial_state_at(sid)?;
                let mut stats = SearchStats::default();
                let outcome = run_dfs(&machine, &mut env, start, options, &mut stats, tel)?;
                report.stats.absorb(&stats);
                report.spec_errors.extend(outcome.spec_errors);
                report.spill_faults.extend(outcome.spill_faults);
                if outcome.verdict == Verdict::Valid {
                    report.verdict = Verdict::Valid;
                    report.witness = outcome.witness.map(|p| p.names(&machine));
                    report.initial_state_used =
                        Some(self.module().state_name(sid).to_string());
                    break;
                }
                if let Verdict::Inconclusive(r) = outcome.verdict {
                    report.verdict = Verdict::Inconclusive(r);
                    break;
                }
            }
        }
        Ok(report)
    }

    /// Continue an analysis stopped on a resource limit (static mode).
    ///
    /// `checkpoint` comes from the [`AnalysisReport::checkpoint`] of the
    /// stopped run; `options` should differ from the original ones only in
    /// raised limits — the checking options must stay the same for the
    /// combined verdict to be meaningful. Counters continue rather than
    /// restart: after any number of stop/resume rounds, the final
    /// TE/GE/RE/SA totals equal those of an uninterrupted run. The
    /// §2.4.1 initial-state search is not re-entered on resume; resume the
    /// default-state search to its own conclusion instead.
    pub fn analyze_resume(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_resume_with(checkpoint, options, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_resume`] with a telemetry handle. Reusing
    /// one handle across stop/resume rounds produces one continuous event
    /// stream for the whole logical analysis.
    pub fn analyze_resume_with(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        let machine = self
            .machine
            .policy_view(options.policy)
            .exec_view(options.exec_mode);
        checkpoint
            .validate_against(self.module(), self.machine.module.transition_count())
            .map_err(|m| TangoError::Env(crate::env::EnvError(format!("resume: {}", m))))?;
        let Checkpoint { body, trace, stats } = checkpoint;
        let dfs = match body {
            CheckpointBody::Dfs(dfs) => dfs,
            CheckpointBody::Mdfs(_) => {
                return Err(TangoError::Env(crate::env::EnvError(
                    "resume: on-line (MDFS) checkpoint — use analyze_online_resume".into(),
                )))
            }
        };
        let mut stats = stats;
        tel.begin("dfs", &self.module().module_name);
        let mut env = TraceEnv::new(self.module(), trace.clone(), options, false)?;
        let outcome = resume_dfs(&machine, &mut env, dfs, options, &mut stats, tel)?;
        Ok(report_from_outcome(&machine, outcome, stats, &trace))
    }

    /// On-line analysis of a dynamic trace (§3): multi-threaded DFS with
    /// PG-nodes and dynamic node reordering. Runs until the source reaches
    /// end-of-file (then returns a conclusive verdict) or until the trace
    /// is conclusively invalid. `on_status` observes interim verdicts each
    /// time the known search tree is exhausted; returning `false` stops
    /// the analysis and reports the interim verdict.
    pub fn analyze_online(
        &self,
        source: &mut dyn TraceSource,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_online_with(source, options, on_status, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_online`] with a telemetry handle.
    pub fn analyze_online_with(
        &self,
        source: &mut dyn TraceSource,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        tel.begin("mdfs", &self.module().module_name);
        run_mdfs(&self.machine, self.module(), source, options, on_status, tel)
    }

    /// Continue an on-line analysis stopped on a resource limit.
    ///
    /// Only checkpoints saved *after* the trace source reached end-of-file
    /// are resumable (before eof the remaining events are unknowable, so a
    /// saved front could not be replayed faithfully). The checkpoint may be
    /// resumed at a different worker count than it was saved at: the saved
    /// search front is redistributed over the resolved worker set.
    pub fn analyze_online_resume(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
    ) -> Result<AnalysisReport, TangoError> {
        self.analyze_online_resume_with(checkpoint, options, on_status, &mut Telemetry::off())
    }

    /// [`TraceAnalyzer::analyze_online_resume`] with a telemetry handle.
    pub fn analyze_online_resume_with(
        &self,
        checkpoint: Checkpoint,
        options: &AnalysisOptions,
        on_status: &mut dyn FnMut(&Verdict) -> bool,
        tel: &mut Telemetry,
    ) -> Result<AnalysisReport, TangoError> {
        checkpoint
            .validate_against(self.module(), self.machine.module.transition_count())
            .map_err(|m| TangoError::Env(crate::env::EnvError(format!("resume: {}", m))))?;
        let Checkpoint { body, trace, stats } = checkpoint;
        let mdfs = match body {
            CheckpointBody::Mdfs(m) => m,
            CheckpointBody::Dfs(_) => {
                return Err(TangoError::Env(crate::env::EnvError(
                    "resume: static (DFS) checkpoint — use analyze_resume".into(),
                )))
            }
        };
        if !mdfs.eof {
            return Err(TangoError::Env(crate::env::EnvError(
                "resume: only eof-reached on-line checkpoints are resumable".into(),
            )));
        }
        tel.begin("mdfs", &self.module().module_name);
        crate::search::mdfs::resume_mdfs(
            &self.machine,
            self.module(),
            mdfs,
            trace,
            stats,
            options,
            on_status,
            tel,
        )
    }

    /// Implementation-generation mode (§4.1 methodology): execute the
    /// specification against scripted inputs, logging a valid trace.
    pub fn generate_trace(
        &self,
        script: &[ScriptedInput],
        choice: ChoicePolicy,
        max_steps: u64,
    ) -> Result<Trace, TangoError> {
        run_implementation(&self.machine, script, choice, max_steps)
    }
}

/// Assemble a report from a raw DFS outcome: failure localization for
/// invalid traces, a resumable checkpoint for limit-stopped ones. The
/// search's paths become transition names here, once.
fn report_from_outcome(
    machine: &Machine,
    outcome: DfsOutcome,
    stats: SearchStats,
    trace: &ResolvedTrace,
) -> AnalysisReport {
    let mut report = AnalysisReport::new(outcome.verdict, stats);
    report.witness = outcome.witness.map(|p| p.names(machine));
    report.spec_errors = outcome.spec_errors;
    report.spill_faults = outcome.spill_faults;
    if report.verdict == Verdict::Invalid {
        report.best_effort = Some(crate::verdict::BestEffort {
            events_explained: outcome.best.0,
            events_total: outcome.total_events,
            path: outcome.best.1.names(machine),
        });
    }
    if let Some(dfs) = outcome.checkpoint {
        report.checkpoint = Some(Box::new(Checkpoint {
            body: CheckpointBody::Dfs(dfs),
            trace: trace.clone(),
            stats: report.stats.clone(),
        }));
    }
    report
}
