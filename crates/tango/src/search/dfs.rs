//! Depth-first search trace analysis (static mode, §2.2).
//!
//! The classic backtracking loop over the machine's four operations:
//! generate, update, save, restore. Counter semantics follow the paper's
//! tables: one *generate* (GE) per node expansion, one *transition
//! executed* (TE) per fire attempt, a *save* (SA) only when a node has
//! more than one fireable transition (nothing to come back for otherwise),
//! and a *restore* (RE) per actual backtrack.
//!
//! Extensions beyond the paper:
//!
//! * a visited-state hash table (flagged off by default) pruning
//!   re-exploration of identical (machine state, cursor) pairs — the
//!   approach §4.2 suggests as future work for taming the exponential
//!   analysis of invalid TP0 traces;
//! * copy-on-write *Save*/*Restore* through the one-shard
//!   [`super::store::ShardedStore`] the MDFS uses too: saved states share
//!   heap chunks with the live state, so a save costs O(touched chunks)
//!   instead of O(state) — §3.2's dominant cost — and a frame's last
//!   child takes its state back without any copy. Under `--max-mem` the
//!   store interns identical snapshots and spills cold ones to disk;
//! * the search path is a shared-prefix [`SearchPath`] of transition
//!   indices: a step pushes one node, each frame keeps a handle on its
//!   own prefix (a backtrack resets the path in O(1)), and recording the
//!   best attempt is a handle clone. No step copies the path or builds a
//!   transition name, so a valid trace that needs no deep backtracking is
//!   analysed in time linear in its length (§4.2), not only in TE;
//! * resource governance: a wall-clock deadline and a snapshot-memory
//!   budget, checked cooperatively *before* each step mutates anything, so
//!   that stopping on any limit freezes an exactly resumable
//!   [`DfsCheckpoint`]. Resuming with raised limits continues the search
//!   where it stopped: no work is repeated and the TE/GE/RE/SA totals come
//!   out identical to an uninterrupted run.

use crate::env::TraceEnv;
use crate::error::TangoError;
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, Telemetry};
use crate::verdict::{InconclusiveReason, Verdict};
use estelle_runtime::{FireOutcome, Fireable, FxHasher, Machine, MachineState, RuntimeError};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use super::spill::SpillError;
use super::store::{stamp_store, CarryBase, FxBuildHasher, ShardedStore, StoreHandle};
use super::{guard, is_fatal, record_error, SearchPath};

/// Result of the raw search (before initial-state-search wrapping).
#[derive(Debug)]
pub struct DfsOutcome {
    pub verdict: Verdict,
    pub witness: Option<SearchPath>,
    pub spec_errors: Vec<RuntimeError>,
    /// The most-explaining attempt: (events consumed+verified, its path).
    pub best: (usize, SearchPath),
    /// Checkable events in the trace (outstanding at search start).
    pub total_events: usize,
    /// Present when the verdict is `Inconclusive`: the frozen search,
    /// resumable via [`resume_dfs`].
    pub checkpoint: Option<DfsCheckpoint>,
    /// Spill-tier faults: reopen warnings (torn crash tails) and, on
    /// `Inconclusive(SpillFailure)`, the unrecoverable error.
    pub spill_faults: Vec<String>,
}

/// One backtracking frame. `S` is where its saved state lives: a store
/// handle while the search runs, the state itself inside a checkpoint
/// (frames carry their snapshots inline, like MDFS nodes).
#[derive(Clone, Debug)]
pub(crate) struct Frame<S = StoreHandle> {
    pub(crate) state: S,
    pub(crate) cursors: crate::env::Cursors,
    pub(crate) fireable: Vec<Fireable>,
    pub(crate) next: usize,
    /// The path to this node — a prefix of the current path, which a
    /// backtrack to the frame resets to.
    pub(crate) path: SearchPath,
    /// Consecutive barren steps on the path up to this node.
    pub(crate) barren: usize,
}

/// The complete mutable state of a stopped [`search`], captured before
/// the step that would have exceeded a limit. Opaque outside the crate;
/// carried by [`crate::checkpoint::Checkpoint`].
#[derive(Clone, Debug)]
pub struct DfsCheckpoint {
    pub(crate) state: MachineState,
    pub(crate) cursors: crate::env::Cursors,
    pub(crate) path: SearchPath,
    pub(crate) stack: Vec<Frame<MachineState>>,
    pub(crate) visited: HashSet<u64, FxBuildHasher>,
    pub(crate) spec_errors: Vec<RuntimeError>,
    pub(crate) best: (usize, SearchPath),
    pub(crate) total_events: usize,
    pub(crate) barren: usize,
    pub(crate) at_node: bool,
}

impl DfsCheckpoint {
    /// Depth of the search path at the stop point.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Saved backtracking frames awaiting exploration.
    pub fn pending_frames(&self) -> usize {
        self.stack.len()
    }

    /// Checkable events in the trace under analysis.
    pub fn events_total(&self) -> usize {
        self.total_events
    }
}

enum Init {
    Fresh(MachineState),
    Resume(Box<DfsCheckpoint>),
}

/// Run a depth-first search from `start` against the trace in `env`.
pub fn run_dfs(
    machine: &Machine,
    env: &mut TraceEnv,
    start: MachineState,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let t0 = Instant::now();
    let result = search(machine, env, Init::Fresh(start), options, stats, tel);
    stats.wall_time += t0.elapsed();
    if let Ok(o) = &result {
        tel.on_verdict(&o.verdict, stats, options.limits.max_transitions);
    }
    result
}

/// Continue a search stopped on a resource limit. `stats` must be the
/// counters accumulated up to the stop (they continue, not restart), and
/// `env` a fresh environment over the same trace — the checkpoint
/// repositions its cursors. `options` should differ from the original run
/// only in its limits; changing checking options mid-search would make the
/// combined verdict meaningless.
pub fn resume_dfs(
    machine: &Machine,
    env: &mut TraceEnv,
    checkpoint: DfsCheckpoint,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let t0 = Instant::now();
    let result = search(
        machine,
        env,
        Init::Resume(Box::new(checkpoint)),
        options,
        stats,
        tel,
    );
    stats.wall_time += t0.elapsed();
    if let Ok(o) = &result {
        tel.on_verdict(&o.verdict, stats, options.limits.max_transitions);
    }
    result
}

fn search(
    machine: &Machine,
    env: &mut TraceEnv,
    init: Init,
    options: &AnalysisOptions,
    stats: &mut SearchStats,
    tel: &mut Telemetry,
) -> Result<DfsOutcome, TangoError> {
    let mut state;
    let mut path: SearchPath;
    let mut stack: Vec<Frame>;
    let mut visited: HashSet<u64, FxBuildHasher>;
    let mut spec_errors: Vec<RuntimeError>;
    let total_events;
    // Failure localization: the attempt that explained the most events
    // (a handle on its path, so recording it is O(1)).
    let mut best: (usize, SearchPath);
    // Consecutive steps without observable progress on the current path.
    let mut barren: usize;
    // `true`: we just arrived at a (possibly new) node and must expand it;
    // `false`: the last expansion failed and we must backtrack.
    let mut at_node: bool;

    // Set when the search broke mid-step on a spill read failure: the
    // loop variables are no longer a coherent stop point, so no
    // checkpoint is offered.
    let mut spill_broke_midstep = false;

    // A resumed search gets a fresh wall-clock allowance. Computed before
    // the store opens its tier so spill retry sleeps are clamped to the
    // same deadline the search loop enforces.
    let deadline = options.limits.max_wall_time.map(|d| Instant::now() + d);
    // The snapshot store owns every saved frame state and the byte
    // accounting the memory budget governs.
    let store = match ShardedStore::build(options, deadline, 1) {
        Ok(s) => s,
        Err(e) => {
            // The spill directory itself is unusable. Degrade before
            // touching anything; a resume keeps its checkpoint.
            let (total_events, checkpoint) = match init {
                Init::Fresh(_) => (env.outstanding(), None),
                Init::Resume(cp) => (cp.total_events, Some(*cp)),
            };
            return Ok(DfsOutcome {
                verdict: Verdict::Inconclusive(InconclusiveReason::SpillFailure),
                witness: None,
                spec_errors: Vec::new(),
                best: (0, SearchPath::new()),
                total_events,
                checkpoint,
                spill_faults: vec![e.to_string()],
            });
        }
    };
    // Spill-tier faults accumulated over the run (reopen warnings, and
    // the terminal error when the run degrades to `SpillFailure`).
    let mut spill_faults = store.take_warnings();
    // Spill and intern counters continue across stop/resume rounds: the
    // store counts from zero each open, so the stats add onto what the
    // round inherited.
    let carry = CarryBase::of(stats);

    match init {
        Init::Fresh(s) => {
            state = s;
            path = SearchPath::new();
            stack = Vec::new();
            visited = HashSet::default();
            spec_errors = Vec::new();
            total_events = env.outstanding();
            best = (0, SearchPath::new());
            barren = 0;
            at_node = true;
        }
        Init::Resume(cp) => {
            let cp = *cp;
            env.restore(&cp.cursors);
            state = cp.state;
            path = cp.path;
            // Re-save the surviving frames into the fresh store; its
            // byte gauge is re-derived from them, never carried over.
            stack = cp
                .stack
                .into_iter()
                .map(|f| Frame {
                    state: store.save(0, f.state).0,
                    cursors: f.cursors,
                    fireable: f.fireable,
                    next: f.next,
                    path: f.path,
                    barren: f.barren,
                })
                .collect();
            visited = cp.visited;
            spec_errors = cp.spec_errors;
            total_events = cp.total_events;
            best = cp.best;
            barren = cp.barren;
            at_node = cp.at_node;
        }
    }

    // Per-search *Generate* scratch, refilled in place by `generate_into`:
    // single-child expansions (the overwhelmingly common case on valid
    // traces) reuse the same fireable buffer instead of allocating a fresh
    // `Generated` per node; only multi-child nodes move the buffer into
    // their backtracking frame.
    let mut gen = estelle_runtime::Generated::default();

    let reason = loop {
        stamp_store(stats, &carry, &store);
        tel.tick(stats, options.limits.max_transitions);
        // Governance, checked before the next step mutates anything: a
        // `break` here freezes the loop variables into an exactly
        // resumable checkpoint.
        if store.is_poisoned() {
            spill_faults.extend(store.take_fault().map(|e| e.to_string()));
            break InconclusiveReason::SpillFailure;
        }
        if stats.transitions_executed > options.limits.max_transitions {
            break InconclusiveReason::TransitionLimit;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break InconclusiveReason::TimeLimit;
        }
        // With a spill tier the budget is a tiering policy, not a stop
        // condition: the store's eviction holds residency at the budget.
        if !store.spill_enabled()
            && options
                .limits
                .max_state_bytes
                .is_some_and(|cap| stats.snapshot_bytes > cap)
        {
            break InconclusiveReason::MemoryLimit;
        }

        if at_node {
            let explained = total_events - env.outstanding();
            if explained > best.0 {
                best = (explained, path.clone());
            }
            if env.all_done() {
                return Ok(DfsOutcome {
                    verdict: Verdict::Valid,
                    witness: Some(path),
                    spec_errors,
                    best,
                    total_events,
                    checkpoint: None,
                    spill_faults,
                });
            }
            if path.len() >= options.limits.max_depth {
                break InconclusiveReason::DepthLimit;
            }
            if options.state_hashing {
                let key = fingerprint(&state, &env.cursors);
                if !visited.insert(key) {
                    stats.hash_prunes += 1;
                    tel.on_prune(path.len(), PruneKind::Hash);
                    at_node = false;
                    continue;
                }
            }
            stats.max_depth = stats.max_depth.max(path.len());

            stats.generates += 1;
            let gen_t0 = tel.timer();
            match guard("generate", || {
                machine.generate_into(&mut state, env, &mut gen)
            }) {
                Ok(()) => {}
                Err(e) if is_fatal(&e) => return Err(TangoError::Runtime(e)),
                Err(e) => {
                    tel.on_error_branch(path.len(), e.kind);
                    record_error(&mut spec_errors, stats, e);
                    // Keep the GE == generate-events invariant: the failed
                    // expansion is an event with zero fanout.
                    tel.on_generate(path.len(), 0, false, gen_t0);
                    at_node = false;
                    continue;
                }
            };
            tel.on_generate(path.len(), gen.fireable.len(), gen.incomplete, gen_t0);
            if gen.fireable.is_empty() {
                at_node = false;
                continue;
            }
            stats.fanout_sum += gen.fireable.len() as u64;
            stats.fanout_samples += 1;

            let first = gen.fireable[0].clone();
            if gen.fireable.len() > 1 {
                stats.saves += 1;
                let (handle, interned) = store.save(0, state.snapshot());
                if tel.hot() {
                    let charged = if interned { 0 } else { handle.state_bytes };
                    tel.on_save(path.len(), charged, interned, store.resident_bytes());
                }
                stack.push(Frame {
                    state: handle,
                    cursors: env.save(),
                    fireable: std::mem::take(&mut gen.fireable),
                    next: 1,
                    path: path.clone(),
                    barren,
                });
            }
            let before = env.outstanding();
            match try_fire(machine, &mut state, &first, env, stats, &mut spec_errors, tel, path.len())? {
                true => {
                    if env.outstanding() < before {
                        barren = 0;
                    } else {
                        barren += 1;
                    }
                    if barren > options.limits.max_barren_steps {
                        stats.barren_prunes += 1;
                        tel.on_prune(path.len(), PruneKind::Barren);
                        at_node = false;
                    } else {
                        path.push(first.trans);
                    }
                }
                false => at_node = false,
            }
        } else {
            // Backtrack to the nearest frame with untried children.
            let Some(top) = stack.last_mut() else {
                return Ok(DfsOutcome {
                    verdict: Verdict::Invalid,
                    witness: None,
                    spec_errors,
                    best,
                    total_events,
                    checkpoint: None,
                    spill_faults,
                });
            };
            if top.next >= top.fireable.len() {
                let frame = stack.pop().expect("stack non-empty");
                store.release(frame.state);
                continue;
            }
            stats.restores += 1;
            tel.on_restore(path.len());
            // The last child takes the frame's state without a copy.
            let (f, restored) = if top.next == top.fireable.len() - 1 {
                let frame = stack.pop().expect("stack non-empty");
                env.restore(&frame.cursors);
                path = frame.path;
                barren = frame.barren;
                (frame.fireable[frame.next].clone(), store.take(frame.state))
            } else {
                top.next += 1;
                env.restore(&top.cursors);
                path = top.path.clone();
                barren = top.barren;
                (top.fireable[top.next - 1].clone(), store.materialize(top.state))
            };
            state = match restored {
                Ok(s) => s,
                Err(e) => {
                    // The snapshot's disk copy is unreadable: the loop
                    // variables are no longer a coherent stop point.
                    spill_faults.push(e.to_string());
                    spill_broke_midstep = true;
                    break InconclusiveReason::SpillFailure;
                }
            };
            let before = env.outstanding();
            match try_fire(machine, &mut state, &f, env, stats, &mut spec_errors, tel, path.len())? {
                true => {
                    if env.outstanding() < before {
                        barren = 0;
                    } else {
                        barren += 1;
                    }
                    if barren > options.limits.max_barren_steps {
                        stats.barren_prunes += 1;
                        tel.on_prune(path.len(), PruneKind::Barren);
                        // stay backtracking
                    } else {
                        path.push(f.trans);
                        at_node = true;
                    }
                }
                false => { /* stay backtracking */ }
            }
        }
    };

    stamp_store(stats, &carry, &store);
    // A checkpoint carries every frame's snapshot inline, so spilled
    // frames are faulted back in. A read failure here costs the
    // checkpoint (reported as a fault), never a panic.
    let checkpoint = if spill_broke_midstep {
        None
    } else {
        let frozen: Result<Vec<Frame<MachineState>>, SpillError> = stack
            .into_iter()
            .map(|f| {
                Ok(Frame {
                    state: store.materialize(f.state)?,
                    cursors: f.cursors,
                    fireable: f.fireable,
                    next: f.next,
                    path: f.path,
                    barren: f.barren,
                })
            })
            .collect();
        match frozen {
            Ok(stack) => Some(DfsCheckpoint {
                cursors: env.save(),
                state,
                path,
                stack,
                visited,
                spec_errors: spec_errors.clone(),
                best: best.clone(),
                total_events,
                barren,
                at_node,
            }),
            Err(e) => {
                spill_faults.push(format!("checkpoint dropped: {}", e));
                None
            }
        }
    };
    Ok(DfsOutcome {
        verdict: Verdict::Inconclusive(reason),
        witness: None,
        spec_errors,
        best,
        total_events,
        checkpoint,
        spill_faults,
    })
}

/// Fire one candidate; `Ok(true)` when the transition completed and all of
/// its outputs were matched.
#[allow(clippy::too_many_arguments)]
fn try_fire(
    machine: &Machine,
    state: &mut MachineState,
    f: &Fireable,
    env: &mut TraceEnv,
    stats: &mut SearchStats,
    spec_errors: &mut Vec<RuntimeError>,
    tel: &mut Telemetry,
    depth: usize,
) -> Result<bool, TangoError> {
    stats.transitions_executed += 1;
    let t0 = tel.timer();
    env.begin_fire();
    let result = match guard("fire", || machine.fire(state, f, env)) {
        Ok(FireOutcome::Completed) => Ok(env.end_fire()),
        Ok(FireOutcome::OutputRejected) => Ok(false),
        Err(e) if is_fatal(&e) => Err(TangoError::Runtime(e)),
        Err(e) => {
            tel.on_error_branch(depth, e.kind);
            record_error(spec_errors, stats, e);
            Ok(false)
        }
    };
    if tel.hot() {
        let fired = matches!(result, Ok(true));
        let observable = if tel.events_on() {
            machine.transition_observable(f.trans)
        } else {
            None
        };
        tel.on_fire(
            depth,
            f.trans,
            machine.transition_name(f.trans),
            observable,
            fired,
            t0,
        );
    }
    result
}

/// Hash of (machine state, trace cursors) for the visited-set extension.
/// Uses the same fast content hasher as the snapshot store's keys.
pub fn fingerprint(state: &MachineState, cursors: &crate::env::Cursors) -> u64 {
    let mut h = FxHasher::default();
    state.control.hash(&mut h);
    state.globals.hash(&mut h);
    state.heap.hash(&mut h);
    cursors.hash(&mut h);
    h.finish()
}
