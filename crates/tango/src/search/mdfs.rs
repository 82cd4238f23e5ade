//! Multi-threaded depth-first search (§3.1) for on-line trace analysis.
//!
//! Standard DFS deadlocks on dynamic traces: a branch may be blocked only
//! because an input queue is temporarily empty, while the real solution is
//! elsewhere — or right here once more data arrives. MDFS therefore keeps
//! every node whose transition list was *incomplete* (an input queue was
//! exhausted but may still grow) as a saved **PG-node** "thread" and
//! re-generates it when new input arrives.
//!
//! Implementation notes mapping to the paper:
//! * each search node carries its own state snapshot plus the set of
//!   transitions already explored from it, so a re-generate only explores
//!   what the new input enabled (§3.1.1's "additional transitions");
//! * *dynamic node reordering* (§3.1.3): whenever new input arrives the
//!   PG-nodes are pushed on **top** of the work stack, putting the rest of
//!   the tree "on hold";
//! * termination (§3.1.2): `Invalid` only when the tree is exhausted and
//!   no PG-nodes remain; a PG-node that has consumed and verified
//!   everything received so far is a **PGAV-node** and yields the interim
//!   verdict `ValidSoFar`; cycling through non-AV PG-nodes yields
//!   `LikelyInvalid`; the `eof` marker freezes the trace, turns PG-nodes
//!   into fully generated ones, and forces a conclusive verdict;
//! * an output that cannot be matched *yet* (its stream may still grow)
//!   does not count as explored, so the branch is retried later — the
//!   output-side dual of an incomplete transition list;
//! * each node's path is a shared-prefix [`SearchPath`] of transition
//!   indices: a child's path is one push onto its parent's and a
//!   duplicated node shares its handle, so no expansion copies a path;
//!   the witness becomes transition names once, in the report.
//!
//! # One engine, N workers (DESIGN §6.13)
//!
//! The search runs in **bursts**: only the coordinator polls the source,
//! and each DFS burst (the work between two polls, over a frozen trace)
//! is drained by `workers` burst workers pulling from per-worker
//! work-stealing deques (owner pops LIFO, thieves steal FIFO from the
//! top, round-robin scan, short parks when every deque is empty). Worker
//! 0 runs on the coordinator thread; only workers 1..N−1 are spawned.
//! Node snapshots live in the [`ShardedStore`], one shard per worker:
//! a worker saves into its own shard and evicts only from it, within its
//! share of the memory budget. `workers = 1` (the default) is the
//! degenerate case: one worker, one deque, one store shard, no thread
//! spawned — the classic single-consumer MDFS loop.
//!
//! Determinism: within a burst the trace is frozen, so each node's
//! expansion is a pure function of (state, cursors, trace) and the search
//! *tree* is schedule-independent; per-worker counter deltas merged at
//! the barrier therefore equal the one-worker totals exactly. Pre-eof
//! bursts can never conclude `Valid` (an all-done node pre-eof parks as a
//! PGAV), and parked nodes are re-ordered by their deterministic park
//! labels, so interim verdicts match too. A one-worker post-eof burst
//! pops in sequential order, so its first witness is the sequential
//! witness. An N-worker post-eof burst that finds *any* witness aborts,
//! discards its deltas, and **re-runs that burst at one worker** from
//! second handles on the burst's input nodes, recovering the exact
//! witness (and counters) of the one-worker search. Exhaustive
//! (`Invalid`/limit) verdicts keep the parallel deltas, which are exact
//! by the tiling argument: every popped node-step either runs to
//! completion (counters recorded, children pushed) or the node is
//! returned to a deque untouched.
//!
//! Resource governance: the wall-clock deadline is checked both in the
//! search burst and in the idle polling loop, so a monitor fed by a
//! stalled or dead source stops with `Inconclusive(TimeLimit)` instead of
//! wedging silently; the snapshot-memory budget covers work + PG nodes.
//! Limit stops additionally freeze the surviving search front into an
//! [`MdfsCheckpoint`] (worker deques + parked nodes + prior PG-list) so
//! eof-reached runs can resume — at any worker count. A limit stop in an
//! N-worker post-eof burst instead freezes that burst's input nodes with
//! the counters from before it (the witness re-run's restart point):
//! its racing front, resumed, would run past the sequential witness.
//! Whatever the verdict, [`TraceSource::diagnostics`] is folded into
//! [`AnalysisReport::source_faults`] so feed-level faults (parse errors,
//! truncation, a dead feeder) survive into the report.

use crate::checkpoint::{Checkpoint, CheckpointBody, MdfsCheckpoint, MdfsNodeCkpt, MdfsWorkerCkpt};
use crate::env::{Cursors, RejectReason, TraceEnv};
use crate::error::TangoError;
use crate::fault::{Backoff, RetryPolicy};
use crate::options::AnalysisOptions;
use crate::stats::SearchStats;
use crate::telemetry::{PruneKind, Telemetry};
use crate::trace::source::{Poll, TraceSource};
use crate::trace::ResolvedTrace;
use crate::verdict::{AnalysisReport, InconclusiveReason, Verdict};
use estelle_frontend::sema::model::AnalyzedModule;
use estelle_runtime::{FireOutcome, Machine, RuntimeError, RuntimeErrorKind};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use super::spill::SpillError;
use super::store::{stamp_store, CarryBase, ShardedStore, StoreHandle};
use super::{guard, is_fatal, record_error, SearchPath, MAX_RECORDED_ERRORS};

/// How long an idle thief sleeps before re-scanning the deques.
const IDLE_PARK: Duration = Duration::from_micros(100);
/// Buffered worker telemetry events per flush.
const EVENT_FLUSH: usize = 64;
/// Pops between two flushes even when no event is buffered: worker 0
/// uses its flushes to heartbeat and drain the other workers' batches.
const FLUSH_EVERY_POPS: u32 = 64;

/// One search node ("thread"); its snapshot lives in the store.
///
/// `key`/`step` implement the deterministic park labels of multi-worker
/// bursts: the root nodes of a burst get `key = [i]` (their sequential
/// pop order), every pop of a node consumes one `step`, and a child
/// created at the parent's step `s` gets `key = parent.key ++ [s]`.
/// Sequential pop labels are lexicographically increasing (a child's
/// subtree is fully explored between its parent's pops `s` and `s+1`),
/// so sorting parked nodes by their park label `key ++ [step]`
/// reproduces the one-worker park order no matter which worker parked
/// them. A one-worker burst parks in that order anyway and keeps no
/// labels. A key is a path of pop steps, so it is kept in the same
/// shared-prefix [`SearchPath`] as the node's transition path: a child's
/// key is one push onto its parent's.
struct PNode {
    handle: StoreHandle,
    cursors: Cursors,
    /// Compiled-transition indices already explored from this node.
    tried: HashSet<usize>,
    /// Transitions whose firing failed only because an output stream was
    /// exhausted-but-growing: retried once new data arrives. Without this
    /// the node would spin on the same transition without ever polling.
    blocked: HashSet<usize>,
    /// Consecutive barren steps on the path to this node.
    barren: usize,
    /// Transitions fired from the root to this node; shares its prefix
    /// with the parent's and the siblings' paths.
    path: SearchPath,
    key: SearchPath,
    step: u32,
}

impl PNode {
    fn new(handle: StoreHandle, cursors: Cursors, barren: usize, path: SearchPath) -> Self {
        PNode {
            handle,
            cursors,
            tried: HashSet::new(),
            blocked: HashSet::new(),
            barren,
            path,
            key: SearchPath::new(),
            step: 0,
        }
    }

    /// A second node over the same snapshot (one more store reference).
    fn duplicate(&self, store: &ShardedStore) -> Self {
        store.retain(self.handle);
        PNode {
            handle: self.handle,
            cursors: self.cursors.clone(),
            tried: self.tried.clone(),
            blocked: self.blocked.clone(),
            barren: self.barren,
            path: self.path.clone(),
            key: SearchPath::new(),
            step: 0,
        }
    }

    /// Thaw a checkpointed node into worker `owner`'s store shard.
    fn thaw(store: &ShardedStore, owner: usize, c: MdfsNodeCkpt) -> Self {
        let mut n = PNode::new(store.save(owner, c.state).0, c.cursors, c.barren, c.path);
        n.tried = c.tried.into_iter().collect();
        n.blocked = c.blocked.into_iter().collect();
        n
    }

    /// Freeze the node into its checkpoint form, materializing (and if
    /// need be faulting in) its snapshot.
    fn freeze(&self, store: &ShardedStore) -> Result<MdfsNodeCkpt, SpillError> {
        let mut tried: Vec<usize> = self.tried.iter().copied().collect();
        tried.sort_unstable();
        let mut blocked: Vec<usize> = self.blocked.iter().copied().collect();
        blocked.sort_unstable();
        Ok(MdfsNodeCkpt {
            state: store.materialize(self.handle)?,
            cursors: self.cursors.clone(),
            tried,
            blocked,
            barren: self.barren,
            path: self.path.clone(),
        })
    }
}

/// One buffered telemetry event from a burst worker. The `Telemetry`
/// handle is not `Send`, so workers record plain data and the
/// coordinator replays batches through the real handle (stamped with the
/// worker id). No strings cross threads — names are resolved at replay
/// time, and only when the event stream is actually on.
enum WEvent {
    Generate {
        depth: usize,
        fanout: usize,
        incomplete: bool,
        lat_us: Option<f64>,
    },
    Fire {
        depth: usize,
        trans: usize,
        fired: bool,
        nanos: u64,
    },
    Save {
        depth: usize,
        bytes: usize,
        interned: bool,
        resident: usize,
    },
    Restore {
        depth: usize,
    },
    Park {
        depth: usize,
        pg_total: u64,
    },
    Prune {
        depth: usize,
    },
    ErrorBranch {
        depth: usize,
        kind: RuntimeErrorKind,
    },
}

/// Why a burst stopped early. First setter wins; later causes are
/// dropped (their worker already pushed its node back, so nothing is
/// lost either way).
enum StopCause {
    /// A valid leaf was found post-eof; carries its path.
    Witness(SearchPath),
    /// A resource limit tripped; the surviving front is checkpointed.
    Limit(InconclusiveReason),
    /// A fatal runtime error (engine bug class) — propagated as `Err`.
    Fatal(RuntimeError),
}

/// Shared state of one burst.
struct BurstShared<'s> {
    /// Per-worker deques: owner pushes/pops at the back (LIFO), thieves
    /// pop at the front (FIFO — the coldest, usually largest subtree).
    deques: Vec<Mutex<VecDeque<PNode>>>,
    /// Nodes alive in deques or being processed. A thief that finds
    /// every deque empty checks this: zero means the burst is done
    /// (nodes in flight are still counted until retired or parked).
    pending: AtomicUsize,
    stop: Mutex<Option<StopCause>>,
    stopped: AtomicBool,
    /// Live TE/GE/RE/SA counters (seeded from the cumulative stats at
    /// burst start) — the TE limit check and the progress heartbeat
    /// read these; the authoritative merge uses per-worker deltas. TE
    /// counts every fire; workers publish GE/RE/SA at their flushes.
    te: AtomicU64,
    ge: AtomicU64,
    re: AtomicU64,
    sa: AtomicU64,
    /// Current parked-PG population (seeded with the prior PG-list len),
    /// for the `max_pg_nodes` limit.
    pg: AtomicU64,
    depth: AtomicUsize,
    /// Whether nodes carry park labels (more than one worker).
    labelled: bool,
    store: &'s ShardedStore,
}

impl BurstShared<'_> {
    fn set_stop(&self, cause: StopCause) {
        let mut s = self.stop.lock().expect("stop lock");
        if s.is_none() {
            *s = Some(cause);
        }
        self.stopped.store(true, Ordering::Release);
    }

    fn push(&self, widx: usize, node: PNode) {
        self.deques[widx].lock().expect("deque lock").push_back(node);
    }
}

/// What one worker brings back from a burst: its counter delta (zero
/// gauges — those are re-stamped from the store), recorded spec errors,
/// parked PG-nodes with their park labels, and its wall-clock split.
#[derive(Default)]
struct WorkerOut {
    delta: SearchStats,
    spec_errors: Vec<RuntimeError>,
    parked: Vec<(Vec<u32>, PNode)>,
    spill_faults: Vec<String>,
    clock: Clock,
}

/// One worker's accumulated busy/idle/steal wall-clock split.
#[derive(Clone, Copy, Default)]
struct Clock {
    busy: Duration,
    idle: Duration,
    steal: Duration,
}

impl Clock {
    fn add(&mut self, o: &Clock) {
        self.busy += o.busy;
        self.idle += o.idle;
        self.steal += o.steal;
    }
}

/// The immutable context of one run.
struct Cx<'a> {
    machine: &'a Machine,
    module: &'a AnalyzedModule,
    options: &'a AnalysisOptions,
    deadline: Option<Instant>,
    store: &'a ShardedStore,
    carry: CarryBase,
    workers: usize,
}

/// What a run accumulates across bursts.
struct Tally {
    stats: SearchStats,
    spec_errors: Vec<RuntimeError>,
    spill_faults: Vec<String>,
    /// One clock per worker, accumulated across bursts.
    clocks: Vec<Clock>,
}

/// How a run ended.
struct Outcome {
    verdict: Verdict,
    witness: Option<SearchPath>,
    /// The frozen front (limit stops only).
    checkpoint: Option<MdfsCheckpoint>,
    /// The counters the checkpoint resumes from, when they are not the
    /// report's (a post-eof N-worker burst restarts from its inputs).
    resume_stats: Option<SearchStats>,
}

impl Outcome {
    fn of(verdict: Verdict) -> Self {
        Outcome {
            verdict,
            witness: None,
            checkpoint: None,
            resume_stats: None,
        }
    }
}

/// A resumed run's starting front, thawed from an [`MdfsCheckpoint`].
struct MdfsSeed {
    /// Work stack, bottom to top (the saved deques concatenated in
    /// worker order).
    work: Vec<MdfsNodeCkpt>,
    /// PG-list: prior parks first, then the stopped burst's parks in
    /// worker order.
    pg: Vec<MdfsNodeCkpt>,
    eof: bool,
    trace: ResolvedTrace,
    stats: SearchStats,
}

/// The source behind a resumed run. Only eof-reached checkpoints are
/// resumable (a pre-eof source's read position cannot be re-established),
/// so the resumed search never needs real data: every poll just
/// re-asserts end-of-file.
struct EofSource;

impl TraceSource for EofSource {
    fn poll(&mut self) -> Poll {
        Poll {
            events: Vec::new(),
            eof: true,
        }
    }
}

/// Run MDFS against a dynamic trace source. `on_status` sees every change
/// of the interim verdict; returning `false` stops the analysis and
/// reports the interim verdict.
pub fn run_mdfs(
    machine: &Machine,
    module: &AnalyzedModule,
    source: &mut dyn TraceSource,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    run(machine, module, source, options, on_status, tel, None)
}

/// Resume a stopped on-line analysis from its frozen search front. The
/// checkpoint is worker-count independent: the saved nodes are
/// redistributed over this run's `options.resolved_workers()` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_mdfs(
    machine: &Machine,
    module: &AnalyzedModule,
    ckpt: MdfsCheckpoint,
    trace: ResolvedTrace,
    stats: SearchStats,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
) -> Result<AnalysisReport, TangoError> {
    let mut work = Vec::new();
    let mut parked = Vec::new();
    for w in ckpt.workers {
        work.extend(w.deque);
        parked.extend(w.parked);
    }
    let mut pg = ckpt.pg_prior;
    pg.extend(parked);
    let seed = MdfsSeed {
        work,
        pg,
        eof: ckpt.eof,
        trace,
        stats,
    };
    run(machine, module, &mut EofSource, options, on_status, tel, Some(seed))
}

/// The MDFS engine, optionally seeded from a checkpoint: set up the run,
/// search, then assemble the report.
fn run(
    machine: &Machine,
    module: &AnalyzedModule,
    source: &mut dyn TraceSource,
    options: &AnalysisOptions,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
    seed: Option<MdfsSeed>,
) -> Result<AnalysisReport, TangoError> {
    let t0 = Instant::now();
    let deadline = options.limits.max_wall_time.map(|d| t0 + d);
    let workers = options.resolved_workers().max(1);
    let machine = machine
        .policy_view(options.policy)
        .exec_view(options.exec_mode);
    tel.set_workers(workers);

    let (stats, base_wall, trace0, eof0, front) = match seed {
        Some(s) => {
            let bw = s.stats.wall_time;
            (s.stats, bw, s.trace, s.eof, Some((s.work, s.pg)))
        }
        None => (
            SearchStats::default(),
            Duration::ZERO,
            ResolvedTrace::empty(module.ips.len()),
            false,
            None,
        ),
    };
    let carry = CarryBase::of(&stats);
    let mut env = TraceEnv::new(module, trace0, options, true)?;
    env.eof = eof0;
    let mut tally = Tally {
        stats,
        spec_errors: Vec::new(),
        spill_faults: Vec::new(),
        clocks: vec![Clock::default(); workers],
    };

    let outcome = match ShardedStore::build(options, deadline, workers) {
        Ok(store) => {
            tally.spill_faults.extend(store.take_warnings());
            let cx = Cx {
                machine: &machine,
                module,
                options,
                deadline,
                store: &store,
                carry,
                workers,
            };
            let outcome = search(&cx, source, on_status, tel, &mut env, &mut tally, front);
            stamp_store(&mut tally.stats, &carry, &store);
            outcome?
        }
        // An unusable spill directory: degrade before searching.
        Err(e) => {
            tally.spill_faults.push(e.to_string());
            Outcome::of(Verdict::Inconclusive(InconclusiveReason::SpillFailure))
        }
    };
    Ok(finish(&machine, outcome, tally, &*source, t0, base_wall, options, &env.trace, tel))
}

/// Terminal bookkeeping of one MDFS run: stamp the elapsed time and the
/// source's fault diagnostics + retry counters, report the per-worker
/// busy/idle(/steal) splits into the metrics registry (idle-poll and
/// steal-scan time is not search time), emit the verdict event and the
/// final heartbeat, attach the frozen checkpoint (limit stops only),
/// then assemble the report — the one place a witness path becomes
/// transition names.
#[allow(clippy::too_many_arguments)]
fn finish(
    machine: &Machine,
    outcome: Outcome,
    tally: Tally,
    source: &dyn TraceSource,
    t0: Instant,
    base_wall: Duration,
    options: &AnalysisOptions,
    trace: &ResolvedTrace,
    tel: &mut Telemetry,
) -> AnalysisReport {
    let Tally {
        mut stats,
        spec_errors,
        spill_faults,
        clocks,
    } = tally;
    let wall_time = base_wall + t0.elapsed();
    let mut resume_stats = outcome.resume_stats;
    for s in std::iter::once(&mut stats).chain(resume_stats.as_mut()) {
        s.wall_time = wall_time;
        s.source_retries += source.fault_retries();
        s.source_giveups += source.fault_giveups();
    }
    if let Some(m) = tel.metrics_mut() {
        for (i, c) in clocks.iter().enumerate() {
            m.set_gauge(&format!("mdfs.worker{}.busy_seconds", i), c.busy.as_secs_f64());
            m.set_gauge(&format!("mdfs.worker{}.idle_seconds", i), c.idle.as_secs_f64());
            if clocks.len() > 1 {
                let steal = c.steal.as_secs_f64();
                m.set_gauge(&format!("mdfs.worker{}.steal_seconds", i), steal);
            }
        }
    }
    tel.on_verdict(&outcome.verdict, &stats, options.limits.max_transitions);
    let mut r = AnalysisReport::new(outcome.verdict, stats);
    r.witness = outcome.witness.map(|p| p.names(machine));
    r.spec_errors = spec_errors;
    r.source_faults = source.diagnostics();
    r.spill_faults = spill_faults;
    r.checkpoint = outcome.checkpoint.map(|m| {
        Box::new(Checkpoint {
            body: CheckpointBody::Mdfs(m),
            trace: trace.clone(),
            stats: resume_stats.unwrap_or_else(|| r.stats.clone()),
        })
    });
    r
}

/// Append what the source produced to the trace; true when the poll
/// brought new events or end-of-file (PG-nodes must then be revived).
fn absorb(module: &AnalyzedModule, env: &mut TraceEnv, poll: Poll) -> Result<bool, TangoError> {
    for e in &poll.events {
        env.trace.push_event(e, module).map_err(TangoError::TraceResolve)?;
    }
    if poll.eof {
        env.eof = true;
    }
    Ok(!poll.events.is_empty() || poll.eof)
}

/// Revive parked PG-nodes: fresh data may unblock output-blocked
/// transitions, so their blocked sets are cleared. With §3.1.3
/// reordering the revived nodes go on top of the LIFO work stack and are
/// searched immediately; basic MDFS queues them at the bottom, after the
/// rest of the known tree.
fn revive(work: &mut Vec<PNode>, pg_list: &mut Vec<PNode>, reorder: bool) {
    for n in pg_list.iter_mut() {
        n.blocked.clear();
    }
    if reorder {
        work.append(pg_list);
    } else {
        let rest = std::mem::take(work);
        work.append(pg_list);
        work.extend(rest);
    }
}

/// The coordinator loop: poll, run bursts until the known tree is
/// exhausted, report interim verdicts, idle-poll for more input.
fn search(
    cx: &Cx<'_>,
    source: &mut dyn TraceSource,
    on_status: &mut dyn FnMut(&Verdict) -> bool,
    tel: &mut Telemetry,
    env: &mut TraceEnv,
    tally: &mut Tally,
    front: Option<(Vec<MdfsNodeCkpt>, Vec<MdfsNodeCkpt>)>,
) -> Result<Outcome, TangoError> {
    let store = cx.store;
    let reorder = cx.options.mdfs_reorder;
    let mut work: Vec<PNode> = Vec::new();
    let mut pg_list: Vec<PNode> = Vec::new();
    match front {
        None => {
            let start = cx.machine.initial_state()?;
            tally.stats.saves += 1;
            let (h, _) = store.save(0, start);
            if tel.hot() {
                tel.on_save(0, h.state_bytes, false, store.resident_bytes());
            }
            work.push(PNode::new(h, env.save(), 0, SearchPath::new()));
        }
        Some((wseeds, pseeds)) => {
            // Spread the thawed front over the worker shards.
            let thaw = |(i, c)| PNode::thaw(store, i % cx.workers, c);
            work.extend(wseeds.into_iter().enumerate().map(thaw));
            pg_list.extend(pseeds.into_iter().enumerate().map(thaw));
        }
    }
    stamp_store(&mut tally.stats, &cx.carry, store);

    let mut last_status: Option<Verdict> = None;
    loop {
        if absorb(cx.module, env, source.poll())? {
            // Dynamic node reordering: PG-nodes jump the queue.
            revive(&mut work, &mut pg_list, reorder);
        }
        while !work.is_empty() {
            let mut inputs = std::mem::take(&mut work);
            inputs.reverse(); // sequential pop order
            if let Some(end) = run_burst(cx, tel, env, tally, inputs, &mut pg_list)? {
                return Ok(end);
            }
        }

        // The tree (as currently known) is exhausted.
        if env.eof {
            if pg_list.is_empty() {
                return Ok(Outcome::of(Verdict::Invalid));
            }
            // EOF makes PG-nodes fully generated: process them once more.
            revive(&mut work, &mut pg_list, reorder);
            continue;
        }
        if pg_list.is_empty() {
            // No PG-node can be revived by future input: conclusively
            // invalid even though the trace may keep growing (§3.1.2).
            return Ok(Outcome::of(Verdict::Invalid));
        }

        // Interim verdict: PGAV ⇒ valid so far, else likely invalid.
        let any_av = pg_list.iter().any(|n| {
            env.restore(&n.cursors);
            env.all_done()
        });
        let status = if any_av {
            Verdict::ValidSoFar
        } else {
            Verdict::LikelyInvalid
        };
        if last_status.as_ref() != Some(&status) {
            tel.on_interim_verdict(&status);
            last_status = Some(status.clone());
        }
        if !on_status(&status) {
            return Ok(Outcome::of(status));
        }

        // Block until the source has more to say — but never past the
        // deadline: a stalled source must not wedge the monitor. Polls
        // back off on the shared [`RetryPolicy::mdfs_poll`] schedule
        // (1ms doubling to 16ms) while the source stays silent; entering
        // this loop anew (i.e. after data arrived) starts over at the
        // minimum interval. Every worker is idle meanwhile.
        let mut idle = Backoff::new(RetryPolicy::mdfs_poll());
        loop {
            if cx.deadline.is_some_and(|d| Instant::now() >= d) {
                let fronts = (0..cx.workers).map(|_| (Vec::new(), Vec::new())).collect();
                let checkpoint = freeze(store, fronts, &pg_list, env.eof, &mut tally.spill_faults);
                return Ok(Outcome {
                    checkpoint,
                    ..Outcome::of(Verdict::Inconclusive(InconclusiveReason::TimeLimit))
                });
            }
            if absorb(cx.module, env, source.poll())? {
                revive(&mut work, &mut pg_list, reorder);
                break;
            }
            // Never sleep past the deadline — the expiry check above
            // stays exact to within scheduler latency.
            let idle_sleep = idle.next_delay();
            let sleep = match cx.deadline {
                Some(d) => idle_sleep.min(d.saturating_duration_since(Instant::now())),
                None => idle_sleep,
            };
            std::thread::sleep(sleep);
            for c in &mut tally.clocks {
                c.idle += sleep;
            }
        }
    }
}

/// Run one burst over `inputs` (in sequential pop order) and merge it
/// into the tally. `Some` ends the run; `None` means the burst exhausted
/// its tree and its parked PG-nodes joined `pg_list`.
fn run_burst(
    cx: &Cx<'_>,
    tel: &mut Telemetry,
    env: &mut TraceEnv,
    tally: &mut Tally,
    inputs: Vec<PNode>,
    pg_list: &mut Vec<PNode>,
) -> Result<Option<Outcome>, TangoError> {
    let store = cx.store;
    // Post-eof bursts may conclude Valid. N racing workers may find a
    // witness other than the sequential first one, so keep second
    // handles on the inputs to re-run a witness burst at one worker.
    let replay = (env.eof && cx.workers > 1).then(|| {
        let seeds: Vec<PNode> = inputs.iter().map(|n| n.duplicate(store)).collect();
        (seeds, tally.stats.clone(), tally.spec_errors.clone())
    });
    let pg0 = pg_list.len();
    let mut end = burst(cx, tel, env, &tally.stats, inputs, pg0, cx.workers, true);
    // A limit stop in such a burst checkpoints the burst's inputs with
    // the counters from before it: resuming the racing front would
    // finish the search past the sequential first witness.
    let mut restart = None;
    match replay {
        Some((seeds, stats, spec_errors)) if matches!(end.stop, Some(StopCause::Witness(_))) => {
            // Discard the burst's deltas and front; keep the honest clocks.
            for (c, o) in tally.clocks.iter_mut().zip(&end.outs) {
                c.add(&o.clock);
            }
            end.release(store);
            tally.stats = stats;
            tally.spec_errors = spec_errors;
            end = burst(cx, tel, env, &tally.stats, seeds, pg0, 1, false);
        }
        Some((seeds, stats, _)) if matches!(end.stop, Some(StopCause::Limit(_))) => {
            restart = Some((seeds, stats));
        }
        Some((seeds, ..)) => seeds.into_iter().for_each(|n| store.release(n.handle)),
        None => {}
    }

    // Completed steps are exact whatever stopped the burst (tiling).
    let mut parked: Vec<Vec<(Vec<u32>, PNode)>> = Vec::with_capacity(end.outs.len());
    for (i, o) in end.outs.into_iter().enumerate() {
        tally.clocks[i].add(&o.clock);
        tally.stats.absorb(&o.delta);
        tally.spec_errors.extend(o.spec_errors);
        tally.spill_faults.extend(o.spill_faults);
        parked.push(o.parked);
    }
    tally.spec_errors.truncate(MAX_RECORDED_ERRORS);
    stamp_store(&mut tally.stats, &cx.carry, store);

    match end.stop {
        None => {
            // Deterministic park order (see `PNode::key`).
            let mut all: Vec<(Vec<u32>, PNode)> = parked.into_iter().flatten().collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            pg_list.extend(all.into_iter().map(|(_, n)| n));
            Ok(None)
        }
        Some(StopCause::Fatal(e)) => Err(TangoError::Runtime(e)),
        Some(StopCause::Witness(path)) => Ok(Some(Outcome {
            witness: Some(path),
            ..Outcome::of(Verdict::Valid)
        })),
        Some(StopCause::Limit(reason)) => {
            let mut resume_stats = None;
            let checkpoint = if matches!(reason, InconclusiveReason::SpillFailure) {
                tally.spill_faults.extend(store.take_fault().map(|f| f.to_string()));
                None
            } else {
                let fronts = match restart {
                    Some((mut seeds, mut stats)) => {
                        stamp_store(&mut stats, &cx.carry, store);
                        resume_stats = Some(stats);
                        seeds.reverse(); // deque order: bottom to top
                        let idle = (1..cx.workers).map(|_| (Vec::new(), Vec::new()));
                        std::iter::once((seeds, Vec::new())).chain(idle).collect()
                    }
                    None => end
                        .deques
                        .into_iter()
                        .zip(parked)
                        .map(|(dq, p)| {
                            let deque = dq.into_inner().expect("deque lock");
                            (deque.into(), p.into_iter().map(|(_, n)| n).collect())
                        })
                        .collect(),
                };
                freeze(store, fronts, pg_list, env.eof, &mut tally.spill_faults)
            };
            Ok(Some(Outcome {
                checkpoint,
                resume_stats,
                ..Outcome::of(Verdict::Inconclusive(reason))
            }))
        }
    }
}

/// Freeze a stopped front: per worker its leftover deque (bottom to top)
/// and the nodes it parked in the stopped burst, plus the prior PG-list.
/// A spill read failure makes the stop un-checkpointable (recorded as a
/// fault instead).
fn freeze(
    store: &ShardedStore,
    fronts: Vec<(Vec<PNode>, Vec<PNode>)>,
    pg_list: &[PNode],
    eof: bool,
    spill_faults: &mut Vec<String>,
) -> Option<MdfsCheckpoint> {
    let all = |nodes: &[PNode]| -> Result<Vec<MdfsNodeCkpt>, SpillError> {
        nodes.iter().map(|n| n.freeze(store)).collect()
    };
    let frozen = (|| -> Result<MdfsCheckpoint, SpillError> {
        let mut workers = Vec::with_capacity(fronts.len());
        for (deque, parked) in &fronts {
            workers.push(MdfsWorkerCkpt {
                deque: all(deque)?,
                parked: all(parked)?,
            });
        }
        Ok(MdfsCheckpoint {
            workers_at_save: fronts.len() as u32,
            eof,
            workers,
            pg_prior: all(pg_list)?,
        })
    })();
    match frozen {
        Ok(m) => Some(m),
        Err(e) => {
            spill_faults.push(format!("checkpoint save skipped: {}", e));
            None
        }
    }
}

/// How one burst ended: the stop cause (`None`: the tree was exhausted),
/// each worker's output, and the deques holding the surviving front.
struct BurstEnd {
    stop: Option<StopCause>,
    outs: Vec<WorkerOut>,
    deques: Vec<Mutex<VecDeque<PNode>>>,
}

impl BurstEnd {
    /// Drop every node the burst left behind.
    fn release(&mut self, store: &ShardedStore) {
        for dq in &mut self.deques {
            let dq = dq.get_mut().expect("deque lock");
            dq.drain(..).for_each(|n| store.release(n.handle));
        }
        for o in &mut self.outs {
            o.parked.drain(..).for_each(|(_, n)| store.release(n.handle));
        }
    }
}

/// Drain one burst's tree with `n` workers over the frozen trace in
/// `env`. Worker 0 runs on this thread; workers 1..n are spawned, each
/// with its own cursor view (a clone of `env`). `events` off suppresses
/// the event stream (a witness replay: the first pass already streamed).
#[allow(clippy::too_many_arguments)]
fn burst(
    cx: &Cx<'_>,
    tel: &mut Telemetry,
    env: &mut TraceEnv,
    base: &SearchStats,
    inputs: Vec<PNode>,
    pg_prior: usize,
    n: usize,
    events: bool,
) -> BurstEnd {
    let n_inputs = inputs.len();
    let sh = BurstShared {
        deques: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(n_inputs),
        stop: Mutex::new(None),
        stopped: AtomicBool::new(false),
        te: AtomicU64::new(base.transitions_executed),
        ge: AtomicU64::new(base.generates),
        re: AtomicU64::new(base.restores),
        sa: AtomicU64::new(base.saves),
        pg: AtomicU64::new(pg_prior as u64),
        depth: AtomicUsize::new(base.max_depth),
        labelled: n > 1,
        store: cx.store,
    };
    // Input i (in sequential pop order) gets park key [i]; inputs are
    // dealt round-robin, pushed in reverse so each owner pops its
    // earliest input first.
    for (j, mut node) in inputs.into_iter().rev().enumerate() {
        let i = n_inputs - 1 - j;
        node.key = SearchPath::new();
        if sh.labelled {
            node.key.push(i);
        }
        node.step = 0;
        sh.push(i % n, node);
    }

    let events = events && tel.hot();
    let timed = events && tel.timer().is_some();
    let cap = cx.options.limits.max_transitions;
    let mut outs = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(u16, Vec<WEvent>)>();
        let sh = &sh;
        let handles: Vec<_> = (1..n)
            .map(|i| {
                let tx = tx.clone();
                let mut wenv = env.clone();
                s.spawn(move || {
                    let mut send = |buf: &mut Vec<WEvent>| {
                        if !buf.is_empty() {
                            let _ = tx.send((i as u16, std::mem::take(buf)));
                        }
                    };
                    guarded(sh, || burst_worker(i, cx, &mut wenv, sh, events, timed, &mut send))
                })
            })
            .collect();
        drop(tx);
        // Worker 0 takes over the coordinator's duties at each flush:
        // replaying its own and the other workers' event batches, and
        // the progress heartbeat.
        let mut coordinate = |buf: &mut Vec<WEvent>| {
            if !buf.is_empty() {
                replay_events(tel, cx.machine, 0, std::mem::take(buf));
            }
            while let Ok((w, batch)) = rx.try_recv() {
                replay_events(tel, cx.machine, w, batch);
            }
            tick_par(tel, base, sh, cap);
        };
        outs.push(guarded(sh, || {
            burst_worker(0, cx, env, sh, events, timed, &mut coordinate)
        }));
        // Then wait for the others: each hangs up its sender on exit.
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok((w, batch)) => replay_events(tel, cx.machine, w, batch),
                Err(mpsc::RecvTimeoutError::Timeout) => tick_par(tel, base, sh, cap),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        for h in handles {
            outs.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
    });
    tel.set_worker(0);
    BurstEnd {
        stop: sh.stop.into_inner().expect("stop lock"),
        outs,
        deques: sh.deques,
    }
}

/// Run a burst worker, turning an unwinding panic into a burst stop
/// before re-raising it. Spec-level panics are already contained per
/// step (`search::guard`); this backstop covers infrastructure panics,
/// which would otherwise leave `pending` forever non-zero and spin the
/// other workers.
fn guarded(sh: &BurstShared<'_>, f: impl FnOnce() -> WorkerOut) -> WorkerOut {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        sh.stopped.store(true, Ordering::Release);
        resume_unwind(p)
    })
}

/// One worker's burst loop: pop own-LIFO, steal FIFO round-robin, park
/// briefly when everything is empty, expand nodes under per-step
/// governance. Every stop site pushes the in-flight node back to the
/// owner's deque first, so the surviving front is complete whichever
/// cause wins the stop race. `flush` receives the buffered events every
/// [`EVENT_FLUSH`] events or [`FLUSH_EVERY_POPS`] pops, and at exit.
fn burst_worker(
    widx: usize,
    cx: &Cx<'_>,
    env: &mut TraceEnv,
    sh: &BurstShared<'_>,
    events: bool,
    timed: bool,
    flush: &mut dyn FnMut(&mut Vec<WEvent>),
) -> WorkerOut {
    let (machine, options, store) = (cx.machine, cx.options, sh.store);
    let n_workers = sh.deques.len();
    let cap = options.limits.max_transitions;
    let mut out = WorkerOut::default();
    let mut gen = estelle_runtime::Generated::default();
    let mut ebuf: Vec<WEvent> = Vec::new();
    let mut pops: u32 = 0;
    let t_loop = Instant::now();

    // GE/RE/SA already added to the shared heartbeat counters.
    let mut published = [0u64; 3];
    let mut publish = |d: &SearchStats| {
        let now = [d.generates, d.restores, d.saves];
        for ((total, p), n) in [&sh.ge, &sh.re, &sh.sa].into_iter().zip(&mut published).zip(now) {
            total.fetch_add(n - *p, Ordering::Relaxed);
            *p = n;
        }
    };

    // The child just saved: the owner's next pop in depth-first order,
    // kept in hand rather than round-tripped through the deque.
    let mut next: Option<PNode> = None;
    loop {
        if sh.stopped.load(Ordering::Acquire) {
            // Keep the front complete for the checkpoint.
            if let Some(n) = next.take() {
                sh.push(widx, n);
            }
            break;
        }
        pops = pops.wrapping_add(1);
        if ebuf.len() >= EVENT_FLUSH || pops.is_multiple_of(FLUSH_EVERY_POPS) {
            publish(&out.delta);
            flush(&mut ebuf);
        }
        let mut popped =
            next.take().or_else(|| sh.deques[widx].lock().expect("deque lock").pop_back());
        if popped.is_none() && n_workers > 1 {
            // Steal: scan the other deques round-robin from our
            // right-hand neighbour, taking from the top.
            let t_steal = Instant::now();
            popped = (1..n_workers).find_map(|k| {
                let v = (widx + k) % n_workers;
                sh.deques[v].lock().expect("deque lock").pop_front()
            });
            out.clock.steal += t_steal.elapsed();
            if popped.is_some() {
                out.delta.steals += 1;
            } else {
                out.delta.steal_failures += 1;
            }
        }
        let Some(mut node) = popped else {
            // Nothing to pop or steal: the burst is over once no node is
            // alive anywhere; otherwise park briefly and rescan.
            if sh.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            let t_idle = Instant::now();
            std::thread::sleep(IDLE_PARK);
            out.clock.idle += t_idle.elapsed();
            continue;
        };

        let depth = node.path.len();
        // Per-pop governance, checked before the step mutates anything.
        if sh.te.load(Ordering::Relaxed) > cap {
            sh.push(widx, node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::TransitionLimit));
            break;
        }
        if cx.deadline.is_some_and(|d| Instant::now() >= d) {
            sh.push(widx, node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::TimeLimit));
            break;
        }
        // With a spill tier the budget is a tiering policy (the store
        // evicts to it) and only a write failure stops the search.
        if store.is_poisoned() {
            sh.push(widx, node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::SpillFailure));
            break;
        }
        if !store.spill_enabled()
            && options
                .limits
                .max_state_bytes
                .is_some_and(|cap| store.resident_bytes() + node.handle.state_bytes > cap)
        {
            sh.push(widx, node);
            sh.set_stop(StopCause::Limit(InconclusiveReason::MemoryLimit));
            break;
        }

        let s = node.step;
        node.step += 1;
        if depth > out.delta.max_depth {
            out.delta.max_depth = depth;
            sh.depth.fetch_max(depth, Ordering::Relaxed);
        }
        env.restore(&node.cursors);
        out.delta.restores += 1;
        if events {
            ebuf.push(WEvent::Restore { depth });
        }

        let park_label = |node: &PNode| {
            let mut label = Vec::new();
            if sh.labelled {
                label = node.key.indices();
                label.push(s);
            }
            label
        };
        if env.all_done() {
            if env.eof {
                // Witness found: keep the node alive in the deques (a
                // racing limit stop must still see a complete front).
                let path = node.path.clone();
                sh.push(widx, node);
                sh.set_stop(StopCause::Witness(path));
                break;
            }
            // PGAV: everything so far is explained; park the node.
            out.delta.pg_nodes += 1;
            let total = sh.pg.fetch_add(1, Ordering::Relaxed) + 1;
            if events {
                ebuf.push(WEvent::Park {
                    depth,
                    pg_total: total,
                });
            }
            sh.pending.fetch_sub(1, Ordering::AcqRel);
            out.parked.push((park_label(&node), node));
            continue;
        }

        // Generate (or re-generate) this node's transition list on a
        // scratch copy of its snapshot. One store round-trip serves the
        // whole expansion: `pristine` is the scratch's source *and*
        // becomes the child's state if a transition fires (generate may
        // dirty the scratch, so the fire gets the untouched copy).
        let pristine = match store.materialize(node.handle) {
            Ok(st) => st,
            Err(e) => {
                out.spill_faults.push(e.to_string());
                sh.push(widx, node);
                sh.set_stop(StopCause::Limit(InconclusiveReason::SpillFailure));
                break;
            }
        };
        let mut st = pristine.snapshot();
        out.delta.generates += 1;
        let g0 = if timed { Some(Instant::now()) } else { None };
        match guard("generate", || machine.generate_into(&mut st, env, &mut gen)) {
            Ok(()) => {}
            Err(e) if is_fatal(&e) => {
                sh.push(widx, node);
                sh.set_stop(StopCause::Fatal(e));
                break;
            }
            Err(e) => {
                if events {
                    ebuf.push(WEvent::ErrorBranch { depth, kind: e.kind });
                    // Keep GE == generate-events: a failed expansion is
                    // an event with zero fanout.
                    ebuf.push(WEvent::Generate {
                        depth,
                        fanout: 0,
                        incomplete: false,
                        lat_us: g0.map(|t| t.elapsed().as_secs_f64() * 1e6),
                    });
                }
                record_error(&mut out.spec_errors, &mut out.delta, e);
                store.release(node.handle);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
        };
        let is_pg = gen.incomplete;
        let untried: Vec<_> = gen
            .fireable
            .drain(..)
            .filter(|f| !node.tried.contains(&f.trans) && !node.blocked.contains(&f.trans))
            .collect();
        // Fanout as the search sees it: candidates not yet explored from
        // this node (a re-generate only offers what new input enabled).
        if events {
            ebuf.push(WEvent::Generate {
                depth,
                fanout: untried.len(),
                incomplete: is_pg,
                lat_us: g0.map(|t| t.elapsed().as_secs_f64() * 1e6),
            });
        }
        if !untried.is_empty() {
            out.delta.fanout_sum += untried.len() as u64;
            out.delta.fanout_samples += 1;
        }

        let Some(f) = untried.first().cloned() else {
            if is_pg || !node.blocked.is_empty() {
                if sh.pg.load(Ordering::Relaxed) >= options.limits.max_pg_nodes as u64 {
                    sh.push(widx, node);
                    sh.set_stop(StopCause::Limit(InconclusiveReason::PgNodeLimit));
                    break;
                }
                out.delta.pg_nodes += 1;
                let total = sh.pg.fetch_add(1, Ordering::Relaxed) + 1;
                if events {
                    ebuf.push(WEvent::Park {
                        depth,
                        pg_total: total,
                    });
                }
                sh.pending.fetch_sub(1, Ordering::AcqRel);
                out.parked.push((park_label(&node), node));
            } else {
                store.release(node.handle);
                sh.pending.fetch_sub(1, Ordering::AcqRel);
            }
            continue;
        };

        // Fire the child on the untouched copy of the node's state.
        node.tried.insert(f.trans);
        drop(st);
        let mut child_state = pristine;
        env.restore(&node.cursors);
        let before = env.outstanding();
        out.delta.transitions_executed += 1;
        sh.te.fetch_add(1, Ordering::Relaxed);
        let f0 = if timed { Some(Instant::now()) } else { None };
        env.begin_fire();
        let fired = match guard("fire", || machine.fire(&mut child_state, &f, env)) {
            Ok(FireOutcome::Completed) => env.end_fire(),
            Ok(FireOutcome::OutputRejected) => false,
            Err(e) if is_fatal(&e) => {
                sh.push(widx, node);
                sh.set_stop(StopCause::Fatal(e));
                break;
            }
            Err(e) => {
                if events {
                    ebuf.push(WEvent::ErrorBranch { depth, kind: e.kind });
                }
                record_error(&mut out.spec_errors, &mut out.delta, e);
                false
            }
        };
        if events {
            ebuf.push(WEvent::Fire {
                depth,
                trans: f.trans,
                fired,
                nanos: f0.map_or(0, |t| t.elapsed().as_nanos() as u64),
            });
        }
        if !fired && env.last_reject == Some(RejectReason::MayGrow) {
            // The failure was "output not in the trace *yet*": park it
            // as blocked and retry once data arrives.
            node.tried.remove(&f.trans);
            node.blocked.insert(f.trans);
        }

        let has_more = untried.len() > 1 || is_pg || !node.blocked.is_empty();
        let mut child = None;
        if fired {
            let child_barren = if env.outstanding() < before {
                0
            } else {
                node.barren + 1
            };
            let depth = node.path.len() + 1;
            if child_barren > options.limits.max_barren_steps {
                out.delta.barren_prunes += 1;
                if events {
                    ebuf.push(WEvent::Prune { depth });
                }
            } else {
                out.delta.saves += 1;
                let (h, interned) = store.save(widx, child_state);
                if events {
                    ebuf.push(WEvent::Save {
                        depth,
                        bytes: if interned { 0 } else { h.state_bytes },
                        interned,
                        resident: store.resident_bytes(),
                    });
                }
                let mut c = PNode::new(h, env.save(), child_barren, node.path.child(f.trans));
                if sh.labelled {
                    c.key = node.key.child(s as usize);
                }
                // Count the child before it becomes visible so `pending`
                // can never dip to zero while work remains.
                sh.pending.fetch_add(1, Ordering::AcqRel);
                child = Some(c);
            }
        }
        // The parent goes back on the deque and the child is the next
        // pop — depth-first order, which keeps the frontier (and the
        // resident set) small.
        if has_more {
            sh.push(widx, node);
        } else {
            store.release(node.handle);
            sh.pending.fetch_sub(1, Ordering::AcqRel);
        }
        next = child;
    }
    publish(&out.delta);
    flush(&mut ebuf);
    out.clock.busy = t_loop
        .elapsed()
        .saturating_sub(out.clock.idle)
        .saturating_sub(out.clock.steal);
    out
}

/// Replay one worker's buffered telemetry batch through the real
/// (non-`Send`) handle, stamped with the worker id.
fn replay_events(tel: &mut Telemetry, machine: &Machine, worker: u16, batch: Vec<WEvent>) {
    tel.set_worker(worker);
    for ev in batch {
        match ev {
            WEvent::Generate {
                depth,
                fanout,
                incomplete,
                lat_us,
            } => tel.on_generate_dur(depth, fanout, incomplete, lat_us),
            WEvent::Fire {
                depth,
                trans,
                fired,
                nanos,
            } => {
                let observable = if tel.events_on() {
                    machine.transition_observable(trans)
                } else {
                    None
                };
                tel.on_fire_dur(
                    depth,
                    trans,
                    machine.transition_name(trans),
                    observable,
                    fired,
                    nanos,
                );
            }
            WEvent::Save {
                depth,
                bytes,
                interned,
                resident,
            } => tel.on_save(depth, bytes, interned, resident),
            WEvent::Restore { depth } => tel.on_restore(depth),
            WEvent::Park { depth, pg_total } => tel.on_park(depth, pg_total),
            WEvent::Prune { depth } => tel.on_prune(depth, PruneKind::Barren),
            WEvent::ErrorBranch { depth, kind } => tel.on_error_branch(depth, kind),
        }
    }
}

/// Drive the progress heartbeat mid-burst from the live atomics overlaid
/// on the cumulative base stats.
fn tick_par(tel: &mut Telemetry, base: &SearchStats, sh: &BurstShared<'_>, cap: u64) {
    let mut s = base.clone();
    s.transitions_executed = sh.te.load(Ordering::Relaxed);
    s.generates = sh.ge.load(Ordering::Relaxed);
    s.restores = sh.re.load(Ordering::Relaxed);
    s.saves = sh.sa.load(Ordering::Relaxed);
    s.max_depth = sh.depth.load(Ordering::Relaxed);
    s.snapshot_bytes = sh.store.resident_bytes();
    tel.tick(&s, cap);
}
