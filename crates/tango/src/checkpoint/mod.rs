//! Stop/resume checkpoints.
//!
//! When a static DFS stops on a resource limit (transition count, depth,
//! wall-clock deadline or snapshot-memory budget), the report carries a
//! [`Checkpoint`]: the frozen search state plus the resolved trace and the
//! counters accumulated so far. [`crate::TraceAnalyzer::analyze_resume`]
//! continues the search exactly where it stopped — no work is repeated,
//! and the final TE/GE/RE/SA totals across stop + resume equal those of an
//! uninterrupted run, so figures assembled from budgeted batch runs stay
//! comparable with the paper's tables.
//!
//! On-line (MDFS) analyses checkpoint too, including multi-worker runs:
//! the [`CheckpointBody::Mdfs`] body freezes every worker's deque and
//! parked PG-nodes plus the PG-list carried over from earlier bursts.
//! Each frozen node is a complete search "thread" (state snapshot, trace
//! cursors, tried/blocked transition sets, barren counter, path), so the
//! checkpoint is **worker-count independent**: a run stopped at N workers
//! resumes at any M via [`crate::TraceAnalyzer::analyze_online_resume`].
//! Because every node-step is either fully completed (its counters
//! recorded and its children saved) or still queued, resumed exhaustion
//! verdicts reproduce the uninterrupted TE/GE/RE/SA totals exactly at any
//! worker count (DESIGN §6.13).

pub mod codec;

pub use codec::{CheckpointError, CheckpointInfo, FORMAT_VERSION, MAGIC};

use crate::env::Cursors;
use crate::search::dfs::DfsCheckpoint;
use crate::search::SearchPath;
use crate::stats::SearchStats;
use crate::trace::ResolvedTrace;
use estelle_runtime::MachineState;

/// A resumable, stopped analysis. Opaque except for the progress
/// accessors; produce with a limited [`crate::TraceAnalyzer::analyze`]
/// (or `analyze_online`) call, consume with
/// [`crate::TraceAnalyzer::analyze_resume`] (static bodies) or
/// [`crate::TraceAnalyzer::analyze_online_resume`] (on-line bodies).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub(crate) body: CheckpointBody,
    pub(crate) trace: ResolvedTrace,
    pub(crate) stats: SearchStats,
}

/// Which search the checkpoint freezes. Cold-path value — a handful
/// exist per run — so the variant size skew costs nothing.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum CheckpointBody {
    /// Static-mode DFS: one path of frames.
    Dfs(DfsCheckpoint),
    /// On-line MDFS: per-worker deques + parked PG-nodes.
    Mdfs(MdfsCheckpoint),
}

/// Frozen multi-worker MDFS search front.
#[derive(Clone, Debug)]
pub(crate) struct MdfsCheckpoint {
    /// Worker count of the run that saved this checkpoint. Informational
    /// — resume redistributes the nodes over the *resuming* run's
    /// workers.
    pub(crate) workers_at_save: u32,
    /// Whether the trace had reached end-of-file at the stop. Only
    /// eof-reached checkpoints are resumable: a pre-eof source's read
    /// position cannot be re-established without replaying events that
    /// are already inside the checkpointed trace.
    pub(crate) eof: bool,
    /// One entry per worker of the saving run.
    pub(crate) workers: Vec<MdfsWorkerCkpt>,
    /// PG-nodes parked in bursts before the one that stopped, in park
    /// order.
    pub(crate) pg_prior: Vec<MdfsNodeCkpt>,
}

/// One worker's frozen work.
#[derive(Clone, Debug)]
pub(crate) struct MdfsWorkerCkpt {
    /// The worker's deque, bottom to top (owner end last).
    pub(crate) deque: Vec<MdfsNodeCkpt>,
    /// PG-nodes this worker parked in the stopped burst, in the burst's
    /// deterministic park order.
    pub(crate) parked: Vec<MdfsNodeCkpt>,
}

/// One frozen MDFS search node ("thread"). States are materialized at
/// save time (spilled snapshots are faulted back in first), so the
/// checkpoint file is self-contained.
#[derive(Clone, Debug)]
pub(crate) struct MdfsNodeCkpt {
    pub(crate) state: MachineState,
    pub(crate) cursors: Cursors,
    /// Compiled-transition indices already explored, sorted.
    pub(crate) tried: Vec<usize>,
    /// Output-blocked transitions awaiting new data, sorted.
    pub(crate) blocked: Vec<usize>,
    pub(crate) barren: usize,
    pub(crate) path: SearchPath,
}

impl MdfsCheckpoint {
    /// Every frozen node, in no particular order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &MdfsNodeCkpt> {
        self.workers
            .iter()
            .flat_map(|w| w.deque.iter().chain(w.parked.iter()))
            .chain(self.pg_prior.iter())
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes().count()
    }
}

impl Checkpoint {
    /// `"dfs"` for a static-mode checkpoint, `"mdfs"` for an on-line one.
    pub fn mode(&self) -> &'static str {
        match &self.body {
            CheckpointBody::Dfs(_) => "dfs",
            CheckpointBody::Mdfs(_) => "mdfs",
        }
    }

    /// Depth of the search at the stop point: the DFS path depth, or the
    /// deepest frozen MDFS node.
    pub fn depth(&self) -> usize {
        match &self.body {
            CheckpointBody::Dfs(dfs) => dfs.depth(),
            CheckpointBody::Mdfs(m) => m.nodes().map(|n| n.path.len()).max().unwrap_or(0),
        }
    }

    /// Saved search nodes awaiting exploration: backtracking frames
    /// (DFS) or frozen deque + parked nodes (MDFS).
    pub fn pending_frames(&self) -> usize {
        match &self.body {
            CheckpointBody::Dfs(dfs) => dfs.pending_frames(),
            CheckpointBody::Mdfs(m) => m.node_count(),
        }
    }

    /// Checkable events in the trace under analysis.
    pub fn events_total(&self) -> usize {
        match &self.body {
            CheckpointBody::Dfs(dfs) => dfs.events_total(),
            CheckpointBody::Mdfs(_) => self.trace.events.len(),
        }
    }

    /// Counters accumulated up to the stop; resuming continues them.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Structural cross-check against the analyzer about to resume this
    /// checkpoint. A file that decodes cleanly may still belong to a
    /// *different* specification (or a different trace); resuming it
    /// verbatim would index out of range deep inside the search. This
    /// turns every such mismatch into an error up front.
    pub(crate) fn validate_against(
        &self,
        module: &estelle_frontend::sema::model::AnalyzedModule,
        transition_count: usize,
    ) -> Result<(), String> {
        let ip_count = module.ips.len();
        if self.trace.inputs.len() != ip_count || self.trace.outputs.len() != ip_count {
            return Err(format!(
                "checkpoint trace has {} IP stream(s), specification has {}",
                self.trace.inputs.len(),
                ip_count
            ));
        }
        for e in &self.trace.events {
            let info = module.ip(estelle_frontend::sema::model::IpId(e.ip as u32));
            let sigs = match e.dir {
                crate::trace::Dir::In => &info.inputs,
                crate::trace::Dir::Out => &info.outputs,
            };
            if e.interaction >= sigs.len() {
                return Err(format!(
                    "trace event {} names interaction {} of {} at IP `{}`",
                    e.index,
                    e.interaction,
                    sigs.len(),
                    info.name
                ));
            }
        }
        let state_count = module.states.len() as u32;
        let check_cursors = |c: &crate::env::Cursors, what: &str| -> Result<(), String> {
            if c.input.len() != ip_count || c.output.len() != ip_count {
                return Err(format!(
                    "{} cursors cover {} IP(s), specification has {}",
                    what,
                    c.input.len(),
                    ip_count
                ));
            }
            for ip in 0..ip_count {
                if c.input[ip] > self.trace.inputs[ip].len()
                    || c.output[ip] > self.trace.outputs[ip].len()
                {
                    return Err(format!("{} cursors point past the trace streams", what));
                }
            }
            Ok(())
        };
        let check_path = |p: &SearchPath, what: &str| -> Result<(), String> {
            let indices = p.indices();
            match indices.iter().position(|&t| t as usize >= transition_count) {
                Some(step) => Err(format!(
                    "{} step {} references transition {} of {}",
                    what, step, indices[step], transition_count
                )),
                None => Ok(()),
            }
        };
        match &self.body {
            CheckpointBody::Dfs(dfs) => {
                // Frame paths are prefixes of the search path.
                check_path(&dfs.path, "search path")?;
                check_path(&dfs.best.1, "best path")?;
                if dfs.state.control.0 >= state_count {
                    return Err(format!(
                        "checkpoint control state {} out of range ({} states)",
                        dfs.state.control.0, state_count
                    ));
                }
                check_cursors(&dfs.cursors, "checkpoint")?;
                for (i, f) in dfs.stack.iter().enumerate() {
                    check_cursors(&f.cursors, "frame")?;
                    if f.state.control.0 >= state_count {
                        return Err(format!("frame {} control state out of range", i));
                    }
                    for fireable in &f.fireable {
                        if fireable.trans >= transition_count {
                            return Err(format!(
                                "frame {} references transition {} of {}",
                                i, fireable.trans, transition_count
                            ));
                        }
                    }
                }
            }
            CheckpointBody::Mdfs(m) => {
                for (i, n) in m.nodes().enumerate() {
                    if n.state.control.0 >= state_count {
                        return Err(format!("node {} control state out of range", i));
                    }
                    check_cursors(&n.cursors, "node")?;
                    check_path(&n.path, &format!("node {} path", i))?;
                    for &t in n.tried.iter().chain(n.blocked.iter()) {
                        if t >= transition_count {
                            return Err(format!(
                                "node {} references transition {} of {}",
                                i, t, transition_count
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
