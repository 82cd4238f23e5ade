//! Search strategies.
//!
//! * [`dfs`] — the static-mode depth-first search of §2.2, extended with
//!   cooperative resource governance (wall-clock deadline, snapshot-memory
//!   budget) and stop/resume checkpointing;
//! * [`mdfs`] — the multi-threaded depth-first search of §3.1 for
//!   on-line (dynamic) trace analysis, with PG-nodes, PGAV detection and
//!   dynamic node reordering, under the same governance, run by one or
//!   more work-stealing workers;
//! * `store` — the snapshot store both searches save into, with its
//!   optional [`spill`] tier;
//! * [`SearchPath`] — the persistent, shared-prefix path of transition
//!   indices both searches extend, one O(1) push per step.
//!
//! Both searches execute untrusted compiled specifications, so every
//! interpreter step runs inside [`guard`]: a panic that unwinds out of
//! `generate` or `fire` is converted into a structured per-branch
//! [`RuntimeError`] instead of tearing down the whole analysis.

pub mod dfs;
pub mod mdfs;
pub mod spill;
pub(crate) mod store;

use crate::stats::SearchStats;
use estelle_runtime::{Machine, RuntimeError, RuntimeErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Cap on recorded per-branch specification errors.
pub(crate) const MAX_RECORDED_ERRORS: usize = 16;

/// The transitions fired from the root to one search node, as compiled
/// transition indices.
///
/// A persistent singly-linked list: each step points at the path it
/// extends, so every prefix is shared. Extending a path allocates one
/// node, cloning a handle is one reference-count bump, and a saved
/// handle *is* the prefix a backtrack returns to — no search step ever
/// copies a path. DFS keeps one handle per frame and one for the best
/// attempt; every MDFS node owns one, and siblings share their parent's.
/// Transition names are resolved once, by [`SearchPath::names`], when a
/// report is built. (Multi-worker MDFS bursts also keep their park-label
/// keys, sequences of pop steps, in this list.)
#[derive(Clone, Default)]
pub struct SearchPath(Option<Arc<Step>>);

struct Step {
    trans: u32,
    /// Steps from the root, this one included.
    len: u32,
    parent: SearchPath,
}

impl SearchPath {
    /// The empty path (the root node).
    pub fn new() -> Self {
        SearchPath(None)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.len as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// This path extended by `trans`; `self` becomes the new path's
    /// shared prefix.
    pub fn child(&self, trans: usize) -> SearchPath {
        let mut child = self.clone();
        child.push(trans);
        child
    }

    /// Extend this path by `trans` in place.
    pub fn push(&mut self, trans: usize) {
        let len = u32::try_from(self.len() + 1).expect("search path length fits in u32");
        let parent = std::mem::take(self);
        *self = SearchPath(Some(Arc::new(Step {
            trans: u32::try_from(trans).expect("transition index fits in u32"),
            len,
            parent,
        })));
    }

    /// Cut this path back to its first `len` steps (no-op if it is not
    /// longer), sharing the kept prefix.
    pub fn truncate(&mut self, len: usize) {
        while self.len() > len {
            let parent = self.0.as_ref().map(|s| s.parent.clone()).unwrap_or_default();
            *self = parent;
        }
    }

    /// Transition indices, root to leaf.
    pub fn indices(&self) -> Vec<u32> {
        let mut v: Vec<u32> =
            std::iter::successors(self.0.as_deref(), |s| s.parent.0.as_deref())
                .map(|s| s.trans)
                .collect();
        v.reverse();
        v
    }

    /// Transition names, root to leaf — the report form of the path.
    pub fn names(&self, machine: &Machine) -> Vec<String> {
        self.indices()
            .into_iter()
            .map(|t| machine.transition_name(t as usize).to_string())
            .collect()
    }
}

impl Drop for SearchPath {
    /// Unlink iteratively: the default recursive drop of a long,
    /// unshared path would overflow the stack. Stops at the first step
    /// another handle still holds.
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(step) = next {
            next = Arc::into_inner(step).and_then(|mut s| s.parent.0.take());
        }
    }
}

impl std::fmt::Debug for SearchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.indices()).finish()
    }
}

/// Run one interpreter step, converting an unwinding panic into a
/// [`RuntimeErrorKind::Panic`] error. The machine state the closure was
/// mutating is treated as poisoned by the caller: the branch is abandoned
/// and the search backtracks to a saved snapshot, so the half-updated
/// state is never fired from again. (The process-global panic hook still
/// prints the panic message; only the unwinding is contained.)
pub(crate) fn guard<T>(
    what: &str,
    f: impl FnOnce() -> Result<T, RuntimeError>,
) -> Result<T, RuntimeError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(RuntimeError::panic(format!(
                "panic during {}: {}",
                what, msg
            )))
        }
    }
}

/// Record a non-fatal branch error, bounded by [`MAX_RECORDED_ERRORS`].
pub(crate) fn record_error(
    spec_errors: &mut Vec<RuntimeError>,
    stats: &mut SearchStats,
    e: RuntimeError,
) {
    stats.error_branches += 1;
    if spec_errors.len() < MAX_RECORDED_ERRORS {
        spec_errors.push(e);
    }
}

/// Errors that abort the whole analysis rather than one branch. A guarded
/// panic is deliberately *not* fatal: the broken branch is abandoned and
/// the rest of the search space still gets explored.
pub(crate) fn is_fatal(e: &RuntimeError) -> bool {
    matches!(
        e.kind,
        RuntimeErrorKind::Internal
            | RuntimeErrorKind::CallDepthExceeded
            | RuntimeErrorKind::LoopLimitExceeded
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<SearchPath>();
    };

    fn path_of(indices: &[usize]) -> SearchPath {
        let mut p = SearchPath::new();
        for &t in indices {
            p.push(t);
        }
        p
    }

    fn head(p: &SearchPath) -> &Arc<Step> {
        p.0.as_ref().expect("non-empty path")
    }

    #[test]
    fn path_push_shares_the_prefix() {
        let mut p = SearchPath::new();
        p.push(3);
        p.push(1);
        let parent = p.clone();
        let child = p.child(4);
        assert_eq!(child.len(), 3);
        assert!(Arc::ptr_eq(head(&child.0.as_ref().unwrap().parent), head(&parent)));
        // Siblings share their parent too.
        let sibling = p.child(5);
        assert!(Arc::ptr_eq(
            head(&sibling.0.as_ref().unwrap().parent),
            head(&child.0.as_ref().unwrap().parent)
        ));
        assert_eq!(p.indices(), [3, 1], "extending must not touch the prefix");
    }

    #[test]
    fn path_truncate_shares_the_prefix() {
        let mut p = path_of(&[7, 8, 9, 10]);
        let two = {
            let mut q = p.clone();
            q.truncate(2);
            q
        };
        p.truncate(3);
        assert_eq!(p.indices(), [7, 8, 9]);
        assert_eq!(two.indices(), [7, 8]);
        assert!(Arc::ptr_eq(head(&p.0.as_ref().unwrap().parent), head(&two)));
        p.truncate(10);
        assert_eq!(p.len(), 3, "truncating to a longer length is a no-op");
        p.truncate(0);
        assert!(p.is_empty());
    }

    #[test]
    fn path_names_come_out_root_to_leaf() {
        let m = crate::Tango::generate(
            r#"
            specification three;
            channel C(env, m); by env: a; by m: b; end;
            module M process; ip P : C(m); end;
            body MB for M;
                state S;
                initialize to S begin end;
                trans
                from S to S when P.a name first: begin end;
                from S to S when P.a name second: begin end;
                from S to S when P.a name third: begin end;
            end;
            end.
            "#,
        )
        .expect("spec is valid");
        let p = path_of(&[2, 0, 1, 0]);
        assert_eq!(p.names(&m.machine), ["third", "first", "second", "first"]);
        assert_eq!(p.indices(), [2, 0, 1, 0]);
    }

    #[test]
    fn dropping_a_million_step_path_does_not_overflow_the_stack() {
        let mut p = SearchPath::new();
        for i in 0..1_000_000 {
            p.push(i % 7);
        }
        assert_eq!(p.len(), 1_000_000);
        // A second handle on a prefix survives the drop of the rest.
        let mut prefix = p.clone();
        prefix.truncate(10);
        drop(p);
        assert_eq!(prefix.indices(), [0, 1, 2, 3, 4, 5, 6, 0, 1, 2]);
    }

    #[test]
    fn guard_passes_results_through() {
        assert_eq!(guard("step", || Ok::<_, RuntimeError>(7)).unwrap(), 7);
        let e = guard("step", || Err::<(), _>(RuntimeError::undefined("x"))).unwrap_err();
        assert_eq!(e.kind, RuntimeErrorKind::UndefinedValue);
    }

    #[test]
    fn guard_converts_panics_into_branch_errors() {
        let e = guard("generate", || -> Result<(), RuntimeError> {
            panic!("boom {}", 42)
        })
        .unwrap_err();
        assert_eq!(e.kind, RuntimeErrorKind::Panic);
        assert!(e.message.contains("generate"));
        assert!(e.message.contains("boom 42"));
        // A guarded panic abandons one branch, never the whole analysis.
        assert!(!is_fatal(&e));
    }

    #[test]
    fn guard_handles_str_payloads() {
        let e = guard("fire", || -> Result<(), RuntimeError> {
            std::panic::panic_any("static str")
        })
        .unwrap_err();
        assert!(e.message.contains("static str"));
    }

    #[test]
    fn error_recording_is_bounded() {
        let mut errors = Vec::new();
        let mut stats = SearchStats::default();
        for _ in 0..(MAX_RECORDED_ERRORS + 10) {
            record_error(&mut errors, &mut stats, RuntimeError::undefined("e"));
        }
        assert_eq!(errors.len(), MAX_RECORDED_ERRORS);
        assert_eq!(stats.error_branches, (MAX_RECORDED_ERRORS + 10) as u64);
    }
}
