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
//!   optional [`spill`] tier.
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
use estelle_runtime::{RuntimeError, RuntimeErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cap on recorded per-branch specification errors.
pub(crate) const MAX_RECORDED_ERRORS: usize = 16;

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
