//! Per-thread evaluation scratch for the serial pipeline.
//!
//! Candidate evaluation runs on the calling thread: a `warlockd`
//! connection thread, a CLI invocation, or whichever thread holds a
//! [`crate::Warlock`] clone. Each such thread keeps one [`EvalScratch`]
//! (layout buffers, the SoA chunk batch and its staging map) alive
//! between runs, so steady-state evaluation amortizes to zero
//! allocation per chunk. Concurrency comes from callers running on
//! different threads, never from the pipeline fanning out.

use std::cell::Cell;

use warlock_cost::ChunkBatch;
use warlock_fragment::LayoutScratch;

/// Reusable evaluation arenas: layout construction buffers, the chunk
/// batch, and the staging map from batch position back to group slot.
#[derive(Debug, Default)]
pub(super) struct EvalScratch {
    pub(super) layout: LayoutScratch,
    pub(super) batch: ChunkBatch,
    pub(super) staged: Vec<usize>,
}

thread_local! {
    /// This thread's scratch, or `None` while a call holds it (or
    /// before first use).
    static SCRATCH: Cell<Option<Box<EvalScratch>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's [`EvalScratch`], creating it on first
/// use and returning it to the thread-local slot afterwards (with
/// whatever capacity it grew). The scratch is *taken out* of the slot
/// for the duration of the call, so re-entrant use sees a fresh default
/// instead of aliasing — and a panicking `f` simply drops the scratch
/// rather than leaving a torn batch for the thread's next request.
pub(super) fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    let result = f(&mut scratch);
    SCRATCH.set(Some(scratch));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn scratch_persists_per_thread_and_nests_fresh() {
        // Tests may share a thread; start from an empty staging map.
        with_scratch(|s| s.staged.clear());
        // Same thread: state persists between calls.
        with_scratch(|s| s.staged.push(1));
        let seen = with_scratch(|s| {
            s.staged.push(2);
            s.staged.clone()
        });
        assert_eq!(seen, [1, 2]);
        // Re-entrant use gets a fresh default, not an alias of the
        // outer scratch.
        let (outer, inner) = with_scratch(|s| {
            s.staged.push(3);
            let inner = with_scratch(|nested| {
                nested.staged.push(10);
                nested.staged.clone()
            });
            (s.staged.clone(), inner)
        });
        assert_eq!((outer, inner), (vec![1, 2, 3], vec![10]));
        // A panicking call drops its scratch: the thread's next use
        // starts from a fresh default, not the torn state.
        let boom = catch_unwind(AssertUnwindSafe(|| {
            with_scratch(|s| {
                s.staged.push(99);
                panic!("evaluation boom");
            })
        }));
        assert!(boom.is_err());
        assert_eq!(with_scratch(|s| s.staged.capacity()), 0);
    }

    #[test]
    fn scratch_arenas_are_per_worker_thread() {
        with_scratch(|s| {
            s.staged.clear();
            s.staged.push(7);
        });
        // A scratch grown on one thread never shows up on another.
        let elsewhere = std::thread::spawn(|| with_scratch(|s| s.staged.clone()))
            .join()
            .unwrap();
        assert!(elsewhere.is_empty());
        assert_eq!(with_scratch(|s| s.staged.clone()), [7]);
    }
}
