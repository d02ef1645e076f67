//! Offline stand-in for the parts of `rayon` this workspace uses.
//!
//! The build environment has no crates.io access. The synthesis crate needs
//! scoped fork-join parallelism (`rayon::scope` + `Scope::spawn`) and
//! `current_num_threads` to size its work chunks; both are implemented here
//! directly on [`std::thread::scope`], so spawned closures may borrow from the
//! enclosing stack exactly as with the real rayon. Each `spawn` starts an OS
//! thread instead of queueing onto a work-stealing pool — callers in this
//! workspace spawn one task per hardware thread, for which that is equivalent.

use std::sync::OnceLock;
use std::thread;

/// Number of threads worth fanning out to (the real rayon reports its pool
/// size; this shim reports [`std::thread::available_parallelism`]). Read once
/// and cached, like the real pool's size: the query reads cgroup files on
/// every call, which costs tens of microseconds.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A scope in which borrowed-data tasks can be spawned; see [`scope`].
#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope; the task is
    /// joined before [`scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let scope = *self;
        self.inner.spawn(move || f(&scope));
    }
}

/// Runs `f` with a [`Scope`]; returns once every spawned task has finished.
///
/// Panics from spawned tasks propagate to the caller, as with the real rayon.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn spawned_tasks_run_and_join() {
        let sum = AtomicU64::new(0);
        super::scope(|s| {
            for i in 1..=10u64 {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn scope_returns_closure_value() {
        let out = super::scope(|_| 41 + 1);
        assert_eq!(out, 42);
    }

    #[test]
    fn reports_at_least_one_thread() {
        assert!(super::current_num_threads() >= 1);
    }
}
