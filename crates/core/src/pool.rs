//! The host worker pool: fan independent whole-VM runs out over OS
//! threads. Separate `HeraJvm` instances share no state, so this is the
//! only host parallelism in the repo — per-machine reference runs in the
//! cluster simulator, workload × configuration grids in golden capture.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `extra` scoped threads plus the calling thread, spawned per
/// [`WorkerPool::map`] call (a whole-VM job dwarfs a thread spawn).
pub struct WorkerPool {
    extra: usize,
}

impl WorkerPool {
    /// A pool contributing `extra` threads on top of the calling thread
    /// (so `new(0)` is a valid, purely sequential pool).
    pub fn new(extra: usize) -> WorkerPool {
        WorkerPool { extra }
    }

    /// Evaluate `f(0..n)` concurrently, returning results in index order.
    /// A panicking job propagates to the caller once every thread has
    /// stopped.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let next = AtomicUsize::new(0);
        // Each thread claims indices until none are left. `Relaxed`: the
        // counter publishes nothing; results travel through the join.
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let mut all = std::thread::scope(|s| {
            let threads = self.extra.min(n.saturating_sub(1));
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
            let mut all = claim();
            for h in handles {
                all.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            all
        });
        all.sort_unstable_by_key(|&(i, _)| i);
        all.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = WorkerPool::new(3);
        let calls = AtomicUsize::new(0);
        let out = pool.map(1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * i
        });
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(calls.into_inner(), 1000, "every index runs exactly once");
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn a_pool_with_no_extra_threads_runs_on_the_caller() {
        let me = std::thread::current().id();
        let ids = WorkerPool::new(0).map(16, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn a_panicking_job_propagates_and_the_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let job = |i: usize| {
            assert_ne!(i, 5, "job 5 fails");
            i
        };
        // Wherever job 5 lands — the caller or a spawned thread — the
        // panic reaches the caller instead of hanging the join.
        assert!(catch_unwind(AssertUnwindSafe(|| pool.map(32, job))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| WorkerPool::new(0).map(32, job))).is_err());
        assert_eq!(pool.map(4, |i| i + 1), vec![1, 2, 3, 4]);
    }
}
