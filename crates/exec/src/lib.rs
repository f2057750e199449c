//! `pq-exec`: a std-only structured-parallelism runtime for intra-query
//! execution.
//!
//! The service layer parallelizes *across* queries; this crate supplies the
//! other axis — parallelism *inside* one query. Every engine in `pq-engine`
//! fans its independent work out on the [`Pool`] carried by its execution
//! context, and a degree-1 pool runs that same code inline. No threadpool
//! dependency is pulled in: all concurrency is [`std::thread::scope`]d, so
//! worker lifetimes are bounded by the call that spawned them and panics
//! propagate to the caller instead of getting lost on a detached thread.
//!
//! The design is morsel-driven: a [`Pool`] call takes a slice of work items
//! (partitions, join-tree nodes, hash trials, rule instantiations, …) and a
//! closure, and workers *claim* items off a shared atomic cursor rather than
//! being dealt fixed shards. That keeps stragglers from idling the pool when
//! item costs are skewed — the common case for query operators.
//!
//! Determinism contract: results are merged **in item order**, never in
//! completion order. [`Pool::run`] and [`Pool::try_run`] return outputs
//! indexed exactly like their inputs, so any caller that fixes its item list
//! independently of the thread count gets byte-identical output at any
//! degree of parallelism. [`Pool::find_first`] resolves races by *smallest
//! item index*, mirroring what a sequential scan of the same items would
//! decide.
//!
//! A pool call made *inside* a pool worker runs inline on that worker: the
//! outer call already occupies the configured degree, so nesting (a Datalog
//! round whose rule jobs each run a chunked search, say) never multiplies
//! the thread count.
//!
//! The pool is deliberately **not** a queue of background threads: threads
//! are spawned per call and joined before the call returns. For the
//! coarse-grained items this workspace schedules (a hash-join partition, a
//! color-coding trial) spawn cost is noise, and structured lifetimes are
//! what make it safe to capture `&Relation` and friends without `Arc`ing
//! the world.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    /// Set on threads spawned by a pool call, so nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Environment variable consulted by [`default_threads`] (and therefore by
/// every component that sizes itself "from the environment"): set
/// `PQ_EXEC_THREADS=n` to force an intra-query parallelism degree.
pub const THREADS_ENV_VAR: &str = "PQ_EXEC_THREADS";

/// The intra-query parallelism degree implied by the environment:
/// `PQ_EXEC_THREADS` if set to a positive integer, else the machine's
/// available parallelism, else 1.
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `0..len` into at most `tasks` contiguous, non-empty ranges of
/// near-equal size, in order. With an order-preserving merge (what
/// [`Pool::run`] does), the chunking granularity never affects output — it
/// only bounds scheduling slack — so callers are free to pass any task
/// count without risking nondeterminism.
pub fn morsels(len: usize, tasks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let tasks = tasks.clamp(1, len);
    let base = len / tasks;
    let extra = len % tasks;
    let mut out = Vec::with_capacity(tasks);
    let mut start = 0;
    for i in 0..tasks {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// One trial's outcome for [`Pool::find_first`].
///
/// `Retire` exists for cooperative races: when a winner cancels the
/// stragglers, a cancelled trial reports `Retire` ("I stopped because the
/// race is over"), which is *non-decisive* — unlike `Abort`, it can never
/// override a `Hit` at a higher index.
#[derive(Debug)]
pub enum Verdict<O, E> {
    /// The trial succeeded with this witness; decisive.
    Hit(O),
    /// The trial completed without a witness; keep looking.
    Miss,
    /// The trial failed; decisive (a sequential scan would have stopped
    /// here and surfaced the error).
    Abort(E),
    /// The trial was abandoned because the race was already decided;
    /// non-decisive.
    Retire,
}

/// Point-in-time occupancy counters for a [`Pool`] (see [`Pool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The configured parallelism degree.
    pub threads: usize,
    /// Workers currently inside a pool call.
    pub active: usize,
    /// High-water mark of `active` over the pool's lifetime.
    pub peak: usize,
    /// Total work items executed through this pool.
    pub tasks_run: u64,
}

#[derive(Debug, Default)]
struct PoolInner {
    active: AtomicUsize,
    peak: AtomicUsize,
    tasks_run: AtomicU64,
}

impl PoolInner {
    fn enter(&self) {
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII occupancy accounting for one worker thread.
struct Occupied<'a>(&'a PoolInner);

impl<'a> Occupied<'a> {
    fn new(inner: &'a PoolInner) -> Self {
        inner.enter();
        Occupied(inner)
    }

    /// Occupancy for a spawned worker thread, which also marks the thread so
    /// pool calls nested inside it run inline.
    fn worker(inner: &'a PoolInner) -> Self {
        IN_WORKER.with(|w| w.set(true));
        Occupied::new(inner)
    }
}

impl Drop for Occupied<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// A handle configuring scoped parallel execution: a parallelism degree plus
/// shared occupancy counters.
///
/// Cheap to clone (the counters are `Arc`-shared, so clones report into the
/// same [`PoolStats`]); a degree-1 pool runs everything inline on the
/// calling thread, making serial execution the `threads == 1` special case
/// of the same code path rather than a separate one.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    inner: Arc<PoolInner>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// A pool with the given parallelism degree (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            inner: Arc::new(PoolInner::default()),
        }
    }

    /// A pool sized by [`default_threads`] (`PQ_EXEC_THREADS`, else the
    /// machine).
    pub fn from_env() -> Self {
        Pool::new(default_threads())
    }

    /// The configured parallelism degree.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Threads to spawn for `n` items: at most the degree, and none (run
    /// inline) when already on a worker of some pool call.
    fn workers(&self, n: usize) -> usize {
        if IN_WORKER.with(Cell::get) {
            1
        } else {
            self.threads.min(n)
        }
    }

    /// Snapshot the occupancy counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            active: self.inner.active.load(Ordering::Relaxed),
            peak: self.inner.peak.load(Ordering::Relaxed),
            tasks_run: self.inner.tasks_run.load(Ordering::Relaxed),
        }
    }

    /// Apply `f` to every item and return the outputs **in item order**.
    ///
    /// Workers claim items off a shared cursor (morsel-at-a-time); a panic
    /// in `f` propagates to the caller after the scope unwinds. With the
    /// same `items`, output is identical at any thread count.
    pub fn run<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let n = items.len();
        let workers = self.workers(n);
        if workers <= 1 {
            let _occ = Occupied::new(&self.inner);
            self.inner.tasks_run.fetch_add(n as u64, Ordering::Relaxed);
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, O)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let _occ = Occupied::worker(&self.inner);
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            self.inner.tasks_run.fetch_add(1, Ordering::Relaxed);
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        merge_indexed(n, parts)
    }

    /// Fallible [`Pool::run`]: apply `f` to every item; on success return
    /// the outputs in item order, otherwise the error from the
    /// **smallest-indexed** failing item.
    ///
    /// After any failure workers stop claiming new items, so a tripped
    /// resource budget stops the whole pool promptly. Smallest-index error
    /// selection keeps the surfaced error stable: it is the failure a
    /// sequential scan over the same items would have hit first (among the
    /// items that ran).
    pub fn try_run<I, O, E, F>(&self, items: &[I], f: F) -> Result<Vec<O>, E>
    where
        I: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &I) -> Result<O, E> + Sync,
    {
        let n = items.len();
        let workers = self.workers(n);
        if workers <= 1 {
            let _occ = Occupied::new(&self.inner);
            let mut out = Vec::with_capacity(n);
            for (i, it) in items.iter().enumerate() {
                self.inner.tasks_run.fetch_add(1, Ordering::Relaxed);
                out.push(f(i, it)?);
            }
            return Ok(out);
        }
        let next = AtomicUsize::new(0);
        // Smallest failing index seen so far; workers stop claiming items at
        // or past it (their results could never be returned).
        let failed_at = AtomicUsize::new(usize::MAX);
        // Per-worker partial results: successes with their item indexes,
        // plus the smallest-indexed error the worker hit (if any).
        type WorkerPart<O, E> = (Vec<(usize, O)>, Option<(usize, E)>);
        let parts: Vec<WorkerPart<O, E>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let _occ = Occupied::worker(&self.inner);
                        let mut local = Vec::new();
                        let mut err: Option<(usize, E)> = None;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n || i >= failed_at.load(Ordering::Relaxed) {
                                break;
                            }
                            self.inner.tasks_run.fetch_add(1, Ordering::Relaxed);
                            match f(i, &items[i]) {
                                Ok(o) => local.push((i, o)),
                                Err(e) => {
                                    failed_at.fetch_min(i, Ordering::Relaxed);
                                    if err.as_ref().is_none_or(|(j, _)| i < *j) {
                                        err = Some((i, e));
                                    }
                                }
                            }
                        }
                        (local, err)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut first_err: Option<(usize, E)> = None;
        let mut oks = Vec::new();
        for (local, err) in parts {
            oks.push(local);
            if let Some((i, e)) = err {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(merge_indexed(n, oks)),
        }
    }

    /// Race `f` over the items and return the **smallest-indexed decisive
    /// outcome**: `Ok(Some((i, o)))` for the lowest [`Verdict::Hit`],
    /// `Err(e)` if a [`Verdict::Abort`] occurred at a lower index than every
    /// hit, `Ok(None)` when every item missed or retired.
    ///
    /// Once any decisive verdict lands, workers stop claiming items past it.
    /// Callers running cooperative races (first-hit-wins with cancellation)
    /// should report cancelled stragglers as [`Verdict::Retire`] so they
    /// cannot masquerade as failures.
    pub fn find_first<I, O, E, F>(&self, items: &[I], f: F) -> Result<Option<(usize, O)>, E>
    where
        I: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &I) -> Verdict<O, E> + Sync,
    {
        let n = items.len();
        let workers = self.workers(n);
        if workers <= 1 {
            let _occ = Occupied::new(&self.inner);
            for (i, it) in items.iter().enumerate() {
                self.inner.tasks_run.fetch_add(1, Ordering::Relaxed);
                match f(i, it) {
                    Verdict::Hit(o) => return Ok(Some((i, o))),
                    Verdict::Abort(e) => return Err(e),
                    Verdict::Miss | Verdict::Retire => {}
                }
            }
            return Ok(None);
        }
        let next = AtomicUsize::new(0);
        let decided_at = AtomicUsize::new(usize::MAX);
        let parts: Vec<Vec<(usize, Verdict<O, E>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let _occ = Occupied::worker(&self.inner);
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n || i > decided_at.load(Ordering::Relaxed) {
                                break;
                            }
                            self.inner.tasks_run.fetch_add(1, Ordering::Relaxed);
                            let v = f(i, &items[i]);
                            match v {
                                Verdict::Hit(_) | Verdict::Abort(_) => {
                                    decided_at.fetch_min(i, Ordering::Relaxed);
                                    local.push((i, v));
                                }
                                Verdict::Miss | Verdict::Retire => {}
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut best: Option<(usize, Verdict<O, E>)> = None;
        for (i, v) in parts.into_iter().flatten() {
            if best.as_ref().is_none_or(|(j, _)| i < *j) {
                best = Some((i, v));
            }
        }
        match best {
            Some((i, Verdict::Hit(o))) => Ok(Some((i, o))),
            Some((_, Verdict::Abort(e))) => Err(e),
            _ => Ok(None),
        }
    }
}

/// Place `(index, value)` fragments into a dense, input-ordered vector.
fn merge_indexed<O>(n: usize, parts: Vec<Vec<(usize, O)>>) -> Vec<O> {
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, o) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "item {i} produced twice");
        slots[i] = Some(o);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_item_order_at_any_degree() {
        let items: Vec<usize> = (0..100).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for t in [1, 2, 8, 32] {
            let pool = Pool::new(t);
            let got = pool.run(&items, |_, x| x * 3);
            assert_eq!(got, serial, "degree {t}");
        }
    }

    #[test]
    fn try_run_surfaces_smallest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for t in [1, 2, 8] {
            let pool = Pool::new(t);
            let res: Result<Vec<usize>, usize> =
                pool.try_run(&items, |i, x| if *x >= 10 { Err(i) } else { Ok(*x) });
            let e = res.unwrap_err();
            // Exactly which failing item is surfaced can vary with timing,
            // but it is always a genuinely failing one, and at degree 1 it
            // is the first.
            assert!(e >= 10, "degree {t}: surfaced a non-failing index {e}");
            if t == 1 {
                assert_eq!(e, 10);
            }
        }
    }

    #[test]
    fn try_run_ok_is_ordered() {
        let items: Vec<u64> = (0..33).collect();
        let pool = Pool::new(4);
        let got: Vec<u64> = pool
            .try_run(&items, |_, x| Ok::<u64, ()>(x + 1))
            .expect("no failures");
        assert_eq!(got, (1..=33).collect::<Vec<u64>>());
    }

    #[test]
    fn find_first_picks_lowest_hit() {
        let items: Vec<usize> = (0..64).collect();
        for t in [1, 2, 8] {
            let pool = Pool::new(t);
            let got = pool
                .find_first(&items, |_, x| {
                    if *x == 7 || *x == 40 {
                        Verdict::Hit(*x)
                    } else {
                        Verdict::<usize, ()>::Miss
                    }
                })
                .expect("no aborts");
            // 40 may or may not have been claimed before 7 decided, but the
            // merge always prefers the smaller index.
            assert_eq!(got, Some((7, 7)), "degree {t}");
        }
    }

    #[test]
    fn find_first_abort_below_hit_wins() {
        let items: Vec<usize> = (0..32).collect();
        let pool = Pool::new(4);
        let got = pool.find_first(&items, |_, x| match *x {
            3 => Verdict::Abort("boom"),
            9 => Verdict::Hit(*x),
            _ => Verdict::Miss,
        });
        assert_eq!(got, Err("boom"));
    }

    #[test]
    fn find_first_retire_is_not_decisive() {
        let items: Vec<usize> = (0..8).collect();
        let pool = Pool::new(2);
        let got = pool.find_first(&items, |_, x| {
            if *x == 5 {
                Verdict::Hit(*x)
            } else {
                Verdict::<usize, ()>::Retire
            }
        });
        assert_eq!(got, Ok(Some((5, 5))));
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&items, |_, x| {
                assert!(*x != 11, "worker panic");
                *x
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn occupancy_counters_track_peak_and_tasks() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let _ = pool.run(&items, |_, x| *x);
        let s = pool.stats();
        assert_eq!(s.threads, 4);
        assert_eq!(s.active, 0, "all workers left the scope");
        assert!(s.peak >= 1);
        assert_eq!(s.tasks_run, 100);
    }

    #[test]
    fn morsels_cover_the_range_in_order() {
        for (len, tasks) in [(0, 4), (1, 4), (10, 3), (10, 100), (7, 1)] {
            let m = morsels(len, tasks);
            let mut covered = 0;
            for r in &m {
                assert_eq!(r.start, covered, "contiguous and ordered");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
            assert!(m.len() <= tasks.max(1));
        }
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..8).collect();
        let got = pool.run(&items, |_, &x| {
            let outer = std::thread::current().id();
            let inner = pool.run(&items, |_, &y| (std::thread::current().id(), x * 10 + y));
            assert!(
                inner.iter().all(|(id, _)| *id == outer),
                "nested call spawned"
            );
            inner.into_iter().map(|(_, v)| v).sum::<usize>()
        });
        let want: Vec<usize> = items.iter().map(|x| x * 80 + 28).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn degree_one_pool_runs_inline() {
        let pool = Pool::new(1);
        let items = vec![1u64, 2, 3];
        assert_eq!(pool.run(&items, |_, x| x * 2), vec![2, 4, 6]);
        assert_eq!(pool.stats().peak, 1);
    }
}
