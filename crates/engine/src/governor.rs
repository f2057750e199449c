//! The execution governor: resource limits for engines that are
//! super-polynomial by nature.
//!
//! Every evaluator in this crate can blow up on adversarial inputs — that is
//! the point of Theorems 1 and 3 (`n^q` time is "likely optimal"), and even
//! the Theorem 2 color-coding algorithm carries its `g(v)` factor. A service
//! embedding these engines therefore needs a way to say *stop*: after a
//! wall-clock deadline, after materializing too many intermediate tuples,
//! past a recursion depth, or when a caller cancels from another thread.
//!
//! [`ExecutionContext`] carries those four limits. Engines poll it at loop
//! heads ([`ExecutionContext::tick`]), charge every materialized intermediate
//! tuple against the budget ([`ExecutionContext::charge_tuples`]), and check
//! the depth of their recursive descents ([`ExecutionContext::descend`]).
//! When a limit trips, the engine unwinds with
//! [`EngineError::ResourceExhausted`] — a structured "gave up" distinct from
//! an empty answer — and the context's counters report how far it got.
//!
//! Deadline checks are amortized: `tick` looks at the wall clock only once
//! every [`TICKS_PER_CLOCK_CHECK`] calls, so governed hot loops do not pay a
//! syscall per tuple.
//!
//! Fault injection (`cfg(any(test, feature = "fault-injection"))`): a
//! `FaultSpec` arms the context to fail deterministically at the `n`-th
//! tick with a chosen [`ResourceKind`], letting tests drive every
//! resource-exhaustion path through every engine without real clocks or
//! threads.
//!
//! # One envelope for any number of threads
//!
//! The context is `Sync`: its counters are atomics, and it also carries the
//! [`Pool`] the query may fan out on ([`ExecutionContext::pool`]). Engines
//! hand `&ExecutionContext` to every pool worker, so all workers draw down
//! **one** tuple budget against **one** deadline, and exhaustion in any
//! worker makes every other worker's next charge fail too. The default pool
//! has degree 1 and runs every item inline on the caller, so a serial
//! evaluation is the degree-1 case of the same code, charging the same
//! counters in the same order (with plain loads and stores, as nothing else
//! can touch them then).
//!
//! Only envelope-wide state lives here. Recursion depth is a call-stack
//! position, so the recursive engines pass it as an argument and ask
//! [`ExecutionContext::descend`] whether one more level is allowed. A race
//! between chunks of one search (first witness wins) is scoped to that
//! search, so the engine running it checks its own race token.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pq_exec::Pool;

use crate::error::{EngineError, Result};

/// Which resource ran out. Carried by [`EngineError::ResourceExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ResourceKind {
    /// The wall-clock deadline passed.
    Timeout,
    /// The intermediate-tuple budget was spent.
    TupleBudget,
    /// The recursion-depth limit was reached.
    DepthLimit,
    /// The cancellation token was triggered.
    Cancelled,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResourceKind::Timeout => "deadline exceeded",
            ResourceKind::TupleBudget => "tuple budget exhausted",
            ResourceKind::DepthLimit => "recursion depth limit reached",
            ResourceKind::Cancelled => "cancelled",
        })
    }
}

/// A shareable cancellation flag. Clone it into another thread and call
/// [`CancellationToken::cancel`]; every governed engine polling the paired
/// [`ExecutionContext`] unwinds with [`ResourceKind::Cancelled`] at its next
/// loop head.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How often `tick` consults the wall clock / cancellation flag: once per
/// this many calls. Power of two so the check compiles to a mask.
pub const TICKS_PER_CLOCK_CHECK: u64 = 256;

/// Deterministic fault injection: fail as if `kind` had tripped once the
/// context has seen `after_ticks` ticks.
///
/// The fault is **one-shot**: it fires at the first qualifying tick and then
/// disarms, so a fallback engine retrying on the same context runs normally —
/// exactly the scenario the planner's degradation chain needs to exercise.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Trip at the first tick whose ordinal is `>= after_ticks`.
    pub after_ticks: u64,
    /// The kind of exhaustion to report.
    pub kind: ResourceKind,
}

/// Resource limits, live counters and the worker pool for one evaluation.
///
/// Engines share one `&ExecutionContext` down arbitrarily nested call
/// chains and across every worker of [`ExecutionContext::pool`].
///
/// A context is reusable across engines: the budget and deadline are *spent*,
/// not reset, so handing the same context to a fallback engine naturally
/// gives it only the remaining allowance (what `pq-core`'s planner fallback
/// chain does).
///
/// Deliberately not `Clone`: a copy would fork the budget counters, silently
/// doubling the allowance.
#[derive(Debug)]
pub struct ExecutionContext {
    deadline: Option<Instant>,
    /// Whether a tuple budget is in force (`tuples_remaining` is only
    /// meaningful when set — an `AtomicU64` has no `None`).
    budgeted: bool,
    tuples_remaining: AtomicU64,
    max_depth: Option<usize>,
    cancel: Option<CancellationToken>,
    ticks: AtomicU64,
    atoms_processed: AtomicU64,
    tuples_materialized: AtomicU64,
    pool: Pool,
    /// Fast-path flag so unarmed contexts never touch the mutex in `tick`.
    #[cfg(any(test, feature = "fault-injection"))]
    fault_armed: AtomicBool,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Mutex<Option<FaultSpec>>,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        ExecutionContext {
            deadline: None,
            budgeted: false,
            tuples_remaining: AtomicU64::new(0),
            max_depth: None,
            cancel: None,
            ticks: AtomicU64::new(0),
            atoms_processed: AtomicU64::new(0),
            tuples_materialized: AtomicU64::new(0),
            pool: Pool::new(1),
            #[cfg(any(test, feature = "fault-injection"))]
            fault_armed: AtomicBool::new(false),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(None),
        }
    }
}

impl ExecutionContext {
    /// A context with no limits (what the ungoverned public entry points
    /// use). All accounting still happens, so counters stay meaningful.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Start from no limits and a degree-1 pool; chain `with_*` to add
    /// limits or parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail with [`ResourceKind::Timeout`] once `budget` of wall-clock time
    /// has elapsed (measured from this call).
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Fail with [`ResourceKind::TupleBudget`] once engines have materialized
    /// more than `budget` intermediate tuples.
    #[must_use]
    pub fn with_tuple_budget(mut self, budget: u64) -> Self {
        self.budgeted = true;
        self.tuples_remaining = AtomicU64::new(budget);
        self
    }

    /// Fail with [`ResourceKind::DepthLimit`] when governed recursion nests
    /// deeper than `depth`.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Poll `token` at loop heads; fail with [`ResourceKind::Cancelled`] once
    /// it trips.
    #[must_use]
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Let engines fan this evaluation out on `pool`. Output is identical
    /// at any pool degree; only the wall-clock time changes.
    #[must_use]
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Arm deterministic fault injection: the first tick at or past
    /// `spec.after_ticks` fails with `spec.kind`, then the fault disarms.
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.fault_armed = AtomicBool::new(true);
        self.fault = Mutex::new(Some(spec));
        self
    }

    /// The pool engines fan out on (degree 1 unless set with
    /// [`ExecutionContext::with_pool`]).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    // ---- accounting reads ----

    /// Ticks seen so far (loop-head polls across all engines and workers on
    /// this context).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Atoms (or operators/rules, per engine) processed so far.
    pub fn atoms_processed(&self) -> u64 {
        self.atoms_processed.load(Ordering::Relaxed)
    }

    /// Intermediate tuples charged so far.
    pub fn tuples_materialized(&self) -> u64 {
        self.tuples_materialized.load(Ordering::Relaxed)
    }

    /// Tuples still allowed, or `None` when unbudgeted.
    pub fn tuples_remaining(&self) -> Option<u64> {
        self.budgeted
            .then(|| self.tuples_remaining.load(Ordering::Relaxed))
    }

    /// Is any limit or fault configured? (`false` for
    /// [`ExecutionContext::unlimited`]; used by planners to skip
    /// fallback machinery when nothing can trip.)
    pub fn is_limited(&self) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fault_armed.load(Ordering::Relaxed) {
            return true;
        }
        self.deadline.is_some()
            || self.budgeted
            || self.max_depth.is_some()
            || self.cancel.is_some()
    }

    // ---- charging ----

    /// Loop-head poll. Cheap (counter increment); consults the wall clock and
    /// cancellation flag once every [`TICKS_PER_CLOCK_CHECK`] calls, counted
    /// across every worker of the envelope.
    #[inline]
    pub fn tick(&self, engine: &'static str) -> Result<()> {
        let t = self.bump(&self.ticks, 1);
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fault_armed.load(Ordering::Relaxed) {
            let mut slot = self.fault.lock().expect("fault slot poisoned");
            if let Some(f) = *slot {
                if t >= f.after_ticks {
                    // One-shot: disarm so fallbacks proceed.
                    *slot = None;
                    self.fault_armed.store(false, Ordering::Relaxed);
                    return Err(self.exhausted(f.kind, engine));
                }
            }
        }
        if t.is_multiple_of(TICKS_PER_CLOCK_CHECK) {
            self.check_clock_and_cancel(engine)?;
        }
        Ok(())
    }

    /// Count one processed atom/operator/rule (diagnostics only; never fails).
    #[inline]
    pub fn note_atom(&self) {
        self.bump(&self.atoms_processed, 1);
    }

    /// Charge `n` materialized intermediate tuples against the budget.
    #[inline]
    pub fn charge_tuples(&self, engine: &'static str, n: u64) -> Result<()> {
        self.bump(&self.tuples_materialized, n);
        if !self.budgeted {
            return Ok(());
        }
        let mut have = self.tuples_remaining.load(Ordering::Relaxed);
        loop {
            if n > have {
                // Sticky zero: every other worker's next charge also fails,
                // so exhaustion anywhere stops the envelope.
                self.tuples_remaining.store(0, Ordering::Relaxed);
                return Err(self.exhausted(ResourceKind::TupleBudget, engine));
            }
            match self.tuples_remaining.compare_exchange_weak(
                have,
                have - n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => have = actual,
            }
        }
    }

    /// Enter one level of governed recursion below `depth` and return the
    /// new depth; recursive engines start at 0 and pass the result down:
    ///
    /// ```
    /// # use pq_engine::governor::ExecutionContext;
    /// fn walk(ctx: &ExecutionContext, n: u32, depth: usize) -> pq_engine::Result<u32> {
    ///     let depth = ctx.descend(depth, "demo")?;
    ///     if n == 0 { return Ok(0); }
    ///     walk(ctx, n - 1, depth)
    /// }
    /// let ctx = ExecutionContext::new().with_max_depth(8);
    /// assert!(walk(&ctx, 5, 0).is_ok());
    /// assert!(walk(&ctx, 50, 0).is_err());
    /// ```
    #[inline]
    pub fn descend(&self, depth: usize, engine: &'static str) -> Result<usize> {
        let d = depth + 1;
        if self.max_depth.is_some_and(|max| d > max) {
            return Err(self.exhausted(ResourceKind::DepthLimit, engine));
        }
        Ok(d)
    }

    /// Add `n` to one of the counters and return its new value. Engines
    /// fan out only on [`ExecutionContext::pool`], and a degree-1 pool runs
    /// every task on the calling thread, so then only that thread updates
    /// the counters: a plain load and store cannot lose an update, and it
    /// costs what a `Cell` would (governed scans tick once per tuple, so an
    /// atomic add there is measurable). Wider pools need the atomic add.
    #[inline]
    fn bump(&self, counter: &AtomicU64, n: u64) -> u64 {
        if self.pool.threads() == 1 {
            let v = counter.load(Ordering::Relaxed) + n;
            counter.store(v, Ordering::Relaxed);
            v
        } else {
            counter.fetch_add(n, Ordering::Relaxed) + n
        }
    }

    /// Build the structured exhaustion error for this context's counters.
    /// Public so engines can report engine-specific trip points (e.g. a
    /// trial-loop bound) with consistent accounting.
    pub fn exhausted(&self, kind: ResourceKind, engine: &'static str) -> EngineError {
        EngineError::ResourceExhausted {
            kind,
            engine,
            atoms_processed: self.atoms_processed(),
            tuples_materialized: self.tuples_materialized(),
        }
    }

    fn check_clock_and_cancel(&self, engine: &'static str) -> Result<()> {
        if self
            .cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
        {
            return Err(self.exhausted(ResourceKind::Cancelled, engine));
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            return Err(self.exhausted(ResourceKind::Timeout, engine));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecutionContext::unlimited();
        for _ in 0..10_000 {
            ctx.tick("t").unwrap();
        }
        ctx.charge_tuples("t", u64::MAX / 2).unwrap();
        assert!(!ctx.is_limited());
        assert_eq!(ctx.ticks(), 10_000);
        assert_eq!(ctx.pool().threads(), 1);
    }

    #[test]
    fn tuple_budget_trips_at_the_boundary() {
        let ctx = ExecutionContext::new().with_tuple_budget(10);
        ctx.charge_tuples("t", 10).unwrap();
        let err = ctx.charge_tuples("t", 1).unwrap_err();
        match err {
            EngineError::ResourceExhausted {
                kind,
                engine,
                tuples_materialized,
                ..
            } => {
                assert_eq!(kind, ResourceKind::TupleBudget);
                assert_eq!(engine, "t");
                assert_eq!(tuples_materialized, 11);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_only_on_clock_check_ticks() {
        let ctx = ExecutionContext::new().with_deadline(Duration::ZERO);
        // Below the check interval nothing trips (amortization)…
        for _ in 0..TICKS_PER_CLOCK_CHECK - 1 {
            ctx.tick("t").unwrap();
        }
        // …and the check-interval tick observes the expired deadline.
        let err = ctx.tick("t").unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                kind: ResourceKind::Timeout,
                ..
            }
        ));
    }

    #[test]
    fn cancellation_is_observed_from_the_token() {
        let token = CancellationToken::new();
        let ctx = ExecutionContext::new().with_cancellation(token.clone());
        for _ in 0..TICKS_PER_CLOCK_CHECK {
            ctx.tick("t").unwrap();
        }
        token.cancel();
        let mut tripped = None;
        for _ in 0..TICKS_PER_CLOCK_CHECK {
            if let Err(e) = ctx.tick("t") {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(
            tripped,
            Some(EngineError::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn descend_counts_levels_against_the_limit() {
        let ctx = ExecutionContext::new().with_max_depth(2);
        let d1 = ctx.descend(0, "t").unwrap();
        let d2 = ctx.descend(d1, "t").unwrap();
        assert_eq!(d2, 2);
        assert!(matches!(
            ctx.descend(d2, "t"),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::DepthLimit,
                ..
            })
        ));
        // A sibling branch at the same depth is still allowed.
        assert_eq!(ctx.descend(d1, "t").unwrap(), 2);
        // Unlimited contexts never refuse.
        assert_eq!(
            ExecutionContext::unlimited().descend(1000, "t").unwrap(),
            1001
        );
    }

    #[test]
    fn budget_is_shared_across_uses_for_fallback_semantics() {
        let ctx = ExecutionContext::new().with_tuple_budget(100);
        ctx.charge_tuples("first-engine", 70).unwrap();
        assert_eq!(ctx.tuples_remaining(), Some(30));
        // A second engine on the same context only gets what is left.
        assert!(ctx.charge_tuples("second-engine", 40).is_err());
    }

    #[test]
    fn budget_exhaustion_is_sticky() {
        let ctx = ExecutionContext::new().with_tuple_budget(10);
        ctx.charge_tuples("t", 8).unwrap();
        assert!(ctx.charge_tuples("t", 5).is_err(), "overdraw");
        // Sticky zero: even a tiny charge fails afterwards, so a worker
        // that overdraws stops every other worker of the envelope.
        assert!(matches!(
            ctx.charge_tuples("t", 1),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::TupleBudget,
                ..
            })
        ));
        assert_eq!(ctx.tuples_remaining(), Some(0));
    }

    /// A tuple budget and an injected fault trip at the same *global*
    /// charge and tick whether one thread or four pool workers drive the
    /// context: the envelope counts every worker's charges and ticks.
    #[test]
    fn budget_and_fault_trip_at_the_same_global_point_on_any_number_of_threads() {
        const BUDGET: u64 = 100;
        const FAULT_AT: u64 = 50;
        for threads in [1, 4] {
            let ctx = ExecutionContext::new()
                .with_tuple_budget(BUDGET)
                .with_fault(FaultSpec {
                    after_ticks: FAULT_AT,
                    kind: ResourceKind::Timeout,
                })
                .with_pool(Pool::new(threads));
            assert!(ctx.is_limited());

            // Ticks 1..FAULT_AT-1, spread over the workers: none trips.
            let early: Vec<u64> = (1..FAULT_AT).collect();
            let ok = ctx.pool().try_run(&early, |_, _| ctx.tick("t"));
            assert!(ok.is_ok(), "{threads} threads: fault fired early");
            // The FAULT_AT-th global tick trips, whoever takes it…
            assert!(
                matches!(
                    ctx.tick("t"),
                    Err(EngineError::ResourceExhausted {
                        kind: ResourceKind::Timeout,
                        ..
                    })
                ),
                "{threads} threads"
            );
            // …exactly once: the fault is disarmed for every worker.
            let late: Vec<u64> = (0..64).collect();
            assert!(ctx.pool().try_run(&late, |_, _| ctx.tick("t")).is_ok());
            assert_eq!(ctx.ticks(), FAULT_AT + 64, "{threads} threads");

            // The whole budget, one tuple per item across the workers.
            let charges: Vec<u64> = (0..BUDGET).collect();
            let ok = ctx
                .pool()
                .try_run(&charges, |_, _| ctx.charge_tuples("t", 1));
            assert!(ok.is_ok(), "{threads} threads: budget tripped early");
            assert_eq!(ctx.tuples_remaining(), Some(0), "{threads} threads");
            // The next global charge trips.
            let err = ctx.charge_tuples("t", 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::ResourceExhausted {
                        kind: ResourceKind::TupleBudget,
                        tuples_materialized,
                        ..
                    } if tuples_materialized == BUDGET + 1
                ),
                "{threads} threads: {err:?}"
            );
        }
    }

    #[test]
    fn cancellation_reaches_every_worker() {
        let token = CancellationToken::new();
        let ctx = ExecutionContext::new()
            .with_cancellation(token.clone())
            .with_pool(Pool::new(2));
        token.cancel();
        let items: Vec<u64> = (0..2 * TICKS_PER_CLOCK_CHECK).collect();
        let res = ctx.pool().try_run(&items, |_, _| ctx.tick("t"));
        assert!(matches!(
            res,
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));
    }

    #[test]
    fn fault_injection_trips_exactly_at_the_requested_tick() {
        let ctx = ExecutionContext::new().with_fault(FaultSpec {
            after_ticks: 5,
            kind: ResourceKind::Timeout,
        });
        for _ in 0..4 {
            ctx.tick("t").unwrap();
        }
        assert!(matches!(
            ctx.tick("t"),
            Err(EngineError::ResourceExhausted {
                kind: ResourceKind::Timeout,
                ..
            })
        ));
        // One-shot: the fault disarms after firing, so a fallback engine
        // reusing the context runs normally.
        for _ in 0..100 {
            ctx.tick("t").unwrap();
        }
        assert!(!ctx.is_limited());
    }
}
