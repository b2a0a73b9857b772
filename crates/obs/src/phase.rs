//! Hierarchical phase timers.
//!
//! A [`Timers`] accumulates wall time per [`Phase`]. Phases nest: while a
//! phase is active, time spent in phases started inside it is attributed to
//! the child *and* charged against the parent's `child_ns`, so each phase
//! reports both **total** time (inclusive of children) and **self** time
//! (exclusive). Nesting is tracked by a runtime stack, so the hierarchy is
//! whatever the call structure actually was — no static tree to declare.
//!
//! Two APIs, same accounting:
//!
//! - [`Timers::scope`] returns a [`PhaseGuard`] that stops the phase on
//!   drop — the structured option, immune to early returns.
//! - [`Timers::start`] / [`Timers::stop`] for hot paths inside `&mut self`
//!   methods where holding a guard across a call would fight the borrow
//!   checker. Calls must pair up; a mismatched stop panics in debug builds
//!   and pops the innermost frame in release builds.
//!
//! All methods take `&self` (interior mutability) so guards can nest and
//! probes can fire from anywhere. Steady-state use performs no heap
//! allocation: the per-phase slots are a fixed array and the nesting stack
//! preallocates [`MAX_DEPTH`] frames.

use std::cell::RefCell;
use std::time::Instant;

/// Maximum practical nesting depth preallocated by the timer stack.
///
/// Exceeding it is not an error — the stack grows — but the growth
/// allocates, so probes deeper than this void the steady-state
/// allocation-free guarantee. The solver's deepest real chain is
/// `resolve → edge-insert → cycle-detect`/`collapse`, depth 3.
pub const MAX_DEPTH: usize = 32;

/// A solver phase, the unit of time attribution.
///
/// The variants mirror the stages of a full run as `docs/OBSERVABILITY.md`
/// documents them; [`Phase::ALL`] fixes the report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Constraint generation (the points-to / cfa / synth drivers).
    Generate = 0,
    /// The resolution worklist loop (`Solver::solve` / `solve_limited`).
    Resolve = 1,
    /// Edge insertion plus the closure-rule fan-out it triggers.
    EdgeInsert = 2,
    /// Partial online chain searches (Section 2.5).
    CycleDetect = 3,
    /// Cycle collapse: forwarding members into the witness and re-asserting
    /// their edges.
    Collapse = 4,
    /// Periodic offline Tarjan passes (`CycleElim::Periodic` only).
    OfflinePass = 5,
    /// Building the oracle partition from a converged run's logs.
    OraclePartition = 6,
    /// The least-solution pass (Section 2.4, equation (1)).
    LeastSolution = 7,
    /// A session's least-solution revalidation after a commit (`bane-serve`,
    /// docs/INCREMENTAL.md), recorded on the session's recorder.
    Revalidate = 8,
    /// Freezing the post-closure graph into the CSR least-solution snapshot
    /// (DESIGN.md §4e). Nested inside `LeastSolution`/`Revalidate`.
    CsrBuild = 9,
    /// Loading an on-disk snapshot into a read-only `QueryIndex`
    /// (`bane-snap`, docs/SERVING.md): open, map/read, validate, checksum.
    SnapLoad = 10,
    /// Applying a `Delta` batch to a live `Session` (`bane-serve`,
    /// docs/INCREMENTAL.md): dirty-set computation, re-solve, and the
    /// level-restricted least-solution revalidation.
    ServeApply = 11,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 12;

    /// Every phase, in canonical report order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Generate,
        Phase::Resolve,
        Phase::EdgeInsert,
        Phase::CycleDetect,
        Phase::Collapse,
        Phase::OfflinePass,
        Phase::OraclePartition,
        Phase::LeastSolution,
        Phase::Revalidate,
        Phase::CsrBuild,
        Phase::SnapLoad,
        Phase::ServeApply,
    ];

    /// The stable name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Resolve => "resolve",
            Phase::EdgeInsert => "edge-insert",
            Phase::CycleDetect => "cycle-detect",
            Phase::Collapse => "collapse",
            Phase::OfflinePass => "offline-pass",
            Phase::OraclePartition => "oracle-partition",
            Phase::LeastSolution => "least-solution",
            Phase::Revalidate => "revalidate",
            Phase::CsrBuild => "csr-build",
            Phase::SnapLoad => "snap-load",
            Phase::ServeApply => "serve-apply",
        }
    }

    /// The phase with the given stable name, if any.
    pub fn by_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Accumulated figures for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Completed `start`/`stop` pairs.
    pub calls: u64,
    /// Total elapsed nanoseconds, inclusive of nested phases.
    pub total_ns: u64,
    /// Nanoseconds attributed to phases nested inside this one.
    pub child_ns: u64,
}

impl PhaseSnapshot {
    /// Time spent in the phase itself, excluding nested phases.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    phase: Phase,
    start: Instant,
    child_ns: u64,
}

/// The hierarchical phase-timer set. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Timers {
    slots: RefCell<[PhaseSnapshot; Phase::COUNT]>,
    stack: RefCell<Vec<Frame>>,
}

impl Default for Timers {
    fn default() -> Self {
        Timers {
            slots: RefCell::new([PhaseSnapshot::default(); Phase::COUNT]),
            stack: RefCell::new(Vec::with_capacity(MAX_DEPTH)),
        }
    }
}

impl Timers {
    /// Fresh, empty timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts `phase`. Must be paired with a later [`stop`](Timers::stop)
    /// of the same phase (or use [`scope`](Timers::scope)).
    #[inline]
    pub fn start(&self, phase: Phase) {
        self.stack.borrow_mut().push(Frame { phase, start: Instant::now(), child_ns: 0 });
    }

    /// Stops `phase`, accumulating its elapsed time and charging it to the
    /// enclosing phase's child time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `phase` is not the innermost started
    /// phase; release builds pop the innermost frame regardless.
    #[inline]
    pub fn stop(&self, phase: Phase) {
        let mut stack = self.stack.borrow_mut();
        let Some(frame) = stack.pop() else {
            debug_assert!(false, "stop({phase:?}) with no phase active");
            return;
        };
        debug_assert_eq!(
            frame.phase, phase,
            "mismatched stop: innermost phase is {:?}",
            frame.phase
        );
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed);
        }
        drop(stack);
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[frame.phase as usize];
        slot.calls += 1;
        slot.total_ns = slot.total_ns.saturating_add(elapsed);
        slot.child_ns = slot.child_ns.saturating_add(frame.child_ns);
    }

    /// Records one already-measured call of `phase` lasting `ns`
    /// nanoseconds.
    ///
    /// For spans timed *outside* this timer set — typically on a worker
    /// thread, whose clock readings are handed back to the owning thread
    /// after a barrier (the timer stack itself is single-threaded; only the
    /// counter registry is `Sync`). The span is accounted flat: it joins no
    /// parent/child attribution, so `child_ns` of any active phase is
    /// unaffected.
    #[inline]
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[phase as usize];
        slot.calls += 1;
        slot.total_ns = slot.total_ns.saturating_add(ns);
    }

    /// Starts `phase` and returns a guard stopping it when dropped.
    pub fn scope(&self, phase: Phase) -> PhaseGuard<'_> {
        self.start(phase);
        PhaseGuard { timers: self, phase }
    }

    /// The accumulated snapshot of `phase` (completed calls only).
    pub fn get(&self, phase: Phase) -> PhaseSnapshot {
        self.slots.borrow()[phase as usize]
    }

    /// Snapshots every phase with at least one completed call, in
    /// [`Phase::ALL`] order, as report rows.
    pub fn snapshot(&self) -> Vec<crate::report::PhaseReport> {
        let slots = self.slots.borrow();
        Phase::ALL
            .into_iter()
            .filter_map(|p| {
                let s = slots[p as usize];
                (s.calls > 0).then(|| crate::report::PhaseReport {
                    phase: p.name().to_string(),
                    calls: s.calls,
                    total_ns: s.total_ns,
                    self_ns: s.self_ns(),
                })
            })
            .collect()
    }

    /// Clears all accumulated figures and any active frames.
    pub fn reset(&self) {
        *self.slots.borrow_mut() = [PhaseSnapshot::default(); Phase::COUNT];
        self.stack.borrow_mut().clear();
    }
}

/// Stops its phase when dropped. Created by [`Timers::scope`] (or
/// [`Recorder::scope`](crate::Recorder::scope)); guards may nest and must
/// drop innermost-first, which Rust's drop order guarantees for locals.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    timers: &'a Timers,
    phase: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.timers.stop(self.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::by_name(p.name()), Some(p));
        }
        assert_eq!(Phase::by_name("nope"), None);
    }

    #[test]
    fn nested_phases_attribute_child_time_to_parent() {
        let t = Timers::new();
        t.start(Phase::Resolve);
        spin(Duration::from_millis(2));
        t.start(Phase::CycleDetect);
        spin(Duration::from_millis(2));
        t.stop(Phase::CycleDetect);
        t.stop(Phase::Resolve);

        let outer = t.get(Phase::Resolve);
        let inner = t.get(Phase::CycleDetect);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_ns >= inner.total_ns, "parent includes child");
        assert_eq!(outer.child_ns, inner.total_ns, "child charged exactly once");
        assert!(outer.self_ns() <= outer.total_ns - inner.total_ns + 1);
        assert_eq!(inner.child_ns, 0);
    }

    #[test]
    fn guards_stop_on_drop_in_reverse_creation_order() {
        let t = Timers::new();
        {
            let _outer = t.scope(Phase::Resolve);
            {
                let _mid = t.scope(Phase::EdgeInsert);
                let _inner = t.scope(Phase::CycleDetect);
                // _inner drops before _mid (reverse declaration order), so
                // the stack unwinds innermost-first without panicking.
            }
            assert_eq!(t.get(Phase::CycleDetect).calls, 1);
            assert_eq!(t.get(Phase::EdgeInsert).calls, 1);
            assert_eq!(t.get(Phase::Resolve).calls, 0, "outer still active");
        }
        assert_eq!(t.get(Phase::Resolve).calls, 1);
        // Grandchild time propagated through the middle phase to the outer.
        let outer = t.get(Phase::Resolve);
        let mid = t.get(Phase::EdgeInsert);
        assert_eq!(outer.child_ns, mid.total_ns);
    }

    #[test]
    fn same_phase_nests_recursively() {
        let t = Timers::new();
        {
            let _a = t.scope(Phase::Collapse);
            let _b = t.scope(Phase::Collapse);
        }
        let s = t.get(Phase::Collapse);
        assert_eq!(s.calls, 2);
        // The inner call's total is also the outer call's child time, so
        // self time stays <= total.
        assert!(s.self_ns() <= s.total_ns);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mismatched stop")]
    fn mismatched_stop_panics_in_debug() {
        let t = Timers::new();
        t.start(Phase::Resolve);
        t.start(Phase::Collapse);
        t.stop(Phase::Resolve); // wrong: Collapse is innermost
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no phase active")]
    fn stop_without_start_panics_in_debug() {
        let t = Timers::new();
        t.stop(Phase::Resolve);
    }

    #[test]
    fn snapshot_reports_only_completed_phases_in_order() {
        let t = Timers::new();
        {
            let _g = t.scope(Phase::LeastSolution);
        }
        {
            let _g = t.scope(Phase::Generate);
        }
        let rows = t.snapshot();
        let names: Vec<&str> = rows.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(names, vec!["generate", "least-solution"], "Phase::ALL order");
    }

    #[test]
    fn reset_clears_everything_including_active_frames() {
        let t = Timers::new();
        t.start(Phase::Resolve);
        t.reset();
        assert!(t.snapshot().is_empty());
        // A fresh start/stop works after reset (the dangling frame is gone).
        t.start(Phase::Resolve);
        t.stop(Phase::Resolve);
        assert_eq!(t.get(Phase::Resolve).calls, 1);
    }
}
