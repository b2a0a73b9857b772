//! The named monotonic counter registry.
//!
//! One [`Counter`] per figure the workspace measures, with a stable dotted
//! name (`work.total`, `search.edges-scanned`, …) used in reports and JSON.
//! The registry unifies what used to be scattered across `Stats` in
//! `bane-core`, the chain-search `SearchStats`, the graph census, and the
//! constraint generators — one namespace, documented in
//! `docs/OBSERVABILITY.md`.
//!
//! [`Counters`] is a fixed array of atomics indexed by the enum
//! discriminant: no hashing, no allocation, `O(1)` add — and **`Sync`**:
//! probes can fire from worker threads without a lock. All operations use
//! relaxed atomics — counters are statistics,
//! not synchronization — and additions **saturate** at `u64::MAX` instead of
//! wrapping, so a runaway probe can never flip a large figure into a small
//! one. The single-threaded fast path is one uncontended compare-exchange,
//! still allocation-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter. See the [module docs](self) for the registry
/// design and `docs/OBSERVABILITY.md` for what each figure means.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the name() table below is the documentation of record
pub enum Counter {
    // -- constraint intake ---------------------------------------------
    /// Constraints added to the system (`Stats::constraints_added`).
    ConstraintsAdded = 0,
    /// Constraints dequeued and processed (`Stats::constraints_processed`;
    /// trivially-true decomposition arguments count without being queued).
    ConstraintsProcessed = 1,
    /// Constraints between two constructed terms (`Stats::term_constraints`).
    ConstraintsTerm = 2,
    /// Trivial `X ⊆ X` constraints skipped (`Stats::self_constraints`).
    ConstraintsSelf = 3,

    // -- closure work (paper §6 "Work") --------------------------------
    /// Paper's Work metric: edge-insertion attempts (`Stats::work`).
    WorkTotal = 4,
    /// Insertions that found the edge already present (`Stats::redundant`).
    WorkRedundant = 5,
    /// Transitive resolutions of matched source/sink pairs
    /// (`Stats::resolutions`).
    WorkResolutions = 6,

    // -- partial online chain searches (paper §2.5 / §3) ---------------
    /// Chain searches attempted (`SearchStats::searches`).
    SearchCount = 7,
    /// Nodes visited across all searches (`SearchStats::nodes_visited`).
    SearchNodesVisited = 8,
    /// Edges scanned across all searches (`SearchStats::edges_scanned`).
    SearchEdgesScanned = 9,
    /// Largest node-visit count of any single search.
    SearchMaxVisits = 10,

    // -- cycle elimination ----------------------------------------------
    /// Cycles found by chain searches (`SearchStats::cycles_found`).
    CycleFound = 11,
    /// Cycles collapsed, online or offline (`Stats::cycles_collapsed`).
    CycleCollapsed = 12,
    /// Variables forwarded into a witness (`Stats::vars_eliminated`).
    CycleVarsEliminated = 13,
    /// Fresh variables aliased to an oracle witness at creation
    /// (`Stats::oracle_aliased`).
    OracleAliased = 14,

    // -- hybrid adjacency storage (DESIGN.md §4b) -----------------------
    /// Adjacency lists promoted past the degree-16 small-mode threshold.
    AdjPromotions = 15,

    // -- graph census -----------------------------------------------------
    /// Distinct live edges at convergence.
    CensusEdges = 16,
    /// Peak distinct edges over the run.
    CensusPeakEdges = 17,
    /// Live (non-forwarded) variables at convergence.
    CensusLiveVars = 18,

    // -- least solution (paper §2.4) ------------------------------------
    /// Variables whose least solution is non-empty.
    LsSetVars = 19,
    /// Total (var, source) entries in the least solution.
    LsEntries = 20,
    /// Entries the least solution's arena stores (shared sets count once).
    LsStoredEntries = 21,

    // -- constraint generation -------------------------------------------
    /// Constraints emitted by a front-end generator.
    GenConstraints = 22,
    /// Abstract locations created by the points-to generator.
    GenLocations = 23,

    // -- errors -----------------------------------------------------------
    /// Inconsistent constraints detected (`Stats::inconsistencies`).
    ErrorsInconsistencies = 24,

    // -- search-kernel overhaul (DESIGN.md §4e) ---------------------------
    /// Physical wraparound resets of epoch-stamped visited sets (once per
    /// 2^32 generations per set; expected 0 on real runs).
    EpochResets = 25,
    /// CSR snapshots built for the least-solution kernel.
    CsrBuilds = 26,

    // -- snapshot serving (bane-snap, docs/SERVING.md) --------------------
    /// Bytes written by the on-disk snapshot writer (file size including
    /// header and padding).
    SnapBytesWritten = 27,
    /// Snapshot files loaded into a `QueryIndex`.
    SnapLoads = 28,
    /// Bytes mapped (or copied into the owned-buffer fallback) by loads.
    SnapBytesMapped = 29,

    // -- incremental serving (bane-serve, docs/INCREMENTAL.md) ------------
    /// `Delta` batches applied to a live `Session`.
    ServeDeltaApplied = 30,
    /// Deltas taken through the monotone fast path (constraints fed into
    /// the live solver; prior sets reused as lower bounds).
    ServeDeltaMonotone = 31,
    /// Deltas that removed constraints and fell back to replaying the
    /// canonical constraint sequence into a fresh solver.
    ServeDeltaReplayed = 32,
    /// SCC condensation levels containing at least one dirty variable in
    /// the most recent re-solve (gauge; compare against the level total).
    ServeDirtyLevels = 33,
    /// Variables whose least-solution span was recomputed in the most
    /// recent re-solve (gauge).
    ServeDirtyVars = 34,
    /// Variables whose retained least-solution span was reused verbatim
    /// across a `Delta` application.
    ServeReuseHit = 35,

    // -- fleet serving (bane-serve ShardManager, docs/SERVING.md) ---------
    /// Per-shard deltas dispatched by the fleet router (one per shard a
    /// batch actually touched).
    FleetDeltaRouted = 36,
    /// Variable creations replicated across the fleet by the `AddVars`
    /// fan-out (`n` requested vars on an `S`-shard fleet count `n * S`).
    FleetVarsFanout = 37,
    /// Delta batches rejected atomically at the shard boundary (a group
    /// straddled owner classes, moved owners, or named a dead group).
    FleetRejectCrossShard = 38,
    /// Per-shard snapshots republished into a `SnapshotHub`.
    FleetPublish = 39,

    // -- provenance fast-apply (bane-serve ApplyMode::Fast) ---------------
    /// Non-monotone deltas repaired in place by the provenance fast path
    /// (retraction + semi-naive refire, no replay).
    ServeFastRepaired = 40,
    /// Non-monotone deltas on a Fast session that invalidated a recorded
    /// cycle collapse and fell back to canonical replay.
    ServeFastFallback = 41,
    /// Graph edges removed by provenance retraction across fast repairs.
    ServeFastRetractedEdges = 42,
    /// Smallest per-shard live-constraint count across the fleet (gauge;
    /// refreshed by `ShardManager` after every routed batch).
    FleetBalanceMin = 43,
    /// Largest per-shard live-constraint count across the fleet (gauge).
    FleetBalanceMax = 44,
}

impl Counter {
    /// Number of registered counters.
    pub const COUNT: usize = 45;

    /// Every counter, in canonical report order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::ConstraintsAdded,
        Counter::ConstraintsProcessed,
        Counter::ConstraintsTerm,
        Counter::ConstraintsSelf,
        Counter::WorkTotal,
        Counter::WorkRedundant,
        Counter::WorkResolutions,
        Counter::SearchCount,
        Counter::SearchNodesVisited,
        Counter::SearchEdgesScanned,
        Counter::SearchMaxVisits,
        Counter::CycleFound,
        Counter::CycleCollapsed,
        Counter::CycleVarsEliminated,
        Counter::OracleAliased,
        Counter::AdjPromotions,
        Counter::CensusEdges,
        Counter::CensusPeakEdges,
        Counter::CensusLiveVars,
        Counter::LsSetVars,
        Counter::LsEntries,
        Counter::LsStoredEntries,
        Counter::GenConstraints,
        Counter::GenLocations,
        Counter::ErrorsInconsistencies,
        Counter::EpochResets,
        Counter::CsrBuilds,
        Counter::SnapBytesWritten,
        Counter::SnapLoads,
        Counter::SnapBytesMapped,
        Counter::ServeDeltaApplied,
        Counter::ServeDeltaMonotone,
        Counter::ServeDeltaReplayed,
        Counter::ServeDirtyLevels,
        Counter::ServeDirtyVars,
        Counter::ServeReuseHit,
        Counter::FleetDeltaRouted,
        Counter::FleetVarsFanout,
        Counter::FleetRejectCrossShard,
        Counter::FleetPublish,
        Counter::ServeFastRepaired,
        Counter::ServeFastFallback,
        Counter::ServeFastRetractedEdges,
        Counter::FleetBalanceMin,
        Counter::FleetBalanceMax,
    ];

    /// The stable dotted name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ConstraintsAdded => "constraints.added",
            Counter::ConstraintsProcessed => "constraints.processed",
            Counter::ConstraintsTerm => "constraints.term",
            Counter::ConstraintsSelf => "constraints.self",
            Counter::WorkTotal => "work.total",
            Counter::WorkRedundant => "work.redundant",
            Counter::WorkResolutions => "work.resolutions",
            Counter::SearchCount => "search.count",
            Counter::SearchNodesVisited => "search.nodes-visited",
            Counter::SearchEdgesScanned => "search.edges-scanned",
            Counter::SearchMaxVisits => "search.max-visits",
            Counter::CycleFound => "cycle.found",
            Counter::CycleCollapsed => "cycle.collapsed",
            Counter::CycleVarsEliminated => "cycle.vars-eliminated",
            Counter::OracleAliased => "oracle.aliased",
            Counter::AdjPromotions => "adj.promotions",
            Counter::CensusEdges => "census.edges",
            Counter::CensusPeakEdges => "census.peak-edges",
            Counter::CensusLiveVars => "census.live-vars",
            Counter::LsSetVars => "ls.set-vars",
            Counter::LsEntries => "ls.entries",
            Counter::LsStoredEntries => "ls.stored-entries",
            Counter::GenConstraints => "gen.constraints",
            Counter::GenLocations => "gen.locations",
            Counter::ErrorsInconsistencies => "errors.inconsistencies",
            Counter::EpochResets => "epoch.resets",
            Counter::CsrBuilds => "csr.build",
            Counter::SnapBytesWritten => "snap.bytes-written",
            Counter::SnapLoads => "snap.loads",
            Counter::SnapBytesMapped => "snap.bytes-mapped",
            Counter::ServeDeltaApplied => "serve.delta.applied",
            Counter::ServeDeltaMonotone => "serve.delta.monotone",
            Counter::ServeDeltaReplayed => "serve.delta.replayed",
            Counter::ServeDirtyLevels => "serve.dirty.levels",
            Counter::ServeDirtyVars => "serve.dirty.vars",
            Counter::ServeReuseHit => "serve.reuse.hit",
            Counter::FleetDeltaRouted => "fleet.delta.routed",
            Counter::FleetVarsFanout => "fleet.vars.fanout",
            Counter::FleetRejectCrossShard => "fleet.reject.cross-shard",
            Counter::FleetPublish => "fleet.publish",
            Counter::ServeFastRepaired => "serve.fast.repaired",
            Counter::ServeFastFallback => "serve.fast.fallback",
            Counter::ServeFastRetractedEdges => "serve.fast.retracted-edges",
            Counter::FleetBalanceMin => "fleet.balance.min",
            Counter::FleetBalanceMax => "fleet.balance.max",
        }
    }

    /// The counter with the given stable name, if any.
    pub fn by_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Fixed-size counter store, indexed by [`Counter`]. See the
/// [module docs](self).
///
/// `Sync` by construction: every slot is an [`AtomicU64`], so one
/// `&Counters` can be shared across worker threads and every probe remains
/// lock- and allocation-free.
#[derive(Debug)]
pub struct Counters {
    values: [AtomicU64; Counter::COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Counters { values: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Clone for Counters {
    fn clone(&self) -> Self {
        Counters {
            values: std::array::from_fn(|i| {
                AtomicU64::new(self.values[i].load(Ordering::Relaxed))
            }),
        }
    }
}

impl Counters {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `counter`, saturating at `u64::MAX`.
    ///
    /// Safe to call concurrently from any number of threads; saturation is
    /// preserved under contention (a compare-exchange loop, not a blind
    /// `fetch_add` that could wrap).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        let slot = &self.values[counter as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Overwrites `counter` with `value` (for gauge-style figures like the
    /// census, where the source of truth is elsewhere).
    #[inline]
    pub fn set(&self, counter: Counter, value: u64) {
        self.values[counter as usize].store(value, Ordering::Relaxed);
    }

    /// Raises `counter` to `value` if `value` is larger (for maxima like
    /// `search.max-visits`).
    #[inline]
    pub fn max(&self, counter: Counter, value: u64) {
        self.values[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Reads `counter`.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize].load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for slot in &self.values {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Every counter with a non-zero value, as `(name, value)` pairs in
    /// [`Counter::ALL`] order — the report form.
    pub fn nonzero(&self) -> Vec<(String, u64)> {
        Counter::ALL
            .into_iter()
            .filter(|c| self.get(*c) != 0)
            .map(|c| (c.name().to_string(), self.get(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert_eq!(Counter::by_name(c.name()), Some(c));
        }
        assert_eq!(seen.len(), Counter::COUNT);
        assert_eq!(Counter::by_name("work.nope"), None);
    }

    #[test]
    fn add_saturates_instead_of_wrapping() {
        let c = Counters::new();
        c.add(Counter::WorkTotal, u64::MAX - 5);
        c.add(Counter::WorkTotal, 3);
        assert_eq!(c.get(Counter::WorkTotal), u64::MAX - 2);
        c.add(Counter::WorkTotal, 10);
        assert_eq!(c.get(Counter::WorkTotal), u64::MAX, "saturated, not wrapped");
        c.add(Counter::WorkTotal, 1);
        assert_eq!(c.get(Counter::WorkTotal), u64::MAX);
    }

    #[test]
    fn set_and_max_semantics() {
        let c = Counters::new();
        c.set(Counter::CensusEdges, 100);
        c.set(Counter::CensusEdges, 40);
        assert_eq!(c.get(Counter::CensusEdges), 40, "set overwrites");
        c.max(Counter::SearchMaxVisits, 7);
        c.max(Counter::SearchMaxVisits, 3);
        assert_eq!(c.get(Counter::SearchMaxVisits), 7, "max keeps the peak");
    }

    #[test]
    fn nonzero_reports_in_canonical_order() {
        let c = Counters::new();
        c.add(Counter::LsEntries, 2);
        c.add(Counter::WorkTotal, 9);
        let rows = c.nonzero();
        assert_eq!(
            rows,
            vec![("work.total".to_string(), 9), ("ls.entries".to_string(), 2)]
        );
    }

    #[test]
    fn counters_are_sync_and_sum_correctly_across_threads() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(Counter::WorkTotal, 1);
                    }
                    c.max(Counter::SearchMaxVisits, 17);
                });
            }
        });
        assert_eq!(c.get(Counter::WorkTotal), 4000);
        assert_eq!(c.get(Counter::SearchMaxVisits), 17);
    }

    #[test]
    fn clone_and_reset() {
        let c = Counters::new();
        c.add(Counter::WorkTotal, 5);
        let d = c.clone();
        c.reset();
        assert_eq!(c.get(Counter::WorkTotal), 0);
        assert_eq!(d.get(Counter::WorkTotal), 5, "clone is a snapshot");
    }
}
