//! The [`ShardManager`]: N [`Session`]s behind one serving API, with
//! routed deltas and a snapshot hub republish lifecycle.
//!
//! # The sharding contract
//!
//! One session owns one constraint system, and the byte-identity contract
//! (see [`session`](crate::session)) is per system. A fleet scales that
//! *out*, not up: the variable space is partitioned by the deterministic
//! ownership map [`ShardRoute`] (`owner(v) = v.index() mod shards`), and
//! every constraint group must stay inside one owner's class — the
//! boundary [`ShardManager::apply`] validates. Under that discipline the
//! global system is the **disjoint union** of the per-shard systems, so:
//!
//! - the owning shard's answer *is* the global answer for `points_to` and
//!   `reachable_sources`, and cross-shard `alias` is a sorted-span
//!   intersection of two owners' answers;
//! - each shard's observables (stats, census, least solution) stay
//!   byte-identical to a single session fed only that shard's canonical
//!   subsequence — the PR-3/8 determinism contract, per shard — which the
//!   `fleet_equivalence` suite pins.
//!
//! To keep identifier spaces aligned across the fleet, *registrations* fan
//! out to every shard: constructors, interned terms, and variable
//! creations ([`DeltaOp::AddVars`] and the [`ConstraintBuilder`] methods)
//! are replayed identically on all N sessions, so `v7` and `t3` mean the
//! same thing everywhere. Only constraint *groups* are routed.
//!
//! # Lifecycle
//!
//! Build a [`SessionBuilder`] recipe, stamp out the fleet with
//! [`ShardManager::new`], feed it [`Delta`] batches (the manager splits
//! each batch into per-shard deltas and applies them through the existing
//! monotone/replay paths), and periodically
//! [`publish_all`](ShardManager::publish_all) into a
//! [`SnapshotHub`] — readers then resolve queries against the owning
//! shard's published [`QueryIndex`](bane_snap::QueryIndex) lock-free via
//! [`HubView`](bane_snap::HubView).
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_serve::{Delta, SessionBuilder, ShardManager};
//!
//! let mut fleet = ShardManager::new(&SessionBuilder::new(), 2);
//! let c = fleet.register_nullary("c"); // registrations fan out
//! let src = fleet.term(c, vec![]);
//!
//! let mut d = Delta::new();
//! d.add_vars(4); // variable creations fan out too: ids align fleet-wide
//! // v0/v2 belong to shard 0, v1/v3 to shard 1.
//! d.add_group(vec![(src.into(), Var::new(0).into()), (Var::new(0).into(), Var::new(2).into())]);
//! d.add_group(vec![(src.into(), Var::new(3).into())]);
//! let report = fleet.apply(d).unwrap();
//! assert_eq!(report.new_groups.len(), 2);
//! assert_eq!(fleet.points_to(Var::new(2)), &[src]);
//! assert!(fleet.alias(Var::new(2), Var::new(3))); // cross-shard
//!
//! // A group straddling shards is rejected at the boundary.
//! let mut bad = Delta::new();
//! bad.add_group(vec![(Var::new(0).into(), Var::new(1).into())]);
//! assert!(fleet.apply(bad).is_err());
//! ```

use std::path::Path;

use bane_core::prelude::*;
use bane_obs::{Counter, Recorder};
use bane_snap::{ShardRoute, SnapError, SnapshotHub};
use bane_util::FxHashSet;

use crate::builder::SessionBuilder;
use crate::delta::{Delta, DeltaOp, GroupId};
use crate::proto::intersects;
use crate::session::{ApplyReport, Session};

/// Why a [`Delta`] batch was rejected at the shard boundary. Rejection is
/// atomic: no shard applies anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// A group's constraints reference variables owned by different
    /// shards.
    CrossShard {
        /// A variable establishing the group's owner.
        var: Var,
        /// That variable's shard.
        owner: usize,
        /// A variable from the same group owned elsewhere.
        other: Var,
        /// The other variable's shard.
        got: usize,
    },
    /// An edit's replacement constraints belong to a different shard than
    /// the group being edited.
    OwnerMoved {
        /// The edited group.
        group: GroupId,
        /// The shard that owns it.
        owner: usize,
        /// The shard the replacement constraints belong to.
        got: usize,
    },
    /// The batch names a group id the fleet never assigned.
    UnknownGroup(GroupId),
    /// The batch names a group that was already removed (possibly earlier
    /// in the same batch).
    RemovedGroup(GroupId),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::CrossShard { var, owner, other, got } => write!(
                f,
                "cross-shard group: {var:?} is owned by shard {owner} but {other:?} by shard {got}"
            ),
            FleetError::OwnerMoved { group, owner, got } => write!(
                f,
                "edit of {group} would move it from shard {owner} to shard {got}"
            ),
            FleetError::UnknownGroup(g) => write!(f, "no such group: {g}"),
            FleetError::RemovedGroup(g) => write!(f, "group already removed: {g}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// What one [`ShardManager::apply`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Fleet-scoped group ids assigned to this batch's `AddGroup`
    /// operations, in batch order.
    pub new_groups: Vec<GroupId>,
    /// Whether the batch was monotone (every shard took its live-solver
    /// fast path).
    pub monotone: bool,
    /// Per-shard apply reports; `None` for shards the batch did not touch
    /// (they did not re-solve at all).
    pub shard_reports: Vec<Option<ApplyReport>>,
}

/// Where one fleet-scoped group lives.
#[derive(Clone, Copy, Debug)]
struct GroupBinding {
    shard: usize,
    local: GroupId,
    live: bool,
}

/// N identically configured [`Session`]s keyed by the deterministic
/// [`ShardRoute`] ownership map. See the [module docs](self) for the
/// sharding contract and lifecycle.
#[derive(Debug)]
pub struct ShardManager {
    route: ShardRoute,
    sessions: Vec<Session>,
    /// Fleet-scoped group slot → owning shard and local id. Slots are
    /// never reused; removal tombstones (`live = false`).
    bindings: Vec<GroupBinding>,
    rec: Option<Recorder>,
}

impl ShardManager {
    /// A fleet of `shards` sessions, each built from `builder` — one
    /// recipe, N identical sessions. When the recipe gates observability
    /// on, the manager also allocates its own fleet-level [`Recorder`] for
    /// the `fleet.*` counters (per-shard `serve.*` counters live on each
    /// session's recorder).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (see [`ShardRoute::new`]).
    pub fn new(builder: &SessionBuilder, shards: usize) -> Self {
        let route = ShardRoute::new(shards);
        let sessions: Vec<Session> = (0..shards).map(|_| builder.build()).collect();
        let rec = sessions[0].recorder().map(|_| Recorder::new());
        ShardManager { route, sessions, bindings: Vec::new(), rec }
    }

    /// The fleet's ownership map.
    pub fn route(&self) -> ShardRoute {
        self.route
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sessions.len()
    }

    /// Read-only access to shard `shard`'s session (per-shard stats,
    /// census, least solution, recorder).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn session(&self, shard: usize) -> &Session {
        &self.sessions[shard]
    }

    /// The fleet-level recorder (the `fleet.*` counters), when
    /// observability is gated on.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.rec.as_ref()
    }

    /// Number of fleet-scoped group slots ever created (including removed
    /// ones).
    pub fn group_slots(&self) -> usize {
        self.bindings.len()
    }

    /// The shard owning group `g`, or `None` if the slot was removed or
    /// never existed.
    pub fn owner_of_group(&self, g: GroupId) -> Option<usize> {
        self.bindings.get(g.index()).filter(|b| b.live).map(|b| b.shard)
    }

    /// The constraints of group `g`, routed to the owning shard; `None` if
    /// the slot was removed or never existed.
    pub fn group(&self, g: GroupId) -> Option<&[(SetExpr, SetExpr)]> {
        let b = self.bindings.get(g.index()).filter(|b| b.live)?;
        self.sessions[b.shard].group(b.local)
    }

    /// The shard that owns every variable of `constraints` (shard 0 for a
    /// group that references no variables — including through term
    /// arguments, which count).
    ///
    /// # Errors
    ///
    /// [`FleetError::CrossShard`] when the variables straddle shards.
    fn owner_of(&self, constraints: &[(SetExpr, SetExpr)]) -> Result<usize, FleetError> {
        let mut vars = FxHashSet::default();
        let terms = self.sessions[0].solver().terms();
        for &(lhs, rhs) in constraints {
            terms.vars_of(lhs, &mut vars);
            terms.vars_of(rhs, &mut vars);
        }
        let mut owner: Option<(usize, Var)> = None;
        for &v in &vars {
            let shard = self.route.owner(v);
            match owner {
                None => owner = Some((shard, v)),
                Some((o, w)) if o != shard => {
                    return Err(FleetError::CrossShard { var: w, owner: o, other: v, got: shard })
                }
                Some(_) => {}
            }
        }
        Ok(owner.map_or(0, |(o, _)| o))
    }

    /// The live binding of `g`, also rejecting groups removed earlier in
    /// the current batch (`removed`).
    fn binding(
        &self,
        g: GroupId,
        removed: &FxHashSet<usize>,
    ) -> Result<GroupBinding, FleetError> {
        let b = self.bindings.get(g.index()).ok_or(FleetError::UnknownGroup(g))?;
        if !b.live || removed.contains(&g.index()) {
            return Err(FleetError::RemovedGroup(g));
        }
        Ok(*b)
    }

    /// Applies one [`Delta`] batch across the fleet.
    ///
    /// The batch is first validated and split in full — `AddVars` fans out
    /// to every shard (keeping variable ids fleet-aligned), each group
    /// operation routes to the shard owning its variables — and only then
    /// applied, one per-shard [`Session::apply`] per touched shard, through
    /// the existing monotone/replay paths. Untouched shards do not
    /// re-solve.
    ///
    /// # Errors
    ///
    /// Any boundary violation ([`FleetError`]) rejects the whole batch
    /// atomically: no shard applies anything.
    pub fn apply(&mut self, delta: Delta) -> Result<FleetReport, FleetError> {
        let shards = self.sessions.len();
        let monotone = delta.is_monotone();

        // Pass 1 — validate and plan. Nothing mutates until the whole
        // batch routes cleanly.
        let mut per_shard: Vec<Delta> = (0..shards).map(|_| Delta::new()).collect();
        let mut next_local: Vec<u32> =
            self.sessions.iter().map(|s| s.group_slots() as u32).collect();
        let mut planned: Vec<GroupBinding> = Vec::new();
        let mut removed: FxHashSet<usize> = FxHashSet::default();
        let mut fanned_vars = 0u64;
        let plan = (|| -> Result<(), FleetError> {
            for op in delta.ops() {
                match op {
                    DeltaOp::AddVars(n) => {
                        for d in &mut per_shard {
                            d.add_vars(*n);
                        }
                        fanned_vars += u64::from(*n) * shards as u64;
                    }
                    DeltaOp::AddGroup { constraints } => {
                        let owner = self.owner_of(constraints)?;
                        per_shard[owner].add_group(constraints.clone());
                        planned.push(GroupBinding {
                            shard: owner,
                            local: GroupId::new(next_local[owner]),
                            live: true,
                        });
                        next_local[owner] += 1;
                    }
                    DeltaOp::RemoveGroup(g) => {
                        let b = self.binding(*g, &removed)?;
                        per_shard[b.shard].remove_group(b.local);
                        removed.insert(g.index());
                    }
                    DeltaOp::EditGroup { group, constraints } => {
                        let b = self.binding(*group, &removed)?;
                        if !constraints.is_empty() {
                            let owner = self.owner_of(constraints)?;
                            if owner != b.shard {
                                return Err(FleetError::OwnerMoved {
                                    group: *group,
                                    owner: b.shard,
                                    got: owner,
                                });
                            }
                        }
                        per_shard[b.shard].edit_group(b.local, constraints.clone());
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = plan {
            if let Some(rec) = &self.rec {
                rec.add(Counter::FleetRejectCrossShard, 1);
            }
            return Err(e);
        }

        // Pass 2 — commit: one apply per touched shard.
        let mut shard_reports: Vec<Option<ApplyReport>> = vec![None; shards];
        let mut dispatched = 0u64;
        for (shard, d) in per_shard.into_iter().enumerate() {
            // A shard must also flush when it holds groups staged through
            // `ConstraintBuilder::add` since the last apply.
            if d.is_empty() && !self.sessions[shard].has_staged() {
                continue;
            }
            dispatched += 1;
            shard_reports[shard] = Some(self.sessions[shard].apply(d));
        }

        // Record the new bindings; the sessions' assigned local ids must
        // match the plan (slot-order assignment on both sides).
        let mut new_groups = Vec::with_capacity(planned.len());
        for binding in planned {
            debug_assert!(shard_reports[binding.shard]
                .as_ref()
                .is_some_and(|r| r.new_groups.contains(&binding.local)));
            new_groups.push(GroupId::new(self.bindings.len() as u32));
            self.bindings.push(binding);
        }
        for slot in removed {
            self.bindings[slot].live = false;
        }

        if let Some(rec) = &self.rec {
            rec.add(Counter::FleetDeltaRouted, dispatched);
            rec.add(Counter::FleetVarsFanout, fanned_vars);
            let (min, max) = self.balance();
            rec.set(Counter::FleetBalanceMin, min as u64);
            rec.set(Counter::FleetBalanceMax, max as u64);
        }

        Ok(FleetReport { new_groups, monotone, shard_reports })
    }

    /// The fleet's load balance: the smallest and largest per-shard
    /// live-constraint count ([`Session::live_constraints`]). Refreshed
    /// into the `fleet.balance.min` / `fleet.balance.max` gauges after
    /// every routed batch.
    pub fn balance(&self) -> (usize, usize) {
        let mut min = usize::MAX;
        let mut max = 0;
        for session in &self.sessions {
            let n = session.live_constraints();
            min = min.min(n);
            max = max.max(n);
        }
        (min, max)
    }

    /// The points-to/solution set of `v`, answered by the owning shard.
    pub fn points_to(&mut self, v: Var) -> &[TermId] {
        let shard = self.route.owner(v);
        self.sessions[shard].points_to(v)
    }

    /// The solution set of `v` *as shard `shard` sees it* — explicit
    /// shard addressing for the wire protocol's `route` envelope. Only the
    /// owning shard's view is the global answer; any other shard reports
    /// the empty set (the fleet's systems are disjoint).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_points_to(&mut self, shard: usize, v: Var) -> &[TermId] {
        self.sessions[shard].points_to(v)
    }

    /// Writes shard `shard`'s snapshot to `path` (atomically), without
    /// touching any hub slot. Returns the snapshot size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates snapshot encode/write errors.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_snapshot(&mut self, shard: usize, path: &Path) -> Result<u64, SnapError> {
        let bytes = self.sessions[shard].publish_snapshot(path)?;
        if let Some(rec) = &self.rec {
            rec.add(Counter::FleetPublish, 1);
        }
        Ok(bytes)
    }

    /// Whether `a` and `b` may alias. Same-shard pairs resolve inside the
    /// owner; cross-shard pairs intersect the two owners' sorted solution
    /// spans (term ids align fleet-wide by the registration fan-out).
    pub fn alias(&mut self, a: Var, b: Var) -> bool {
        let (sa, sb) = (self.route.owner(a), self.route.owner(b));
        if sa == sb {
            return self.sessions[sa].alias(a, b);
        }
        let (lo, hi) = self.sessions.split_at_mut(sa.max(sb));
        let (first, second) = (&mut lo[sa.min(sb)], &mut hi[0]);
        let (owner_a, owner_b) = if sa < sb {
            (first, second)
        } else {
            (second, first)
        };
        intersects(owner_a.points_to(a), owner_b.points_to(b))
    }

    /// Whether `a` and `b` may alias *as shard `shard` sees it* (the
    /// `route` envelope's alias; see
    /// [`shard_points_to`](ShardManager::shard_points_to)).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_alias(&mut self, shard: usize, a: Var, b: Var) -> bool {
        self.sessions[shard].alias(a, b)
    }

    /// Whether `v` names a variable of the fleet. Variable ids align
    /// fleet-wide (`AddVars` fans out to every shard), so shard 0 knows
    /// every id.
    pub fn has_var(&self, v: Var) -> bool {
        self.sessions[0].has_var(v)
    }

    /// Republishes every shard's snapshot into `hub`: shard `k` writes
    /// `dir/shard-k.snap` atomically and publishes the reloaded
    /// [`QueryIndex`](bane_snap::QueryIndex) into hub slot `k`. Readers
    /// holding a [`HubView`](bane_snap::HubView) keep serving the old
    /// indexes; fresh views see the new ones. Returns the snapshot sizes in
    /// bytes, per shard.
    ///
    /// # Errors
    ///
    /// Propagates snapshot encode/write/load errors; already-published
    /// shards keep their new index, the failing shard keeps its old one.
    ///
    /// # Panics
    ///
    /// Panics if `hub` was built for a different shard count.
    pub fn publish_all(&mut self, dir: &Path, hub: &SnapshotHub) -> Result<Vec<u64>, SnapError> {
        assert_eq!(
            hub.shard_count(),
            self.sessions.len(),
            "hub shard count must match the fleet"
        );
        let mut bytes = Vec::with_capacity(self.sessions.len());
        for (shard, session) in self.sessions.iter_mut().enumerate() {
            let path = dir.join(format!("shard-{shard}.snap"));
            bytes.push(session.publish_snapshot(&path)?);
            hub.publish_path(shard, &path)?;
            if let Some(rec) = &self.rec {
                rec.add(Counter::FleetPublish, 1);
            }
        }
        Ok(bytes)
    }
}

impl ConstraintBuilder for ShardManager {
    fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con {
        let name = name.into();
        let mut out = None;
        for session in &mut self.sessions {
            let c = session.register_con(name.clone(), variances.clone());
            debug_assert!(out.is_none_or(|prev| prev == c));
            out = Some(c);
        }
        out.expect("fleet has at least one shard")
    }

    fn register_nullary(&mut self, name: impl Into<String>) -> Con {
        let name = name.into();
        let mut out = None;
        for session in &mut self.sessions {
            let c = session.register_nullary(name.clone());
            debug_assert!(out.is_none_or(|prev| prev == c));
            out = Some(c);
        }
        out.expect("fleet has at least one shard")
    }

    fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId {
        let mut out = None;
        for session in &mut self.sessions {
            let t = session.term(con, args.clone());
            debug_assert!(out.is_none_or(|prev| prev == t));
            out = Some(t);
        }
        out.expect("fleet has at least one shard")
    }

    fn fresh_var(&mut self) -> Var {
        let mut out = None;
        for session in &mut self.sessions {
            let v = session.fresh_var();
            debug_assert!(out.is_none_or(|prev| prev == v));
            out = Some(v);
        }
        out.expect("fleet has at least one shard")
    }

    /// Adds a single immediate constraint as its own one-constraint group
    /// on the owning shard, without re-solving — so generators written
    /// against [`ConstraintBuilder`] can target a fleet directly.
    ///
    /// # Panics
    ///
    /// Panics if the constraint's variables straddle shards; batch through
    /// [`Delta`]/[`apply`](ShardManager::apply) for a recoverable error.
    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        let (lhs, rhs) = (lhs.into(), rhs.into());
        let owner = self
            .owner_of(&[(lhs, rhs)])
            .unwrap_or_else(|e| panic!("ShardManager::add: {e}"));
        let local = GroupId::new(self.sessions[owner].group_slots() as u32);
        ConstraintBuilder::add(&mut self.sessions[owner], lhs, rhs);
        self.bindings.push(GroupBinding { shard: owner, local, live: true });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-shard fleet with a source and 6 fleet-aligned variables.
    fn fleet_of_two() -> (ShardManager, TermId, Vec<Var>) {
        let mut fleet = ShardManager::new(&SessionBuilder::new(), 2);
        let c = fleet.register_nullary("c");
        let src = fleet.term(c, vec![]);
        let mut d = Delta::new();
        d.add_vars(6);
        fleet.apply(d).unwrap();
        (fleet, src, (0..6).map(Var::new).collect())
    }

    #[test]
    fn routes_groups_and_queries_by_ownership() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        // Even chain on shard 0, odd chain on shard 1.
        d.add_group(vec![(src.into(), v[0].into()), (v[0].into(), v[2].into())]);
        d.add_group(vec![(src.into(), v[1].into()), (v[1].into(), v[3].into())]);
        let report = fleet.apply(d).unwrap();
        assert!(report.monotone);
        assert_eq!(report.new_groups, vec![GroupId::new(0), GroupId::new(1)]);
        assert_eq!(fleet.owner_of_group(GroupId::new(0)), Some(0));
        assert_eq!(fleet.owner_of_group(GroupId::new(1)), Some(1));
        assert!(report.shard_reports.iter().all(|r| r.is_some()));

        assert_eq!(fleet.points_to(v[2]), &[src]);
        assert_eq!(fleet.points_to(v[3]), &[src]);
        assert_eq!(fleet.points_to(v[4]), &[] as &[TermId]);
        assert!(fleet.alias(v[0], v[2]), "same-shard alias");
        assert!(fleet.alias(v[2], v[3]), "cross-shard alias via shared source");
        assert!(!fleet.alias(v[4], v[3]), "empty set aliases nothing");
    }

    #[test]
    fn untouched_shards_do_not_resolve() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), v[0].into())]);
        let report = fleet.apply(d).unwrap();
        assert!(report.shard_reports[0].is_some());
        assert!(report.shard_reports[1].is_none(), "shard 1 saw no ops");
        // The untouched shard's solver never ran.
        assert_eq!(fleet.session(1).stats().constraints_added, 0);
    }

    /// A source staged on a shard through `ConstraintBuilder::add` is
    /// served after the empty commit that flushes it.
    #[test]
    fn empty_delta_after_builder_add_serves_the_new_source() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        d.add_group(vec![(v[0].into(), v[2].into()), (v[2].into(), v[4].into())]);
        fleet.apply(d).unwrap();
        assert_eq!(fleet.points_to(v[4]), &[] as &[TermId]);

        ConstraintBuilder::add(&mut fleet, src, v[0]);
        let report = fleet.apply(Delta::new()).unwrap();
        assert!(report.shard_reports[0].is_some(), "the staged shard flushed");
        assert!(report.shard_reports[1].is_none());
        for i in [0, 2, 4] {
            assert_eq!(fleet.points_to(v[i]), &[src], "v{i}");
        }
    }

    #[test]
    fn rejects_cross_shard_groups_atomically() {
        let (mut fleet, src, v) = fleet_of_two();
        let slots_before = fleet.group_slots();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), v[0].into())]); // fine alone…
        d.add_group(vec![(v[0].into(), v[1].into())]); // …but this straddles
        let err = fleet.apply(d).unwrap_err();
        assert!(matches!(err, FleetError::CrossShard { .. }), "{err}");
        // Atomic: the valid first group was not applied either.
        assert_eq!(fleet.group_slots(), slots_before);
        assert_eq!(fleet.points_to(v[0]), &[] as &[TermId]);
    }

    #[test]
    fn rejects_edits_that_move_owners_and_dead_groups() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), v[0].into())]);
        let g = fleet.apply(d).unwrap().new_groups[0];

        let mut e = Delta::new();
        e.edit_group(g, vec![(src.into(), v[1].into())]);
        assert_eq!(
            fleet.apply(e).unwrap_err(),
            FleetError::OwnerMoved { group: g, owner: 0, got: 1 }
        );

        let mut r = Delta::new();
        r.remove_group(g).remove_group(g);
        assert_eq!(fleet.apply(r).unwrap_err(), FleetError::RemovedGroup(g));
        assert_eq!(
            fleet.apply(Delta::new().remove_group(GroupId::new(9)).clone()).unwrap_err(),
            FleetError::UnknownGroup(GroupId::new(9))
        );
    }

    #[test]
    fn nonmonotone_edits_replay_per_shard() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), v[0].into()), (v[0].into(), v[2].into())]);
        d.add_group(vec![(src.into(), v[1].into())]);
        let report = fleet.apply(d).unwrap();
        let g_even = report.new_groups[0];

        // Cut the even chain: shard 0 replays, shard 1 is untouched.
        let mut e = Delta::new();
        e.edit_group(g_even, vec![(src.into(), v[0].into())]);
        let report = fleet.apply(e).unwrap();
        assert!(!report.monotone);
        assert!(!report.shard_reports[0].as_ref().unwrap().monotone);
        assert!(report.shard_reports[1].is_none());
        assert_eq!(fleet.points_to(v[2]), &[] as &[TermId]);
        assert_eq!(fleet.points_to(v[1]), &[src]);
    }

    #[test]
    fn single_shard_fleet_matches_a_plain_session() {
        fn load(target: &mut impl ConstraintBuilder) {
            let c = target.register_nullary("c");
            let src = target.term(c, vec![]);
            let x = target.fresh_var();
            let y = target.fresh_var();
            target.add(src, x);
            target.add(x, y);
        }
        let builder = SessionBuilder::new();
        let mut fleet = ShardManager::new(&builder, 1);
        let mut single = builder.build();
        load(&mut fleet);
        load(&mut single);
        let fr = fleet.apply(Delta::new()).unwrap();
        assert_eq!(fr.shard_reports.len(), 1);
        single.apply(Delta::new());
        assert_eq!(fleet.session(0).stats(), single.stats());
        assert_eq!(fleet.session(0).census(), single.census());
        let y = Var::new(1);
        assert_eq!(fleet.points_to(y), single.points_to(y).to_vec().as_slice());
    }

    #[test]
    fn publish_all_feeds_a_hub() {
        let (mut fleet, src, v) = fleet_of_two();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), v[2].into()), (v[2].into(), v[4].into())]);
        d.add_group(vec![(src.into(), v[5].into())]);
        fleet.apply(d).unwrap();

        let dir = std::env::temp_dir().join(format!("bane-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hub = SnapshotHub::new(2);
        let bytes = fleet.publish_all(&dir, &hub).expect("publish");
        assert_eq!(bytes.len(), 2);
        assert!(bytes.iter().all(|&b| b > 0));

        let view = hub.view();
        assert!(view.complete());
        assert_eq!(view.points_to(v[4]), &[src][..]);
        assert_eq!(view.reachable_sources(v[5]), vec![src]);
        assert!(view.alias(v[4], v[5]), "cross-shard alias through the hub");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_gate_wires_fleet_counters() {
        let mut fleet = ShardManager::new(&SessionBuilder::new().obs(true), 2);
        let c = fleet.register_nullary("c");
        let src = fleet.term(c, vec![]);
        let mut d = Delta::new();
        d.add_vars(2);
        d.add_group(vec![(src.into(), Var::new(0).into())]);
        fleet.apply(d).unwrap();
        let mut bad = Delta::new();
        bad.add_group(vec![(Var::new(0).into(), Var::new(1).into())]);
        fleet.apply(bad).unwrap_err();

        let rec = fleet.recorder().expect("fleet recorder");
        assert_eq!(rec.get(Counter::FleetVarsFanout), 4, "2 vars × 2 shards");
        assert_eq!(rec.get(Counter::FleetDeltaRouted), 2, "both shards saw AddVars");
        assert_eq!(rec.get(Counter::FleetRejectCrossShard), 1);
        // The balance gauges reflect the committed batch: one 1-constraint
        // group on shard 0, nothing on shard 1 (the rejected batch moved
        // no gauge).
        assert_eq!(fleet.balance(), (0, 1));
        assert_eq!(rec.get(Counter::FleetBalanceMin), 0);
        assert_eq!(rec.get(Counter::FleetBalanceMax), 1);
        // Per-shard serve.* counters live on the sessions.
        assert_eq!(
            fleet.session(0).recorder().unwrap().get(Counter::ServeDeltaApplied),
            1
        );
    }
}
