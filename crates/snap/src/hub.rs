//! The [`SnapshotHub`]: N hot-swappable [`QueryIndex`] slots behind one
//! deterministic routing table.
//!
//! A single-session deployment republishes one snapshot and swaps it under
//! live readers (`examples/alias_server.rs --reload`). A sharded fleet
//! (`bane-serve`'s `ShardManager`) republishes **N** snapshots — one per
//! shard — and readers must route each query to the shard that owns its
//! variable. This module generalizes the Arc-swap seam from one slot to N:
//!
//! - [`ShardRoute`] is the ownership map: variable `v` belongs to shard
//!   `v.index() % shards`. It is pure arithmetic, shared verbatim by the
//!   publishing side (the fleet's delta router) and the reading side (this
//!   hub), so both always agree on ownership.
//! - [`SnapshotHub`] holds one hot-swappable slot per shard. Publishing
//!   ([`publish`](SnapshotHub::publish)) replaces a slot's index and bumps
//!   its generation; readers either clone one shard's `Arc` under a short
//!   read lock ([`get`](SnapshotHub::get)) or capture a coherent
//!   [`HubView`] of every shard and query it **lock-free** from then on.
//! - [`HubView`] answers the routed queries: `points_to` and
//!   `reachable_sources` resolve against the owning shard's index;
//!   `alias` across two shards intersects the two sorted solution spans
//!   (term identifiers align across shards because fleet registration fans
//!   out to every shard).
//!
//! Locks are held only for the pointer swap / clone — never across a
//! snapshot load or a query — so a slow republish never blocks a reader.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_snap::{write_solver, QueryIndex, SnapshotHub};
//!
//! let dir = std::env::temp_dir().join("bane-snap-hub-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("shard0.snap");
//!
//! let mut solver = Solver::new(SolverConfig::if_online());
//! let c = solver.register_nullary("c");
//! let t = solver.term(c, vec![]);
//! let x = solver.fresh_var();
//! solver.add(t, x);
//! solver.solve();
//! write_solver(&mut solver, &path, None).unwrap();
//!
//! let hub = SnapshotHub::new(1);
//! hub.publish(0, QueryIndex::load(&path).unwrap());
//! let view = hub.view();
//! assert_eq!(view.points_to(x), &[t]);
//! # std::fs::remove_file(&path).unwrap();
//! ```

use std::path::Path;
use std::sync::{Arc, RwLock};

use bane_core::expr::{TermId, Var};
use bane_util::idx::Idx;

use crate::error::SnapError;
use crate::index::{QueryIndex, QueryScratch};

/// The deterministic variable→shard ownership map: variable `v` is owned
/// by shard `v.index() % shards`.
///
/// Both sides of a sharded deployment derive ownership from this one
/// function — the delta router when it assigns constraint groups to
/// sessions, and the [`SnapshotHub`] when it resolves queries — so they
/// can never disagree. The modulus composes: a workload partitioned for
/// `P` shards also partitions cleanly for any `S` dividing `P`, because
/// `v mod S = (v mod P) mod S`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRoute {
    shards: u32,
}

impl ShardRoute {
    /// A route over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `u32::MAX`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a shard route needs at least one shard");
        let shards = u32::try_from(shards).expect("shard count fits in u32");
        ShardRoute { shards }
    }

    /// The number of shards routed over.
    pub fn shards(self) -> usize {
        self.shards as usize
    }

    /// The shard that owns variable `v`.
    pub fn owner(self, v: Var) -> usize {
        v.index() % self.shards as usize
    }
}

/// One shard's hot-swappable published state.
#[derive(Debug, Default)]
struct Slot {
    index: Option<Arc<QueryIndex>>,
    generation: u64,
}

/// N hot-swappable snapshot slots, one per shard, with a routing table in
/// front. See the [module docs](self).
///
/// `SnapshotHub` is `Sync`: publishers and any number of reader threads
/// share one `&SnapshotHub` (typically behind an `Arc`).
#[derive(Debug)]
pub struct SnapshotHub {
    route: ShardRoute,
    slots: Vec<RwLock<Slot>>,
}

impl SnapshotHub {
    /// An empty hub with `shards` unpublished slots.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero (see [`ShardRoute::new`]).
    pub fn new(shards: usize) -> Self {
        let route = ShardRoute::new(shards);
        SnapshotHub { route, slots: (0..shards).map(|_| RwLock::new(Slot::default())).collect() }
    }

    /// The hub's ownership map.
    pub fn route(&self) -> ShardRoute {
        self.route
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Publishes `index` as shard `shard`'s current snapshot, replacing any
    /// previous one, and returns the slot's new generation (1 for the first
    /// publication). Readers holding the old `Arc` keep serving from it;
    /// new readers see the fresh index.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn publish(&self, shard: usize, index: QueryIndex) -> u64 {
        let mut slot = self.slot(shard).write().expect("hub slot poisoned");
        slot.index = Some(Arc::new(index));
        slot.generation += 1;
        slot.generation
    }

    /// Loads the snapshot at `path` and publishes it as shard `shard`'s
    /// current index. The load happens **outside** the slot lock — readers
    /// only ever wait on the pointer swap.
    ///
    /// # Errors
    ///
    /// Propagates snapshot load errors; the slot keeps its previous index.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn publish_path(&self, shard: usize, path: &Path) -> Result<u64, SnapError> {
        let index = QueryIndex::load(path)?;
        Ok(self.publish(shard, index))
    }

    /// Shard `shard`'s current index, if one has been published. The clone
    /// happens under a short read lock; queries on the returned `Arc` are
    /// lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn get(&self, shard: usize) -> Option<Arc<QueryIndex>> {
        self.slot(shard).read().expect("hub slot poisoned").index.clone()
    }

    /// Shard `shard`'s publication generation (0 = never published).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn generation(&self, shard: usize) -> u64 {
        self.slot(shard).read().expect("hub slot poisoned").generation
    }

    /// Captures a point-in-time view of every shard's current index for
    /// lock-free routed querying. Each slot is cloned under its own short
    /// read lock; a publication racing the capture lands in one shard
    /// atomically (per-slot coherence, the same guarantee the single-slot
    /// reload loop had).
    pub fn view(&self) -> HubView {
        let mut shards = Vec::with_capacity(self.slots.len());
        let mut generations = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let slot = slot.read().expect("hub slot poisoned");
            shards.push(slot.index.clone());
            generations.push(slot.generation);
        }
        HubView { route: self.route, shards, generations }
    }

    fn slot(&self, shard: usize) -> &RwLock<Slot> {
        self.slots.get(shard).unwrap_or_else(|| {
            panic!("shard {shard} out of range (hub has {} shards)", self.slots.len())
        })
    }
}

/// A captured, lock-free view of every shard's published index, answering
/// queries routed by the hub's [`ShardRoute`].
///
/// Unpublished shards answer conservatively empty: `points_to` and
/// `reachable_sources` return nothing, `alias` returns `false`. Check
/// [`complete`](HubView::complete) when that matters.
#[derive(Clone, Debug)]
pub struct HubView {
    route: ShardRoute,
    shards: Vec<Option<Arc<QueryIndex>>>,
    generations: Vec<u64>,
}

impl HubView {
    /// The view's ownership map.
    pub fn route(&self) -> ShardRoute {
        self.route
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether every shard had a published index at capture time.
    pub fn complete(&self) -> bool {
        self.shards.iter().all(|s| s.is_some())
    }

    /// Shard `shard`'s index at capture time, if published.
    pub fn index(&self, shard: usize) -> Option<&QueryIndex> {
        self.shards.get(shard).and_then(|s| s.as_deref())
    }

    /// Shard `shard`'s generation at capture time (0 = never published).
    pub fn generation(&self, shard: usize) -> u64 {
        self.generations.get(shard).copied().unwrap_or(0)
    }

    /// The owning shard's index for variable `v`, if published.
    fn owner_index(&self, v: Var) -> Option<&QueryIndex> {
        self.index(self.route.owner(v))
    }

    /// The solution set of `v`, resolved against the owning shard.
    pub fn points_to(&self, v: Var) -> &[TermId] {
        self.owner_index(v).map_or(&[], |index| index.points_to(v))
    }

    /// Whether `a` and `b` may alias (their solution sets intersect).
    ///
    /// Same-shard pairs delegate to the owning index; cross-shard pairs
    /// intersect the two sorted solution spans — term identifiers align
    /// across shards because registration fans out to every shard.
    pub fn alias(&self, a: Var, b: Var) -> bool {
        let (sa, sb) = (self.route.owner(a), self.route.owner(b));
        if sa == sb {
            return self.index(sa).is_some_and(|index| index.alias(a, b));
        }
        intersects(self.points_to(a), self.points_to(b))
    }

    /// The sources reachable from `v` by the graph walk, resolved against
    /// the owning shard (every edge incident to `v` lives there).
    pub fn reachable_sources(&self, v: Var) -> Vec<TermId> {
        self.owner_index(v).map_or_else(Vec::new, |index| index.reachable_sources(v))
    }

    /// Allocation-reusing form of
    /// [`reachable_sources`](HubView::reachable_sources); clears and fills
    /// `out`.
    pub fn reachable_sources_with(&self, v: Var, scratch: &mut QueryScratch, out: &mut Vec<TermId>) {
        match self.owner_index(v) {
            Some(index) => index.reachable_sources_with(v, scratch, out),
            None => out.clear(),
        }
    }
}

/// Whether two sorted, distinct slices intersect.
fn intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{encode_solver, write_image, write_solver};
    use bane_core::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// A fresh directory per call: tests run concurrently, and one test's
    /// cleanup must not remove a directory another is writing into.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("bane-hub-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Shard `shard` of a two-shard system under the modulo route: even
    /// variables form one chain, odd variables another, each fed by its
    /// own source. Returns the solved shard, the fleet's six variables and
    /// the two sources.
    fn shard_solver(shard: usize) -> (Solver, Vec<Var>, Vec<TermId>) {
        let mut solver = Solver::new(SolverConfig::if_online());
        // Identical registration on both shards: ids align.
        let c0 = solver.register_nullary("s0");
        let c1 = solver.register_nullary("s1");
        let t0 = solver.term(c0, vec![]);
        let t1 = solver.term(c1, vec![]);
        let vs: Vec<Var> = (0..6).map(|_| solver.fresh_var()).collect();
        // Shard k owns vars with index % 2 == k: chain them.
        let own: Vec<Var> = vs.iter().copied().filter(|v| v.index() % 2 == shard).collect();
        let src = if shard == 0 { t0 } else { t1 };
        solver.add(src, own[0]);
        for w in own.windows(2) {
            solver.add(w[0], w[1]);
        }
        solver.solve();
        (solver, vs, vec![t0, t1])
    }

    /// Both shards of [`shard_solver`]'s system, written and reloaded.
    fn two_shard_indexes() -> (Vec<QueryIndex>, Vec<Var>, Vec<TermId>) {
        let dir = temp_dir("pair");
        let mut indexes = Vec::new();
        for shard in 0..2usize {
            let (mut solver, _, _) = shard_solver(shard);
            let path = dir.join(format!("shard{shard}.snap"));
            write_solver(&mut solver, &path, None).unwrap();
            indexes.push(QueryIndex::load(&path).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
        let (_, vars, srcs) = shard_solver(0);
        (indexes, vars, srcs)
    }

    #[test]
    fn route_is_modulo_and_composes() {
        let r4 = ShardRoute::new(4);
        let r2 = ShardRoute::new(2);
        for i in 0..32 {
            let v = Var::new(i);
            assert_eq!(r4.owner(v), i % 4);
            // v mod 2 == (v mod 4) mod 2: a 4-way partition serves 2 shards.
            assert_eq!(r2.owner(v), r4.owner(v) % 2);
        }
        assert_eq!(ShardRoute::new(1).owner(Var::new(17)), 0);
    }

    #[test]
    fn publish_bumps_generations_and_swaps() {
        let (indexes, vars, srcs) = two_shard_indexes();
        let hub = SnapshotHub::new(2);
        assert_eq!(hub.shard_count(), 2);
        assert_eq!(hub.generation(0), 0);
        assert!(hub.get(0).is_none());
        assert!(!hub.view().complete());

        let mut it = indexes.into_iter();
        assert_eq!(hub.publish(0, it.next().unwrap()), 1);
        assert_eq!(hub.publish(1, it.next().unwrap()), 1);
        assert!(hub.view().complete());
        assert_eq!(hub.generation(1), 1);

        // Readers holding the old Arc survive a republish.
        let held = hub.get(0).unwrap();
        let again = two_shard_indexes().0.remove(0);
        assert_eq!(hub.publish(0, again), 2);
        assert_eq!(held.points_to(vars[0]), &[srcs[0]][..]);
        assert_eq!(hub.view().generation(0), 2);
    }

    #[test]
    fn view_routes_queries_to_the_owner() {
        let (indexes, vars, srcs) = two_shard_indexes();
        let hub = SnapshotHub::new(2);
        for (shard, index) in indexes.into_iter().enumerate() {
            hub.publish(shard, index);
        }
        let view = hub.view();

        // points_to routes by parity.
        assert_eq!(view.points_to(vars[4]), &[srcs[0]][..]);
        assert_eq!(view.points_to(vars[5]), &[srcs[1]][..]);
        // reachable_sources agrees with the least solution per shard.
        assert_eq!(view.reachable_sources(vars[4]), vec![srcs[0]]);
        assert_eq!(view.reachable_sources(vars[3]), vec![srcs[1]]);
        // Same-shard alias: both even vars see s0.
        assert!(view.alias(vars[0], vars[4]));
        // Cross-shard alias: disjoint sources never intersect.
        assert!(!view.alias(vars[0], vars[5]));
        let mut scratch = QueryScratch::new();
        let mut out = vec![srcs[0]];
        view.reachable_sources_with(vars[1], &mut scratch, &mut out);
        assert_eq!(out, vec![srcs[1]]);
    }

    #[test]
    fn unpublished_shards_answer_empty() {
        let (indexes, vars, srcs) = two_shard_indexes();
        let hub = SnapshotHub::new(2);
        hub.publish(0, indexes.into_iter().next().unwrap());
        let view = hub.view();
        assert_eq!(view.points_to(vars[0]), &[srcs[0]][..]);
        assert_eq!(view.points_to(vars[1]), &[] as &[TermId]);
        assert!(view.reachable_sources(vars[1]).is_empty());
        assert!(!view.alias(vars[0], vars[1]));
        assert!(!view.complete());
    }

    /// Republishing from a corrupted file under live readers fails with
    /// the load error; the slot keeps its index and generation, and every
    /// reader keeps getting the previous index's answers.
    #[test]
    fn failed_republish_keeps_serving_the_previous_index() {
        let dir = temp_dir("corrupt");
        let (mut solver, vars, srcs) = shard_solver(0);
        let image = encode_solver(&mut solver).unwrap();
        let good = dir.join("good.snap");
        write_image(&good, &image, None).unwrap();
        let hub = SnapshotHub::new(2);
        assert_eq!(hub.publish_path(0, &good).unwrap(), 1);
        let published = hub.get(0).unwrap();

        let mut flipped = image.clone();
        flipped[image.len() / 2] ^= 0x40;
        let mut stale = image.clone();
        stale[crate::format::VERSION_OFFSET..crate::format::VERSION_OFFSET + 4]
            .copy_from_slice(&1u32.to_le_bytes());
        let truncated = image[..image.len() - 3].to_vec();
        let corrupt = [
            ("flipped", flipped),
            ("stale", stale),
            ("truncated", truncated),
        ];

        let (stop, reads) = (AtomicBool::new(false), AtomicU64::new(0));
        let deadline = Instant::now() + Duration::from_secs(30);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                        let view = hub.view();
                        assert_eq!(view.generation(0), 1);
                        for v in vars.iter().step_by(2) {
                            assert_eq!(view.points_to(*v), &[srcs[0]][..]);
                        }
                        assert!(view.alias(vars[0], vars[4]));
                        let held = hub.get(0).unwrap();
                        assert_eq!(held.reachable_sources(vars[2]), vec![srcs[0]]);
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for (name, bytes) in &corrupt {
                let path = dir.join(format!("{name}.snap"));
                std::fs::write(&path, bytes).unwrap();
                let err = hub.publish_path(0, &path).unwrap_err();
                let caught_as = match err {
                    SnapError::ChecksumMismatch => "flipped",
                    SnapError::BadVersion { found: 1 } => "stale",
                    SnapError::Truncated => "truncated",
                    _ => "something else",
                };
                assert_eq!(caught_as, *name, "{err}");
                assert_eq!(hub.generation(0), 1, "{name}");
                assert!(Arc::ptr_eq(&hub.get(0).unwrap(), &published), "{name}");
                // The readers keep going after the failed publish.
                let seen = reads.load(Ordering::Relaxed);
                while reads.load(Ordering::Relaxed) < seen + 2 {
                    assert!(Instant::now() < deadline, "readers stalled after {name}");
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_panics() {
        SnapshotHub::new(2).generation(2);
    }
}
