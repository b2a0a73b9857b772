//! The [`SnapshotHub`]: one hot-swappable [`QueryIndex`] slot.
//!
//! A serving deployment republishes its snapshot after each commit and
//! swaps it in under live readers (`examples/alias_server.rs --reload`).
//! Publishing ([`publish`](SnapshotHub::publish)) replaces the slot's
//! index and bumps its generation; readers either clone the current `Arc`
//! under a short read lock ([`get`](SnapshotHub::get)) or capture a
//! [`HubView`] and query it **lock-free** from then on.
//!
//! Locks are held only for the pointer swap / clone — never across a
//! snapshot load or a query — so a slow republish never blocks a reader.
//!
//! [`SnapshotHub::new`] accepts only 1 and the slot methods only shard 0.
//! The benchmark calls them with those values; the arguments go with its
//! next change.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_snap::{write_solver, QueryIndex, SnapshotHub};
//!
//! let dir = std::env::temp_dir().join("bane-snap-hub-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("hub.snap");
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

use crate::error::SnapError;
use crate::index::QueryIndex;

/// The hot-swappable published state.
#[derive(Debug, Default)]
struct Slot {
    index: Option<Arc<QueryIndex>>,
    generation: u64,
}

/// One hot-swappable snapshot slot. See the [module docs](self).
///
/// `SnapshotHub` is `Sync`: publishers and any number of reader threads
/// share one `&SnapshotHub` (typically behind an `Arc`).
#[derive(Debug)]
pub struct SnapshotHub {
    slot: RwLock<Slot>,
}

impl SnapshotHub {
    /// An empty hub with its one slot unpublished. `shards` (like the
    /// `shard` argument of the slot methods) goes with the next benchmark
    /// change, which calls `new(1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is 1.
    pub fn new(shards: usize) -> Self {
        assert!(shards == 1, "shard count {shards} out of range (a hub has one slot)");
        SnapshotHub { slot: RwLock::new(Slot::default()) }
    }

    /// Publishes `index` as the slot's current snapshot, replacing any
    /// previous one, and returns the slot's new generation (1 for the first
    /// publication). Readers holding the old `Arc` keep serving from it;
    /// new readers see the fresh index.
    ///
    /// # Panics
    ///
    /// Panics unless `shard` is 0.
    pub fn publish(&self, shard: usize, index: QueryIndex) -> u64 {
        let mut slot = self.slot(shard).write().expect("hub slot poisoned");
        slot.index = Some(Arc::new(index));
        slot.generation += 1;
        slot.generation
    }

    /// Loads the snapshot at `path` and publishes it as the slot's current
    /// index. The load happens **outside** the slot lock — readers only
    /// ever wait on the pointer swap.
    ///
    /// # Errors
    ///
    /// Propagates snapshot load errors; the slot keeps its previous index.
    ///
    /// # Panics
    ///
    /// Panics unless `shard` is 0.
    pub fn publish_path(&self, shard: usize, path: &Path) -> Result<u64, SnapError> {
        let index = QueryIndex::load(path)?;
        Ok(self.publish(shard, index))
    }

    /// The slot's current index, if one has been published. The clone
    /// happens under a short read lock; queries on the returned `Arc` are
    /// lock-free.
    ///
    /// # Panics
    ///
    /// Panics unless `shard` is 0.
    pub fn get(&self, shard: usize) -> Option<Arc<QueryIndex>> {
        self.slot(shard).read().expect("hub slot poisoned").index.clone()
    }

    /// The slot's publication generation (0 = never published).
    ///
    /// # Panics
    ///
    /// Panics unless `shard` is 0.
    pub fn generation(&self, shard: usize) -> u64 {
        self.slot(shard).read().expect("hub slot poisoned").generation
    }

    /// Captures the slot's current index and generation for lock-free
    /// querying, under one short read lock.
    pub fn view(&self) -> HubView {
        let slot = self.slot.read().expect("hub slot poisoned");
        HubView { index: slot.index.clone(), generation: slot.generation }
    }

    fn slot(&self, shard: usize) -> &RwLock<Slot> {
        assert!(shard == 0, "shard {shard} out of range (a hub has one slot)");
        &self.slot
    }
}

/// A captured, lock-free view of the hub's published index.
///
/// An unpublished hub answers conservatively empty: `points_to` returns
/// nothing and `alias` returns `false`.
#[derive(Clone, Debug)]
pub struct HubView {
    index: Option<Arc<QueryIndex>>,
    generation: u64,
}

impl HubView {
    /// The slot's generation at capture time (0 = never published).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The solution set of `v`.
    pub fn points_to(&self, v: Var) -> &[TermId] {
        self.index.as_deref().map_or(&[], |index| index.points_to(v))
    }

    /// Whether `a` and `b` may alias (their solution sets intersect).
    pub fn alias(&self, a: Var, b: Var) -> bool {
        self.index.as_deref().is_some_and(|index| index.alias(a, b))
    }
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

    /// A solved system of two chains with disjoint sources: `s0 <= v0 <= v1`
    /// and `s1 <= v2 <= v3`. Returns the solver, its four variables and the
    /// two sources.
    fn solved() -> (Solver, Vec<Var>, Vec<TermId>) {
        let mut solver = Solver::new(SolverConfig::if_online());
        let c0 = solver.register_nullary("s0");
        let c1 = solver.register_nullary("s1");
        let srcs = vec![solver.term(c0, vec![]), solver.term(c1, vec![])];
        let vs: Vec<Var> = (0..4).map(|_| solver.fresh_var()).collect();
        for (chain, &src) in vs.chunks(2).zip(&srcs) {
            solver.add(src, chain[0]);
            solver.add(chain[0], chain[1]);
        }
        solver.solve();
        (solver, vs, srcs)
    }

    /// [`solved`]'s system, written and reloaded.
    fn loaded() -> (QueryIndex, Vec<Var>, Vec<TermId>) {
        let dir = temp_dir("load");
        let (mut solver, vars, srcs) = solved();
        let path = dir.join("hub.snap");
        write_solver(&mut solver, &path, None).unwrap();
        let index = QueryIndex::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (index, vars, srcs)
    }

    #[test]
    fn publish_bumps_generations_and_swaps() {
        let (index, vars, srcs) = loaded();
        let hub = SnapshotHub::new(1);
        assert_eq!(hub.generation(0), 0);
        assert!(hub.get(0).is_none());
        assert_eq!(hub.view().generation(), 0);

        assert_eq!(hub.publish(0, index), 1);
        assert_eq!(hub.generation(0), 1);
        let view = hub.view();
        assert_eq!(view.points_to(vars[1]), &[srcs[0]][..]);
        assert_eq!(view.points_to(vars[3]), &[srcs[1]][..]);
        assert!(view.alias(vars[0], vars[1]));
        assert!(!view.alias(vars[1], vars[2]));

        // Readers holding the old Arc survive a republish.
        let held = hub.get(0).unwrap();
        assert_eq!(hub.publish(0, loaded().0), 2);
        assert!(!Arc::ptr_eq(&held, &hub.get(0).unwrap()));
        assert_eq!(held.points_to(vars[0]), &[srcs[0]][..]);
        assert_eq!(view.generation(), 1);
        assert_eq!(hub.view().generation(), 2);
    }

    #[test]
    fn unpublished_hub_answers_empty() {
        let (_, vars, _) = solved();
        let view = SnapshotHub::new(1).view();
        assert_eq!(view.points_to(vars[0]), &[] as &[TermId]);
        assert!(!view.alias(vars[0], vars[1]));
    }

    /// Republishing from a corrupted file under live readers fails with
    /// the load error; the slot keeps its index and generation, and every
    /// reader keeps getting the previous index's answers.
    #[test]
    fn failed_republish_keeps_serving_the_previous_index() {
        let dir = temp_dir("corrupt");
        let (mut solver, vars, srcs) = solved();
        let image = encode_solver(&mut solver).unwrap();
        let good = dir.join("good.snap");
        write_image(&good, &image, None).unwrap();
        let hub = SnapshotHub::new(1);
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
                        assert_eq!(view.generation(), 1);
                        for v in &vars[..2] {
                            assert_eq!(view.points_to(*v), &[srcs[0]][..]);
                        }
                        assert!(view.alias(vars[0], vars[1]));
                        let held = hub.get(0).unwrap();
                        assert_eq!(held.reachable_sources(vars[1]), vec![srcs[0]]);
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
        SnapshotHub::new(1).generation(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_second_slot_panics() {
        SnapshotHub::new(2);
    }
}
