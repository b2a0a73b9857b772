//! On-disk snapshots of solved runs and the concurrent read-only query
//! index over them.
//!
//! Inclusion-based analysis is solve-once, query-many: the cubic solving
//! frontier makes the solved graph the expensive artifact, and the cycle
//! elimination of the source paper only pays off downstream if that
//! artifact can be *served* cheaply. This crate turns a converged
//! [`Solver`](bane_core::Solver) into a servable product:
//!
//! - [`encode_parts`] / [`write_image`]: serialize the least solution,
//!   the frozen canonical CSR graph, and the term/constructor tables into
//!   a versioned, checksummed, mmap-friendly file (format v2, specified
//!   byte-for-byte in `docs/SNAPSHOT_FORMAT.md`), from the solution and
//!   CSR the caller already holds. [`encode_solver`] / [`write_solver`]
//!   compute that pair first. Writing is deterministic: the same run always
//!   produces the same bytes.
//! - [`QueryIndex`]: loads a snapshot zero-copy (mmap where available,
//!   owned aligned buffer otherwise) and answers
//!   [`points_to`](QueryIndex::points_to),
//!   [`alias`](QueryIndex::alias), and
//!   [`reachable_sources`](QueryIndex::reachable_sources) with **no locks
//!   and no live-solver access** — `&QueryIndex` is `Sync`, so one index
//!   serves any number of reader threads concurrently.
//! - [`SnapshotHub`]: N hot-swappable snapshot slots — one per shard of a
//!   sharded fleet — behind the deterministic [`ShardRoute`] ownership map,
//!   so republications swap in under live readers and queries resolve
//!   against the owning shard lock-free (see `docs/SERVING.md`'s "Fleet"
//!   section).
//!
//! The serving lifecycle (write → load → query), the mmap/owned
//! trade-offs, and a worked server example live in `docs/SERVING.md`.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_snap::{write_solver, QueryIndex};
//!
//! let dir = std::env::temp_dir().join("bane-snap-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("run.snap");
//!
//! let mut solver = Solver::new(SolverConfig::if_online());
//! let c = solver.register_nullary("c");
//! let t = solver.term(c, vec![]);
//! let x = solver.fresh_var();
//! let y = solver.fresh_var();
//! solver.add(t, x);
//! solver.add(x, y);
//! solver.solve();
//! write_solver(&mut solver, &path, None).unwrap();
//!
//! let index = QueryIndex::load(&path).unwrap();
//! assert_eq!(index.points_to(y), &[t]);
//! assert!(index.alias(x, y));
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![deny(missing_docs)]

pub mod error;
pub mod format;
pub mod hub;
pub mod index;
#[cfg(unix)]
pub(crate) mod mmap;
pub mod writer;

pub use error::SnapError;
pub use format::{FORMAT_VERSION, MAGIC};
pub use hub::{HubView, ShardRoute, SnapshotHub};
pub use index::{LoadMode, QueryIndex, QueryScratch};
pub use writer::{encode_parts, encode_solver, write_image, write_solver};
