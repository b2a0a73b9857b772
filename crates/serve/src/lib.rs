//! Incremental constraint-solving sessions: keep a solved system live,
//! apply [`Delta`] batches, and re-solve only what changed.
//!
//! The paper solves a constraint system once; real clients (editors,
//! build daemons, alias-query services) solve *almost the same* system
//! thousands of times. This crate is the serving layer for that workload,
//! built on `bane-core`'s **revalidating least-solution pass**
//! (`bane_core::least::Revalidator`): recomputation of only the variables
//! an edit actually dirtied, with every clean variable's previous set
//! copied byte-for-byte.
//!
//! Four modules:
//!
//! - [`delta`]: the edit language — constraint **groups** (the unit of
//!   re-parse), added, removed, or rewritten by a [`Delta`] batch;
//! - [`builder`]: the [`SessionBuilder`], the one construction path for
//!   sessions — every knob (solver configuration, cycle elimination,
//!   apply mode, observability gate) in one reusable recipe;
//! - [`session`]: the long-lived [`Session`] — solved state plus
//!   [`Session::apply`], with the monotone fast path vs canonical-replay
//!   split and the byte-identity contract documented there;
//! - [`proto`]: a framed request/response transport (`4-byte LE length +
//!   UTF-8 text`, versioned `hello` handshake) serving a session over any
//!   `Read + Write` pair — stdin/stdout, pipes, or a Unix socket
//!   (`examples/serve_session.rs`).
//!
//! Observability: sessions with [`Session::enable_obs`] record
//! `serve.delta.*`, `serve.dirty.*`, and `serve.reuse.hit` counters plus
//! the `serve-apply` phase — see `docs/OBSERVABILITY.md` — and the
//! localization they report (`serve.dirty.levels` strictly below the total
//! level count for a local edit) is pinned by this crate's end-to-end
//! tests.
//!
//! See `docs/INCREMENTAL.md` for the full design, including why
//! non-monotone deltas replay the canonical constraint sequence instead of
//! patching the live graph.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_serve::{Delta, SessionBuilder};
//!
//! let mut s = SessionBuilder::new().build();
//! let c = s.register_nullary("c");
//! let src = s.term(c, vec![]);
//! let (x, y) = (s.fresh_var(), s.fresh_var());
//!
//! let mut d = Delta::new();
//! d.add_group(vec![(src.into(), x.into()), (x.into(), y.into())]);
//! let report = s.apply(d);
//! assert!(report.monotone);
//! assert_eq!(s.points_to(y), &[src]);
//! ```

#![deny(missing_docs)]

pub mod builder;
pub mod delta;
pub mod proto;
pub mod session;

pub use builder::SessionBuilder;
pub use delta::{Delta, DeltaOp, GroupId};
pub use proto::{parse_request, read_frame, serve, write_frame, Request, Response, PROTO_VERSION};
pub use bane_core::least::RevalidateOutcome;
pub use session::{ApplyMode, ApplyReport, Session};
