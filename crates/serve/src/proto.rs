//! The session wire protocol: framed text requests against a live
//! [`Session`].
//!
//! The transport is deliberately simple — this build has no serde, and the
//! clients that matter (editors, test harnesses, the
//! `examples/serve_session.rs` demo) want something greppable:
//!
//! - **Framing**: each message is a 4-byte little-endian length prefix
//!   followed by that many bytes of UTF-8 text ([`write_frame`] /
//!   [`read_frame`]). Works identically over stdin/stdout, a pipe, or a
//!   Unix socket.
//! - **Requests**: one command per frame, parsed by [`parse_request`].
//!   Mutating commands stage operations into a pending [`Delta`]; `commit`
//!   applies the batch atomically and reports the [`ApplyReport`].
//! - **Responses**: one frame per request, `ok …` or `err …`, rendered by
//!   [`Response::render`].
//!
//! # Command language
//!
//! ```text
//! hello [<version>]            negotiate the protocol (v2 adds `route`)
//! con <name> [+|-]...          register a constructor (variances; none = nullary)
//! term <con-name> <arg>...     intern a term; args are v<i>, t<i>, one, zero
//! vars <n>                     stage: create n fresh variables
//! group <c> [; <c>]...         stage: add a group; each <c> is <expr> <= <expr>
//! edit g<i> <c> [; <c>]...     stage: replace group g<i>'s constraints
//! drop g<i>                    stage: remove group g<i>
//! commit                       apply the staged delta, re-solve
//! points-to v<i>               query the solution set of v<i>
//! alias v<i> v<j>              do the two sets intersect?
//! stats                        work / redundant / constraints counters
//! levels                       last re-solve's dirty/total level counts
//! snapshot <path>              publish a bane-snap snapshot
//! route <k> <query>            wrap a read-only query (v2; only k = 0 answers)
//! quit                         end the serving loop
//! ```
//!
//! # Versioning
//!
//! The protocol is versioned ([`PROTO_VERSION`], currently 2). Version 1
//! had no handshake; v1 clients simply never send `hello`, and every v1
//! command keeps its meaning, so they interoperate unchanged with v2
//! servers. A v2 client opens with `hello <version>`; the server answers
//! `ok proto=<server-version> shards=1 mode=<exact|fast>`, telling the
//! client what the server speaks and the non-monotone re-solve tier
//! ([`ApplyMode`](crate::ApplyMode)) — a `fast` server's `commit` answers
//! `path=fast-repair` when a non-monotone batch was repaired in place
//! instead of `path=replay`, and its post-commit stats are set-equal but
//! not byte-identical to a replaying server's. `shards` is always 1.
//!
//! The v2 `route <k> <query>` envelope wraps a *read-only* query
//! (`points-to`, `alias`, `stats`, `levels`, `snapshot`). A session is its
//! only target: `route 0 <query>` answers exactly as `<query>` does, and
//! any other `k` is an `err`. Mutations inside `route` do not parse. See
//! `docs/INCREMENTAL.md` for the frame grammar.
//!
//! [`ApplyReport`]: crate::ApplyReport

use std::io::{self, Read, Write};

use bane_core::least::RevalidateOutcome;
use bane_core::prelude::*;
use bane_core::Variance;
use bane_util::idx::Idx;

use crate::delta::{Delta, DeltaOp, GroupId};
use crate::session::Session;

/// Maximum accepted frame length (1 MiB) — guards the length-prefixed
/// reader against garbage prefixes.
pub const MAX_FRAME: u32 = 1 << 20;

/// The protocol version this build speaks. Version 2 added the `hello`
/// handshake and the `route` envelope; version 1 (no handshake) remains
/// fully understood — see the [module docs](self).
pub const PROTO_VERSION: u32 = 2;

/// One parsed request. See the [module docs](self) for the text syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `con <name> [+|-]...`
    RegisterCon {
        /// Constructor name.
        name: String,
        /// Argument variances (empty = nullary).
        variances: Vec<Variance>,
    },
    /// `term <con-name> <arg>...`
    Term {
        /// Constructor name (must be registered).
        con: String,
        /// Argument expressions.
        args: Vec<SetExpr>,
    },
    /// `vars <n>` — staged.
    AddVars(u32),
    /// `group <c> [; <c>]...` — staged.
    AddGroup(Vec<(SetExpr, SetExpr)>),
    /// `edit g<i> <c> [; <c>]...` — staged.
    EditGroup(GroupId, Vec<(SetExpr, SetExpr)>),
    /// `drop g<i>` — staged.
    RemoveGroup(GroupId),
    /// `commit` — apply the staged delta.
    Commit,
    /// `points-to v<i>`
    PointsTo(Var),
    /// `alias v<i> v<j>`
    Alias(Var, Var),
    /// `stats`
    Stats,
    /// `levels`
    Levels,
    /// `snapshot <path>`
    Snapshot(String),
    /// `hello [<version>]` — protocol handshake (bare `hello` means v1).
    Hello(u32),
    /// `route <k> <query>` — a read-only query in the v2 envelope; only
    /// `k = 0`, the session itself, answers.
    Route {
        /// Target slot (0 is the only one a session has).
        shard: u32,
        /// The enclosed query (never itself a `Route`).
        inner: Box<Request>,
    },
    /// `quit`
    Quit,
}

/// One response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `ok` with a payload (possibly empty).
    Ok(String),
    /// `err` with a message.
    Err(String),
}

impl Response {
    /// Renders the response as its wire text.
    pub fn render(&self) -> String {
        match self {
            Response::Ok(s) if s.is_empty() => "ok".to_string(),
            Response::Ok(s) => format!("ok {s}"),
            Response::Err(s) => format!("err {s}"),
        }
    }

    /// Whether this is an `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }
}

/// Parses one argument expression: `v<i>`, `t<i>`, `one`, or `zero`.
fn parse_expr(tok: &str) -> Result<SetExpr, String> {
    match tok {
        "one" => return Ok(SetExpr::One),
        "zero" => return Ok(SetExpr::Zero),
        "" => return Err("empty expression".to_string()),
        _ => {}
    }
    let idx = |s: &str| s.parse::<usize>().map_err(|_| format!("bad expression `{tok}`"));
    if let Some(rest) = tok.strip_prefix('v') {
        Ok(SetExpr::from(Var::new(idx(rest)?)))
    } else if let Some(rest) = tok.strip_prefix('t') {
        Ok(SetExpr::from(TermId::new(idx(rest)?)))
    } else {
        Err(format!("bad expression `{tok}` (want v<i>, t<i>, one, or zero)"))
    }
}

/// Parses a `v<i>` token into a variable.
fn parse_var(tok: &str) -> Result<Var, String> {
    match parse_expr(tok)? {
        SetExpr::Var(v) => Ok(v),
        _ => Err(format!("expected a variable, got `{tok}`")),
    }
}

/// Parses a `g<i>` token into a group id.
fn parse_group(tok: &str) -> Result<GroupId, String> {
    let idx = tok
        .strip_prefix('g')
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| format!("bad group `{tok}` (want g<i>)"))?;
    Ok(GroupId::new(idx))
}

/// Parses `<expr> <= <expr> [; ...]` into a constraint list.
fn parse_constraints(rest: &str) -> Result<Vec<(SetExpr, SetExpr)>, String> {
    let mut out = Vec::new();
    for clause in rest.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (lhs, rhs) = clause
            .split_once("<=")
            .ok_or_else(|| format!("bad constraint `{clause}` (want <expr> <= <expr>)"))?;
        out.push((parse_expr(lhs.trim())?, parse_expr(rhs.trim())?));
    }
    Ok(out)
}

/// Parses one command line into a [`Request`].
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or malformed
/// operands.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    let mut toks = rest.split_whitespace();
    match cmd {
        "con" => {
            let name = toks.next().ok_or("con: missing name")?.to_string();
            let mut variances = Vec::new();
            for t in toks {
                variances.push(match t {
                    "+" => Variance::Covariant,
                    "-" => Variance::Contravariant,
                    _ => return Err(format!("con: bad variance `{t}` (want + or -)")),
                });
            }
            Ok(Request::RegisterCon { name, variances })
        }
        "term" => {
            let con = toks.next().ok_or("term: missing constructor")?.to_string();
            let args = toks.map(parse_expr).collect::<Result<_, _>>()?;
            Ok(Request::Term { con, args })
        }
        "vars" => {
            let n = rest.parse().map_err(|_| format!("vars: bad count `{rest}`"))?;
            Ok(Request::AddVars(n))
        }
        "group" => Ok(Request::AddGroup(parse_constraints(rest)?)),
        "edit" => {
            let g = parse_group(toks.next().ok_or("edit: missing group")?)?;
            let body = rest.split_once(char::is_whitespace).map_or("", |(_, b)| b);
            Ok(Request::EditGroup(g, parse_constraints(body)?))
        }
        "drop" => Ok(Request::RemoveGroup(parse_group(rest)?)),
        "commit" => Ok(Request::Commit),
        "points-to" => Ok(Request::PointsTo(parse_var(rest)?)),
        "alias" => {
            let a = parse_var(toks.next().ok_or("alias: missing first variable")?)?;
            let b = parse_var(toks.next().ok_or("alias: missing second variable")?)?;
            Ok(Request::Alias(a, b))
        }
        "stats" => Ok(Request::Stats),
        "levels" => Ok(Request::Levels),
        "snapshot" => {
            if rest.is_empty() {
                return Err("snapshot: missing path".to_string());
            }
            Ok(Request::Snapshot(rest.to_string()))
        }
        "hello" => {
            if rest.is_empty() {
                return Ok(Request::Hello(1));
            }
            let v = rest.parse().map_err(|_| format!("hello: bad version `{rest}`"))?;
            Ok(Request::Hello(v))
        }
        "route" => {
            let shard_tok = toks.next().ok_or("route: missing shard")?;
            let shard = shard_tok
                .parse()
                .map_err(|_| format!("route: bad shard `{shard_tok}`"))?;
            let body = rest.split_once(char::is_whitespace).map_or("", |(_, b)| b).trim();
            if body.is_empty() {
                return Err("route: missing command".to_string());
            }
            let inner = parse_request(body)?;
            match inner {
                Request::Route { .. } => Err("route: cannot nest routes".to_string()),
                Request::PointsTo(_)
                | Request::Alias(..)
                | Request::Stats
                | Request::Levels
                | Request::Snapshot(_) => Ok(Request::Route { shard, inner: Box::new(inner) }),
                _ => Err("route: only read-only queries can be routed".to_string()),
            }
        }
        "quit" => Ok(Request::Quit),
        _ => Err(format!("unknown command `{cmd}`")),
    }
}

/// The `points-to` reply body `{t<i>,…}`, written into one string.
///
/// Kept out of line, like `check_term`: inlined into `execute`, the two
/// made every wire read about 2% slower (perfbench `edit-exact` `read_us`).
#[inline(never)]
fn render_points_to(set: &[TermId]) -> Response {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2 + 6 * set.len());
    out.push('{');
    for (i, t) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "t{}", t.index());
    }
    out.push('}');
    Response::Ok(out)
}

/// The `alias` reply.
fn render_alias(hit: bool) -> Response {
    Response::Ok(if hit { "yes" } else { "no" }.to_string())
}

/// The `stats` reply.
fn render_stats(constraints: u64, work: u64, redundant: u64) -> Response {
    Response::Ok(format!("constraints={constraints} work={work} redundant={redundant}"))
}

/// The `levels` reply for the last re-solve's `outcome`.
fn render_levels(o: RevalidateOutcome) -> Response {
    Response::Ok(format!(
        "dirty-levels={}/{} dirty-vars={} reused={}",
        o.dirty_levels, o.total_levels, o.dirty_vars, o.reused_vars
    ))
}

/// The `err` reply for a staged `drop` or `edit` of `g` when the server has
/// no live group `g` (`live` is false) or `pending` already drops it: either
/// way the batch would name a removed group when it commits.
fn check_group(live: bool, pending: &Delta, g: GroupId) -> Result<(), Response> {
    if !live {
        return Err(Response::Err(format!("no such group {g}")));
    }
    if pending.ops().contains(&DeltaOp::RemoveGroup(g)) {
        return Err(Response::Err(format!("group {g} already dropped in this batch")));
    }
    Ok(())
}

/// The `err` reply for the first of `vars` that `known` rejects: a read
/// naming a variable the server never created is a client error, not a
/// crash.
fn check_vars(vars: &[Var], known: impl Fn(Var) -> bool) -> Result<(), Response> {
    match vars.iter().find(|&&v| !known(v)) {
        Some(v) => Err(Response::Err(format!("unknown variable v{}", v.index()))),
        None => Ok(()),
    }
}

/// The `err` reply for the first id in `exprs` that `solver` does not know.
/// Variables `pending` stages count as known: they exist once it commits.
fn check_exprs<'a>(
    solver: &Solver,
    pending: &Delta,
    exprs: impl IntoIterator<Item = &'a SetExpr>,
) -> Result<(), Response> {
    let staged: usize = pending
        .ops()
        .iter()
        .map(|op| match op {
            DeltaOp::AddVars(n) => *n as usize,
            _ => 0,
        })
        .sum();
    let vars = solver.graph_len() + staged;
    for &e in exprs {
        match e {
            SetExpr::Var(v) => check_vars(&[v], |v| v.index() < vars)?,
            SetExpr::Term(t) if t.index() >= solver.terms().len() => {
                return Err(Response::Err(format!("unknown term t{}", t.index())));
            }
            _ => {}
        }
    }
    Ok(())
}

/// [`check_exprs`] over both sides of every constraint.
fn check_constraints(
    solver: &Solver,
    pending: &Delta,
    constraints: &[(SetExpr, SetExpr)],
) -> Result<(), Response> {
    check_exprs(solver, pending, constraints.iter().flat_map(|(l, r)| [l, r]))
}

/// Resolves a `term` request's constructor by name and checks its arity
/// and argument ids, so interning cannot fail.
#[inline(never)]
fn check_term(
    solver: &Solver,
    pending: &Delta,
    con: &str,
    args: &[SetExpr],
) -> Result<Con, Response> {
    let Some((con, sig)) = solver.cons().iter().find(|(_, sig)| sig.name() == con) else {
        return Err(Response::Err(format!("unknown constructor `{con}`")));
    };
    if sig.arity() != args.len() {
        return Err(Response::Err(format!(
            "constructor {} expects {} arguments, got {}",
            sig.name(),
            sig.arity(),
            args.len()
        )));
    }
    check_exprs(solver, pending, args)?;
    Ok(con)
}

/// Executes one request against `session`, staging mutations into
/// `pending`. Pure dispatch: the transport loop and tests share it.
pub fn execute(session: &mut Session, pending: &mut Delta, req: Request) -> Response {
    match req {
        Request::RegisterCon { name, variances } => {
            let con = if variances.is_empty() {
                session.register_nullary(name)
            } else {
                session.register_con(name, variances)
            };
            Response::Ok(format!("c{}", con.index()))
        }
        Request::Term { con, args } => match check_term(session.solver(), pending, &con, &args) {
            Ok(con) => Response::Ok(format!("t{}", session.term(con, args).index())),
            Err(e) => e,
        },
        Request::AddVars(n) => {
            pending.add_vars(n);
            Response::Ok(format!("staged {n} vars"))
        }
        Request::AddGroup(constraints) => {
            if let Err(e) = check_constraints(session.solver(), pending, &constraints) {
                return e;
            }
            let n = constraints.len();
            pending.add_group(constraints);
            Response::Ok(format!("staged group ({n} constraints)"))
        }
        Request::EditGroup(g, constraints) => {
            if let Err(e) = check_group(session.group(g).is_some(), pending, g)
                .and_then(|()| check_constraints(session.solver(), pending, &constraints))
            {
                return e;
            }
            let n = constraints.len();
            pending.edit_group(g, constraints);
            Response::Ok(format!("staged edit {g} ({n} constraints)"))
        }
        Request::RemoveGroup(g) => {
            if let Err(e) = check_group(session.group(g).is_some(), pending, g) {
                return e;
            }
            pending.remove_group(g);
            Response::Ok(format!("staged drop {g}"))
        }
        Request::Commit => {
            let delta = std::mem::take(pending);
            let report = session.apply(delta);
            let groups: Vec<String> = report.new_groups.iter().map(|g| g.to_string()).collect();
            Response::Ok(format!(
                "committed path={} groups=[{}] dirty-levels={}/{} dirty-vars={} reused={}",
                if report.monotone {
                    "monotone"
                } else if report.fast_repaired {
                    "fast-repair"
                } else {
                    "replay"
                },
                groups.join(","),
                report.outcome.dirty_levels,
                report.outcome.total_levels,
                report.outcome.dirty_vars,
                report.outcome.reused_vars,
            ))
        }
        Request::PointsTo(v) => match check_vars(&[v], |v| session.has_var(v)) {
            Ok(()) => render_points_to(session.points_to(v)),
            Err(e) => e,
        },
        Request::Alias(a, b) => match check_vars(&[a, b], |v| session.has_var(v)) {
            Ok(()) => render_alias(session.alias(a, b)),
            Err(e) => e,
        },
        Request::Stats => {
            let s = session.stats();
            render_stats(s.constraints_added, s.work, s.redundant)
        }
        Request::Levels => render_levels(session.last_outcome()),
        Request::Snapshot(path) => {
            match session.publish_snapshot(std::path::Path::new(&path)) {
                Ok(bytes) => Response::Ok(format!("snapshot {bytes} bytes")),
                Err(e) => Response::Err(format!("snapshot failed: {e}")),
            }
        }
        Request::Hello(_) => Response::Ok(format!(
            "proto={PROTO_VERSION} shards=1 mode={}",
            session.apply_mode().wire_name()
        )),
        Request::Route { shard, inner } => {
            // A session is the server's only slot: 0 exists.
            if shard != 0 {
                return Response::Err(format!("no such shard {shard} (server has 1)"));
            }
            execute(session, pending, *inner)
        }
        Request::Quit => Response::Ok("bye".to_string()),
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying writer's I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF (stream closed
/// between frames).
///
/// # Errors
///
/// I/O errors, oversized frames (see [`MAX_FRAME`]), truncated frames, and
/// invalid UTF-8 all surface as `io::Error`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame header"))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Serves framed requests from `input` against `session`, writing one
/// response frame per request to `output`, until `quit` or EOF.
///
/// Parse and execution errors are answered with `err …` frames and do not
/// end the loop; transport-level errors do.
///
/// # Errors
///
/// Propagates I/O errors from the framing layer.
pub fn serve(session: &mut Session, mut input: impl Read, mut output: impl Write) -> io::Result<()> {
    let mut pending = Delta::new();
    while let Some(line) = read_frame(&mut input)? {
        let (response, quit) = match parse_request(&line) {
            Ok(req) => {
                let quit = req == Request::Quit;
                (execute(session, &mut pending, req), quit)
            }
            Err(e) => (Response::Err(e), false),
        };
        write_frame(&mut output, &response.render())?;
        if quit {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_language() {
        assert_eq!(
            parse_request("con ptr + -").unwrap(),
            Request::RegisterCon {
                name: "ptr".into(),
                variances: vec![Variance::Covariant, Variance::Contravariant],
            }
        );
        assert_eq!(
            parse_request("group t2 <= v0 ; v0 <= v1").unwrap(),
            Request::AddGroup(vec![
                (TermId::new(2).into(), Var::new(0).into()),
                (Var::new(0).into(), Var::new(1).into()),
            ])
        );
        assert_eq!(parse_request("drop g3").unwrap(), Request::RemoveGroup(GroupId::new(3)));
        assert_eq!(parse_request("points-to v7").unwrap(), Request::PointsTo(Var::new(7)));
        assert_eq!(
            parse_request("alias v1 v2").unwrap(),
            Request::Alias(Var::new(1), Var::new(2))
        );
        assert!(parse_request("frobnicate").is_err());
        assert!(parse_request("group v0 < v1").is_err());
        assert!(parse_request("edit gX v0 <= v1").is_err());
    }

    #[test]
    fn parses_the_v2_extensions() {
        assert_eq!(parse_request("hello").unwrap(), Request::Hello(1));
        assert_eq!(parse_request("hello 2").unwrap(), Request::Hello(2));
        assert!(parse_request("hello two").is_err());
        assert_eq!(
            parse_request("route 3 points-to v7").unwrap(),
            Request::Route { shard: 3, inner: Box::new(Request::PointsTo(Var::new(7))) }
        );
        assert_eq!(
            parse_request("route 0 snapshot /tmp/s.snap").unwrap(),
            Request::Route { shard: 0, inner: Box::new(Request::Snapshot("/tmp/s.snap".into())) }
        );
        // Mutations and nested routes cannot be routed.
        assert!(parse_request("route 1 vars 3").is_err());
        assert!(parse_request("route 1 commit").is_err());
        assert!(parse_request("route 1 route 0 stats").is_err());
        assert!(parse_request("route 1").is_err());
        assert!(parse_request("route x stats").is_err());
    }

    #[test]
    fn single_session_answers_hello_and_shard_zero_routes() {
        let mut session = crate::SessionBuilder::new().build();
        let mut pending = Delta::new();
        let hello = execute(&mut session, &mut pending, Request::Hello(2));
        assert_eq!(hello, Response::Ok(format!("proto={PROTO_VERSION} shards=1 mode=exact")));
        // v1 clients that do send a bare hello still get a v2 answer.
        let hello1 = execute(&mut session, &mut pending, parse_request("hello").unwrap());
        assert!(hello1.is_ok());
        let ok = execute(&mut session, &mut pending, parse_request("route 0 stats").unwrap());
        assert!(ok.is_ok(), "{ok:?}");
        let err = execute(&mut session, &mut pending, parse_request("route 1 stats").unwrap());
        assert!(!err.is_ok());
    }

    /// Reads and staged frames naming ids the server never created answer
    /// `err`, bare or inside a `route` envelope, and the server keeps
    /// serving afterwards. Variables staged by `vars` count as known before
    /// they are committed. A `drop` or `edit` of a group the pending batch
    /// already drops is an `err` too, and the ops staged before it still
    /// commit.
    #[test]
    fn out_of_range_reads_are_typed_errors() {
        // `None` marks a commit, whose reply carries level counts; it must
        // only succeed.
        let frames = [
            ("con c", Some("ok c2")),
            ("term c", Some("ok t2")),
            ("vars 3", Some("ok staged 3 vars")),
            ("group t2 <= v0 ; v0 <= v2", Some("ok staged group (2 constraints)")),
            ("commit", None),
            ("points-to v999999", Some("err unknown variable v999999")),
            ("alias v0 v999999", Some("err unknown variable v999999")),
            ("alias v999999 v2", Some("err unknown variable v999999")),
            ("route 1 points-to v999999", Some("err no such shard 1 (server has 1)")),
            ("route 0 points-to v999999", Some("err unknown variable v999999")),
            ("route 0 alias v0 v999999", Some("err unknown variable v999999")),
            ("route 0 alias v0 v0", Some("ok yes")),
            ("points-to v2", Some("ok {t2}")),
            ("alias v0 v2", Some("ok yes")),
            ("con d +", Some("ok c3")),
            ("term d", Some("err constructor d expects 1 arguments, got 0")),
            ("term c v0", Some("err constructor c expects 0 arguments, got 1")),
            ("term d v4242", Some("err unknown variable v4242")),
            ("term d t999", Some("err unknown term t999")),
            ("group v0 <= v77777", Some("err unknown variable v77777")),
            ("group t999 <= v0", Some("err unknown term t999")),
            ("edit g0 v0 <= v77777", Some("err unknown variable v77777")),
            ("vars 1", Some("ok staged 1 vars")),
            ("term d v3", Some("ok t3")),
            ("group t3 <= v3", Some("ok staged group (1 constraints)")),
            ("commit", None),
            ("points-to v3", Some("ok {t3}")),
            ("drop g1", Some("ok staged drop g1")),
            ("drop g1", Some("err group g1 already dropped in this batch")),
            ("edit g1 v3 <= v1", Some("err group g1 already dropped in this batch")),
            ("commit", None),
            ("points-to v3", Some("ok {}")),
        ];
        let mut session = crate::SessionBuilder::new().build();
        let mut pending = Delta::new();
        for (frame, want) in frames {
            let got = execute(&mut session, &mut pending, parse_request(frame).unwrap()).render();
            match want {
                Some(want) => assert_eq!(got, want, "{frame}"),
                None => assert!(got.starts_with("ok committed"), "{frame}: {got}"),
            }
        }
    }

    /// The shared renderer answers exactly the historical `{t<i>,…}` text.
    #[test]
    fn points_to_rendering_is_unchanged() {
        let ids = [TermId::new(2), TermId::new(17), TermId::new(300)];
        assert_eq!(
            render_points_to(&ids),
            Response::Ok("{t2,t17,t300}".to_string())
        );
        assert_eq!(
            render_points_to(&ids[..1]),
            Response::Ok("{t2}".to_string())
        );
        assert_eq!(render_points_to(&[]), Response::Ok("{}".to_string()));
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let bogus = u32::MAX.to_le_bytes();
        assert!(read_frame(&mut &bogus[..]).is_err());
    }

    #[test]
    fn end_to_end_session_over_frames() {
        let mut session = crate::SessionBuilder::new().build();
        let script = [
            "con c",
            "term c",
            "vars 3",
            "group t2 <= v0 ; v0 <= v1 ; v1 <= v2",
            "commit",
            "points-to v2",
            "alias v0 v2",
            "drop g0",
            "commit",
            "points-to v2",
            "stats",
            "levels",
            "quit",
        ];
        let mut input = Vec::new();
        for line in script {
            write_frame(&mut input, line).unwrap();
        }
        let mut output = Vec::new();
        serve(&mut session, &input[..], &mut output).unwrap();

        let mut r = &output[..];
        let mut responses = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            responses.push(f);
        }
        assert_eq!(responses.len(), script.len());
        assert_eq!(responses[0], "ok c2"); // after builtin 1/0
        assert_eq!(responses[1], "ok t2");
        assert!(responses[4].starts_with("ok committed path=monotone groups=[g0]"));
        assert_eq!(responses[5], "ok {t2}");
        assert_eq!(responses[6], "ok yes");
        assert!(responses[8].starts_with("ok committed path=replay"));
        assert_eq!(responses[9], "ok {}");
        assert!(responses[10].starts_with("ok constraints=0"));
        assert_eq!(responses[12], "ok bye");
    }
}
