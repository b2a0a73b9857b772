//! The incremental serving lifecycle end to end: a live [`Session`] behind
//! the framed request/response transport, driven over a Unix socket pair —
//! register constructors, commit constraint groups, query, *edit a group*,
//! and watch the re-solve stay level-local. The runnable companion to
//! `docs/INCREMENTAL.md`.
//!
//! Run the self-driving demo with
//! `cargo run --release --example serve_session`. The demo asserts its own
//! equivalence invariant (the incremental answers match a from-scratch
//! solve), so CI can run it as a gate.
//!
//! With `--stdio` the example instead serves framed requests on
//! stdin/stdout — each frame is a 4-byte little-endian length prefix
//! followed by UTF-8 text (see `bane::serve::proto`) — turning it into a
//! real constraint-solving service for an external client. Add
//! `--fleet <n>` to stand up an `n`-shard [`ShardManager`] behind the same
//! endpoint: the protocol v2 `hello` handshake reports the width, deltas
//! route to the shard owning their variables, and `route <k> <query>`
//! addresses one shard explicitly.
//!
//! [`Session`]: bane::serve::Session
//! [`ShardManager`]: bane::serve::ShardManager

use bane::core::prelude::*;
use bane::serve::{read_frame, serve, serve_fleet, write_frame, SessionBuilder, ShardManager};
use std::os::unix::net::UnixStream;

fn main() {
    let mut stdio = false;
    let mut fleet: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--fleet" => {
                fleet = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--fleet expects a positive shard count")),
                )
            }
            "--help" | "-h" => die("usage: serve_session [--stdio] [--fleet <n>]"),
            other => die(&format!("unknown argument {other}")),
        }
    }
    match (stdio, fleet) {
        (true, shards) => run_stdio(shards),
        (false, Some(shards)) => run_fleet_demo(shards),
        (false, None) => run_demo(),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// One builder recipe for every serving mode in this example.
fn builder() -> SessionBuilder {
    SessionBuilder::new()
}

/// Serves stdin/stdout until EOF or `quit` — one session, or an `n`-shard
/// fleet when `--fleet` is given.
fn run_stdio(fleet: Option<usize>) {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match fleet {
        Some(shards) => {
            let mut manager = ShardManager::new(&builder(), shards);
            serve_fleet(&mut manager, stdin, stdout).expect("serve loop");
        }
        None => {
            let mut session = builder().build();
            serve(&mut session, stdin, stdout).expect("serve loop");
        }
    }
}

/// One client request/response exchange over the socket.
fn ask(stream: &mut UnixStream, request: &str) -> String {
    write_frame(stream, request).expect("send request");
    let reply = read_frame(stream).expect("read response").expect("server replied");
    println!("  > {request}\n  < {reply}");
    reply
}

/// The self-driving demo: server thread on one end of a socket pair,
/// scripted client on the other.
fn run_demo() {
    let (mut client, server) = UnixStream::pair().expect("socket pair");
    let server_thread = std::thread::spawn(move || {
        let mut session = builder().build();
        let (input, output) = (server.try_clone().expect("clone socket"), server);
        serve(&mut session, input, output).expect("serve loop");
    });

    println!("== 1. build a system over the wire ==");
    // A source constructor and a copy chain: s ⊆ v0 ⊆ v1 ⊆ v2 ⊆ v3.
    let hello = ask(&mut client, "hello 2");
    assert_eq!(hello, "ok proto=2 shards=1 mode=exact");
    let con = ask(&mut client, "con s");
    assert_eq!(con, "ok c2", "builtins 1/0 occupy the first two slots");
    let term = ask(&mut client, "term s");
    assert_eq!(term, "ok t2");
    ask(&mut client, "vars 4");
    ask(&mut client, "group t2 <= v0 ; v0 <= v1 ; v1 <= v2 ; v2 <= v3");
    let committed = ask(&mut client, "commit");
    assert!(committed.starts_with("ok committed path=monotone groups=[g0]"));

    println!("\n== 2. query ==");
    assert_eq!(ask(&mut client, "points-to v3"), "ok {t2}");
    assert_eq!(ask(&mut client, "alias v0 v3"), "ok yes");

    println!("\n== 3. edit the group (re-parse one function) ==");
    // The chain loses its last link; v3 no longer receives the source.
    let _ = ask(&mut client, "edit g0 t2 <= v0 ; v0 <= v1 ; v1 <= v2");
    let recommitted = ask(&mut client, "commit");
    assert!(
        recommitted.starts_with("ok committed path=replay"),
        "an edit takes the canonical-replay path"
    );
    assert_eq!(ask(&mut client, "points-to v3"), "ok {}");
    assert_eq!(ask(&mut client, "points-to v2"), "ok {t2}");
    assert_eq!(ask(&mut client, "alias v0 v3"), "ok no");

    println!("\n== 4. grow monotonically ==");
    ask(&mut client, "vars 1");
    ask(&mut client, "group v2 <= v4");
    let grown = ask(&mut client, "commit");
    assert!(grown.starts_with("ok committed path=monotone"));
    assert_eq!(ask(&mut client, "points-to v4"), "ok {t2}");
    let levels = ask(&mut client, "levels");
    assert!(levels.starts_with("ok dirty-levels="));

    ask(&mut client, "quit");
    server_thread.join().expect("server thread");

    // The demo's own equivalence gate: the same final system from scratch.
    println!("\n== 5. verify against a from-scratch solve ==");
    let mut reference = Solver::new(SolverConfig::if_online());
    let s = reference.register_nullary("s");
    let src = reference.term(s, vec![]);
    let vars: Vec<Var> = (0..5).map(|_| reference.fresh_var()).collect();
    reference.add(src, vars[0]);
    reference.add(vars[0], vars[1]);
    reference.add(vars[1], vars[2]);
    reference.add(vars[2], vars[4]);
    reference.solve();
    let ls = reference.least_solution();
    let v3 = reference.find(vars[3]);
    let v4 = reference.find(vars[4]);
    assert_eq!(ls.get(v3), &[] as &[TermId]);
    assert_eq!(ls.get(v4), &[src]);
    println!("incremental answers match the from-scratch least solution: ok");
}

/// The fleet demo: the same wire conversation against an `n`-shard
/// `ShardManager` — the handshake reports the width, groups route by
/// variable ownership (`v mod n`), and cross-shard alias queries intersect
/// the owners' answers.
fn run_fleet_demo(shards: usize) {
    let (mut client, server) = UnixStream::pair().expect("socket pair");
    let server_thread = std::thread::spawn(move || {
        let mut manager = ShardManager::new(&builder(), shards);
        let (input, output) = (server.try_clone().expect("clone socket"), server);
        serve_fleet(&mut manager, input, output).expect("serve loop");
    });

    println!("== 1. handshake ==");
    let hello = ask(&mut client, "hello 2");
    assert_eq!(hello, format!("ok proto=2 shards={shards} mode=exact"));

    println!("\n== 2. build per-shard chains from one source ==");
    ask(&mut client, "con s");
    ask(&mut client, "term s");
    ask(&mut client, &format!("vars {}", 2 * shards));
    // One group per shard: t2 ⊆ v_k ⊆ v_{k+shards} stays in owner class k.
    for k in 0..shards {
        ask(&mut client, &format!("group t2 <= v{k} ; v{k} <= v{}", k + shards));
    }
    let committed = ask(&mut client, "commit");
    assert!(committed.starts_with("ok committed path=monotone"), "{committed}");

    println!("\n== 3. query across shards ==");
    for k in 0..shards {
        assert_eq!(ask(&mut client, &format!("points-to v{}", k + shards)), "ok {t2}");
    }
    if shards > 1 {
        // v_shards and v_{shards+1} live on different shards but share t2.
        assert_eq!(
            ask(&mut client, &format!("alias v{} v{}", shards, shards + 1)),
            "ok yes"
        );
        let routed = ask(&mut client, "route 1 points-to v1");
        assert_eq!(routed, "ok {t2}", "owner's view over the route envelope");
        let foreign = ask(&mut client, "route 0 points-to v1");
        assert_eq!(foreign, "ok {}", "a non-owner sees the empty set");
    }
    let stats = ask(&mut client, "stats");
    assert!(stats.starts_with("ok constraints="), "{stats}");

    println!("\n== 4. the boundary rejects cross-shard groups ==");
    if shards > 1 {
        ask(&mut client, "group v0 <= v1");
        let rejected = ask(&mut client, "commit");
        assert!(rejected.starts_with("err rejected: cross-shard group"), "{rejected}");
        // The rejection was atomic; answers are unchanged.
        assert_eq!(ask(&mut client, "points-to v1"), "ok {t2}");
    }

    ask(&mut client, "quit");
    server_thread.join().expect("server thread");
    println!("\nfleet of {shards}: routed answers match, boundary holds: ok");
}
