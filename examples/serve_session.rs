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
//! real constraint-solving service for an external client.
//!
//! [`Session`]: bane::serve::Session

use bane::core::prelude::*;
use bane::serve::{read_frame, serve, write_frame, SessionBuilder};
use std::os::unix::net::UnixStream;

fn main() {
    let mut stdio = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--help" | "-h" => die("usage: serve_session [--stdio]"),
            other => die(&format!("unknown argument {other}")),
        }
    }
    if stdio {
        run_stdio();
    } else {
        run_demo();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Serves stdin/stdout until EOF or `quit`.
fn run_stdio() {
    let mut session = SessionBuilder::new().build();
    let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
    serve(&mut session, stdin, stdout).expect("serve loop");
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
        let mut session = SessionBuilder::new().build();
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

    println!("\n== 3. edit the group (re-parse one function), then undo the edit ==");
    let stats_before = ask(&mut client, "stats");
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
    // Restoring the link replays the original system again: the solver the
    // replay reset in place reports the counters of the first solve.
    let _ = ask(&mut client, "edit g0 t2 <= v0 ; v0 <= v1 ; v1 <= v2 ; v2 <= v3");
    let restored = ask(&mut client, "commit");
    assert!(restored.starts_with("ok committed path=replay"));
    assert_eq!(ask(&mut client, "stats"), stats_before, "an edit and its undo give equal stats");
    assert_eq!(ask(&mut client, "points-to v3"), "ok {t2}");
    assert_eq!(ask(&mut client, "alias v0 v3"), "ok yes");

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
    reference.add(vars[2], vars[3]);
    reference.add(vars[2], vars[4]);
    reference.solve();
    let ls = reference.least_solution();
    let v3 = reference.find(vars[3]);
    let v4 = reference.find(vars[4]);
    assert_eq!(ls.get(v3), &[src]);
    assert_eq!(ls.get(v4), &[src]);
    println!("incremental answers match the from-scratch least solution: ok");
}
