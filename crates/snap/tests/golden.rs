//! Golden-file pins: the committed fixture byte-compares against a fresh
//! encode of the same tiny run, and the normative spec's version line is
//! asserted against the writer's emitted header — so the format, the
//! fixture, and `docs/SNAPSHOT_FORMAT.md` cannot drift apart silently.
//!
//! Regenerate the fixture after an *intentional* format change with:
//! `BANE_SNAP_BLESS=1 cargo test -p bane-snap --test golden` (and bump the
//! spec version in both `format.rs` and the document).

use bane_core::cons::Variance;
use bane_core::prelude::*;
use bane_snap::{encode_solver, format, QueryIndex};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny.snap");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SNAPSHOT_FORMAT.md");

/// The fixture program: small enough to eyeball in a hex dump, but
/// exercising every section — a collapse (cycle), a mixed-variance
/// constructor, a nested term, and a variable with an empty solution.
fn tiny_solver() -> Solver {
    let mut s = Solver::new(SolverConfig::if_online());
    let a = s.register_nullary("a");
    let b = s.register_nullary("b");
    let pair = s.register_con("pair", vec![Variance::Covariant, Variance::Contravariant]);
    let ta = s.term(a, vec![]);
    let tb = s.term(b, vec![]);
    let x = s.fresh_var();
    let y = s.fresh_var();
    let z = s.fresh_var();
    let w = s.fresh_var();
    let empty = s.fresh_var();
    let _ = empty;
    s.add(ta, x);
    s.add(x, y);
    s.add(y, z);
    s.add(z, x); // cycle x→y→z→x: collapses, exercising the rep section
    s.add(tb, w);
    let nested = s.term(pair, vec![ta.into(), w.into()]);
    s.add(nested, w);
    s.solve();
    s
}

fn blessing() -> bool {
    std::env::var_os("BANE_SNAP_BLESS").is_some()
}

/// The fixture's bytes, for every test that reads them. While blessing,
/// the tests run in parallel with the one that rewrites the file, so they
/// read the fresh encode instead of a fixture that may be old or half
/// written.
fn fixture_bytes() -> Vec<u8> {
    if blessing() {
        return encode_solver(&mut tiny_solver()).unwrap();
    }
    std::fs::read(FIXTURE).expect(
        "missing golden fixture — run with BANE_SNAP_BLESS=1 to (re)generate and commit it",
    )
}

#[test]
fn fixture_bytes_match_fresh_encode() {
    let bytes = encode_solver(&mut tiny_solver()).unwrap();
    if blessing() {
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &bytes).unwrap();
    }
    let golden = fixture_bytes();
    assert_eq!(
        bytes, golden,
        "writer output diverged from the committed fixture; if the format change is \
         intentional, bump FORMAT_VERSION, update docs/SNAPSHOT_FORMAT.md, and re-bless"
    );
}

#[test]
fn fixture_loads_and_answers() {
    let golden = fixture_bytes();
    let index = QueryIndex::from_bytes(&golden).unwrap();
    let mut solver = tiny_solver();
    let ls = solver.least_solution();
    assert_eq!(index.var_count(), ls.len());
    for i in 0..ls.len() {
        let v = Var::new(i);
        assert_eq!(index.points_to(v), ls.get(v));
        assert_eq!(index.reachable_sources(v), ls.get(v));
    }
}

/// The spec-version drift gate from the issue: `docs/SNAPSHOT_FORMAT.md`
/// must declare the exact version this writer emits, and the fixture's
/// on-disk header word must agree with both.
#[test]
fn spec_version_matches_writer_and_fixture_header() {
    let spec = std::fs::read_to_string(SPEC).expect("docs/SNAPSHOT_FORMAT.md missing");
    let line = spec
        .lines()
        .find(|l| l.starts_with("**Spec version:**"))
        .expect("docs/SNAPSHOT_FORMAT.md must carry a '**Spec version:** N' line");
    let spec_version: u32 = line
        .trim_start_matches("**Spec version:**")
        .trim()
        .parse()
        .expect("unparsable spec version");
    assert_eq!(
        spec_version,
        format::FORMAT_VERSION,
        "docs/SNAPSHOT_FORMAT.md and format::FORMAT_VERSION drifted apart"
    );

    let golden = fixture_bytes();
    let header_version =
        u32::from_le_bytes(golden[format::VERSION_OFFSET..format::VERSION_OFFSET + 4]
            .try_into()
            .unwrap());
    assert_eq!(header_version, spec_version, "fixture header version drifted from the spec");
}

#[test]
fn fixture_header_geometry_is_as_documented() {
    let golden = fixture_bytes();
    assert_eq!(&golden[..8], format::MAGIC.as_slice());
    assert_eq!(
        u32::from_le_bytes(golden[12..16].try_into().unwrap()),
        format::ENDIAN_MARKER
    );
    assert_eq!(u32::from_le_bytes(golden[16..20].try_into().unwrap()), 64);
    assert_eq!(
        u32::from_le_bytes(golden[20..24].try_into().unwrap()) as usize,
        format::SECTION_COUNT
    );
    assert_eq!(golden.len() % format::SECTION_ALIGN, 0, "file padded to 8 bytes");
}
