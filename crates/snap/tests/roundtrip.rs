//! Write → load → query equals the in-memory `LeastSolution`, for both
//! graph forms and both load paths — plus strict rejection of corrupted and
//! truncated files, and atomic publishing under concurrent writers.

use bane_core::prelude::*;
use bane_points_to::andersen;
use bane_snap::{
    encode_solver, format, write_image, write_solver, LoadMode, QueryIndex, QueryScratch,
};
use bane_synth::gen::{self, GenConfig};
use proptest::prelude::*;

fn solved_solver(seed: u64, config: SolverConfig) -> Solver {
    let program = gen::generate(&GenConfig::sized(600, seed));
    let analysis = andersen::analyze(&program, config);
    analysis.solver
}

/// Asserts every query kind on `index` against the live `ls` for every
/// variable: `points_to` byte-identical, `alias` over a sample grid, and
/// `reachable_sources` (the independent CSR path) equal to `points_to`.
fn assert_index_matches(index: &QueryIndex, ls: &LeastSolution) {
    assert_eq!(index.var_count(), ls.len());
    let mut scratch = QueryScratch::new();
    let mut reach = Vec::new();
    for i in 0..ls.len() {
        let v = Var::new(i);
        assert_eq!(index.points_to(v), ls.get(v), "points_to({v}) diverged");
        index.reachable_sources_with(v, &mut scratch, &mut reach);
        assert_eq!(reach, ls.get(v), "reachable_sources({v}) != LS({v})");
    }
    // Alias over a deterministic sample grid (full n² would dominate CI).
    let step = (ls.len() / 17).max(1);
    for a in (0..ls.len()).step_by(step) {
        for b in (0..ls.len()).step_by(step) {
            let (va, vb) = (Var::new(a), Var::new(b));
            let live = ls.get(va).iter().any(|t| ls.get(vb).binary_search(t).is_ok());
            assert_eq!(index.alias(va, vb), live, "alias({va}, {vb}) diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline round-trip property: for random programs, both forms
    /// produce a snapshot whose loaded answers equal the in-memory least
    /// solution — and two independent solves of the same program produce
    /// the *same bytes*, because encoding is deterministic.
    #[test]
    fn write_load_query_equals_live_least_solution(seed in 0u64..2000) {
        for config in [SolverConfig::if_online(), SolverConfig::sf_online()] {
            let mut images: Vec<Vec<u8>> = Vec::new();
            for _ in 0..2 {
                let mut solver = solved_solver(seed, config);
                let ls = solver.least_solution();
                let bytes = encode_solver(&mut solver).unwrap();
                let index = QueryIndex::from_bytes(&bytes).unwrap();
                assert_index_matches(&index, &ls);
                images.push(bytes);
            }
            prop_assert!(images[0] == images[1], "snapshot bytes differ across identical runs");
        }
    }
}

#[test]
fn file_roundtrip_through_both_load_modes() {
    let dir = std::env::temp_dir().join("bane-snap-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.snap");

    let mut solver = solved_solver(7, SolverConfig::if_online());
    let ls = solver.least_solution();
    let written = write_solver(&mut solver, &path, None).unwrap();
    assert_eq!(written, std::fs::metadata(&path).unwrap().len());

    let owned = QueryIndex::load_with(&path, LoadMode::Owned, None).unwrap();
    assert!(!owned.is_mapped());
    assert_index_matches(&owned, &ls);

    let auto = QueryIndex::load(&path).unwrap();
    #[cfg(unix)]
    assert!(auto.is_mapped(), "Auto should mmap on unix");
    assert_index_matches(&auto, &ls);
    assert_eq!(auto.checksum(), owned.checksum());

    std::fs::remove_file(&path).unwrap();
}

/// Paths that differ only in extension get distinct temporaries, so
/// concurrent publishes to `run.a` and `run.b` cannot interleave: each file
/// reloads as its own run's snapshot.
#[test]
fn paths_differing_only_in_extension_publish_independently() {
    let dir = std::env::temp_dir().join(format!("bane-snap-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let runs: Vec<(std::path::PathBuf, Vec<u8>, LeastSolution)> = [("run.a", 5), ("run.b", 6)]
        .into_iter()
        .map(|(name, seed)| {
            let mut solver = solved_solver(seed, SolverConfig::if_online());
            let ls = solver.least_solution();
            (dir.join(name), encode_solver(&mut solver).unwrap(), ls)
        })
        .collect();
    assert_ne!(runs[0].1, runs[1].1, "the two runs must differ for the test to bite");
    std::thread::scope(|scope| {
        for (path, image, _) in &runs {
            scope.spawn(move || {
                for _ in 0..25 {
                    write_image(path, image, None).unwrap();
                }
            });
        }
    });
    for (path, image, ls) in &runs {
        assert_eq!(&std::fs::read(path).unwrap(), image);
        assert_index_matches(&QueryIndex::load(path).unwrap(), ls);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Concurrent publishes to one path each get their own temporary: every
/// write and rename succeeds, and the file left behind is one whole image.
#[test]
fn concurrent_publishes_to_one_path_all_succeed() {
    let dir = std::env::temp_dir().join(format!("bane-snap-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.snap");
    let images: Vec<Vec<u8>> = (0..4u64)
        .map(|seed| encode_solver(&mut solved_solver(20 + seed, SolverConfig::if_online())).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for image in &images {
            let path = &path;
            scope.spawn(move || {
                for _ in 0..25 {
                    assert_eq!(write_image(path, image, None).unwrap(), image.len() as u64);
                }
            });
        }
    });
    let last = std::fs::read(&path).unwrap();
    assert!(images.contains(&last), "the published file is not one of the images");
    assert!(QueryIndex::load(&path).is_ok());
    let leftovers = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(leftovers, 1, "no temporary survives a successful publish");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn term_and_constructor_tables_round_trip() {
    let mut solver = Solver::new(SolverConfig::if_online());
    let unit = solver.register_nullary("unit");
    // A mixed-variance constructor exercises the variance bit word.
    let pair = solver
        .register_con("pair", vec![Variance::Covariant, Variance::Contravariant]);
    let u = solver.term(unit, vec![]);
    let x = solver.fresh_var();
    let t = solver.term(pair, vec![u.into(), x.into()]);
    solver.add(t, x);
    solver.solve();

    let bytes = encode_solver(&mut solver).unwrap();
    let index = QueryIndex::from_bytes(&bytes).unwrap();
    // The solver may intern auxiliary terms during resolution; the snapshot
    // must carry the whole arena, whatever its size.
    assert_eq!(index.term_count(), solver.terms().len());
    assert_eq!(index.con_count(), solver.cons().len());
    assert_eq!(index.con_name(unit), "unit");
    assert_eq!(index.con_name(pair), "pair");
    assert_eq!(index.con_arity(pair), 2);
    use bane_core::cons::Variance;
    assert_eq!(index.con_variances(pair), vec![Variance::Covariant, Variance::Contravariant]);
    assert_eq!(index.term_con(t), pair);
    assert_eq!(index.term_args(t), vec![SetExpr::Term(u), SetExpr::Var(x)]);
    assert_eq!(index.display_term(t), solver.display(t.into()));
}

// ---------------------------------------------------------------------------
// Rejection: corrupted and truncated files must never produce an index.
// ---------------------------------------------------------------------------

fn valid_image() -> Vec<u8> {
    let mut solver = solved_solver(3, SolverConfig::if_online());
    encode_solver(&mut solver).unwrap()
}

/// Re-seals the checksum after a deliberate payload mutation, so the test
/// reaches the *structural* validator rather than stopping at the
/// checksum line.
fn reseal(bytes: &mut [u8]) {
    let sum = format::fnv1a64(&bytes[format::HEADER_BYTES..]);
    bytes[format::CHECKSUM_OFFSET..format::CHECKSUM_OFFSET + 8]
        .copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn corrupted_header_fields_are_rejected() {
    let image = valid_image();

    let mut bad = image.clone();
    bad[0] = b'X';
    assert!(matches!(QueryIndex::from_bytes(&bad), Err(bane_snap::SnapError::BadMagic)));

    let mut bad = image.clone();
    bad[format::VERSION_OFFSET] = 0xEE;
    assert!(matches!(
        QueryIndex::from_bytes(&bad),
        Err(bane_snap::SnapError::BadVersion { .. })
    ));

    let mut bad = image.clone();
    bad[12..16].copy_from_slice(&0x0D0C_0B0Au32.to_le_bytes()); // byte-swapped marker
    assert!(matches!(QueryIndex::from_bytes(&bad), Err(bane_snap::SnapError::BadEndian)));

    let mut bad = image.clone();
    bad[image.len() / 2] ^= 0x40; // flip one payload bit, checksum unfixed
    assert!(matches!(
        QueryIndex::from_bytes(&bad),
        Err(bane_snap::SnapError::ChecksumMismatch)
    ));
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let image = valid_image();
    // Exhaustive short prefixes over the header, then sampled beyond.
    for cut in (0..format::PAYLOAD_START.min(image.len()))
        .chain((format::PAYLOAD_START..image.len()).step_by(97))
    {
        assert!(
            QueryIndex::from_bytes(&image[..cut]).is_err(),
            "truncation to {cut} bytes was not rejected"
        );
    }
}

#[test]
fn structural_corruption_is_rejected_after_resealing() {
    let image = valid_image();

    // Representative pointing out of range.
    let rep_entry = format::HEADER_BYTES + (format::SectionId::Rep as usize) * 24;
    let rep_off = u64::from_le_bytes(image[rep_entry + 8..rep_entry + 16].try_into().unwrap());
    let mut bad = image.clone();
    bad[rep_off as usize..rep_off as usize + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bad);
    assert!(matches!(QueryIndex::from_bytes(&bad), Err(bane_snap::SnapError::Corrupt(_))));

    // A row span running past its column section.
    let rows_entry = format::HEADER_BYTES + (format::SectionId::LsSpans as usize) * 24;
    let rows_off =
        u64::from_le_bytes(image[rows_entry + 8..rows_entry + 16].try_into().unwrap()) as usize;
    let mut bad = image.clone();
    bad[rows_off + 4..rows_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bad);
    assert!(matches!(QueryIndex::from_bytes(&bad), Err(bane_snap::SnapError::Corrupt(_))));

    // Section table claiming an extent past EOF.
    let strs_entry = format::HEADER_BYTES + (format::SectionId::Strs as usize) * 24;
    let mut bad = image.clone();
    bad[strs_entry + 16..strs_entry + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    reseal(&mut bad);
    assert!(matches!(QueryIndex::from_bytes(&bad), Err(bane_snap::SnapError::Truncated)));
}

#[test]
fn index_is_sync_and_answers_identically_across_threads() {
    let mut solver = solved_solver(11, SolverConfig::if_online());
    let ls = solver.least_solution();
    let bytes = encode_solver(&mut solver).unwrap();
    let index = QueryIndex::from_bytes(&bytes).unwrap();
    let (index, ls) = (&index, &ls);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut reach = Vec::new();
                for i in 0..index.var_count() {
                    let v = Var::new(i);
                    assert_eq!(index.points_to(v), ls.get(v));
                    index.reachable_sources_with(v, &mut scratch, &mut reach);
                    assert_eq!(reach, ls.get(v));
                }
            });
        }
    });
}
