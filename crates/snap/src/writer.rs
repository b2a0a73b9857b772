//! The snapshot writer: a solved run → snapshot bytes.
//!
//! Writing is a pure function of the solved state — no timestamps, no
//! host identifiers, no randomness — so the same run always produces the
//! same bytes. That determinism is what makes the committed golden fixture
//! (`tests/fixtures/tiny.snap`) and the byte-equality property tests
//! possible.
//!
//! [`encode_parts`] is the one encoder. It takes the least solution and the
//! frozen CSR the caller already holds, sizes the image once from the
//! section lengths, writes every section's words straight into it with no
//! per-section buffers, then checksums the finished image with XXH64 and
//! patches the header. The solution's arena is written as stored: a set
//! that several variables share is written once, and their `LS_SPANS` rows
//! name the same range (format v3). A serving session hands it the pair its
//! last commit revalidated, so publishing solves nothing;
//! [`encode_solver`] is the cold path (one least-solution pass, then the
//! same encoder). [`write_image`] is the only step that touches the
//! filesystem, so every structural path is testable without temp files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bane_core::cons::ConRegistry;
use bane_core::expr::{SetExpr, TermArena};
use bane_core::least::{CsrSnapshot, LeastSolution};
use bane_core::solver::{Form, Solver};
use bane_obs::{Counter, Recorder};

use crate::error::SnapError;
use crate::format::{
    self, expr_tag, SectionId, CHECKSUM_OFFSET, ENDIAN_MARKER, FORMAT_VERSION, HEADER_BYTES, MAGIC,
    MAX_ARITY, PAYLOAD_START, SECTIONS, SECTION_COUNT,
};

/// Computes the least solution of `solver` and encodes it, with the CSR
/// that pass froze, as a complete snapshot file image.
///
/// Takes `&mut` because [`Solver::least_solution`] does; call after
/// [`Solver::solve`] has converged.
pub fn encode_solver(solver: &mut Solver) -> Result<Vec<u8>, SnapError> {
    let ls = solver.least_solution();
    encode_parts(solver.config().form, solver.least_csr(), &ls, solver.terms(), solver.cons())
}

/// Encodes a solved run's least solution and frozen CSR as a snapshot file
/// image.
///
/// `csr` must be the CSR `ls` was evaluated over: [`Solver::least_csr`]
/// after [`Solver::least_solution`], or a
/// [`Revalidator`](bane_core::least::Revalidator)'s `csr` next to its
/// `solution`. The writer cross-checks their variable counts but cannot
/// detect a deeper mismatch. Callers holding no solution call
/// [`encode_solver`] instead.
pub fn encode_parts(
    form: Form,
    csr: &CsrSnapshot,
    ls: &LeastSolution,
    terms: &TermArena,
    cons: &ConRegistry,
) -> Result<Vec<u8>, SnapError> {
    let (var_rows, cols, src_rows, srcs) = csr.raw_parts();
    let (rep, arena, spans) = ls.raw_parts();
    let var_count = rep.len();
    if var_rows.len() != var_count || src_rows.len() != var_count || spans.len() != var_count {
        return Err(SnapError::Corrupt("csr and least solution disagree on variable count"));
    }

    // Every section's byte length, in SECTIONS order, before a byte is
    // written: the image is sized once and never copied.
    let term_data_words: usize = terms.ids().map(|id| 1 + 2 * terms.data(id).args().len()).sum();
    let mut strs_len = 0usize;
    for (_, sig) in cons.iter() {
        if sig.arity() > MAX_ARITY {
            return Err(SnapError::Unsupported("constructor arity exceeds 32"));
        }
        strs_len += sig.name().len();
    }
    let lens: [usize; SECTION_COUNT] = [
        4 * rep.len(),
        8 * var_rows.len(),
        4 * cols.len(),
        8 * src_rows.len(),
        4 * srcs.len(),
        8 * spans.len(),
        4 * arena.len(),
        8 * terms.len(),
        4 * term_data_words,
        16 * cons.len(),
        strs_len,
    ];
    let mut offsets = [0usize; SECTION_COUNT];
    let mut cursor = PAYLOAD_START;
    for (offset, &len) in offsets.iter_mut().zip(&lens) {
        *offset = cursor;
        cursor = format::align_up(cursor + len);
    }
    let file_len = cursor;

    let mut img = Image(Vec::with_capacity(file_len));
    img.bytes(&MAGIC);
    img.word(FORMAT_VERSION);
    img.word(ENDIAN_MARKER);
    img.word(HEADER_BYTES as u32);
    img.word(SECTION_COUNT as u32);
    img.word(match form {
        Form::Standard => 0,
        Form::Inductive => 1,
    });
    img.word(var_count as u32);
    img.word(terms.len() as u32);
    img.word(cons.len() as u32);
    img.word(0); // reserved
    img.word(0); // reserved
    debug_assert_eq!(img.0.len(), CHECKSUM_OFFSET);
    img.dword(0); // checksum, patched below
    img.dword(0); // reserved
    debug_assert_eq!(img.0.len(), HEADER_BYTES);

    for (i, &id) in SECTIONS.iter().enumerate() {
        img.word(id as u32);
        img.word(0); // reserved
        img.dword(offsets[i] as u64);
        img.dword(lens[i] as u64);
    }
    debug_assert_eq!(img.0.len(), PAYLOAD_START);

    let mut section = 0;
    let mut end_section = |img: &mut Image| {
        debug_assert_eq!(img.0.len(), offsets[section] + lens[section]);
        section += 1;
        img.pad();
    };
    img.words(rep.iter().map(|v| v.raw()));
    end_section(&mut img);
    img.pairs(var_rows);
    end_section(&mut img);
    img.words(cols.iter().map(|v| v.raw()));
    end_section(&mut img);
    img.pairs(src_rows);
    end_section(&mut img);
    img.words(srcs.iter().map(|t| t.raw()));
    end_section(&mut img);
    img.pairs(spans);
    end_section(&mut img);
    img.words(arena.iter().map(|t| t.raw()));
    end_section(&mut img);

    // Term rows: `(start, end)` word ranges of each term's payload.
    let mut end = 0u32;
    for id in terms.ids() {
        let start = end;
        end += 1 + 2 * terms.data(id).args().len() as u32;
        img.word(start);
        img.word(end);
    }
    end_section(&mut img);
    for id in terms.ids() {
        let data = terms.data(id);
        img.word(data.con().raw());
        for &arg in data.args() {
            let (tag, payload) = match arg {
                SetExpr::Zero => (expr_tag::ZERO, 0),
                SetExpr::One => (expr_tag::ONE, 0),
                SetExpr::Var(v) => (expr_tag::VAR, v.raw()),
                SetExpr::Term(t) => (expr_tag::TERM, t.raw()),
            };
            img.word(tag);
            img.word(payload);
        }
    }
    end_section(&mut img);

    // Constructor rows, then the names they index.
    let mut name_end = 0u32;
    for (_, sig) in cons.iter() {
        let name_start = name_end;
        name_end += sig.name().len() as u32;
        let mut variance_bits = 0u32;
        for (i, v) in sig.variances().iter().enumerate() {
            if let bane_core::cons::Variance::Contravariant = v {
                variance_bits |= 1 << i;
            }
        }
        img.word(name_start);
        img.word(name_end);
        img.word(sig.arity() as u32);
        img.word(variance_bits);
    }
    end_section(&mut img);
    for (_, sig) in cons.iter() {
        img.bytes(sig.name().as_bytes());
    }
    end_section(&mut img);

    let Image(mut out) = img;
    debug_assert_eq!(out.len(), file_len);
    let sum = format::checksum(&out[HEADER_BYTES..]);
    out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Encodes `solver` ([`encode_solver`]) and writes the image to `path`
/// ([`write_image`]), returning the file size in bytes.
pub fn write_solver(
    solver: &mut Solver,
    path: &Path,
    rec: Option<&Recorder>,
) -> Result<u64, SnapError> {
    write_image(path, &encode_solver(solver)?, rec)
}

/// Writes an encoded snapshot image to `path`, returning its size in bytes.
///
/// The bytes go to a temporary sibling named after the whole file name, the
/// process id and a process-wide sequence number (`run.a` writes
/// `run.a.<pid>.<n>.tmp`), which is then renamed into place: a crash
/// mid-write never leaves a half-written file at `path`, and no two writers
/// ever share a temporary, whether they publish to one path or to paths
/// that differ only in extension. A failed write or rename removes its
/// temporary. When a recorder is supplied, the size is added to the
/// `snap.bytes-written` counter.
pub fn write_image(path: &Path, image: &[u8], rec: Option<&Recorder>) -> Result<u64, SnapError> {
    let tmp = temp_path(path);
    let written = std::fs::write(&tmp, image).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(r) = rec {
        r.add(Counter::SnapBytesWritten, image.len() as u64);
    }
    Ok(image.len() as u64)
}

/// `path` with `.<pid>.<n>.tmp` appended to its full file name, `n` unique
/// within the process.
fn temp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    PathBuf::from(name)
}

/// An image under construction, sized up front: every write appends
/// little-endian bytes.
struct Image(Vec<u8>);

impl Image {
    #[inline(always)]
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    #[inline(always)]
    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    fn dword(&mut self, d: u64) {
        self.bytes(&d.to_le_bytes());
    }

    fn words(&mut self, words: impl Iterator<Item = u32>) {
        for w in words {
            self.word(w);
        }
    }

    fn pairs(&mut self, pairs: &[(u32, u32)]) {
        for &(a, b) in pairs {
            self.word(a);
            self.word(b);
        }
    }

    /// Zero-fills to the next section boundary.
    fn pad(&mut self) {
        let padded = format::align_up(self.0.len());
        self.0.resize(padded, 0);
    }
}

/// Identifies the section table entry for `id` in an encoded image —
/// shared with the loader and the corruption tests, which patch specific
/// sections.
pub fn section_table_offset(id: SectionId) -> usize {
    HEADER_BYTES + (id as u32 as usize) * format::SECTION_ENTRY_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use bane_core::solver::SolverConfig;

    /// The checksum stored in an image's header.
    fn stored_checksum(image: &[u8]) -> u64 {
        u64::from_le_bytes(image[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].try_into().unwrap())
    }

    /// A small solved run with a cycle, a constructed term over a variable
    /// and a contravariant constructor, so every section is non-empty.
    fn solved(config: SolverConfig) -> Solver {
        let mut s = Solver::new(config);
        let c = s.register_nullary("c");
        let r = s.register_con("ref", vec![bane_core::cons::Variance::Contravariant]);
        let (x, y, z) = (s.fresh_var(), s.fresh_var(), s.fresh_var());
        let t = s.term(c, vec![]);
        let rt = s.term(r, vec![x.into()]);
        s.add(t, x);
        s.add(x, y);
        s.add(y, x);
        s.add(y, z);
        s.add(rt, z);
        s.solve();
        s
    }

    /// The header's checksum word seals exactly `[HEADER_BYTES, EOF)` of
    /// the image the encoder returned.
    fn assert_checksum_seals_the_image(image: &[u8]) {
        assert_eq!(stored_checksum(image), format::checksum(&image[HEADER_BYTES..]));
    }

    #[test]
    fn stored_checksum_seals_the_image_of_an_empty_solver() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        assert_checksum_seals_the_image(&encode_solver(&mut s).unwrap());
    }

    #[test]
    fn stored_checksum_seals_the_image_of_a_standard_form_run() {
        let image = encode_solver(&mut solved(SolverConfig::sf_online())).unwrap();
        assert_checksum_seals_the_image(&image);
    }

    #[test]
    fn stored_checksum_seals_the_image_of_an_inductive_form_run() {
        let image = encode_solver(&mut solved(SolverConfig::if_online())).unwrap();
        assert_checksum_seals_the_image(&image);
    }

    #[test]
    fn temp_files_keep_the_whole_file_name() {
        let pid = std::process::id();
        for stem in ["dir/run.a", "dir/run.b"] {
            let (t1, t2) = (temp_path(Path::new(stem)), temp_path(Path::new(stem)));
            assert_ne!(t1, t2, "each call gets its own temporary");
            for t in [t1, t2] {
                let t = t.to_str().unwrap().to_owned();
                let rest = t.strip_prefix(&format!("{stem}.{pid}.")).expect("whole name, then pid");
                let n = rest.strip_suffix(".tmp").expect(".tmp suffix");
                assert!(n.parse::<u64>().is_ok(), "sequence number in {t}");
            }
        }
    }
}
