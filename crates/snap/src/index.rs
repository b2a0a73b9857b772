//! The read-only, concurrently shareable query surface over a loaded
//! snapshot.
//!
//! A [`QueryIndex`] owns the file bytes (mapped or copied) and answers
//! every query by slicing them in place — no locks, no interior
//! mutability, no allocation on the `points_to`/`alias` paths. `&QueryIndex`
//! is `Sync`, so one loaded index serves any number of reader threads; the
//! only per-thread state is the optional [`QueryScratch`] the reachability
//! walk uses.
//!
//! Loading is strict: every structural invariant of the format (see
//! `docs/SNAPSHOT_FORMAT.md`) is checked up front, so the query paths can
//! index without bounds anxiety and the zero-copy casts cannot fail after
//! a successful load.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use bane_core::cons::{Con, Variance};
use bane_core::expr::{SetExpr, TermId, Var};
use bane_core::solver::Form;
use bane_obs::{Counter, Phase, Recorder};
use bane_util::cast;
use bane_util::idx::Idx;

use crate::error::SnapError;
use crate::format::{
    self, expr_tag, SectionId, CHECKSUM_OFFSET, ENDIAN_MARKER, HEADER_BYTES, MAGIC, MAX_ARITY,
    PAYLOAD_START, SECTIONS, SECTION_COUNT, SECTION_ENTRY_BYTES,
};

/// How [`QueryIndex::load_with`] should back the loaded bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// `mmap` where available, silently falling back to an owned copy if
    /// the mapping fails (or on non-unix hosts). The default.
    #[default]
    Auto,
    /// Require a memory mapping; fail on hosts or files where it cannot be
    /// established.
    Mmap,
    /// Read the file into an owned, 8-byte-aligned heap buffer. Costs one
    /// copy and resident memory for the whole file, but depends on nothing
    /// but `read(2)`.
    Owned,
}

/// The storage behind a loaded index.
#[derive(Debug)]
enum Backing {
    /// An owned copy in a `Vec<u64>` (guaranteeing the 8-byte base
    /// alignment the zero-copy casts need) holding `len` meaningful bytes.
    Owned { words: Vec<u64>, len: usize },
    /// A read-only file mapping (unix only).
    #[cfg(unix)]
    Mapped(crate::mmap::Mmap),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Owned { words, len } => &cast::u64s_as_bytes(words)[..*len],
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
        }
    }
}

fn owned_from_bytes(bytes: &[u8]) -> Backing {
    let mut words = vec![0u64; bytes.len().div_ceil(8)];
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words[i] = u64::from_ne_bytes(b);
    }
    Backing::Owned { words, len: bytes.len() }
}

/// Per-thread scratch for [`QueryIndex::reachable_sources_with`].
///
/// Holds an epoch-stamped visited set and a DFS stack, both reused across
/// calls (a warmed scratch performs no allocation). Each reader thread
/// owns its own scratch; the index itself stays shared and untouched.
#[derive(Debug, Default)]
pub struct QueryScratch {
    stamps: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl QueryScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One physical clear per 2^32 queries: the stamp space wrapped.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.stack.clear();
    }
}

/// Geometry parsed out of a validated file: per-section `(byte offset,
/// byte length)` plus the header's entity counts.
#[derive(Debug)]
struct Parsed {
    form: Form,
    var_count: usize,
    term_count: usize,
    con_count: usize,
    checksum: u64,
    sects: [(usize, usize); SECTION_COUNT],
}

/// A loaded snapshot: the concurrent read-only alias-query API.
///
/// See the [module docs](self) for the concurrency contract and
/// `docs/SERVING.md` for the end-to-end lifecycle.
///
/// # Examples
///
/// ```
/// use bane_core::prelude::*;
/// use bane_snap::{encode_solver, QueryIndex};
///
/// let mut solver = Solver::new(SolverConfig::if_online());
/// let c = solver.register_nullary("c");
/// let t = solver.term(c, vec![]);
/// let x = solver.fresh_var();
/// let y = solver.fresh_var();
/// solver.add(t, x);
/// solver.add(x, y);
/// solver.solve();
///
/// let bytes = encode_solver(&mut solver).unwrap();
/// let index = QueryIndex::from_bytes(&bytes).unwrap();
/// assert_eq!(index.points_to(y), &[t]);
/// assert!(index.alias(x, y));
/// assert_eq!(index.reachable_sources(y), vec![t]);
/// ```
#[derive(Debug)]
pub struct QueryIndex {
    backing: Backing,
    meta: Parsed,
}

impl QueryIndex {
    /// Loads a snapshot file with [`LoadMode::Auto`] and no recorder.
    pub fn load(path: impl AsRef<Path>) -> Result<QueryIndex, SnapError> {
        Self::load_with(path.as_ref(), LoadMode::Auto, None)
    }

    /// Loads a snapshot file.
    ///
    /// The whole load — open, map/read, validation, checksum — runs under
    /// the `snap-load` phase when a recorder is supplied, and bumps the
    /// `snap.loads` and `snap.bytes-mapped` counters on success.
    pub fn load_with(
        path: &Path,
        mode: LoadMode,
        rec: Option<&Recorder>,
    ) -> Result<QueryIndex, SnapError> {
        let _g = rec.map(|r| r.scope(Phase::SnapLoad));
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let backing = match mode {
            LoadMode::Owned => read_owned(&mut file)?,
            LoadMode::Mmap => {
                #[cfg(unix)]
                {
                    Backing::Mapped(crate::mmap::Mmap::map(&file, len)?)
                }
                #[cfg(not(unix))]
                {
                    return Err(SnapError::Unsupported("mmap is unavailable on this platform"));
                }
            }
            LoadMode::Auto => {
                #[cfg(unix)]
                {
                    match crate::mmap::Mmap::map(&file, len) {
                        Ok(m) => Backing::Mapped(m),
                        Err(_) => read_owned(&mut file)?,
                    }
                }
                #[cfg(not(unix))]
                {
                    read_owned(&mut file)?
                }
            }
        };
        let index = Self::from_backing(backing)?;
        if let Some(r) = rec {
            r.add(Counter::SnapLoads, 1);
            r.add(Counter::SnapBytesMapped, index.file_len() as u64);
        }
        Ok(index)
    }

    /// Builds an index from an in-memory file image, copying it into an
    /// owned aligned buffer. The validation is identical to a file load.
    pub fn from_bytes(bytes: &[u8]) -> Result<QueryIndex, SnapError> {
        Self::from_backing(owned_from_bytes(bytes))
    }

    fn from_backing(backing: Backing) -> Result<QueryIndex, SnapError> {
        let meta = parse(backing.bytes())?;
        Ok(QueryIndex { backing, meta })
    }

    /// Whether the bytes are served from a memory mapping (as opposed to
    /// an owned heap copy).
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            Backing::Owned { .. } => false,
            #[cfg(unix)]
            Backing::Mapped(_) => true,
        }
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.backing.bytes().len()
    }

    /// The integrity checksum the file carries (already verified at load).
    pub fn checksum(&self) -> u64 {
        self.meta.checksum
    }

    /// The graph form the snapshotted run was solved under.
    pub fn form(&self) -> Form {
        self.meta.form
    }

    /// Number of variables covered (including collapsed ones).
    pub fn var_count(&self) -> usize {
        self.meta.var_count
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.meta.term_count
    }

    /// Number of registered constructors.
    pub fn con_count(&self) -> usize {
        self.meta.con_count
    }

    #[inline]
    fn words(&self, id: SectionId) -> &[u32] {
        let (off, len) = self.meta.sects[id as u32 as usize];
        cast::as_u32s(&self.backing.bytes()[off..off + len]).expect("validated at load")
    }

    #[inline]
    fn row(&self, rows: SectionId, i: usize) -> (usize, usize) {
        let w = self.words(rows);
        (w[2 * i] as usize, w[2 * i + 1] as usize)
    }

    /// The canonical representative of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the snapshotted run (as do all
    /// the query methods below).
    #[inline]
    pub fn rep(&self, v: Var) -> Var {
        Var::new(self.words(SectionId::Rep)[v.index()] as usize)
    }

    /// `LS(v)`: the sorted, distinct source terms in `v`'s least solution.
    ///
    /// Zero-copy and `O(1)`: one representative lookup, one span lookup,
    /// one slice.
    #[inline]
    pub fn points_to(&self, v: Var) -> &[TermId] {
        let rep = self.words(SectionId::Rep)[v.index()] as usize;
        let (s, e) = self.row(SectionId::LsSpans, rep);
        TermId::wrap_slice(&self.words(SectionId::LsArena)[s..e])
    }

    /// Whether `LS(a) ∩ LS(b) ≠ ∅` — the alias question.
    ///
    /// Both sets are sorted spans, so the intersection test is a merge
    /// walk with early exit, switching to galloping (binary-search skips)
    /// when the sizes are badly skewed.
    pub fn alias(&self, a: Var, b: Var) -> bool {
        let ra = self.rep(a);
        let rb = self.rep(b);
        let sa = self.points_to(a);
        if ra == rb {
            // Same canonical set: aliased exactly when it is non-empty.
            return !sa.is_empty();
        }
        let sb = self.points_to(b);
        sorted_intersects(sa, sb)
    }

    /// The canonical predecessor variables of `v`'s representative in the
    /// frozen CSR graph (empty for standard form).
    #[inline]
    pub fn preds(&self, v: Var) -> &[Var] {
        let rep = self.words(SectionId::Rep)[v.index()] as usize;
        let (s, e) = self.row(SectionId::VarRows, rep);
        Var::wrap_slice(&self.words(SectionId::Cols)[s..e])
    }

    /// The source terms reaching `v`'s representative directly (one CSR
    /// row, not the transitive set — that is
    /// [`reachable_sources`](QueryIndex::reachable_sources)).
    #[inline]
    pub fn srcs(&self, v: Var) -> &[TermId] {
        let rep = self.words(SectionId::Rep)[v.index()] as usize;
        let (s, e) = self.row(SectionId::SrcRows, rep);
        TermId::wrap_slice(&self.words(SectionId::Srcs)[s..e])
    }

    /// Every source term reaching `v` through the frozen predecessor
    /// graph: a DFS from `v`'s representative unioning source rows,
    /// returned sorted and distinct.
    ///
    /// By equation (1) this equals [`points_to`](QueryIndex::points_to)
    /// for both graph forms — the two answer the same question through
    /// independent sections, which the round-trip tests exploit as a
    /// cross-check. Allocates a fresh scratch; loops should use
    /// [`reachable_sources_with`](QueryIndex::reachable_sources_with).
    pub fn reachable_sources(&self, v: Var) -> Vec<TermId> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.reachable_sources_with(v, &mut scratch, &mut out);
        out
    }

    /// [`reachable_sources`](QueryIndex::reachable_sources) with
    /// caller-owned scratch and output buffers: allocation-free once both
    /// are warm. `out` is cleared first.
    pub fn reachable_sources_with(
        &self,
        v: Var,
        scratch: &mut QueryScratch,
        out: &mut Vec<TermId>,
    ) {
        out.clear();
        scratch.begin(self.meta.var_count);
        let root = self.words(SectionId::Rep)[v.index()];
        scratch.stamps[root as usize] = scratch.epoch;
        scratch.stack.push(root);
        while let Some(u) = scratch.stack.pop() {
            let (s, e) = self.row(SectionId::SrcRows, u as usize);
            out.extend_from_slice(TermId::wrap_slice(&self.words(SectionId::Srcs)[s..e]));
            let (s, e) = self.row(SectionId::VarRows, u as usize);
            for &p in &self.words(SectionId::Cols)[s..e] {
                if scratch.stamps[p as usize] != scratch.epoch {
                    scratch.stamps[p as usize] = scratch.epoch;
                    scratch.stack.push(p);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The constructor of term `t`.
    pub fn term_con(&self, t: TermId) -> Con {
        let (s, _) = self.row(SectionId::TermRows, t.index());
        Con::new(self.words(SectionId::TermData)[s] as usize)
    }

    /// The decoded argument expressions of term `t`.
    pub fn term_args(&self, t: TermId) -> Vec<SetExpr> {
        let (s, e) = self.row(SectionId::TermRows, t.index());
        self.words(SectionId::TermData)[s + 1..e]
            .chunks_exact(2)
            .map(|pair| match pair[0] {
                expr_tag::ZERO => SetExpr::Zero,
                expr_tag::ONE => SetExpr::One,
                expr_tag::VAR => SetExpr::Var(Var::new(pair[1] as usize)),
                _ => SetExpr::Term(TermId::new(pair[1] as usize)),
            })
            .collect()
    }

    /// The name of constructor `c`.
    pub fn con_name(&self, c: Con) -> &str {
        let w = self.words(SectionId::ConRows);
        let (s, e) = (w[4 * c.index()] as usize, w[4 * c.index() + 1] as usize);
        let (off, _) = self.meta.sects[SectionId::Strs as u32 as usize];
        std::str::from_utf8(&self.backing.bytes()[off + s..off + e]).expect("validated at load")
    }

    /// The arity of constructor `c`.
    pub fn con_arity(&self, c: Con) -> usize {
        self.words(SectionId::ConRows)[4 * c.index() + 2] as usize
    }

    /// The decoded variance of each argument position of constructor `c`.
    pub fn con_variances(&self, c: Con) -> Vec<Variance> {
        let w = self.words(SectionId::ConRows);
        let arity = w[4 * c.index() + 2] as usize;
        let bits = w[4 * c.index() + 3];
        (0..arity)
            .map(|i| {
                if bits & (1 << i) != 0 {
                    Variance::Contravariant
                } else {
                    Variance::Covariant
                }
            })
            .collect()
    }

    /// Renders a term for humans, e.g. `ref(loc_x, X3, X3)` — the offline
    /// analogue of `TermArena::display`.
    pub fn display_term(&self, t: TermId) -> String {
        self.display_expr(SetExpr::Term(t))
    }

    /// Renders any set expression for humans.
    pub fn display_expr(&self, expr: SetExpr) -> String {
        match expr {
            SetExpr::Zero => "0".to_string(),
            SetExpr::One => "1".to_string(),
            SetExpr::Var(v) => v.to_string(),
            SetExpr::Term(t) => {
                let name = self.con_name(self.term_con(t));
                let args = self.term_args(t);
                if args.is_empty() {
                    name.to_string()
                } else {
                    let args: Vec<_> = args.into_iter().map(|a| self.display_expr(a)).collect();
                    format!("{}({})", name, args.join(", "))
                }
            }
        }
    }
}

/// Size ratio past which the intersection test gallops through the larger
/// side instead of merge-walking it.
const GALLOP_RATIO: usize = 16;

/// Whether two sorted, distinct slices share an element.
fn sorted_intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() || large.is_empty() {
        return false;
    }
    if large.len() / small.len().max(1) >= GALLOP_RATIO {
        return small.iter().any(|t| large.binary_search(t).is_ok());
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

fn read_owned(file: &mut File) -> Result<Backing, SnapError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(owned_from_bytes(&bytes))
}

fn rd_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("bounds checked by caller"))
}

fn rd_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("bounds checked by caller"))
}

/// Validates a complete file image and extracts its geometry. Every check
/// in `docs/SNAPSHOT_FORMAT.md` §5 runs here, in its listed order.
fn parse(bytes: &[u8]) -> Result<Parsed, SnapError> {
    if bytes.len() < HEADER_BYTES {
        return Err(SnapError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = rd_u32(bytes, format::VERSION_OFFSET);
    if version != format::FORMAT_VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    if rd_u32(bytes, 12) != ENDIAN_MARKER {
        return Err(SnapError::BadEndian);
    }
    if !cast::host_is_little_endian() {
        // The endian marker matched under a little-endian decode, but this
        // host is big-endian; the zero-copy view would misread every word.
        return Err(SnapError::BadEndian);
    }
    if rd_u32(bytes, 16) as usize != HEADER_BYTES {
        return Err(SnapError::Corrupt("unexpected header size"));
    }
    if rd_u32(bytes, 20) as usize != SECTION_COUNT {
        return Err(SnapError::Corrupt("unexpected section count"));
    }
    let form = match rd_u32(bytes, 24) {
        0 => Form::Standard,
        1 => Form::Inductive,
        _ => return Err(SnapError::Corrupt("unknown form")),
    };
    let var_count = rd_u32(bytes, 28) as usize;
    let term_count = rd_u32(bytes, 32) as usize;
    let con_count = rd_u32(bytes, 36) as usize;
    if bytes.len() < PAYLOAD_START || !bytes.len().is_multiple_of(format::SECTION_ALIGN) {
        return Err(SnapError::Truncated);
    }
    let checksum = rd_u64(bytes, CHECKSUM_OFFSET);
    if format::checksum(&bytes[HEADER_BYTES..]) != checksum {
        return Err(SnapError::ChecksumMismatch);
    }

    let mut sects = [(0usize, 0usize); SECTION_COUNT];
    let mut prev_end = PAYLOAD_START;
    for (i, &id) in SECTIONS.iter().enumerate() {
        let entry = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        if rd_u32(bytes, entry) != id as u32 {
            return Err(SnapError::Corrupt("section table out of order"));
        }
        let off = rd_u64(bytes, entry + 8) as usize;
        let len = rd_u64(bytes, entry + 16) as usize;
        if !off.is_multiple_of(format::SECTION_ALIGN) || off < prev_end {
            return Err(SnapError::Corrupt("section offset misaligned or overlapping"));
        }
        let Some(end) = off.checked_add(len) else {
            return Err(SnapError::Corrupt("section extent overflows"));
        };
        if end > bytes.len() {
            return Err(SnapError::Truncated);
        }
        if id != SectionId::Strs && !len.is_multiple_of(4) {
            return Err(SnapError::Corrupt("word section length not a multiple of 4"));
        }
        sects[i] = (off, len);
        prev_end = format::align_up(end);
    }

    let wlen = |id: SectionId| sects[id as u32 as usize].1 / 4;
    let words = |id: SectionId| {
        let (off, len) = sects[id as u32 as usize];
        cast::as_u32s(&bytes[off..off + len])
            .ok_or(SnapError::Corrupt("word section misaligned"))
    };

    // Per-section geometry implied by the header counts.
    if wlen(SectionId::Rep) != var_count
        || wlen(SectionId::VarRows) != 2 * var_count
        || wlen(SectionId::SrcRows) != 2 * var_count
        || wlen(SectionId::LsSpans) != 2 * var_count
        || wlen(SectionId::TermRows) != 2 * term_count
        || wlen(SectionId::ConRows) != 4 * con_count
    {
        return Err(SnapError::Corrupt("section length disagrees with header counts"));
    }

    // Representative map: in range and idempotent (so one lookup
    // canonicalizes and the reachability DFS starts on a real row).
    let rep = words(SectionId::Rep)?;
    for &r in rep {
        if r as usize >= var_count || rep[r as usize] != r {
            return Err(SnapError::Corrupt("representative map not idempotent"));
        }
    }

    // Row tables: ordered spans inside their column sections; columns in
    // range of the entity they index.
    check_rows(words(SectionId::VarRows)?, wlen(SectionId::Cols))?;
    check_rows(words(SectionId::SrcRows)?, wlen(SectionId::Srcs))?;
    check_rows(words(SectionId::LsSpans)?, wlen(SectionId::LsArena))?;
    check_entries(words(SectionId::Cols)?, var_count)?;
    check_entries(words(SectionId::Srcs)?, term_count)?;
    check_entries(words(SectionId::LsArena)?, term_count)?;

    // Term table: each row holds one constructor word plus (tag, payload)
    // pairs matching the constructor's arity; payloads in range.
    let term_rows = words(SectionId::TermRows)?;
    let term_data = words(SectionId::TermData)?;
    let con_rows = words(SectionId::ConRows)?;
    check_rows(term_rows, term_data.len())?;
    for t in 0..term_count {
        let (s, e) = (term_rows[2 * t] as usize, term_rows[2 * t + 1] as usize);
        if e <= s || (e - s - 1) % 2 != 0 {
            return Err(SnapError::Corrupt("term row has no constructor or a half pair"));
        }
        let con = term_data[s] as usize;
        if con >= con_count {
            return Err(SnapError::Corrupt("term constructor out of range"));
        }
        if (e - s - 1) / 2 != con_rows[4 * con + 2] as usize {
            return Err(SnapError::Corrupt("term argument count disagrees with arity"));
        }
        for pair in term_data[s + 1..e].chunks_exact(2) {
            match pair[0] {
                expr_tag::ZERO | expr_tag::ONE => {}
                expr_tag::VAR if (pair[1] as usize) < var_count => {}
                expr_tag::TERM if (pair[1] as usize) < term_count => {}
                expr_tag::VAR | expr_tag::TERM => {
                    return Err(SnapError::Corrupt("term argument payload out of range"))
                }
                _ => return Err(SnapError::Corrupt("unknown term argument tag")),
            }
        }
    }

    // Constructor table: name ranges inside STRS on UTF-8 boundaries,
    // arity within the variance word's capacity.
    let strs_len = sects[SectionId::Strs as u32 as usize].1;
    let (strs_off, _) = sects[SectionId::Strs as u32 as usize];
    for c in 0..con_count {
        let (s, e) = (con_rows[4 * c] as usize, con_rows[4 * c + 1] as usize);
        let arity = con_rows[4 * c + 2] as usize;
        let bits = con_rows[4 * c + 3];
        if s > e || e > strs_len {
            return Err(SnapError::Corrupt("constructor name range out of bounds"));
        }
        if arity > MAX_ARITY || (arity < 32 && bits >> arity != 0) {
            return Err(SnapError::Corrupt("constructor arity or variance bits invalid"));
        }
        if std::str::from_utf8(&bytes[strs_off + s..strs_off + e]).is_err() {
            return Err(SnapError::Corrupt("constructor name is not UTF-8"));
        }
    }

    Ok(Parsed { form, var_count, term_count, con_count, checksum, sects })
}

fn check_rows(rows: &[u32], col_len: usize) -> Result<(), SnapError> {
    for pair in rows.chunks_exact(2) {
        let (s, e) = (pair[0] as usize, pair[1] as usize);
        if s > e || e > col_len {
            return Err(SnapError::Corrupt("row span out of bounds"));
        }
    }
    Ok(())
}

fn check_entries(cols: &[u32], bound: usize) -> Result<(), SnapError> {
    for &c in cols {
        if c as usize >= bound {
            return Err(SnapError::Corrupt("column entry out of range"));
        }
    }
    Ok(())
}
