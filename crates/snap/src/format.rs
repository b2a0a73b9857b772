//! On-disk layout constants and the integrity checksum.
//!
//! The normative specification of the format lives in
//! `docs/SNAPSHOT_FORMAT.md`; the constants here are the single in-code
//! copy of the numbers that document fixes. `tests/golden.rs` asserts the
//! two stay in lock step (the spec's version line is parsed and compared
//! against [`FORMAT_VERSION`] and against the bytes a writer emits), so a
//! format change that forgets to update the spec — or vice versa — fails CI.

/// The 8-byte magic at offset 0 of every snapshot file.
pub const MAGIC: [u8; 8] = *b"BANESNAP";

/// The format version this crate writes and reads.
///
/// Bumped on any change to the header, section table, section set, or
/// section encodings. Readers reject files whose version differs: the
/// format carries no in-band migration machinery, and a snapshot is cheap
/// to regenerate from the solver (see the compatibility policy in
/// `docs/SNAPSHOT_FORMAT.md` §6).
pub const FORMAT_VERSION: u32 = 1;

/// The endianness marker stored at header offset 12, written in host byte
/// order. A reader that decodes a different value is running on a host
/// whose endianness differs from the writer's and must reject the file:
/// the zero-copy read path reinterprets file bytes as host-order words.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Header size in bytes. The section table starts at this offset.
pub const HEADER_BYTES: usize = 64;

/// Byte offset of the [`FORMAT_VERSION`] word within the header.
pub const VERSION_OFFSET: usize = 8;

/// Byte offset of the FNV-1a checksum word within the header.
pub const CHECKSUM_OFFSET: usize = 48;

/// Size of one section-table entry in bytes
/// (`id: u32`, `reserved: u32`, `offset: u64`, `len: u64`).
pub const SECTION_ENTRY_BYTES: usize = 24;

/// Required alignment of every section payload's file offset, and the
/// granularity file and section padding is zero-filled to.
pub const SECTION_ALIGN: usize = 8;

/// Section identifiers, in file order. See `docs/SNAPSHOT_FORMAT.md` §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Canonical representative of every variable (`u32` per variable).
    Rep = 0,
    /// CSR predecessor rows: `(start, end)` pairs into [`Cols`](Self::Cols).
    VarRows = 1,
    /// CSR predecessor columns: canonical, sorted, distinct variables.
    Cols = 2,
    /// CSR source rows: `(start, end)` pairs into [`Srcs`](Self::Srcs).
    SrcRows = 3,
    /// CSR source columns: sorted, distinct term ids.
    Srcs = 4,
    /// Least-solution spans: `(start, end)` pairs into
    /// [`LsArena`](Self::LsArena), indexed by representative.
    LsSpans = 5,
    /// Least-solution arena: concatenated sorted source-term sets.
    LsArena = 6,
    /// Term rows: `(start, end)` word ranges into
    /// [`TermData`](Self::TermData).
    TermRows = 7,
    /// Term payloads: constructor word followed by `(tag, payload)` pairs.
    TermData = 8,
    /// Constructor rows: `(name_start, name_end, arity, variance_bits)`.
    ConRows = 9,
    /// Constructor name bytes (UTF-8, concatenated).
    Strs = 10,
}

/// Every section id, in the order sections appear in the table and file.
pub const SECTIONS: [SectionId; 11] = [
    SectionId::Rep,
    SectionId::VarRows,
    SectionId::Cols,
    SectionId::SrcRows,
    SectionId::Srcs,
    SectionId::LsSpans,
    SectionId::LsArena,
    SectionId::TermRows,
    SectionId::TermData,
    SectionId::ConRows,
    SectionId::Strs,
];

/// Number of sections in a v1 file.
pub const SECTION_COUNT: usize = SECTIONS.len();

/// File offset at which section payloads begin (header + section table,
/// already 8-byte aligned: 64 + 11 × 24 = 328).
pub const PAYLOAD_START: usize = HEADER_BYTES + SECTION_COUNT * SECTION_ENTRY_BYTES;

/// `SetExpr` tag words used inside the [`SectionId::TermData`] encoding.
pub mod expr_tag {
    /// The empty set `0` (payload word is 0).
    pub const ZERO: u32 = 0;
    /// The universal set `1` (payload word is 0).
    pub const ONE: u32 = 1;
    /// A set variable (payload word is the raw variable index).
    pub const VAR: u32 = 2;
    /// A constructed term (payload word is the raw term id).
    pub const TERM: u32 = 3;
}

/// Maximum constructor arity representable by the v1 `variance_bits` word.
pub const MAX_ARITY: usize = 32;

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
pub const fn align_up(n: usize) -> usize {
    (n + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
}

/// FNV-1a 64-bit over `bytes` — the integrity checksum stored in the
/// header, computed over every byte from the end of the header to the end
/// of the file (section table, payloads, and padding included).
///
/// FNV-1a is not cryptographic; it guards against truncation and bit rot,
/// not adversaries (see `docs/SNAPSHOT_FORMAT.md` §5).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the checksum of zero bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash `h` over `bytes`, so a writer can fold
/// the checksum in as it emits the image:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline(always)]
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_start_is_aligned() {
        assert_eq!(PAYLOAD_START, 328);
        assert_eq!(PAYLOAD_START % SECTION_ALIGN, 0);
    }

    #[test]
    fn section_ids_are_dense_and_ordered() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert_eq!(*s as u32 as usize, i);
        }
    }

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_extend_continues_a_prefix() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fnv1a64_extend(FNV_OFFSET, b""), fnv1a64(b""));
    }

    #[test]
    fn align_up_rounds_to_eight() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 8);
        assert_eq!(align_up(8), 8);
        assert_eq!(align_up(9), 16);
    }
}
