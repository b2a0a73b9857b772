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
pub const FORMAT_VERSION: u32 = 3;

/// The endianness marker stored at header offset 12, written in host byte
/// order. A reader that decodes a different value is running on a host
/// whose endianness differs from the writer's and must reject the file:
/// the zero-copy read path reinterprets file bytes as host-order words.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Header size in bytes. The section table starts at this offset.
pub const HEADER_BYTES: usize = 64;

/// Byte offset of the [`FORMAT_VERSION`] word within the header.
pub const VERSION_OFFSET: usize = 8;

/// Byte offset of the XXH64 checksum word within the header.
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
    /// Least-solution arena: a pool of sorted source-term sets that
    /// `LsSpans` rows may share.
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

/// Number of sections in a file.
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

/// Maximum constructor arity representable by the `variance_bits` word.
pub const MAX_ARITY: usize = 32;

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
pub const fn align_up(n: usize) -> usize {
    (n + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
}

/// XXH64 with seed 0 over `bytes` — the integrity checksum stored in the
/// header, computed over every byte from the end of the header to the end
/// of the file (section table, payloads, and padding included).
///
/// This is the fixed-spec xxHash64
/// (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>): four
/// independent lanes over 32-byte stripes, then the 8-, 4- and 1-byte tail
/// steps and the final avalanche. It is not cryptographic; it guards
/// against truncation and bit rot, not adversaries (see
/// `docs/SNAPSHOT_FORMAT.md` §5).
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;

    #[inline(always)]
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    #[inline(always)]
    fn merge(acc: u64, v: u64) -> u64 {
        (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
    }
    #[inline(always)]
    fn lane(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("an 8-byte lane"))
    }

    let mut stripes = bytes.chunks_exact(32);
    let mut acc = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in &mut stripes {
            v[0] = round(v[0], lane(&s[0..]));
            v[1] = round(v[1], lane(&s[8..]));
            v[2] = round(v[2], lane(&s[16..]));
            v[3] = round(v[3], lane(&s[24..]));
        }
        let mut acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for vi in v {
            acc = merge(acc, vi);
        }
        acc
    } else {
        P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        acc = (acc ^ round(0, lane(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte word"));
        acc = (acc ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        acc = (acc ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
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
    fn xxh64_known_vectors() {
        // Published XXH64 (seed 0) vectors: the empty input, a lone tail
        // byte, a short tail, and a 39-byte input that takes one stripe
        // and then the 4- and 1-byte tail steps.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn align_up_rounds_to_eight() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 8);
        assert_eq!(align_up(8), 8);
        assert_eq!(align_up(9), 16);
    }
}
