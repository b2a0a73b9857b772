//! Snapshot write/load error type.

use std::fmt;

/// Everything that can go wrong writing or loading a snapshot.
///
/// Loads are strict: a file that fails *any* structural check — magic,
/// version, endianness, alignment, section geometry, row bounds, or the
/// integrity checksum — is rejected with the first failure found, and no
/// `QueryIndex` is produced. There is no partial or best-effort load.
#[derive(Debug)]
pub enum SnapError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not begin with the `BANESNAP` magic.
    BadMagic,
    /// The file's format version differs from
    /// [`FORMAT_VERSION`](crate::FORMAT_VERSION).
    BadVersion {
        /// The version word found in the header.
        found: u32,
    },
    /// The endianness marker does not decode to its expected value on this
    /// host: the file was written on a host of the opposite endianness.
    BadEndian,
    /// The file is shorter than its header and section table claim.
    Truncated,
    /// The XXH64 integrity checksum in the header does not match the file
    /// contents.
    ChecksumMismatch,
    /// A structural invariant failed; the message names the first check
    /// that did (section geometry, row bounds, tag values, UTF-8, …).
    Corrupt(&'static str),
    /// The solved run cannot be represented in the snapshot format
    /// (currently only: a constructor of arity above 32).
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {})",
                crate::FORMAT_VERSION
            ),
            SnapError::BadEndian => {
                write!(f, "snapshot was written on a host of the opposite endianness")
            }
            SnapError::Truncated => write!(f, "snapshot file is truncated"),
            SnapError::ChecksumMismatch => write!(f, "snapshot integrity checksum mismatch"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Unsupported(what) => write!(f, "cannot serialize run: {what}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}
