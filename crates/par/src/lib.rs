//! An empty placeholder. This crate used to hold a level-parallel
//! least-solution pass, its worker pool and alternative solution-set
//! backends; none of them beat the sequential pass, so the one
//! least-solution pass now lives in `bane_core::least`. The crate stays,
//! with no items and no dependencies, only because `perfbench/Cargo.toml`
//! still names it by path; once that line goes, delete the crate.
