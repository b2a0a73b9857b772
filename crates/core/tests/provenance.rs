//! Property tests for the provenance union DAG (`bane_core::prov`).
//!
//! The DAG replaced an interned sorted-set table; its contract is that
//! membership equals plain set union exactly. Random union trees are built
//! side by side with a naive `BTreeSet` model, then random retraction sets
//! are checked against both: an id is hit iff its model set meets the
//! retraction (or it is `TOP` and the retraction is non-empty).

use bane_core::prov::{ProvId, ProvTable};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Atom ids are drawn below this bound, so unions of a few hundred nodes
/// routinely exceed 64 members.
const ATOMS: u32 = 160;

/// One build step: `(kind, i, j, atom)`. Kind 0 adds a leaf, kind 1 picks a
/// sentinel, anything else unions the `i`-th and `j`-th ids built so far.
type Step = (u32, usize, usize, u32);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u32..6, 0usize..1 << 16, 0usize..1 << 16, 0u32..ATOMS),
        1..400,
    )
}

/// A model set: `None` is `TOP`.
type Model = Option<BTreeSet<u32>>;

fn build(steps: &[Step]) -> (ProvTable, Vec<(ProvId, Model)>) {
    let mut t = ProvTable::new();
    let mut ids: Vec<(ProvId, Model)> = vec![
        (ProvTable::EMPTY, Some(BTreeSet::new())),
        (ProvTable::TOP, None),
    ];
    for &(kind, i, j, atom) in steps {
        let next = match kind {
            0 => (t.singleton(atom), Some(BTreeSet::from([atom]))),
            1 => ids[i % 2].clone(),
            _ => {
                let (a, ma) = ids[i % ids.len()].clone();
                let (b, mb) = ids[j % ids.len()].clone();
                let model = ma.zip(mb).map(|(x, y)| x.union(&y).copied().collect());
                (t.union(a, b), model)
            }
        };
        ids.push(next);
    }
    (t, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The retraction mask agrees with the naive union model on every id.
    #[test]
    fn provenance_mask_matches_naive_union_model(
        steps in steps(),
        retract in prop::collection::vec(0u32..ATOMS + 8, 0..6),
    ) {
        let (t, ids) = build(&steps);
        let mask = t.retraction_mask(&retract);
        for (p, model) in &ids {
            let want = match model {
                None => !retract.is_empty(),
                Some(set) => retract.iter().any(|a| set.contains(a)),
            };
            prop_assert_eq!(mask.hits(*p), want, "id {:?} model {:?}", p, model);
            prop_assert_eq!(t.is_top(*p), model.is_none());
            if let Some(set) = model {
                prop_assert_eq!(t.members(*p), set.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
