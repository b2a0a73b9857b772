//! Resolution statistics.
//!
//! The paper's tables report, per run: the number of edges in the final
//! graph, the total number of edge additions *including redundant ones*
//! ("Work"), execution time, and — for the online experiments — the number
//! of variables eliminated through cycle detection. [`Stats`] accumulates all
//! of these plus the finer-grained counters used by the Criterion
//! micro-benchmarks (chain-search visit counts, Theorem 5.2).

use crate::cycle::SearchStats;
use std::fmt;

/// Counters accumulated by a solver run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Constraints handed to [`Solver::add`](crate::solver::Solver::add).
    pub constraints_added: u64,
    /// Constraints processed off the worklist (includes derived ones).
    ///
    /// A trivially-true decomposition argument (`0 ⊆ R` or `L ⊆ 1`) is
    /// never queued, but it still counts here, at the position in the FIFO
    /// it would have had: the count after every step is the same as if it
    /// had been queued and dequeued.
    pub constraints_processed: u64,
    /// Edge-addition attempts — the paper's "Work" column.
    pub work: u64,
    /// Edge-addition attempts that found the edge already present.
    pub redundant: u64,
    /// Term ⊆ term constraints processed (every source–sink meeting,
    /// including repeats along different paths — the `(c, c')` additions of
    /// the Section 5 model).
    pub term_constraints: u64,
    /// Applications of the resolution rules **R** (term/term decompositions).
    pub resolutions: u64,
    /// Constraints dropped because both sides resolved to the same variable.
    pub self_constraints: u64,
    /// Online cycle-elimination search counters.
    pub search: SearchStats,
    /// Cycles collapsed by online elimination.
    pub cycles_collapsed: u64,
    /// Variables eliminated (forwarded to a witness) by online elimination.
    pub vars_eliminated: u64,
    /// Variables whose creation was pre-aliased away by the oracle.
    pub oracle_aliased: u64,
    /// Inconsistencies recorded.
    pub inconsistencies: u64,
}

impl Stats {
    /// New edges actually inserted (work minus redundant attempts).
    pub fn new_edges(&self) -> u64 {
        self.work - self.redundant
    }

    /// Mean nodes visited per online cycle search (Theorem 5.2's quantity).
    pub fn mean_search_visits(&self) -> f64 {
        if self.search.searches == 0 {
            0.0
        } else {
            self.search.nodes_visited as f64 / self.search.searches as f64
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "constraints: {} added, {} processed", self.constraints_added, self.constraints_processed)?;
        writeln!(f, "work: {} edge additions ({} redundant)", self.work, self.redundant)?;
        writeln!(f, "resolutions: {}", self.resolutions)?;
        writeln!(
            f,
            "cycle elimination: {} searches, {} cycles, {} vars eliminated, {:.2} mean visits",
            self.search.searches, self.cycles_collapsed, self.vars_eliminated, self.mean_search_visits()
        )?;
        write!(f, "inconsistencies: {}", self.inconsistencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_edges_subtracts_redundant() {
        let stats = Stats { work: 10, redundant: 3, ..Stats::default() };
        assert_eq!(stats.new_edges(), 7);
    }

    #[test]
    fn mean_search_visits_handles_zero_searches() {
        let stats = Stats::default();
        assert_eq!(stats.mean_search_visits(), 0.0);
        let stats = Stats {
            search: SearchStats { searches: 4, nodes_visited: 10, ..Default::default() },
            ..Stats::default()
        };
        assert!((stats.mean_search_visits() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = Stats { work: 42, ..Stats::default() }.to_string();
        assert!(s.contains("42 edge additions"));
        assert!(s.contains("inconsistencies"));
    }
}
