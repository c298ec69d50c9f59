//! The four ordering relations of the PMC model (paper Definitions 5–10).

use std::fmt;

use crate::op::ProcId;

/// Kind of an ordering edge between two operations.
///
/// * `Local` — paper Definition 6 (`≺ℓ`): visible only to the executing
///   process; preserves local control/data dependencies. The DMA-window
///   markers of the bulk-transfer extension ([`crate::op::OpKind::DmaIssue`]
///   / [`crate::op::OpKind::DmaComplete`]) order exclusively through this
///   kind — see [`crate::table1::dma_rule`].
/// * `Program` — paper Definition 5 (`≺P`): globally visible orderings
///   between two operations of one process on one location.
/// * `Sync` — paper Definition 7 (`≺S`): globally visible, per-location
///   orderings that can span multiple processes (release → acquire).
/// * `Fence` — paper Definition 8 (`≺F`): globally visible, per-process
///   orderings that can span multiple locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OrderKind {
    Local,
    Program,
    Sync,
    Fence,
}

impl OrderKind {
    /// Whether edges of this kind belong to the *global* order `≺G`
    /// (paper Definition 9): `≺G = ≺P ∪ ≺S ∪ ≺F`. All processes always
    /// agree on global orderings; local orderings are only visible to the
    /// executing process.
    #[inline]
    pub(crate) fn is_global(self) -> bool {
        !matches!(self, OrderKind::Local)
    }

    /// Symbol as used in the paper's figures and Table I.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            OrderKind::Local => "≺ℓ",
            OrderKind::Program => "≺P",
            OrderKind::Sync => "≺S",
            OrderKind::Fence => "≺F",
        }
    }

    /// ASCII-safe symbol (for DOT output and plain-text tables).
    pub(crate) fn ascii(self) -> &'static str {
        match self {
            OrderKind::Local => "<l",
            OrderKind::Program => "<P",
            OrderKind::Sync => "<S",
            OrderKind::Fence => "<F",
        }
    }
}

impl fmt::Display for OrderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Which orderings are considered when answering a reachability query.
///
/// The paper's shorthand: `a ≺ c` denotes the global order `≺G`, while
/// `a ≺p c` additionally includes the local orderings of process `p`
/// (paper Definition 10 and surrounding text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Global orderings only (`≺G`): what every process agrees on.
    Global,
    /// Global orderings plus the local orderings of one process
    /// (`≺G ∪ p≺ℓ`): that process's view of the execution.
    Proc(ProcId),
    /// All orderings regardless of owner (`≺` of Definition 10). Useful
    /// for whole-execution sanity checks (acyclicity etc.).
    All,
}

impl View {
    /// Whether an edge of `kind`, whose *source and target* belong to
    /// process `owner`, is visible in this view. Local edges always
    /// connect two operations of the same process, which is the edge's
    /// owner.
    #[inline]
    pub(crate) fn sees(self, kind: OrderKind, owner: ProcId) -> bool {
        if kind.is_global() {
            return true;
        }
        match self {
            View::All => true,
            View::Global => false,
            View::Proc(p) => p == owner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globality_matches_definition_9() {
        assert!(!OrderKind::Local.is_global());
        assert!(OrderKind::Program.is_global());
        assert!(OrderKind::Sync.is_global());
        assert!(OrderKind::Fence.is_global());
    }

    #[test]
    fn views_see_the_right_edges() {
        let p0 = ProcId(0);
        let p1 = ProcId(1);
        // Global edges visible everywhere.
        for v in [View::Global, View::Proc(p0), View::Proc(p1), View::All] {
            assert!(v.sees(OrderKind::Program, p0));
            assert!(v.sees(OrderKind::Sync, p0));
            assert!(v.sees(OrderKind::Fence, p1));
        }
        // Local edges: only the owner's view (and All).
        assert!(!View::Global.sees(OrderKind::Local, p0));
        assert!(View::Proc(p0).sees(OrderKind::Local, p0));
        assert!(!View::Proc(p1).sees(OrderKind::Local, p0));
        assert!(View::All.sees(OrderKind::Local, p0));
    }

    #[test]
    fn symbols_are_distinct() {
        let kinds = [OrderKind::Local, OrderKind::Program, OrderKind::Sync, OrderKind::Fence];
        for (i, a) in kinds.iter().enumerate() {
            for (j, b) in kinds.iter().enumerate() {
                if i != j {
                    assert_ne!(a.symbol(), b.symbol());
                    assert_ne!(a.ascii(), b.ascii());
                }
            }
        }
    }
}
