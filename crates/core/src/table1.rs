//! The paper's **Table I**: orderings introduced between existing and new
//! operations on location `v` by process `p`.
//!
//! When a new operation `o` is executed, for every *existing* operation `e`
//! matching the row pattern, an edge `e → o` of the indicated kind is added
//! (paper Definition 4). Rows are the pattern of the existing operation,
//! columns the kind of the new operation.
//!
//! ```text
//!                          new operation
//!   existing pattern     r     w     R     A     F
//!   read    (r,p,v,*)   ≺ℓ    ≺ℓ    ≺ℓ    —     ≺ℓ
//!   write   (w,p,v,*)   ≺ℓ    ≺P    ≺P    —     ≺ℓ
//!   acquire (A,p,v,*)   ≺ℓ    ≺P    ≺P    —     ≺F
//!   release (R,p,v,*)   —     —     —     ≺S†   ≺F
//!   fence   (F,p,*,*)   ≺F    ≺F    —     ≺F    —
//! ```
//!
//! † An acquire has its ordering `≺S` on `(R, *, v, *)`, i.e. on releases of
//! *any* process on the same location, not just on releases of the same
//! process (paper Table I footnote).
//!
//! The matrix is reconstructed from the paper's table text and validated
//! against every dependency-graph figure of the paper (Figs. 2–5 and the
//! annotated FIFO of Fig. 9); the per-row entry multiplicities match the
//! published table exactly (read: 4 entries, write: 4, acquire: 4,
//! release: 2, fence: 3).

use crate::op::OpKind;
use crate::order::OrderKind;

/// Scope of a Table I row: which existing operations the row pattern
/// matches, relative to the new operation `(kind, p, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // each name is a (process, location) pair
pub(crate) enum RuleScope {
    /// Existing ops with the same process *and* the same location
    /// (patterns `(x, p, v, *)` for `x ∈ {r, w, A}` and `(R, p, v, *)`).
    SameProcSameLoc,
    /// Existing releases on the same location by *any* process
    /// (the table's footnote: pattern `(R, *, v, *)`).
    AnyProcSameLoc,
    /// Existing fences by the same process, spanning all locations
    /// (pattern `(F, p, *, *)`).
    SameProcAnyLoc,
}

/// One cell of Table I: an ordering kind plus the row's matching scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rule {
    pub kind: OrderKind,
    pub scope: RuleScope,
}

/// Row order of the table (kind of the *existing* operation).
pub(crate) const ROWS: [OpKind; 5] =
    [OpKind::Read, OpKind::Write, OpKind::Acquire, OpKind::Release, OpKind::Fence];

/// Column order of the table (kind of the *new* operation), as printed in
/// the paper: `r w R A F`.
pub(crate) const COLS: [OpKind; 5] =
    [OpKind::Read, OpKind::Write, OpKind::Release, OpKind::Acquire, OpKind::Fence];

/// Look up the ordering introduced from an existing operation of kind
/// `existing` to a newly executed operation of kind `new`, or `None` when
/// the table cell is empty.
///
/// `Init` operations behave like a write and a release at once
/// (Definition 3): both rows apply, and the stronger per-cell result is
/// the union of the two rows. This function takes plain kinds; callers
/// handling `Init` should query both `Write` and `Release` rows (see
/// [`rules_for_existing`]).
pub(crate) fn rule(existing: OpKind, new: OpKind) -> Option<Rule> {
    use OpKind::{Acquire, DmaComplete, DmaIssue, Fence, Init, Read, Release, Write};
    use OrderKind::{Fence as OF, Local, Program, Sync};
    use RuleScope::*;
    let cell = |kind, scope| Some(Rule { kind, scope });
    match (existing, new) {
        // Row: read (r, p, v, *)
        (Read, Read) => cell(Local, SameProcSameLoc),
        (Read, Write) => cell(Local, SameProcSameLoc),
        (Read, Release) => cell(Local, SameProcSameLoc),
        (Read, Acquire) => None,
        (Read, Fence) => cell(Local, SameProcSameLoc),

        // Row: write (w, p, v, *)
        (Write, Read) => cell(Local, SameProcSameLoc),
        (Write, Write) => cell(Program, SameProcSameLoc),
        (Write, Release) => cell(Program, SameProcSameLoc),
        (Write, Acquire) => None,
        (Write, Fence) => cell(Local, SameProcSameLoc),

        // Row: acquire (A, p, v, *)
        (Acquire, Read) => cell(Local, SameProcSameLoc),
        (Acquire, Write) => cell(Program, SameProcSameLoc),
        (Acquire, Release) => cell(Program, SameProcSameLoc),
        (Acquire, Acquire) => None,
        (Acquire, Fence) => cell(OF, SameProcSameLoc),

        // Row: release (R, p, v, *) — the acquire column uses the
        // footnote's widened pattern (R, *, v, *).
        (Release, Read) => None,
        (Release, Write) => None,
        (Release, Release) => None,
        (Release, Acquire) => cell(Sync, AnyProcSameLoc),
        (Release, Fence) => cell(OF, SameProcSameLoc),

        // Row: fence (F, p, *, *) — spans all locations of the process.
        (Fence, Read) => cell(OF, SameProcAnyLoc),
        (Fence, Write) => cell(OF, SameProcAnyLoc),
        (Fence, Release) => None,
        (Fence, Acquire) => cell(OF, SameProcAnyLoc),
        (Fence, Fence) => None,

        // Init rows are handled by the caller via write/release duality.
        (Init, _) | (_, Init) => None,

        // DMA markers are outside the paper's table; see [`dma_rule`].
        (DmaIssue | DmaComplete, _) | (_, DmaIssue | DmaComplete) => None,
    }
}

/// Ordering rules for the DMA-marker extension ([`OpKind::DmaIssue`] /
/// [`OpKind::DmaComplete`]), beyond the paper's Table I.
///
/// The markers pin the *transfer window* of an asynchronous bulk
/// transfer for the issuing process: the issue point is ordered after the
/// process's earlier accesses of the location, the completion point
/// before its later ones, and issue before completion. All edges are
/// **local** (`≺ℓ`) — a DMA transfer's global visibility is carried
/// entirely by the ordinary read/write operations that model its data
/// movement (floating between the two markers), so the markers add no
/// cross-process ordering and cannot shrink the outcome set another
/// process observes.
pub(crate) fn dma_rule(existing: OpKind, new: OpKind) -> Option<Rule> {
    use OpKind::{Acquire, DmaComplete, DmaIssue, Fence, Read, Release, Write};
    use OrderKind::Local;
    let is_dma = |k: OpKind| matches!(k, DmaIssue | DmaComplete);
    if !is_dma(existing) && !is_dma(new) {
        return None;
    }
    let cell = |scope| Some(Rule { kind: Local, scope });
    match (existing, new) {
        // Into a marker: the process's same-location accesses precede it,
        // and its fences span all locations (like every fence row).
        (Read | Write | Acquire | Release, DmaIssue | DmaComplete) => {
            cell(RuleScope::SameProcSameLoc)
        }
        (Fence, DmaIssue | DmaComplete) => cell(RuleScope::SameProcAnyLoc),
        // Out of a marker: later same-process same-location operations
        // (including a fence, which spans all of them) come after.
        (DmaIssue | DmaComplete, Read | Write | Acquire | Release | Fence) => {
            cell(RuleScope::SameProcSameLoc)
        }
        // issue ≺ℓ complete, and markers chain among themselves.
        (DmaIssue | DmaComplete, DmaIssue | DmaComplete) => cell(RuleScope::SameProcSameLoc),
        _ => None,
    }
}

/// All rules applying from an existing operation of kind `existing`
/// (resolving the `Init` = write + release duality of Definition 3) to a
/// new operation of kind `new`.
pub(crate) fn rules_for_existing(existing: OpKind, new: OpKind) -> impl Iterator<Item = Rule> {
    let (a, b, d) = match existing {
        OpKind::Init => {
            (rule(OpKind::Write, new), rule(OpKind::Release, new), dma_rule(OpKind::Write, new))
        }
        other => (rule(other, new), None, dma_rule(other, new)),
    };
    a.into_iter().chain(b).chain(d)
}

/// Render the table as plain text (the `table1` harness binary prints
/// this next to the paper's published table for visual comparison).
pub fn render() -> String {
    let mut out = String::new();
    out.push_str(
        "Table I — orderings between existing and new operations on location v by process p\n\n",
    );
    out.push_str(&format!("{:<22}", "existing \\ new"));
    for c in COLS {
        out.push_str(&format!("{:>6}", c.symbol()));
    }
    out.push('\n');
    for r in ROWS {
        let pattern = match r {
            OpKind::Read => "read    (r, p, v, *)",
            OpKind::Write => "write   (w, p, v, *)",
            OpKind::Acquire => "acquire (A, p, v, *)",
            OpKind::Release => "release (R, p, v, *)",
            OpKind::Fence => "fence   (F, p, *, *)",
            _ => unreachable!("ROWS holds the paper's five kinds"),
        };
        out.push_str(&format!("{pattern:<22}"));
        for c in COLS {
            match rule(r, c) {
                Some(Rule { kind, scope: RuleScope::AnyProcSameLoc }) => {
                    out.push_str(&format!("{:>5}†", kind.ascii()));
                }
                Some(Rule { kind, .. }) => out.push_str(&format!("{:>6}", kind.ascii())),
                None => out.push_str(&format!("{:>6}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str("\n† matches releases of any process on the location: (R, *, v, *)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpKind::{Acquire, Fence, Init, Read, Release, Write};
    use OrderKind::{Fence as OF, Local, Program, Sync};

    /// Per-row non-empty cell counts must match the published table:
    /// read 4, write 4, acquire 4, release 2, fence 3.
    #[test]
    fn row_entry_counts_match_paper() {
        let count = |row: OpKind| COLS.iter().filter(|&&c| rule(row, c).is_some()).count();
        assert_eq!(count(Read), 4);
        assert_eq!(count(Write), 4);
        assert_eq!(count(Acquire), 4);
        assert_eq!(count(Release), 2);
        assert_eq!(count(Fence), 3);
    }

    /// Row value sequences (in published column order r, w, R, A, F) must
    /// match the printed entries: read `≺ℓ ≺ℓ ≺ℓ ≺ℓ`, write `≺ℓ ≺P ≺P ≺ℓ`,
    /// acquire `≺ℓ ≺P ≺P ≺F`, release `≺S ≺F`, fence `≺F ≺F ≺F`.
    #[test]
    fn row_values_match_paper() {
        let row_kinds = |row: OpKind| -> Vec<OrderKind> {
            COLS.iter().filter_map(|&c| rule(row, c).map(|r| r.kind)).collect()
        };
        assert_eq!(row_kinds(Read), vec![Local, Local, Local, Local]);
        assert_eq!(row_kinds(Write), vec![Local, Program, Program, Local]);
        assert_eq!(row_kinds(Acquire), vec![Local, Program, Program, OF]);
        assert_eq!(row_kinds(Release), vec![Sync, OF]);
        assert_eq!(row_kinds(Fence), vec![OF, OF, OF]);
    }

    /// The footnote: only the release→acquire cell uses the widened
    /// any-process pattern.
    #[test]
    fn only_sync_cell_spans_processes() {
        for r in ROWS {
            for c in COLS {
                if let Some(rule) = rule(r, c) {
                    if rule.scope == RuleScope::AnyProcSameLoc {
                        assert_eq!((r, c), (Release, Acquire));
                        assert_eq!(rule.kind, Sync);
                    }
                }
            }
        }
    }

    /// Fence rows/columns are the only cells spanning locations.
    #[test]
    fn only_fence_rows_span_locations() {
        for r in ROWS {
            for c in COLS {
                if let Some(rule) = rule(r, c) {
                    if rule.scope == RuleScope::SameProcAnyLoc {
                        assert_eq!(r, Fence);
                    }
                }
            }
        }
    }

    /// Init expands to the union of the write and release rows.
    #[test]
    fn init_duality() {
        // Against a new acquire: release row fires (≺S), write row is empty.
        let rules: Vec<_> = rules_for_existing(Init, Acquire).collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].kind, Sync);
        // Against a new write: write row fires (≺P), release row is empty.
        let rules: Vec<_> = rules_for_existing(Init, Write).collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].kind, Program);
        // Against a new read: write row fires (≺ℓ).
        let rules: Vec<_> = rules_for_existing(Init, Read).collect();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].kind, Local);
        // Against a new fence: both rows fire (write → ≺ℓ, release → ≺F).
        let rules: Vec<_> = rules_for_existing(Init, Fence).collect();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn render_contains_all_rows() {
        let s = render();
        for needle in ["read", "write", "acquire", "release", "fence", "<S", "<P", "<F", "<l"] {
            assert!(s.contains(needle), "render() missing {needle}:\n{s}");
        }
    }
}
