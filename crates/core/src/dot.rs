//! Graphviz (DOT) export of executions, matching the visual style of the
//! paper's dependency-graph figures (Figs. 2–5): nodes are operations,
//! edges are labelled with the ordering kind; local edges are dashed
//! (visible only to the executing process).

use std::fmt::Write as _;

use crate::execution::Execution;
use crate::op::OpKind;
use crate::order::OrderKind;

/// Render the execution as a DOT digraph with transitive reduction, like
/// the paper's figures ("the figures are transitively reduced; all
/// redundant orderings are left out").
pub fn to_dot_reduced(e: &Execution) -> String {
    render(e, true)
}

fn render(e: &Execution, reduce: bool) -> String {
    let mut s = String::new();
    s.push_str("digraph execution {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
    for (id, op) in e.ops() {
        let label = match op.kind {
            OpKind::Init => format!("init: v{}={}", op.loc.0, op.value),
            OpKind::Read => format!("p{}: v{}?={}", op.proc.0, op.loc.0, op.value),
            OpKind::Write => format!("p{}: v{}={}", op.proc.0, op.loc.0, op.value),
            OpKind::Acquire => format!("p{}: acq v{}", op.proc.0, op.loc.0),
            OpKind::Release => format!("p{}: rel v{}", op.proc.0, op.loc.0),
            OpKind::Fence => format!("p{}: fence", op.proc.0),
            OpKind::DmaIssue => format!("p{}: dma-issue v{}", op.proc.0, op.loc.0),
            OpKind::DmaComplete => format!("p{}: dma-complete v{}", op.proc.0, op.loc.0),
        };
        let _ = writeln!(s, "  n{} [label=\"{}\"];", id.0, label);
    }
    for edge in e.edges() {
        if reduce && is_redundant(e, edge.from, edge.to, edge.kind) {
            continue;
        }
        let style = match edge.kind {
            OrderKind::Local => ", style=dashed",
            _ => "",
        };
        let _ = writeln!(
            s,
            "  n{} -> n{} [label=\"{}\"{}];",
            edge.from.0,
            edge.to.0,
            edge.kind.ascii(),
            style
        );
    }
    s.push_str("}\n");
    s
}

/// An edge a→b is redundant for display when another path a→…→b exists
/// that does not use the direct edge (checked in the all-orders view).
fn is_redundant(
    e: &Execution,
    from: crate::op::OpId,
    to: crate::op::OpId,
    _kind: OrderKind,
) -> bool {
    // BFS from `from` to `to` avoiding the direct edge; any indirect path
    // makes the direct edge redundant for drawing purposes.
    let mut stack: Vec<crate::op::OpId> =
        e.succs(from).iter().filter(|&&(t, _)| t != to).map(|&(t, _)| t).collect();
    let mut seen = vec![false; e.len()];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if seen[cur.index()] {
            continue;
        }
        seen[cur.index()] = true;
        for &(next, _) in e.succs(cur) {
            if next.0 <= to.0 && !seen[next.index()] {
                stack.push(next);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::EdgeMode;
    use crate::op::{LocId, ProcId};

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut e = Execution::new(EdgeMode::Full);
        e.write(ProcId(0), LocId(0), 1);
        e.write(ProcId(0), LocId(0), 2);
        let dot = render(&e, false);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("v0=1"));
        assert!(dot.contains("v0=2"));
        assert!(dot.contains("<P"));
    }

    #[test]
    fn reduction_removes_init_to_last_edge() {
        // init ≺P w1 ≺P w2 plus the redundant init ≺P w2.
        let mut e = Execution::new(EdgeMode::Full);
        e.write(ProcId(0), LocId(0), 1);
        e.write(ProcId(0), LocId(0), 2);
        let full = render(&e, false);
        let reduced = to_dot_reduced(&e);
        assert!(full.matches("->").count() > reduced.matches("->").count());
        // n0 = init, n2 = second write: direct edge gone after reduction.
        assert!(full.contains("n0 -> n2"));
        assert!(!reduced.contains("n0 -> n2"));
    }
}
