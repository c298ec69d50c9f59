//! Graphviz (DOT) export of executions, matching the visual style of the
//! paper's dependency-graph figures (Figs. 2–5): nodes are operations,
//! edges are labelled with the ordering kind; local edges are dashed
//! (visible only to the executing process).

use std::fmt::Write as _;

use crate::execution::Execution;
use crate::op::{OpId, OpKind};
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
    // Outgoing edges per op, for the redundancy search.
    let mut succs: Vec<Vec<OpId>> = vec![Vec::new(); e.len()];
    for edge in e.edges() {
        succs[edge.from.index()].push(edge.to);
    }
    for edge in e.edges() {
        if reduce && is_redundant(&succs, edge.from, edge.to) {
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
fn is_redundant(succs: &[Vec<OpId>], from: OpId, to: OpId) -> bool {
    // DFS from `from` to `to` avoiding the direct edge; any indirect path
    // makes the direct edge redundant for drawing purposes.
    let mut stack: Vec<OpId> = succs[from.index()].iter().copied().filter(|&t| t != to).collect();
    let mut seen = vec![false; succs.len()];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if seen[cur.index()] {
            continue;
        }
        seen[cur.index()] = true;
        for &next in &succs[cur.index()] {
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

    /// The reduced DOT of the paper's Fig. 4, built exactly as the
    /// `table1` binary builds it: node labels, surviving edges and their
    /// order are pinned byte for byte.
    #[test]
    fn fig4_dot_is_pinned() {
        let (p0, p1, x) = (ProcId(0), ProcId(1), LocId(0));
        let mut e = Execution::new(EdgeMode::Full);
        e.ensure_init(x, 0);
        e.acquire(p1, x);
        e.write(p1, x, 1);
        e.write(p1, x, 2);
        e.release(p1, x);
        e.acquire(p0, x);
        e.read(p0, x, 2);
        e.release(p0, x);
        assert_eq!(
            to_dot_reduced(&e),
            r#"digraph execution {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n0 [label="init: v0=0"];
  n1 [label="p1: acq v0"];
  n2 [label="p1: v0=1"];
  n3 [label="p1: v0=2"];
  n4 [label="p1: rel v0"];
  n5 [label="p0: acq v0"];
  n6 [label="p0: v0?=2"];
  n7 [label="p0: rel v0"];
  n0 -> n1 [label="<S"];
  n1 -> n2 [label="<P"];
  n2 -> n3 [label="<P"];
  n3 -> n4 [label="<P"];
  n4 -> n5 [label="<S"];
  n5 -> n6 [label="<l", style=dashed];
  n6 -> n7 [label="<l", style=dashed];
}
"#
        );
    }

    /// The reduced DOT of the paper's Fig. 5, built exactly as the
    /// `table1` binary builds it. Edge lines follow the stored order of
    /// each op's incoming edges, so this also pins that order.
    #[test]
    fn fig5_dot_is_pinned() {
        let (p0, p1, x, f) = (ProcId(0), ProcId(1), LocId(0), LocId(1));
        let mut e = Execution::new(EdgeMode::Full);
        e.ensure_init(x, 0);
        e.ensure_init(f, 0);
        e.acquire(p0, x);
        e.write(p0, x, 42);
        e.fence(p0);
        e.release(p0, x);
        e.acquire(p0, f);
        e.write(p0, f, 1);
        e.release(p0, f);
        e.read(p1, f, 1);
        e.fence(p1);
        e.acquire(p1, x);
        e.read(p1, x, 42);
        e.release(p1, x);
        assert_eq!(
            to_dot_reduced(&e),
            r#"digraph execution {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n0 [label="init: v0=0"];
  n1 [label="init: v1=0"];
  n2 [label="p0: acq v0"];
  n3 [label="p0: v0=42"];
  n4 [label="p0: fence"];
  n5 [label="p0: rel v0"];
  n6 [label="p0: acq v1"];
  n7 [label="p0: v1=1"];
  n8 [label="p0: rel v1"];
  n9 [label="p1: v1?=1"];
  n10 [label="p1: fence"];
  n11 [label="p1: acq v0"];
  n12 [label="p1: v0?=42"];
  n13 [label="p1: rel v0"];
  n0 -> n2 [label="<S"];
  n2 -> n3 [label="<P"];
  n1 -> n4 [label="<l", style=dashed];
  n1 -> n4 [label="<F"];
  n3 -> n4 [label="<l", style=dashed];
  n3 -> n5 [label="<P"];
  n4 -> n6 [label="<F"];
  n6 -> n7 [label="<P"];
  n7 -> n8 [label="<P"];
  n1 -> n9 [label="<l", style=dashed];
  n0 -> n10 [label="<l", style=dashed];
  n0 -> n10 [label="<F"];
  n9 -> n10 [label="<l", style=dashed];
  n5 -> n11 [label="<S"];
  n10 -> n11 [label="<F"];
  n11 -> n12 [label="<l", style=dashed];
  n12 -> n13 [label="<l", style=dashed];
}
"#
        );
    }
}
