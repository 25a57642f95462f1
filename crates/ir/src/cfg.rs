//! The control flow graph: fork/join nodes, `wait()` states, and control-step
//! edges.
//!
//! Following the paper (Section II), CFG *nodes* either serve to fork/join
//! control flow (conditionals and loops) or correspond to `wait()` calls in
//! the source; CFG *edges* are the control steps on which DFG operations are
//! placed.

use crate::error::IrError;
use crate::ids::{CfgEdgeId, CfgNodeId, LoopId};

/// What a CFG node represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfgNodeKind {
    /// Entry point of the thread.
    Entry,
    /// Exit point of the thread.
    Exit,
    /// A clock boundary — a `wait()` call in the source description.
    Wait {
        /// Optional label (`s0`, `s1`, ... in the paper's Figure 1 comments).
        label: Option<String>,
    },
    /// Control-flow fork (the `If_top` node of Figure 3).
    Fork,
    /// Control-flow join (the `If_bottom` node of Figure 3).
    Join,
    /// Loop entry (the `Loop_top` node of Figure 3).
    LoopTop {
        /// Which loop this belongs to.
        loop_id: LoopId,
    },
    /// Loop back-edge source (the `Loop_bottom` node of Figure 3).
    LoopBottom {
        /// Which loop this belongs to.
        loop_id: LoopId,
    },
}

/// A node of the [`Cfg`].
#[derive(Clone, Debug, PartialEq)]
pub struct CfgNode {
    /// Node kind.
    pub kind: CfgNodeKind,
}

/// An edge of the [`Cfg`] — one control step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfgEdge {
    /// Source node.
    pub from: CfgNodeId,
    /// Destination node.
    pub to: CfgNodeId,
    /// `true` for the "taken"/then branch out of a fork, `false` for the else
    /// branch; meaningless for other sources.
    pub branch_taken: Option<bool>,
    /// `true` for loop back edges (LoopBottom → LoopTop).
    pub back_edge: bool,
    /// Optional label for dumps.
    pub label: Option<String>,
}

/// The control flow graph of one behavioural thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cfg {
    nodes: Vec<CfgNode>,
    edges: Vec<CfgEdge>,
}

impl Cfg {
    /// Creates an empty CFG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node of the given kind and returns its id.
    pub fn add_node(&mut self, kind: CfgNodeKind) -> CfgNodeId {
        self.nodes.push(CfgNode { kind });
        CfgNodeId::from_raw((self.nodes.len() - 1) as u32)
    }

    /// Adds a forward control edge.
    pub fn add_edge(&mut self, from: CfgNodeId, to: CfgNodeId) -> CfgEdgeId {
        self.add_edge_full(from, to, None, false, None)
    }

    /// Adds a branch edge out of a fork node.
    pub fn add_branch_edge(&mut self, from: CfgNodeId, to: CfgNodeId, taken: bool) -> CfgEdgeId {
        self.add_edge_full(from, to, Some(taken), false, None)
    }

    /// Adds a loop back edge.
    pub fn add_back_edge(&mut self, from: CfgNodeId, to: CfgNodeId) -> CfgEdgeId {
        self.add_edge_full(from, to, None, true, None)
    }

    /// Adds an edge with all attributes spelled out.
    pub fn add_edge_full(
        &mut self,
        from: CfgNodeId,
        to: CfgNodeId,
        branch_taken: Option<bool>,
        back_edge: bool,
        label: Option<String>,
    ) -> CfgEdgeId {
        self.edges.push(CfgEdge {
            from,
            to,
            branch_taken,
            back_edge,
            label,
        });
        CfgEdgeId::from_raw((self.edges.len() - 1) as u32)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (control steps).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Access a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this CFG.
    pub fn node(&self, id: CfgNodeId) -> &CfgNode {
        &self.nodes[id.index()]
    }

    /// Access an edge.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this CFG.
    pub fn edge(&self, id: CfgEdgeId) -> &CfgEdge {
        &self.edges[id.index()]
    }

    /// Iterator over `(CfgNodeId, &CfgNode)`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (CfgNodeId, &CfgNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (CfgNodeId::from_raw(i as u32), n))
    }

    /// Iterator over `(CfgEdgeId, &CfgEdge)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (CfgEdgeId, &CfgEdge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (CfgEdgeId::from_raw(i as u32), e))
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, node: CfgNodeId) -> Vec<CfgEdgeId> {
        self.iter_edges()
            .filter(|(_, e)| e.from == node)
            .map(|(id, _)| id)
            .collect()
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, node: CfgNodeId) -> Vec<CfgEdgeId> {
        self.iter_edges()
            .filter(|(_, e)| e.to == node)
            .map(|(id, _)| id)
            .collect()
    }

    /// The unique entry node, if present.
    pub fn entry(&self) -> Option<CfgNodeId> {
        self.iter_nodes()
            .find(|(_, n)| matches!(n.kind, CfgNodeKind::Entry))
            .map(|(id, _)| id)
    }

    /// The unique exit node, if present.
    pub fn exit(&self) -> Option<CfgNodeId> {
        self.iter_nodes()
            .find(|(_, n)| matches!(n.kind, CfgNodeKind::Exit))
            .map(|(id, _)| id)
    }

    /// Checks structural invariants: edge endpoints exist, at most one entry
    /// and exit, fork nodes have exactly two forward successors, join nodes
    /// have at least two predecessors, back edges target loop tops.
    ///
    /// # Errors
    /// Returns the first violated invariant as an [`IrError`].
    pub fn validate(&self) -> Result<(), IrError> {
        for (id, e) in self.iter_edges() {
            if e.from.index() >= self.nodes.len() || e.to.index() >= self.nodes.len() {
                return Err(IrError::DanglingCfgEdge { edge: id });
            }
        }
        let entries = self
            .iter_nodes()
            .filter(|(_, n)| matches!(n.kind, CfgNodeKind::Entry))
            .count();
        if entries > 1 {
            return Err(IrError::MultipleEntries { count: entries });
        }
        for (id, n) in self.iter_nodes() {
            match n.kind {
                CfgNodeKind::Fork => {
                    let outs = self
                        .out_edges(id)
                        .into_iter()
                        .filter(|&e| !self.edge(e).back_edge)
                        .count();
                    if outs != 2 {
                        return Err(IrError::MalformedFork {
                            node: id,
                            out_degree: outs,
                        });
                    }
                }
                CfgNodeKind::Join if self.in_edges(id).len() < 2 => {
                    return Err(IrError::MalformedJoin { node: id });
                }
                _ => {}
            }
        }
        for (id, e) in self.iter_edges() {
            if e.back_edge && !matches!(self.node(e.to).kind, CfgNodeKind::LoopTop { .. }) {
                return Err(IrError::BackEdgeNotToLoopTop { edge: id });
            }
        }
        Ok(())
    }
}

/// Convenience constructor for the common "straight-line loop body" shape:
/// `LoopTop -> wait s1 -> wait s2 -> ... -> LoopBottom -> (back) LoopTop`.
///
/// Returns the CFG, the loop-body control-step edge ids in order, and the loop
/// top/bottom nodes.
pub fn straight_line_loop(
    loop_id: LoopId,
    num_states: usize,
) -> (Cfg, Vec<CfgEdgeId>, CfgNodeId, CfgNodeId) {
    let mut cfg = Cfg::new();
    let entry = cfg.add_node(CfgNodeKind::Entry);
    let top = cfg.add_node(CfgNodeKind::LoopTop { loop_id });
    cfg.add_edge(entry, top);
    let mut prev = top;
    let mut steps = Vec::new();
    for i in 0..num_states {
        let next = if i + 1 == num_states {
            cfg.add_node(CfgNodeKind::LoopBottom { loop_id })
        } else {
            cfg.add_node(CfgNodeKind::Wait {
                label: Some(format!("s{}", i + 1)),
            })
        };
        steps.push(cfg.add_edge(prev, next));
        prev = next;
    }
    let bottom = prev;
    cfg.add_back_edge(bottom, top);
    (cfg, steps, top, bottom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_loop_shape() {
        let (cfg, steps, top, bottom) = straight_line_loop(LoopId::from_raw(0), 3);
        assert_eq!(steps.len(), 3);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.out_edges(top).len(), 1);
        // loop bottom has forward in-edge and outgoing back edge
        assert_eq!(cfg.out_edges(bottom).len(), 1);
        assert!(cfg.edge(cfg.out_edges(bottom)[0]).back_edge);
        let waits = cfg
            .iter_nodes()
            .filter(|(_, n)| matches!(n.kind, CfgNodeKind::Wait { .. }))
            .count();
        assert_eq!(waits, 2);
    }

    #[test]
    fn fork_join_validation() {
        let mut cfg = Cfg::new();
        let entry = cfg.add_node(CfgNodeKind::Entry);
        let fork = cfg.add_node(CfgNodeKind::Fork);
        let join = cfg.add_node(CfgNodeKind::Join);
        let exit = cfg.add_node(CfgNodeKind::Exit);
        cfg.add_edge(entry, fork);
        cfg.add_branch_edge(fork, join, true);
        // only one branch -> malformed fork
        assert!(matches!(cfg.validate(), Err(IrError::MalformedFork { .. })));
        cfg.add_branch_edge(fork, join, false);
        cfg.add_edge(join, exit);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn back_edge_must_target_loop_top() {
        let mut cfg = Cfg::new();
        let a = cfg.add_node(CfgNodeKind::Entry);
        let b = cfg.add_node(CfgNodeKind::Exit);
        cfg.add_edge(a, b);
        cfg.add_back_edge(b, a);
        assert!(matches!(
            cfg.validate(),
            Err(IrError::BackEdgeNotToLoopTop { .. })
        ));
    }

    #[test]
    fn multiple_entries_rejected() {
        let mut cfg = Cfg::new();
        cfg.add_node(CfgNodeKind::Entry);
        cfg.add_node(CfgNodeKind::Entry);
        assert!(matches!(
            cfg.validate(),
            Err(IrError::MultipleEntries { .. })
        ));
    }
}
