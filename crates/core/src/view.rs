//! The `GraphView` trait: one read-only traversal interface over every
//! storage backend.
//!
//! The paper's premise is a *single* in-memory representation shared by
//! all kernels (§IV-A), but "in-memory heap `Vec`s" is a storage policy,
//! not an interface.  `GraphView` captures the five operations the
//! traversal kernels actually need — vertex/arc counts, directedness,
//! degree, and neighbor iteration — so hybrid BFS, MS-BFS, components,
//! and the degree/clustering kernels run unchanged over:
//!
//! * [`CsrGraph`] — plain heap CSR (the seed representation),
//! * [`crate::reorder::ReorderedView`] — a relabeled CSR from the
//!   locality engine,
//! * [`crate::io::mmap::MmapCsr`] — a zero-copy view over a
//!   memory-mapped format-v2 binary file, and
//! * [`crate::compressed::CompressedCsr`] — delta/varint-compressed
//!   adjacency in the style of Ligra+/GBBS, decoded block-wise during
//!   traversal.
//!
//! Neighbor iteration uses a generic associated type rather than
//! returning `&[VertexId]` because the compressed backend has no slice
//! to lend — its neighbors only exist while being decoded.  For slice
//! backends the iterator is `slice::Iter::copied`, which optimizes to
//! the same loads as direct indexing.

use crate::csr::CsrGraph;
use crate::reorder::ReorderedView;
use crate::types::VertexId;
use rayon::prelude::*;

/// A read-only graph suitable for traversal kernels.
///
/// Implementations must present the same adjacency *semantics* as
/// [`CsrGraph`]: undirected graphs store each edge in both endpoint
/// lists, and `neighbors_iter` yields each stored arc's target exactly
/// once.  Kernels additionally assume neighbors are yielded in
/// ascending order when they document a sortedness requirement (the
/// clustering kernels validate this; the traversal kernels do not need
/// it).
pub trait GraphView: Sync {
    /// The neighbor iterator for a single vertex.
    type Neighbors<'a>: Iterator<Item = VertexId> + 'a
    where
        Self: 'a;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of *stored* directed arcs (twice the edge count for an
    /// undirected graph).
    fn num_arcs(&self) -> usize;

    /// `true` if the graph was built as directed.
    fn is_directed(&self) -> bool;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Iterate the out-neighbors of `v`.
    fn neighbors_iter(&self, v: VertexId) -> Self::Neighbors<'_>;

    /// Number of logical edges: arcs for a directed graph, arc-pairs
    /// for an undirected one.
    fn num_edges(&self) -> usize {
        if self.is_directed() {
            self.num_arcs()
        } else {
            self.num_arcs() / 2
        }
    }

    /// Every out-degree, computed in parallel.
    fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId))
            .collect()
    }

    /// Materialize this view as a plain heap [`CsrGraph`].
    fn to_csr(&self) -> CsrGraph {
        let n = self.num_vertices();
        let degs = self.degrees();
        let (offsets, total) = graphct_mt::prefix::exclusive_prefix_sum(&degs);
        debug_assert_eq!(total, self.num_arcs());
        let mut targets = vec![0 as VertexId; total];
        // Split `targets` into per-vertex chunks for a safe parallel fill.
        let mut rest: &mut [VertexId] = &mut targets;
        let mut chunks: Vec<&mut [VertexId]> = Vec::with_capacity(n);
        for &d in &degs {
            let (head, tail) = rest.split_at_mut(d);
            chunks.push(head);
            rest = tail;
        }
        chunks.into_par_iter().enumerate().for_each(|(v, chunk)| {
            for (slot, t) in chunk.iter_mut().zip(self.neighbors_iter(v as VertexId)) {
                *slot = t;
            }
        });
        CsrGraph::from_raw_parts(offsets, targets, self.is_directed())
            .expect("a GraphView yields consistent CSR arrays")
    }

    /// The heap [`CsrGraph`] this view reads from, if it is one.  Kernels
    /// use it to route every CSR-backed view through one compiled copy
    /// of a hot loop instead of one per backend type.
    fn as_csr(&self) -> Option<&CsrGraph> {
        None
    }

    /// The transpose (all arcs reversed) as a plain [`CsrGraph`].
    ///
    /// Kernels that pull along in-edges (direction-optimizing BFS on
    /// directed graphs, Brandes' backward pass) materialize this once
    /// per run regardless of backend.
    fn transpose_csr(&self) -> CsrGraph {
        crate::csr::transpose_of(self)
    }

    /// `true` when every adjacency list is strictly ascending with no
    /// self-loops — the structural precondition of the clustering and
    /// triangle kernels.  The default runs a parallel O(V+E) scan;
    /// [`CsrGraph`] overrides it with a provenance-seeded, memoized
    /// witness so trusted graphs answer in one atomic load.
    fn is_sorted_simple(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .all(|v| {
                let mut prev: Option<VertexId> = None;
                for t in self.neighbors_iter(v) {
                    if t == v {
                        return false;
                    }
                    if let Some(p) = prev {
                        if t <= p {
                            return false;
                        }
                    }
                    prev = Some(t);
                }
                true
            })
    }
}

impl GraphView for CsrGraph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CsrGraph::num_arcs(self)
    }

    #[inline]
    fn is_directed(&self) -> bool {
        CsrGraph::is_directed(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors_iter(&self, v: VertexId) -> Self::Neighbors<'_> {
        self.neighbors(v).iter().copied()
    }

    fn degrees(&self) -> Vec<usize> {
        CsrGraph::degrees(self)
    }

    fn to_csr(&self) -> CsrGraph {
        self.clone()
    }

    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self)
    }

    fn transpose_csr(&self) -> CsrGraph {
        self.transpose()
    }

    fn is_sorted_simple(&self) -> bool {
        CsrGraph::is_sorted_simple(self)
    }
}

impl GraphView for ReorderedView {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.graph().num_arcs()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.graph().is_directed()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.graph().degree(v)
    }

    #[inline]
    fn neighbors_iter(&self, v: VertexId) -> Self::Neighbors<'_> {
        self.graph().neighbors(v).iter().copied()
    }

    fn degrees(&self) -> Vec<usize> {
        self.graph().degrees()
    }

    fn to_csr(&self) -> CsrGraph {
        self.graph().clone()
    }

    fn as_csr(&self) -> Option<&CsrGraph> {
        Some(self.graph())
    }

    fn transpose_csr(&self) -> CsrGraph {
        self.graph().transpose()
    }

    fn is_sorted_simple(&self) -> bool {
        // The relabeled CSR inherits its witness from the source graph
        // at construction, so this is usually a cached answer.
        self.graph().is_sorted_simple()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_directed_simple, build_undirected_simple};
    use crate::edge_list::EdgeList;

    fn sample(directed: bool) -> CsrGraph {
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)]);
        if directed {
            build_directed_simple(&el).unwrap()
        } else {
            build_undirected_simple(&el).unwrap()
        }
    }

    fn assert_view_matches<G: GraphView>(view: &G, g: &CsrGraph) {
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_arcs(), g.num_arcs());
        assert_eq!(view.num_edges(), g.num_edges());
        assert_eq!(view.is_directed(), g.is_directed());
        assert_eq!(GraphView::degrees(view), g.degrees());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(view.degree(v), g.degree(v));
            let nbrs: Vec<VertexId> = view.neighbors_iter(v).collect();
            assert_eq!(nbrs, g.neighbors(v));
        }
    }

    #[test]
    fn csr_implements_its_own_view() {
        for directed in [false, true] {
            let g = sample(directed);
            assert_view_matches(&g, &g);
            assert_eq!(g.to_csr(), g);
            assert_eq!(GraphView::transpose_csr(&g), g.transpose());
            assert!(std::ptr::eq(g.as_csr().unwrap(), &g));
        }
    }

    #[test]
    fn generic_to_csr_reconstructs_the_graph() {
        struct IterOnly<'g>(&'g CsrGraph);
        impl GraphView for IterOnly<'_> {
            type Neighbors<'a>
                = std::iter::Copied<std::slice::Iter<'a, VertexId>>
            where
                Self: 'a;
            fn num_vertices(&self) -> usize {
                self.0.num_vertices()
            }
            fn num_arcs(&self) -> usize {
                self.0.num_arcs()
            }
            fn is_directed(&self) -> bool {
                self.0.is_directed()
            }
            fn degree(&self, v: VertexId) -> usize {
                self.0.degree(v)
            }
            fn neighbors_iter(&self, v: VertexId) -> Self::Neighbors<'_> {
                self.0.neighbors(v).iter().copied()
            }
        }
        for directed in [false, true] {
            let g = sample(directed);
            let view = IterOnly(&g);
            // Exercise the *default* implementations, not CsrGraph's overrides.
            assert_eq!(view.to_csr(), g);
            assert_eq!(view.transpose_csr(), g.transpose());
            assert_eq!(view.degrees(), g.degrees());
            assert!(view.as_csr().is_none());
        }
    }

    #[test]
    fn reordered_view_is_a_graph_view() {
        let g = sample(false);
        let perm = crate::reorder::by_shuffle(&g, 7);
        let view = ReorderedView::with_permutation(&g, perm, crate::reorder::ReorderKind::Shuffle);
        assert_view_matches(&view, view.graph());
        assert_eq!(view.to_csr(), *view.graph());
        assert!(std::ptr::eq(view.as_csr().unwrap(), view.graph()));
    }
}
