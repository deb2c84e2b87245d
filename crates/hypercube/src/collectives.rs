//! Collective operations on (possibly faulty) hypercubes.
//!
//! The paper's host "distributes each normal processor ⌊M/N'⌋ elements"
//! (step 2) and collects the sorted result at the end. These collectives
//! implement that traffic as real messages over the simulated machine.
//!
//! Faulty and idle processors make the participant set an arbitrary subset
//! of the cube, so the schedules are **rank-based binomial trees** (the
//! classic MPI construction): participants are ranked `0 … P−1` with the
//! root at rank 0, rank `r > 0` has parent `r` with its highest set bit
//! cleared, and the children of `r` are `r | 2^d` for every `2^d > r`
//! (bounded by `P`). The router charges the real hop distance between the
//! physical nodes behind any pair of ranks, so holes cost extra hops but
//! never break the schedule.

use crate::address::NodeId;
use crate::sim::{Comm, Tag};

/// The ordered participant set of a collective. Rank 0 is the root.
#[derive(Clone, Debug)]
pub struct Participants {
    /// Physical node of each rank; `nodes[0]` is the root.
    nodes: Vec<NodeId>,
    /// Inverse map, indexed by physical address.
    rank_of: Vec<Option<usize>>,
}

impl Participants {
    /// Builds the participant set from the live nodes (in slot order) with
    /// `root` moved to rank 0 (the relative order of the others is kept).
    ///
    /// # Panics
    /// If `root` is not in `live`, a node repeats, or `live` is empty.
    pub fn new(cube_len: usize, root: NodeId, live: &[NodeId]) -> Self {
        assert!(
            !live.is_empty(),
            "collective needs at least one participant"
        );
        let mut nodes = Vec::with_capacity(live.len());
        nodes.push(root);
        nodes.extend(live.iter().copied().filter(|&p| p != root));
        assert_eq!(
            nodes.len(),
            live.len(),
            "root must be one of the participants"
        );
        let mut rank_of = vec![None; cube_len];
        for (r, &p) in nodes.iter().enumerate() {
            assert!(p.index() < cube_len, "participant outside cube");
            assert!(rank_of[p.index()].is_none(), "duplicate participant {p:?}");
            rank_of[p.index()] = Some(r);
        }
        Participants { nodes, rank_of }
    }

    /// The root node (rank 0).
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of participants `P`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (construction requires ≥ 1 participant).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The rank of a node, if it participates.
    pub fn rank(&self, node: NodeId) -> Option<usize> {
        self.rank_of.get(node.index()).copied().flatten()
    }

    /// The physical node of a rank.
    pub fn node(&self, rank: usize) -> NodeId {
        self.nodes[rank]
    }

    /// Participants in rank order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Height of `rank`'s subtree: the root covers the whole range, every
    /// other rank covers `2^(trailing zeros)` ranks.
    fn height(&self, rank: usize) -> u32 {
        if rank == 0 {
            self.len().next_power_of_two().trailing_zeros()
        } else {
            rank.trailing_zeros()
        }
    }

    /// Binomial-tree parent of `rank`: its lowest set bit cleared (`None`
    /// for the root). This orientation makes every subtree a *contiguous*
    /// rank range, so scatter/gather bundles are contiguous slices.
    pub fn parent(&self, rank: usize) -> Option<usize> {
        if rank == 0 {
            None
        } else {
            Some(rank & (rank - 1))
        }
    }

    /// Binomial-tree children of `rank`, ascending: `rank + 2^d` for
    /// `d < height(rank)`, bounded by `P`.
    pub fn children(&self, rank: usize) -> Vec<usize> {
        let p = self.len();
        (0..self.height(rank))
            .map(|d| rank + (1usize << d))
            .filter(|&c| c < p)
            .collect()
    }

    /// The contiguous rank range of `rank`'s subtree (itself included):
    /// `[rank, min(rank + 2^height, P))`.
    pub fn subtree_span(&self, rank: usize) -> std::ops::Range<usize> {
        let p = self.len();
        let end = rank.saturating_add(1usize << self.height(rank)).min(p);
        std::ops::Range {
            start: rank,
            end: end.max(rank + 1),
        }
    }
}

/// Scatters `pieces[r]` to the participant of rank `r`; every participant
/// returns its own piece. Only the root supplies `pieces`.
///
/// Bundles travel down the binomial tree: each node receives the
/// concatenation for its subtree (with a piece-length header encoded by the
/// caller-supplied uniform `piece_len`), keeps the front piece, and forwards
/// contiguous sub-bundles to its children.
pub async fn scatter<K, C>(
    ctx: &mut C,
    parts: &Participants,
    tag: Tag,
    pieces: Option<Vec<Vec<K>>>,
    piece_len: usize,
) -> Vec<K>
where
    K: Clone + Send,
    C: Comm<K>,
{
    let me = ctx.me();
    let rank = parts.rank(me).expect("non-participant called scatter");
    ctx.span_enter((tag.0 >> 32) as u16);
    let my_span = parts.subtree_span(rank);
    let mut bundle: Vec<K> = if rank == 0 {
        let pieces = pieces.expect("root must supply the scatter pieces");
        assert_eq!(pieces.len(), parts.len(), "one piece per participant");
        assert!(
            pieces.iter().all(|p| p.len() == piece_len),
            "scatter requires uniform piece length"
        );
        pieces.into_iter().flatten().collect()
    } else {
        let parent = parts.parent(rank).expect("non-root has a parent");
        ctx.recv(parts.node(parent), tag).await
    };
    assert_eq!(bundle.len(), (my_span.end - my_span.start) * piece_len);
    // forward children's sub-bundles, largest child first (they are
    // contiguous suffixes; peel from the back)
    for child in parts.children(rank).into_iter().rev() {
        let child_span = parts.subtree_span(child);
        let offset = (child_span.start - my_span.start) * piece_len;
        let sub = bundle.split_off(offset);
        ctx.send(parts.node(child), tag, sub);
    }
    ctx.span_exit();
    bundle
}

/// Gathers every participant's piece to the root, which returns
/// `Some(pieces-in-rank-order)`; everyone else returns `None`.
pub async fn gather<K, C>(
    ctx: &mut C,
    parts: &Participants,
    tag: Tag,
    piece: Vec<K>,
    piece_len: usize,
) -> Option<Vec<Vec<K>>>
where
    K: Clone + Send,
    C: Comm<K>,
{
    let me = ctx.me();
    let rank = parts.rank(me).expect("non-participant called gather");
    ctx.span_enter((tag.0 >> 32) as u16);
    assert_eq!(
        piece.len(),
        piece_len,
        "gather requires uniform piece length"
    );
    let my_span = parts.subtree_span(rank);
    let mut bundle = piece;
    bundle.reserve((my_span.end - my_span.start - 1) * piece_len);
    // children report in ascending rank order; their spans are contiguous
    for child in parts.children(rank) {
        let child_span = parts.subtree_span(child);
        let sub = ctx.recv(parts.node(child), tag).await;
        assert_eq!(sub.len(), (child_span.end - child_span.start) * piece_len);
        bundle.extend(sub);
    }
    let result = match parts.parent(rank) {
        Some(parent) => {
            ctx.send(parts.node(parent), tag, bundle);
            None
        }
        None => Some(
            bundle
                .chunks(piece_len.max(1))
                .map(|c| c.to_vec())
                .collect(),
        ),
    };
    ctx.span_exit();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::sim::Engine;
    use crate::topology::Hypercube;

    fn make(n: usize, root: u32, live: &[u32]) -> (Engine, Participants, Vec<Option<Vec<u32>>>) {
        let cube = Hypercube::new(n);
        let live_nodes: Vec<NodeId> = live.iter().copied().map(NodeId::new).collect();
        let parts = Participants::new(cube.len(), NodeId::new(root), &live_nodes);
        let engine = Engine::fault_free(cube, CostModel::paper_form());
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; cube.len()];
        for &p in live {
            inputs[p as usize] = Some(vec![]);
        }
        (engine, parts, inputs)
    }

    #[test]
    fn tree_structure_is_consistent() {
        let parts = Participants::new(16, NodeId::new(3), &[3, 0, 1, 5, 7, 9, 11].map(NodeId::new));
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.rank(NodeId::new(3)), Some(0));
        for r in 1..parts.len() {
            let p = parts.parent(r).unwrap();
            assert!(p < r);
            assert!(parts.children(p).contains(&r), "rank {r} parent {p}");
        }
        // every rank appears in exactly one child list
        let mut seen = vec![false; parts.len()];
        seen[0] = true;
        for r in 0..parts.len() {
            for c in parts.children(r) {
                assert!(!seen[c], "rank {c} has two parents");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // subtree spans are contiguous and nested
        for r in 0..parts.len() {
            let span = parts.subtree_span(r);
            assert!(span.contains(&r));
            for c in parts.children(r) {
                let cs = parts.subtree_span(c);
                assert!(cs.start >= span.start && cs.end <= span.end);
            }
        }
    }

    #[test]
    fn scatter_delivers_each_rank_its_piece() {
        let live = vec![6u32, 0, 1, 3, 4, 7];
        let (engine, parts, inputs) = make(3, 6, &live);
        let parts_ref = &parts;
        let out = engine.run(inputs, async move |ctx, _| {
            let rank = parts_ref.rank(ctx.me()).unwrap();
            let pieces = (rank == 0).then(|| {
                (0..parts_ref.len() as u32)
                    .map(|r| vec![r * 10, r * 10 + 1])
                    .collect::<Vec<_>>()
            });
            let piece = scatter(ctx, parts_ref, Tag::new(6), pieces, 2).await;
            (rank, piece)
        });
        for (_, (rank, piece)) in out.into_results() {
            assert_eq!(piece, vec![rank as u32 * 10, rank as u32 * 10 + 1]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let live = vec![2u32, 0, 5, 7, 6];
        let (engine, parts, inputs) = make(3, 2, &live);
        let parts_ref = &parts;
        let out = engine.run(inputs, async move |ctx, _| {
            let rank = parts_ref.rank(ctx.me()).unwrap() as u32;
            gather(ctx, parts_ref, Tag::new(7), vec![rank, rank + 100], 2).await
        });
        let mut root_result = None;
        for (node, res) in out.into_results() {
            if node == parts.root() {
                root_result = res;
            } else {
                assert!(res.is_none());
            }
        }
        let pieces = root_result.expect("root gathers");
        assert_eq!(pieces.len(), 5);
        for (r, p) in pieces.iter().enumerate() {
            assert_eq!(*p, vec![r as u32, r as u32 + 100]);
        }
    }

    #[test]
    fn gather_inverts_scatter() {
        let live: Vec<u32> = (0..16).collect();
        let (engine, parts, inputs) = make(4, 0, &live);
        let parts_ref = &parts;
        let out = engine.run(inputs, async move |ctx, _| {
            let rank = parts_ref.rank(ctx.me()).unwrap();
            let pieces =
                (rank == 0).then(|| (0..16u32).map(|r| vec![r, r * r]).collect::<Vec<_>>());
            let mine = scatter(ctx, parts_ref, Tag::new(8), pieces.clone(), 2).await;
            gather(ctx, parts_ref, Tag::new(9), mine, 2).await
        });
        let root_pieces = out
            .node(NodeId::new(0))
            .unwrap()
            .result
            .clone()
            .expect("root");
        assert_eq!(
            root_pieces,
            (0..16u32).map(|r| vec![r, r * r]).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "root must be one of the participants")]
    fn root_must_participate() {
        let _ = Participants::new(8, NodeId::new(0), &[NodeId::new(1), NodeId::new(2)]);
    }
}
