//! Host-side traversal of an RPVO hierarchy (verification and statistics).
//!
//! During simulation, actions reach ghost objects only through message
//! forwarding; the host, however, may walk the structure directly to check
//! invariants — e.g. that every streamed edge landed exactly once, or that
//! ghost state mirrors converged to the root's value.

use amcca_sim::Address;

use super::edge::Edge;
use super::vertex::VertexObj;

/// Collect the addresses of all objects of the logical vertex rooted at
/// `root`, in breadth-first ghost order (root first). `fetch` resolves an
/// address to the object stored there.
pub fn collect_objects<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>>,
) -> Vec<Address> {
    let mut out = vec![root];
    let mut i = 0;
    while i < out.len() {
        let addr = out[i];
        i += 1;
        let obj = fetch(addr).unwrap_or_else(|| panic!("dangling RPVO link to {addr}"));
        out.extend(obj.ready_ghosts());
        assert!(out.len() <= 1_000_000, "RPVO ghost chain implausibly long");
    }
    out
}

/// Collect every edge stored anywhere in the RPVO rooted at `root`.
pub fn collect_edges<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>> + Copy,
) -> Vec<Edge> {
    collect_objects(root, fetch)
        .into_iter()
        .flat_map(|a| fetch(a).unwrap().edges.iter().copied())
        .collect()
}

/// Collect the addresses of *all* roots of the logical vertex whose primary
/// (or any co-equal) root is `root`: the root itself first, then its rhizome
/// peers in link order. Single-root vertices yield just `[root]`.
pub fn collect_roots<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>>,
) -> Vec<Address> {
    let obj = fetch(root).unwrap_or_else(|| panic!("dangling rhizome link to {root}"));
    let mut out = Vec::with_capacity(1 + obj.peers().len());
    out.push(root);
    out.extend_from_slice(obj.peers());
    out
}

/// Collect every object of the *logical* vertex at `root`: all co-equal
/// roots (via rhizome links) and each root's ghost subtree, in root order.
pub fn collect_logical_objects<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>> + Copy,
) -> Vec<Address> {
    collect_roots(root, fetch).into_iter().flat_map(|r| collect_objects(r, fetch)).collect()
}

/// Collect every edge stored anywhere in the logical vertex at `root`,
/// across all rhizome roots and their ghost subtrees.
pub fn collect_logical_edges<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>> + Copy,
) -> Vec<Edge> {
    collect_logical_objects(root, fetch)
        .into_iter()
        .flat_map(|a| fetch(a).unwrap().edges.iter().copied())
        .collect()
}

/// Depth of the RPVO: 1 for a root with no ghosts, 2 if ghosts exist, etc.
pub fn depth<'a, S: 'a>(
    root: Address,
    fetch: impl Fn(Address) -> Option<&'a VertexObj<S>> + Copy,
) -> usize {
    fn rec<'a, S: 'a>(
        a: Address,
        fetch: impl Fn(Address) -> Option<&'a VertexObj<S>> + Copy,
        guard: usize,
    ) -> usize {
        assert!(guard < 10_000, "RPVO depth implausible");
        let obj = fetch(a).expect("dangling RPVO link");
        1 + obj.ready_ghosts().map(|g| rec(g, fetch, guard + 1)).max().unwrap_or(0)
    }
    rec(root, fetch, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Attach `ghosts` to `obj` as successive spills would, `fanout` slots.
    fn spill(obj: &mut VertexObj<u64>, fanout: usize, ghosts: &[Address]) {
        for &g in ghosts {
            let slot = obj.pick_ghost_slot(fanout);
            obj.ghosts[slot].fulfill(g).unwrap();
        }
    }

    fn store() -> (HashMap<Address, VertexObj<u64>>, Address) {
        // root(0) -> ghost(1) -> ghost(2); root also has a second ghost (3).
        let mut m = HashMap::new();
        let a = |i| Address::new(0, i);
        let mut root: VertexObj<u64> = VertexObj::root(7, 0);
        root.edges.push(Edge::new(a(9), 9, 1));
        spill(&mut root, 2, &[a(1), a(3)]);
        let mut g1 = VertexObj::ghost(7, 0);
        g1.edges.push(Edge::new(a(8), 8, 1));
        spill(&mut g1, 2, &[a(2)]);
        let mut g2 = VertexObj::ghost(7, 0);
        g2.edges.push(Edge::new(a(6), 6, 1));
        let g3: VertexObj<u64> = VertexObj::ghost(7, 0);
        m.insert(a(0), root);
        m.insert(a(1), g1);
        m.insert(a(2), g2);
        m.insert(a(3), g3);
        (m, a(0))
    }

    #[test]
    fn collects_all_objects_breadth_first() {
        let (m, root) = store();
        let objs = collect_objects(root, |a| m.get(&a));
        assert_eq!(objs.len(), 4);
        assert_eq!(objs[0], root);
        // BFS order: root's two ghosts before the grand-ghost.
        assert_eq!(objs[1], Address::new(0, 1));
        assert_eq!(objs[2], Address::new(0, 3));
        assert_eq!(objs[3], Address::new(0, 2));
    }

    #[test]
    fn collects_all_edges() {
        let (m, root) = store();
        let mut ids: Vec<u32> =
            collect_edges(root, |a| m.get(&a)).iter().map(|e| e.dst_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![6, 8, 9]);
    }

    #[test]
    fn logical_walk_spans_all_rhizome_roots() {
        // Two co-equal roots, each with its own ghost and edge slice.
        let mut m = HashMap::new();
        let a = |i| Address::new(0, i);
        let mut r0: VertexObj<u64> = VertexObj::root(5, 0);
        r0.set_peers(vec![a(1)].into_boxed_slice());
        r0.edges.push(Edge::new(a(10), 10, 1));
        spill(&mut r0, 1, &[a(2)]);
        let mut r1: VertexObj<u64> = VertexObj::root(5, 0);
        r1.set_peers(vec![a(0)].into_boxed_slice());
        r1.edges.push(Edge::new(a(11), 11, 1));
        let mut g0: VertexObj<u64> = VertexObj::ghost(5, 0);
        g0.edges.push(Edge::new(a(12), 12, 1));
        m.insert(a(0), r0);
        m.insert(a(1), r1);
        m.insert(a(2), g0);
        // From either root, the logical walk covers everything exactly once.
        for start in [a(0), a(1)] {
            let roots = collect_roots(start, |x| m.get(&x));
            assert_eq!(roots.len(), 2);
            assert_eq!(roots[0], start, "queried root first");
            let mut objs = collect_logical_objects(start, |x| m.get(&x));
            objs.sort_unstable_by_key(|x| x.slot);
            assert_eq!(objs, vec![a(0), a(1), a(2)]);
            let mut ids: Vec<u32> =
                collect_logical_edges(start, |x| m.get(&x)).iter().map(|e| e.dst_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![10, 11, 12]);
        }
    }

    #[test]
    fn single_root_logical_walk_equals_plain_walk() {
        let (m, root) = store();
        assert_eq!(collect_roots(root, |a| m.get(&a)), vec![root]);
        assert_eq!(
            collect_logical_objects(root, |a| m.get(&a)),
            collect_objects(root, |a| m.get(&a))
        );
    }

    #[test]
    fn depth_counts_levels() {
        let (m, root) = store();
        assert_eq!(depth(root, |a| m.get(&a)), 3);
        let lone: VertexObj<u64> = VertexObj::root(0, 0);
        let mut m2 = HashMap::new();
        m2.insert(Address::new(1, 1), lone);
        assert_eq!(depth(Address::new(1, 1), |a| m2.get(&a)), 1);
    }
}
