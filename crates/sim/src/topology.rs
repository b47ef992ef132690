//! The CM-5 data-network fat tree.
//!
//! The CM-5 data network is a 4-ary fat tree (Figure 1 of the paper): nodes
//! are grouped in clusters of four, clusters of four clusters, and so on.
//! Bandwidth *thins* going up: each node sees 20 MB/s inside its cluster of
//! four, 10 MB/s crossing to another cluster within the same group of 16,
//! and a guaranteed 5 MB/s anywhere in the system.
//!
//! We model the tree as a set of capacitated *links*: every group at every
//! level has an **up** link and a **down** link to its parent (full duplex).
//! A message from `a` to `b` climbs up links from `a` to the pair's lowest
//! common ancestor (LCA) and descends down links to `b`. Contention arises
//! when many flows share a link; the flow engine in [`crate::network`]
//! divides link capacity among them.

use crate::params::MachineParams;

/// Fat-tree arity (the CM-5 is 4-ary).
pub const ARITY: usize = 4;

// The tree arithmetic below reads a level-`l` group off the node index as
// `node >> 2l`: two bits per level.
const _: () = assert!(ARITY == 4);

/// Direction of a tree link relative to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// From a group towards its parent.
    Up,
    /// From a parent towards a group.
    Down,
}

/// Identifies one capacitated link: the `dir`-direction connection between
/// group `group` at level `level` and its parent.
///
/// Level 0 groups are single nodes, so `(0, i)` is node `i`'s leaf link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId {
    /// Tree level of the child endpoint (0 = leaf).
    pub level: u32,
    /// Group index at that level (`node / ARITY^level`).
    pub group: usize,
    /// Up (towards root) or down (towards leaves).
    pub dir: LinkDir,
}

/// The fat-tree topology over `n` processing nodes.
#[derive(Debug, Clone)]
pub struct FatTree {
    n: usize,
    /// Number of link levels: smallest `L` with `ARITY^L >= n`.
    levels: u32,
    /// `group_count[l]` = number of groups at level `l` (0 ≤ l < levels).
    group_count: Vec<usize>,
    /// Flattened index offset of level `l`'s links (one direction).
    level_offset: Vec<usize>,
    /// Total links in one direction.
    one_dir_links: usize,
}

impl FatTree {
    /// Build the fat tree for `n` nodes. Panics if `n < 2`.
    pub fn new(n: usize) -> FatTree {
        assert!(n >= 2, "a fat tree needs at least 2 nodes, got {n}");
        let mut levels = 0u32;
        let mut span = 1usize;
        while span < n {
            span = span.saturating_mul(ARITY);
            levels += 1;
        }
        let mut group_count = Vec::with_capacity(levels as usize);
        let mut level_offset = Vec::with_capacity(levels as usize);
        let mut offset = 0usize;
        let mut size = 1usize;
        for _ in 0..levels {
            let groups = n.div_ceil(size);
            group_count.push(groups);
            level_offset.push(offset);
            offset += groups;
            size *= ARITY;
        }
        FatTree {
            n,
            levels,
            group_count,
            level_offset,
            one_dir_links: offset,
        }
    }

    /// Number of processing nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of link levels (the root sits at this level).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total number of capacitated links (both directions).
    #[inline]
    pub fn link_count(&self) -> usize {
        self.one_dir_links * 2
    }

    /// Number of groups at `level` (0 ≤ level < [`FatTree::levels`]).
    #[inline]
    pub fn groups_at(&self, level: u32) -> usize {
        self.group_count[level as usize]
    }

    /// Group index of `node` at `level` (level 0 = the node itself):
    /// `node / ARITY^level`, two index bits per level.
    #[inline]
    pub fn group_of(&self, node: usize, level: u32) -> usize {
        node >> (2 * level)
    }

    /// The nodes of group `group` at `level` that are actually present
    /// (the last group of a level may be partial when `n` is not a power of
    /// the arity; a group past the last node is empty).
    #[inline]
    pub fn group_range(&self, level: u32, group: usize) -> std::ops::Range<usize> {
        let start = (group << (2 * level)).min(self.n);
        let end = ((group + 1) << (2 * level)).min(self.n);
        start..end
    }

    /// Number of nodes actually present in group `group` at `level`.
    #[inline]
    pub fn group_size(&self, level: u32, group: usize) -> usize {
        self.group_range(level, group).len()
    }

    /// The level of the lowest common ancestor of two distinct nodes:
    /// the smallest `l ≥ 1` with `group_of(a, l) == group_of(b, l)`, i.e.
    /// half the bit length of `a ^ b`, rounded up.
    ///
    /// Level 1 means "same cluster of four"; [`FatTree::levels`] means the
    /// message crosses the root of the tree.
    #[inline]
    pub fn lca_level(&self, a: usize, b: usize) -> u32 {
        assert!(a != b, "lca_level of a node with itself is undefined");
        assert!(a < self.n && b < self.n, "node out of range");
        let bits = usize::BITS - (a ^ b).leading_zeros();
        bits.div_ceil(2).max(1)
    }

    /// Whether a message between `a` and `b` crosses the root of the tree
    /// (the paper's "global exchange").
    #[inline]
    pub fn crosses_root(&self, a: usize, b: usize) -> bool {
        self.lca_level(a, b) == self.levels
    }

    /// Dense index of a link, for per-link state arrays.
    #[inline]
    pub fn link_index(&self, link: LinkId) -> usize {
        let base = self.level_offset[link.level as usize] + link.group;
        match link.dir {
            LinkDir::Up => base,
            LinkDir::Down => self.one_dir_links + base,
        }
    }

    /// Inverse of [`FatTree::link_index`].
    pub fn link_from_index(&self, mut idx: usize) -> LinkId {
        let dir = if idx < self.one_dir_links {
            LinkDir::Up
        } else {
            idx -= self.one_dir_links;
            LinkDir::Down
        };
        // Find the level whose offset range contains idx.
        let mut level = self.level_offset.len() - 1;
        while self.level_offset[level] > idx {
            level -= 1;
        }
        LinkId {
            level: level as u32,
            group: idx - self.level_offset[level],
            dir,
        }
    }

    /// Capacity of a link in bytes/second under `params`.
    ///
    /// A level-`l` link aggregates the traffic of a whole group, so its
    /// capacity is `group_size × per-node share at that crossing`:
    /// leaf links get the full injection bandwidth, level-1 up links get the
    /// 10 MB/s-per-node share, and everything above gets the 5 MB/s floor.
    pub fn link_capacity(&self, link: LinkId, params: &MachineParams) -> f64 {
        let per_node = match link.level {
            0 => params.leaf_bandwidth,
            1 => params.level1_bandwidth,
            _ => params.upper_bandwidth,
        };
        self.group_size(link.level, link.group) as f64 * per_node
    }

    /// The ordered list of link indices a flow from `src` to `dst` occupies:
    /// up links from `src` to the LCA, then down links to `dst`.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let lca = self.lca_level(src, dst);
        let mut links = Vec::with_capacity(2 * lca as usize);
        for l in 0..lca {
            links.push(self.link_index(LinkId {
                level: l,
                group: self.group_of(src, l),
                dir: LinkDir::Up,
            }));
        }
        for l in (0..lca).rev() {
            links.push(self.link_index(LinkId {
                level: l,
                group: self.group_of(dst, l),
                dir: LinkDir::Down,
            }));
        }
        links
    }

    /// Allocation-free routing for the flow engine's route arena: writes the
    /// same links [`FatTree::route`] produces into `out` and returns the
    /// number of links written. `out` must hold at least `2 × levels`
    /// entries. Link indices are computed arithmetically — up links are
    /// `level_offset[l] + group`, down links the same plus `one_dir_links`
    /// — so no per-pair table is needed.
    pub fn route_into(&self, src: usize, dst: usize, out: &mut [u32]) -> usize {
        let lca = self.lca_level(src, dst);
        let mut k = 0usize;
        let mut g = src;
        for l in 0..lca as usize {
            out[k] = (self.level_offset[l] + g) as u32;
            k += 1;
            g /= ARITY;
        }
        for l in (0..lca).rev() {
            let group = self.group_of(dst, l);
            out[k] = (self.one_dir_links + self.level_offset[l as usize] + group) as u32;
            k += 1;
        }
        k
    }
}

/// A binary hypercube topology with dimension-ordered (e-cube) routing —
/// the architecture PEX/REX were designed for (Intel iPSC, nCUBE), kept
/// here as the counterfactual to the CM-5's fat tree: XOR-permutation
/// traffic is congestion-free on a hypercube, so BEX's balancing buys
/// nothing and the paper's fat-tree results invert.
#[derive(Debug, Clone)]
pub struct Hypercube {
    n: usize,
    dims: u32,
}

impl Hypercube {
    /// Build a hypercube over `n` nodes (`n` a power of two ≥ 2).
    pub fn new(n: usize) -> Hypercube {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "hypercube needs a power-of-two node count, got {n}"
        );
        Hypercube {
            n,
            dims: n.trailing_zeros(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Number of dimensions (lg n).
    #[inline]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Directed links: one per (node, dimension), carrying traffic from
    /// `node` to `node ^ (1 << dim)`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.n * self.dims as usize
    }

    /// Index of the directed link out of `node` along `dim`.
    #[inline]
    pub fn link_index(&self, node: usize, dim: u32) -> usize {
        node * self.dims as usize + dim as usize
    }

    /// Dimension a link index belongs to.
    #[inline]
    pub fn link_dim(&self, idx: usize) -> u32 {
        (idx % self.dims as usize) as u32
    }

    /// E-cube route: fix differing dimensions in ascending order.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        assert!(src != dst && src < self.n && dst < self.n);
        let mut links = Vec::with_capacity((src ^ dst).count_ones() as usize);
        let mut cur = src;
        for d in 0..self.dims {
            if (src ^ dst) & (1 << d) != 0 {
                links.push(self.link_index(cur, d));
                cur ^= 1 << d;
            }
        }
        debug_assert_eq!(cur, dst);
        links
    }

    /// Allocation-free variant of [`Hypercube::route`]: writes the e-cube
    /// links into `out` (which must hold at least `dims` entries) and
    /// returns the number written.
    pub fn route_into(&self, src: usize, dst: usize, out: &mut [u32]) -> usize {
        assert!(src != dst && src < self.n && dst < self.n);
        let mut k = 0usize;
        let mut cur = src;
        for d in 0..self.dims {
            if (src ^ dst) & (1 << d) != 0 {
                out[k] = self.link_index(cur, d) as u32;
                k += 1;
                cur ^= 1 << d;
            }
        }
        debug_assert_eq!(cur, dst);
        k
    }
}

/// A network topology: the CM-5 fat tree, or the hypercube counterfactual.
/// The flow engine and the packet model run over either.
#[derive(Debug, Clone)]
pub enum Topology {
    /// The CM-5's 4-ary fat tree.
    FatTree(FatTree),
    /// A binary hypercube with e-cube routing.
    Hypercube(Hypercube),
}

impl Topology {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        match self {
            Topology::FatTree(t) => t.nodes(),
            Topology::Hypercube(h) => h.nodes(),
        }
    }

    /// Number of capacitated links.
    pub fn link_count(&self) -> usize {
        match self {
            Topology::FatTree(t) => t.link_count(),
            Topology::Hypercube(h) => h.link_count(),
        }
    }

    /// Link indices a `src → dst` flow occupies.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        match self {
            Topology::FatTree(t) => t.route(src, dst),
            Topology::Hypercube(h) => h.route(src, dst),
        }
    }

    /// Static capacity of every link, bytes/second. Hypercube links carry
    /// the full per-port hardware bandwidth (`leaf_bandwidth`); there is no
    /// thinning — that is the whole point of the comparison.
    pub fn link_capacities(&self, params: &MachineParams) -> Vec<f64> {
        match self {
            Topology::FatTree(t) => (0..t.link_count())
                .map(|i| t.link_capacity(t.link_from_index(i), params))
                .collect(),
            Topology::Hypercube(h) => vec![params.leaf_bandwidth; h.link_count()],
        }
    }

    /// Aggregation level of a link for per-level byte accounting:
    /// fat-tree level, or hypercube dimension.
    pub fn link_level(&self, idx: usize) -> usize {
        match self {
            Topology::FatTree(t) => t.link_from_index(idx).level as usize,
            Topology::Hypercube(h) => h.link_dim(idx) as usize,
        }
    }

    /// Number of aggregation levels.
    pub fn num_levels(&self) -> usize {
        match self {
            Topology::FatTree(t) => t.levels() as usize,
            Topology::Hypercube(h) => h.dims() as usize,
        }
    }

    /// Upper bound on the number of links any route can occupy — the
    /// fixed stride of the flow engine's route arena. Fat-tree routes climb
    /// at most `levels` up links and descend as many down links; hypercube
    /// e-cube routes fix at most `dims` dimensions.
    pub fn max_route_len(&self) -> usize {
        match self {
            Topology::FatTree(t) => 2 * t.levels() as usize,
            Topology::Hypercube(h) => h.dims() as usize,
        }
    }

    /// Whether a message crosses the costliest cut (fat-tree root; the
    /// top hypercube dimension).
    pub fn crosses_root(&self, a: usize, b: usize) -> bool {
        match self {
            Topology::FatTree(t) => t.crosses_root(a, b),
            Topology::Hypercube(h) => (a ^ b) & (h.nodes() >> 1) != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_counts() {
        assert_eq!(FatTree::new(4).levels(), 1);
        assert_eq!(FatTree::new(8).levels(), 2);
        assert_eq!(FatTree::new(16).levels(), 2);
        assert_eq!(FatTree::new(32).levels(), 3);
        assert_eq!(FatTree::new(64).levels(), 3);
        assert_eq!(FatTree::new(256).levels(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn rejects_single_node() {
        FatTree::new(1);
    }

    #[test]
    fn lca_levels_8_nodes() {
        let t = FatTree::new(8);
        assert_eq!(t.lca_level(0, 1), 1); // same cluster of 4
        assert_eq!(t.lca_level(0, 3), 1);
        assert_eq!(t.lca_level(0, 4), 2); // across the root
        assert_eq!(t.lca_level(3, 7), 2);
        assert!(t.crosses_root(0, 4));
        assert!(!t.crosses_root(0, 3));
    }

    #[test]
    fn lca_levels_32_nodes() {
        let t = FatTree::new(32);
        assert_eq!(t.lca_level(0, 3), 1);
        assert_eq!(t.lca_level(0, 5), 2); // within same 16
        assert_eq!(t.lca_level(0, 15), 2);
        assert_eq!(t.lca_level(0, 16), 3); // crosses root
        assert!(t.crosses_root(0, 16));
        assert!(!t.crosses_root(0, 15));
    }

    /// The division loop `lca_level` replaced: climb until the groups meet.
    fn lca_by_division(a: usize, b: usize) -> u32 {
        let mut l = 1u32;
        let (mut ga, mut gb) = (a / ARITY, b / ARITY);
        while ga != gb {
            ga /= ARITY;
            gb /= ARITY;
            l += 1;
        }
        l
    }

    #[test]
    fn lca_level_matches_the_division_loop() {
        // Every pair on powers of two and of four, and on sizes that are
        // neither (partial groups at every level).
        for n in [
            2usize, 3, 4, 5, 7, 8, 13, 16, 31, 48, 64, 100, 128, 255, 256,
        ] {
            let t = FatTree::new(n);
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    assert_eq!(t.lca_level(a, b), lca_by_division(a, b), "n={n} {a}<->{b}");
                    for l in 0..=t.levels() {
                        assert_eq!(t.group_of(a, l), a / ARITY.pow(l));
                    }
                }
            }
        }
        // Sampled pairs on the largest machine the simulator runs.
        let n = 16384;
        let t = FatTree::new(n);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = ((x % n as u64) as usize, ((x >> 32) % n as u64) as usize);
            if a != b {
                assert_eq!(t.lca_level(a, b), lca_by_division(a, b), "{a}<->{b}");
            }
        }
    }

    #[test]
    fn group_ranges_cover_the_nodes() {
        for n in [2usize, 5, 8, 13, 64, 100] {
            let t = FatTree::new(n);
            for l in 0..t.levels() {
                let mut next = 0;
                for g in 0..t.groups_at(l) {
                    let r = t.group_range(l, g);
                    assert_eq!(r.start, next, "n={n} level {l} group {g}");
                    assert!(r.len() <= ARITY.pow(l) && !r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(t.group_range(l, t.groups_at(l)).is_empty());
            }
        }
    }

    #[test]
    fn group_sizes_partial_tree() {
        // 8 nodes, level 2 has one (partial) group of 8 out of a span of 16.
        let t = FatTree::new(8);
        assert_eq!(t.group_size(0, 3), 1);
        assert_eq!(t.group_size(1, 0), 4);
        assert_eq!(t.group_size(1, 1), 4);
        assert_eq!(t.group_size(2, 0), 8);
    }

    #[test]
    fn link_index_roundtrip() {
        let t = FatTree::new(32);
        for idx in 0..t.link_count() {
            let link = t.link_from_index(idx);
            assert_eq!(t.link_index(link), idx, "roundtrip failed for {idx}");
        }
    }

    #[test]
    fn route_shape() {
        let t = FatTree::new(8);
        // Neighbours in a cluster: up leaf, down leaf.
        let r = t.route(0, 1);
        assert_eq!(r.len(), 2);
        // Across the root of an 8-node machine: 2 up + 2 down.
        let r = t.route(0, 4);
        assert_eq!(r.len(), 4);
        // Routes never repeat a link.
        let mut sorted = r.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), r.len());
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let t = FatTree::new(64);
        for (a, b) in [(0, 1), (0, 5), (0, 17), (3, 60)] {
            assert_eq!(t.route(a, b).len(), t.route(b, a).len());
        }
    }

    #[test]
    fn hypercube_routes_have_hamming_length() {
        let h = Hypercube::new(16);
        for a in 0..16usize {
            for b in 0..16usize {
                if a != b {
                    let r = h.route(a, b);
                    assert_eq!(r.len(), (a ^ b).count_ones() as usize);
                    // No repeated links.
                    let mut s = r.clone();
                    s.sort_unstable();
                    s.dedup();
                    assert_eq!(s.len(), r.len());
                }
            }
        }
    }

    /// The classic result the ablation rests on: an XOR permutation
    /// (`x → x ^ j`) under e-cube routing uses every directed link at most
    /// once — zero contention.
    #[test]
    fn xor_permutations_are_congestion_free_on_hypercube() {
        let n = 32;
        let h = Hypercube::new(n);
        for j in 1..n {
            let mut used = vec![false; h.link_count()];
            for x in 0..n {
                for l in h.route(x, x ^ j) {
                    assert!(!used[l], "j={j}: link {l} used twice");
                    used[l] = true;
                }
            }
        }
    }

    #[test]
    fn topology_enum_delegates_consistently() {
        let p = MachineParams::cm5_1992();
        for topo in [
            Topology::FatTree(FatTree::new(16)),
            Topology::Hypercube(Hypercube::new(16)),
        ] {
            assert_eq!(topo.nodes(), 16);
            let caps = topo.link_capacities(&p);
            assert_eq!(caps.len(), topo.link_count());
            assert!(caps.iter().all(|&c| c > 0.0));
            for idx in 0..topo.link_count() {
                assert!(topo.link_level(idx) < topo.num_levels());
            }
            let r = topo.route(0, 15);
            assert!(!r.is_empty());
            assert!(r.iter().all(|&l| l < topo.link_count()));
        }
    }

    #[test]
    fn hypercube_root_crossing_is_top_dimension() {
        let topo = Topology::Hypercube(Hypercube::new(8));
        assert!(topo.crosses_root(0, 4));
        assert!(topo.crosses_root(3, 7));
        assert!(!topo.crosses_root(0, 3));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power_of_two() {
        Hypercube::new(6);
    }

    /// `route_into` is the arena-writing twin of `route`; they must agree
    /// link-for-link on every pair. The stride bound must hold for every
    /// route.
    #[test]
    fn route_into_matches_route() {
        for n in [8usize, 13, 32, 64, 256] {
            let t = FatTree::new(n);
            let stride = Topology::FatTree(t.clone()).max_route_len();
            let mut buf = vec![0u32; stride];
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let len = t.route_into(src, dst, &mut buf);
                    let expect = t.route(src, dst);
                    assert!(len <= stride, "stride bound violated");
                    let got: Vec<usize> = buf[..len].iter().map(|&l| l as usize).collect();
                    assert_eq!(got, expect, "fat tree n={n} {src}->{dst}");
                }
            }
        }
        let h = Hypercube::new(32);
        let stride = Topology::Hypercube(h.clone()).max_route_len();
        let mut buf = vec![0u32; stride];
        for src in 0..32usize {
            for dst in 0..32usize {
                if src == dst {
                    continue;
                }
                let len = h.route_into(src, dst, &mut buf);
                let expect = h.route(src, dst);
                assert!(len <= stride, "stride bound violated");
                let got: Vec<usize> = buf[..len].iter().map(|&l| l as usize).collect();
                assert_eq!(got, expect, "hypercube {src}->{dst}");
            }
        }
    }

    #[test]
    fn capacities_match_published_figures() {
        let t = FatTree::new(32);
        let p = MachineParams::cm5_1992();
        // Leaf link: 20 MB/s.
        let leaf = LinkId {
            level: 0,
            group: 0,
            dir: LinkDir::Up,
        };
        assert_eq!(t.link_capacity(leaf, &p), 20.0e6);
        // Cluster-of-4 up link: 4 × 10 MB/s.
        let l1 = LinkId {
            level: 1,
            group: 0,
            dir: LinkDir::Up,
        };
        assert_eq!(t.link_capacity(l1, &p), 40.0e6);
        // 16-group up link: 16 × 5 MB/s.
        let l2 = LinkId {
            level: 2,
            group: 0,
            dir: LinkDir::Up,
        };
        assert_eq!(t.link_capacity(l2, &p), 80.0e6);
    }
}
