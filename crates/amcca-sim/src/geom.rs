//! Chip geometry: coordinates, mesh dimensions, directions, and the
//! turn-restricted YX dimension-ordered route function.
//!
//! The AM-CCA chip is a 2-D mesh of Compute Cells (paper Fig. 2). Row 0 is the
//! *north* border (where one IO channel sits); row `y-1` is the *south* border.
//! Routing is YX dimension-ordered: a message first travels vertically until it
//! reaches the destination row, then horizontally (paper §4, citing the Glass &
//! Ni turn model). YX order makes the route minimal, unique, and deadlock-free.

/// A position on the mesh. `x` is the column (0 = west), `y` the row (0 = north).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column index (0 = west border).
    pub x: u16,
    /// Row index (0 = north border).
    pub y: u16,
}

impl Coord {
    /// Create a coordinate / dimension pair.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan (L1) distance — the number of hops of any minimal route.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

/// Mesh dimensions. The paper evaluates a 32 × 32 chip (1024 CCs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Column index (0 = west border).
    pub x: u16,
    /// Row index (0 = north border).
    pub y: u16,
}

impl Dims {
    /// Create a coordinate / dimension pair.
    pub const fn new(x: u16, y: u16) -> Self {
        assert!(x > 0 && y > 0, "mesh dimensions must be non-zero");
        Dims { x, y }
    }

    /// Total number of compute cells on the chip.
    pub fn cell_count(self) -> u32 {
        self.x as u32 * self.y as u32
    }

    /// Row-major cell id of a coordinate.
    pub fn id_of(self, c: Coord) -> u16 {
        debug_assert!(self.contains(c), "coordinate {c:?} out of {self:?}");
        c.y * self.x + c.x
    }

    /// Coordinate of a row-major cell id.
    pub fn coord_of(self, id: u16) -> Coord {
        debug_assert!((id as u32) < self.cell_count(), "cell id {id} out of range");
        Coord { x: id % self.x, y: id / self.x }
    }

    /// Whether the coordinate lies on this mesh.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.x && c.y < self.y
    }

    /// Manhattan distance between two cell ids.
    pub fn distance(self, a: u16, b: u16) -> u32 {
        self.coord_of(a).manhattan(self.coord_of(b))
    }

    /// Iterator over all cell ids.
    pub fn iter_ids(self) -> impl Iterator<Item = u16> {
        (0..self.cell_count()).map(|i| i as u16)
    }

    /// Successor of `id` on the serpentine (boustrophedon) ring that visits
    /// every cell with single-hop steps: even rows run west→east, odd rows
    /// east→west, and the last cell wraps back to cell 0. Used by the token
    /// termination detector so each token move is exactly one mesh hop
    /// (except the final wrap, which rides the west column home).
    pub fn serpentine_next(self, id: u16) -> u16 {
        let c = self.coord_of(id);
        let next = if c.y.is_multiple_of(2) {
            if c.x + 1 < self.x {
                Coord::new(c.x + 1, c.y)
            } else {
                Coord::new(c.x, c.y + 1)
            }
        } else if c.x > 0 {
            Coord::new(c.x - 1, c.y)
        } else {
            Coord::new(c.x, c.y + 1)
        };
        if next.y >= self.y {
            return 0; // wrap: end of the serpentine, ride back to the origin
        }
        self.id_of(next)
    }

    /// All cell ids within Manhattan distance `max_hops` of `origin`,
    /// excluding the origin itself, ordered by (distance, id). This is the
    /// candidate ring used by the Vicinity Allocator (paper Fig. 5a).
    pub fn vicinity(self, origin: u16, max_hops: u32) -> Vec<u16> {
        let o = self.coord_of(origin);
        let mut out: Vec<u16> = Vec::new();
        let lo_y = o.y.saturating_sub(max_hops as u16);
        let hi_y = (o.y as u32 + max_hops).min(self.y as u32 - 1) as u16;
        for y in lo_y..=hi_y {
            let rem = max_hops - (o.y.abs_diff(y)) as u32;
            let lo_x = o.x.saturating_sub(rem as u16);
            let hi_x = (o.x as u32 + rem).min(self.x as u32 - 1) as u16;
            for x in lo_x..=hi_x {
                let c = Coord::new(x, y);
                if c != o {
                    out.push(self.id_of(c));
                }
            }
        }
        out.sort_by_key(|&id| (self.distance(origin, id), id));
        out
    }
}

/// The four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Direction {
    /// Towards row 0.
    North = 0,
    /// Towards row `y − 1`.
    South = 1,
    /// Towards larger column indices.
    East = 2,
    /// Towards column 0.
    West = 3,
}

impl Direction {
    /// All four directions, in index order.
    pub const ALL: [Direction; 4] =
        [Direction::North, Direction::South, Direction::East, Direction::West];

    /// Numeric index (N=0, S=1, E=2, W=3), matching router port order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The reverse direction (the input port a hop in `self` arrives on).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// Where a queued flit leaves its router: a [`Direction`] index (0–3) for a
/// mesh link, [`OUT_EJECT`] for the local task queue, [`OUT_BAD`] for a target
/// that is not a cell of this chip.
pub type OutCode = u8;
/// The flit has arrived: eject into the local task queue.
pub const OUT_EJECT: OutCode = 4;
/// The flit's target cell does not exist; it never moves.
pub const OUT_BAD: OutCode = 5;

// A hop leaving through link `d` arrives on the neighbour's port `d ^ 1`.
const _: () = {
    let mut d = 0;
    while d < 4 {
        assert!(Direction::ALL[d].index() == d && Direction::ALL[d].opposite().index() == d ^ 1);
        d += 1;
    }
};

/// The per-chip routing table: every cell's coordinate, so the route function
/// and the sharded engine's band lookups cost a load instead of a division.
#[derive(Debug)]
pub struct MeshTable {
    coords: Box<[Coord]>,
    /// Cell-id delta of one hop through each mesh link (wrapping).
    hop: [u16; 4],
}

impl MeshTable {
    /// Tabulate `dims.coord_of` for every cell id.
    pub fn new(dims: Dims) -> Self {
        MeshTable {
            coords: dims.iter_ids().map(|id| dims.coord_of(id)).collect(),
            hop: [dims.x.wrapping_neg(), dims.x, 1, 1u16.wrapping_neg()],
        }
    }

    /// Coordinate of a row-major cell id.
    #[inline]
    pub fn coord(&self, id: u16) -> Coord {
        self.coords[id as usize]
    }

    /// The output a flit for cell `target`, queued at `here`, must take under
    /// YX dimension-ordered routing: vertical movement first ("takes vertical
    /// paths first before turning horizontal", §4), then horizontal, then
    /// ejection. This is the chip's only routing rule. Apart from the range
    /// check it is branch-free, because the direction of a random flit is
    /// what a branch predictor cannot guess: the four comparisons become bits
    /// in link-index order, and the lowest set bit is the YX priority.
    #[inline]
    pub fn route(&self, here: Coord, target: u16) -> OutCode {
        let Some(&to) = self.coords.get(target as usize) else { return OUT_BAD };
        let wants = (to.y < here.y) as u32
            | ((to.y > here.y) as u32) << 1
            | ((to.x > here.x) as u32) << 2
            | ((to.x < here.x) as u32) << 3;
        (wants | 1 << OUT_EJECT).trailing_zeros() as OutCode
    }

    /// The cell one hop from `src` through mesh link `out` (0–3). A route
    /// code never leaves the mesh: [`Self::route`] steps towards a coordinate
    /// that is on it.
    #[inline]
    pub fn neighbor(&self, src: u16, out: OutCode) -> u16 {
        let nb = src.wrapping_add(self.hop[out as usize]);
        debug_assert_eq!(self.coord(src).manhattan(self.coord(nb)), 1, "route left the mesh");
        nb
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Reference routing rule (the compare chain [`MeshTable::route`]
    /// replaced): the next hop from `from` towards `to`, `None` on arrival.
    pub(crate) fn yx_route_step(from: Coord, to: Coord) -> Option<Direction> {
        if to.y < from.y {
            Some(Direction::North)
        } else if to.y > from.y {
            Some(Direction::South)
        } else if to.x > from.x {
            Some(Direction::East)
        } else if to.x < from.x {
            Some(Direction::West)
        } else {
            None
        }
    }

    /// Reference neighbour rule: the cell next to `id` in `dir`, if any.
    pub(crate) fn neighbor(dims: Dims, id: u16, dir: Direction) -> Option<u16> {
        let c = dims.coord_of(id);
        let n = match dir {
            Direction::North => Coord::new(c.x, c.y.checked_sub(1)?),
            Direction::South => Coord::new(c.x, c.y + 1),
            Direction::East => Coord::new(c.x + 1, c.y),
            Direction::West => Coord::new(c.x.checked_sub(1)?, c.y),
        };
        dims.contains(n).then(|| dims.id_of(n))
    }

    /// Follow `route` from `a` until it ejects at `b`, returning the links taken.
    fn walk(mesh: &MeshTable, a: u16, b: u16) -> Vec<OutCode> {
        let (mut at, mut path) = (a, Vec::new());
        loop {
            let out = mesh.route(mesh.coord(at), b);
            if out == OUT_EJECT {
                assert_eq!(at, b);
                return path;
            }
            assert!(path.len() < 64, "route must terminate");
            path.push(out);
            at = mesh.neighbor(at, out);
        }
    }

    #[test]
    fn route_matches_the_reference_rule_everywhere() {
        // Non-square, so a row/column mix-up cannot cancel out.
        let dims = Dims::new(7, 5);
        let mesh = MeshTable::new(dims);
        for here in dims.iter_ids() {
            assert_eq!(mesh.coord(here), dims.coord_of(here));
            for target in dims.iter_ids() {
                let out = mesh.route(dims.coord_of(here), target);
                match yx_route_step(dims.coord_of(here), dims.coord_of(target)) {
                    None => assert_eq!(out, OUT_EJECT, "{here} -> {target}"),
                    Some(dir) => {
                        assert_eq!(out as usize, dir.index(), "{here} -> {target}");
                        assert_eq!(Some(mesh.neighbor(here, out)), neighbor(dims, here, dir));
                    }
                }
            }
            assert_eq!(mesh.route(dims.coord_of(here), 35), OUT_BAD);
            assert_eq!(mesh.route(dims.coord_of(here), u16::MAX), OUT_BAD);
        }
    }

    #[test]
    fn id_coord_roundtrip() {
        let d = Dims::new(7, 5);
        for id in d.iter_ids() {
            assert_eq!(d.id_of(d.coord_of(id)), id);
        }
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 2).manhattan(Coord::new(5, 2)), 0);
        assert_eq!(Coord::new(2, 9).manhattan(Coord::new(4, 1)), 10);
    }

    #[test]
    fn neighbors_respect_borders() {
        let d = Dims::new(3, 3);
        let nw = d.id_of(Coord::new(0, 0));
        assert_eq!(neighbor(d, nw, Direction::North), None);
        assert_eq!(neighbor(d, nw, Direction::West), None);
        assert_eq!(neighbor(d, nw, Direction::South), Some(d.id_of(Coord::new(0, 1))));
        assert_eq!(neighbor(d, nw, Direction::East), Some(d.id_of(Coord::new(1, 0))));
        let se = d.id_of(Coord::new(2, 2));
        assert_eq!(neighbor(d, se, Direction::South), None);
        assert_eq!(neighbor(d, se, Direction::East), None);
    }

    #[test]
    fn yx_route_goes_vertical_first() {
        // From (0,0) to (3,2): the first moves must be South until row matches.
        let dims = Dims::new(4, 4);
        let path = walk(&MeshTable::new(dims), 0, dims.id_of(Coord::new(3, 2)));
        let (s, e) = (Direction::South as OutCode, Direction::East as OutCode);
        assert_eq!(path, vec![s, s, e, e, e]);
    }

    #[test]
    fn yx_route_length_is_manhattan() {
        let dims = Dims::new(9, 9);
        let mesh = MeshTable::new(dims);
        for a in dims.iter_ids().step_by(7) {
            for b in dims.iter_ids().step_by(5) {
                assert_eq!(walk(&mesh, a, b).len() as u32, dims.distance(a, b));
            }
        }
    }

    #[test]
    fn yx_route_never_turns_back_to_vertical() {
        // Once moving horizontally, a YX route never moves vertically again:
        // this is exactly the turn restriction that makes it deadlock-free.
        let dims = Dims::new(8, 8);
        let mesh = MeshTable::new(dims);
        for a in dims.iter_ids() {
            for b in dims.iter_ids().step_by(3) {
                let path = walk(&mesh, a, b);
                let turn = path.iter().position(|&d| d >= Direction::East as OutCode);
                let tail = &path[turn.unwrap_or(path.len())..];
                assert!(tail.iter().all(|&d| d >= Direction::East as OutCode), "illegal X→Y turn");
            }
        }
    }

    #[test]
    fn serpentine_visits_every_cell_once() {
        for (w, h) in [(4u16, 4u16), (5, 3), (3, 5), (2, 2)] {
            let d = Dims::new(w, h);
            let mut seen = vec![false; d.cell_count() as usize];
            let mut at = 0u16;
            for _ in 0..d.cell_count() {
                assert!(!seen[at as usize], "revisited cell {at} on {w}x{h}");
                seen[at as usize] = true;
                at = d.serpentine_next(at);
            }
            assert_eq!(at, 0, "ring closes at the initiator");
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn serpentine_steps_are_single_hop() {
        let d = Dims::new(8, 8);
        let mut at = 0u16;
        for _ in 0..d.cell_count() - 1 {
            let nx = d.serpentine_next(at);
            assert_eq!(d.distance(at, nx), 1, "step {at} -> {nx}");
            at = nx;
        }
        // The wrap rides the mesh home; it is the only multi-hop move.
        assert_eq!(d.serpentine_next(at), 0);
    }

    #[test]
    fn vicinity_ring_two_hops() {
        let d = Dims::new(32, 32);
        let origin = d.id_of(Coord::new(16, 16));
        let v = d.vicinity(origin, 2);
        // A full diamond of radius 2 has 12 cells (4 at distance 1, 8 at 2).
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|&c| d.distance(origin, c) <= 2 && c != origin));
        // Sorted by distance first.
        assert!(d.distance(origin, v[0]) == 1 && d.distance(origin, v[11]) == 2);
    }

    #[test]
    fn vicinity_clipped_at_corner() {
        let d = Dims::new(32, 32);
        let corner = d.id_of(Coord::new(0, 0));
        let v = d.vicinity(corner, 2);
        assert_eq!(v.len(), 5); // (1,0),(0,1),(2,0),(1,1),(0,2)
    }
}
