//! Core value types shared across the graph substrate.

/// Identifier of a vertex.
///
/// Vertices are dense integers in `0..vertex_count`, exactly as in the CSR
/// representation used by shared-memory graph frameworks. The type is a plain
/// `u32` alias rather than a newtype because vertex identifiers are used in
/// extremely hot inner loops (billions of accesses per experiment) and index
/// arithmetic on them is pervasive.
pub type VertexId = u32;

/// Edge weight used by weighted applications (SSSP).
pub type EdgeWeight = u32;

/// A directed edge `(src, dst)` with an optional weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight; `1` for unweighted graphs.
    pub weight: EdgeWeight,
}

impl Edge {
    /// Creates an unweighted edge (weight 1).
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Self {
            src,
            dst,
            weight: 1,
        }
    }

    /// Creates a weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: EdgeWeight) -> Self {
        Self { src, dst, weight }
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge::new(src, dst)
    }
}

impl From<(VertexId, VertexId, EdgeWeight)> for Edge {
    fn from((src, dst, weight): (VertexId, VertexId, EdgeWeight)) -> Self {
        Edge::weighted(src, dst, weight)
    }
}

/// Direction of traversal with respect to the stored edges.
///
/// Pull-based computations traverse **in**-edges (a vertex pulls updates from
/// its in-neighbours); push-based computations traverse **out**-edges (a
/// vertex pushes updates to its out-neighbours). See Sec. II-B of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Traverse out-edges (push).
    Out,
    /// Traverse in-edges (pull).
    In,
}

impl Direction {
    /// Returns the opposite direction.
    pub fn reversed(self) -> Self {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Out => write!(f, "out"),
            Direction::In => write!(f, "in"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_constructors() {
        let e = Edge::new(1, 2);
        assert_eq!(e.weight, 1);
        let w = Edge::weighted(1, 2, 9);
        assert_eq!(w.weight, 9);
    }

    #[test]
    fn edge_from_tuples() {
        let e: Edge = (1u32, 2u32).into();
        assert_eq!(e, Edge::new(1, 2));
        let w: Edge = (1u32, 2u32, 4u32).into();
        assert_eq!(w, Edge::weighted(1, 2, 4));
    }

    #[test]
    fn direction_reversed_round_trips() {
        assert_eq!(Direction::Out.reversed(), Direction::In);
        assert_eq!(Direction::In.reversed().reversed(), Direction::In);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Out.to_string(), "out");
        assert_eq!(Direction::In.to_string(), "in");
    }
}
