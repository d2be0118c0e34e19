//! CSR graphs and the R-MAT generator used as the LiveJournal substitute.

use dl_engine::DetRng;
use serde::{Deserialize, Serialize};

/// A directed graph in compressed-sparse-row form with edge weights.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    weights: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list (deduplicated, self-loops
    /// dropped, sorted per row).
    pub fn from_edges(vertices: u32, mut edges: Vec<(u32, u32, u32)>) -> Self {
        edges.retain(|&(s, d, _)| s != d && s < vertices && d < vertices);
        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        edges.dedup_by_key(|e| (e.0, e.1));
        let mut offsets = vec![0u64; vertices as usize + 1];
        for &(s, _, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..vertices as usize {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|e| e.1).collect();
        let weights = edges.iter().map(|e| e.2).collect();
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Deterministic R-MAT (Kronecker) generator: `2^scale` vertices and
    /// `edge_factor * 2^scale` directed edges with the canonical
    /// (0.57, 0.19, 0.19, 0.05) partition probabilities — the same skewed,
    /// community-structured degree distribution as social graphs like the
    /// paper's LiveJournal input.
    pub fn rmat(scale: u32, edge_factor: u32, rng: &mut DetRng) -> Self {
        Self::rmat_with_locality(scale, edge_factor, 0.0, rng)
    }

    /// R-MAT with an explicit community-locality knob: with probability
    /// `locality`, an edge's destination is redrawn near its source
    /// (within a 1/64th-of-the-graph window), modelling the strong
    /// community structure a locality-preserving partition of a social
    /// graph exposes. NMP graph frameworks partition exactly to exploit
    /// this — it is what keeps the paper's inter-DIMM traffic a minority
    /// of accesses while still dominating stall time.
    ///
    /// # Panics
    /// Panics if `locality` is outside `[0, 1]`, or if `scale` is 32 or
    /// more (the vertex ids would not fit a `u32`).
    pub fn rmat_with_locality(
        scale: u32,
        edge_factor: u32,
        locality: f64,
        rng: &mut DetRng,
    ) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
        let n = 1u32.checked_shl(scale).unwrap_or_else(|| {
            panic!("R-MAT scale {scale} is too large: 2^{scale} vertices overflow a u32 id")
        });
        let m = (n as u64 * edge_factor as u64) as usize;
        let window = (n as u64 / 64).max(2);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut s, mut d) = (0u32, 0u32);
            for _ in 0..scale {
                let r = rng.unit();
                let (sb, db) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                s = (s << 1) | sb;
                d = (d << 1) | db;
            }
            if locality > 0.0 && rng.chance(locality) {
                // Redraw the destination near the source.
                let lo = (s as u64).saturating_sub(window / 2);
                d = (lo + rng.below(window)).min(n as u64 - 1) as u32;
            }
            let w = 1 + rng.below(63) as u32;
            edges.push((s, d, w));
        }
        Self::from_edges(n, edges)
    }

    /// A uniform random graph (Erdős–Rényi-like) for tests.
    pub fn uniform(vertices: u32, edges: usize, rng: &mut DetRng) -> Self {
        let list = (0..edges)
            .map(|_| {
                (
                    rng.below(vertices as u64) as u32,
                    rng.below(vertices as u64) as u32,
                    1 + rng.below(63) as u32,
                )
            })
            .collect();
        Self::from_edges(vertices, list)
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Offset of `v`'s first edge in the target/weight arrays.
    pub fn row_start(&self, v: u32) -> u64 {
        self.offsets[v as usize]
    }

    /// Neighbors of `v` with weights.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&t, &w)| (t, w))
    }

    /// The vertex with the largest out-degree (the canonical BFS/SSSP root
    /// for skewed graphs; deterministic).
    pub fn max_degree_vertex(&self) -> u32 {
        (0..self.vertices())
            .max_by_key(|&v| self.degree(v))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "R-MAT scale 40 is too large")]
    fn rmat_rejects_scales_beyond_u32_ids() {
        // `1u32 << 40` would wrap to a 256-vertex graph in release builds.
        let _ = CsrGraph::rmat_with_locality(40, 8, 0.85, &mut DetRng::seed(1));
    }

    #[test]
    fn rmat_accepts_scale_zero() {
        let g = CsrGraph::rmat_with_locality(0, 8, 0.85, &mut DetRng::seed(1));
        assert_eq!(g.vertices(), 1);
    }

    #[test]
    fn csr_from_edges_sorts_and_dedups() {
        let g = CsrGraph::from_edges(
            4,
            vec![
                (1, 0, 5),
                (0, 2, 1),
                (0, 1, 2),
                (0, 1, 9),
                (2, 2, 1),
                (3, 9, 1),
            ],
        );
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 3); // dup (0,1), self-loop (2,2), oob (3,9) dropped
        let n: Vec<(u32, u32)> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 2), (2, 1)]);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn rmat_is_skewed_and_deterministic() {
        let mut r1 = DetRng::seed(7);
        let g1 = CsrGraph::rmat(10, 8, &mut r1);
        let mut r2 = DetRng::seed(7);
        let g2 = CsrGraph::rmat(10, 8, &mut r2);
        assert_eq!(g1, g2);
        assert_eq!(g1.vertices(), 1024);
        assert!(g1.edges() > 4000, "dedup removed too much: {}", g1.edges());

        // Degree skew: the max degree should far exceed the mean.
        let mean = g1.edges() as f64 / g1.vertices() as f64;
        let max = g1.degree(g1.max_degree_vertex()) as f64;
        assert!(max > 8.0 * mean, "max {max} vs mean {mean}: not skewed");
    }

    #[test]
    fn uniform_graph_has_requested_shape() {
        let mut rng = DetRng::seed(1);
        let g = CsrGraph::uniform(100, 500, &mut rng);
        assert_eq!(g.vertices(), 100);
        assert!(g.edges() <= 500 && g.edges() > 400);
    }

    #[test]
    fn row_start_is_monotone() {
        let mut rng = DetRng::seed(3);
        let g = CsrGraph::rmat(8, 4, &mut rng);
        let mut prev = 0;
        for v in 0..g.vertices() {
            let s = g.row_start(v);
            assert!(s >= prev);
            prev = s;
        }
        assert_eq!(g.row_start(0), 0);
    }
}
