//! Synthetic input generators.
//!
//! The paper's inputs (a GRiN image for `hist`, the rma10 sparse matrix for
//! `spmv`, PARSEC simlarge for `fluidanimate`, Wikipedia-2007 for `pgrank`,
//! cage15 for `bfs`) are proprietary or impractically large for a unit-testable
//! reproduction. These generators produce inputs with the same *structural*
//! properties that determine coherence behaviour: value distribution over
//! histogram bins, non-zeros per column, power-law degree distribution, and
//! grid connectivity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic grayscale "image": a stream of pixel values used by `hist`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Pixel values, already scaled to bin indices in `0..bins`.
    pub pixels: Vec<u32>,
    /// Number of histogram bins the pixel values were scaled to.
    pub bins: u32,
}

impl Image {
    /// Generates a synthetic image of `n` pixels over `bins` bins.
    ///
    /// Pixel values follow a mixture of a uniform background and a few bright
    /// peaks, which is what natural-image histograms look like: most bins get
    /// some traffic, a few get a lot (creating contention on their lines).
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn synthetic(n: usize, bins: u32, seed: u64) -> Self {
        assert!(bins > 0, "need at least one bin");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_peaks = 4usize.min(bins as usize);
        let peaks: Vec<u32> = (0..n_peaks).map(|_| rng.gen_range(0..bins)).collect();
        let pixels = (0..n)
            .map(|_| {
                if rng.gen_bool(0.35) && !peaks.is_empty() {
                    peaks[rng.gen_range(0..peaks.len())]
                } else {
                    rng.gen_range(0..bins)
                }
            })
            .collect();
        Image { pixels, bins }
    }

    /// The reference histogram of this image (what every correct parallel
    /// implementation must produce).
    #[must_use]
    pub fn reference_histogram(&self) -> Vec<u64> {
        let mut h = vec![0u64; self.bins as usize];
        for &p in &self.pixels {
            h[p as usize] += 1;
        }
        h
    }
}

/// A sparse matrix in compressed sparse column (CSC) format, used by `spmv`.
///
/// CSC matrix-vector multiplication scatters additions into the output vector:
/// every non-zero `(row, col)` adds `value * x[col]` to `y[row]`, so rows
/// touched by non-zeros in columns processed by different threads are updated
/// concurrently — the behaviour that makes `spmv` an update-heavy benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Start offset of each column in `row_idx`/`values` (length `cols + 1`).
    pub col_ptr: Vec<usize>,
    /// Row index of each non-zero.
    pub row_idx: Vec<usize>,
    /// Value of each non-zero.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// Generates a synthetic square sparse matrix with roughly `nnz_per_col`
    /// non-zeros per column, with rows drawn from a skewed distribution so
    /// some output rows are heavily shared (as in rma10's dense blocks).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn synthetic(n: usize, nnz_per_col: usize, seed: u64) -> Self {
        assert!(n > 0, "matrix must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for col in 0..n {
            let nnz = 1 + rng.gen_range(0..=nnz_per_col.max(1));
            for _ in 0..nnz {
                // Mix of local band (numerically close rows) and hot rows.
                let row = if rng.gen_bool(0.2) {
                    rng.gen_range(0..n.min(64))
                } else {
                    let lo = col.saturating_sub(8);
                    let hi = (col + 8).min(n - 1);
                    rng.gen_range(lo..=hi)
                };
                row_idx.push(row);
                values.push(rng.gen_range(-1.0..1.0));
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            rows: n,
            cols: n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Reference sequential `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols`.
    #[must_use]
    pub fn spmv_reference(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f64; self.rows];
        for (col, &xval) in x.iter().enumerate() {
            for k in self.col_ptr[col]..self.col_ptr[col + 1] {
                y[self.row_idx[k]] += self.values[k] * xval;
            }
        }
        y
    }
}

/// A directed graph in compressed sparse row form, used by `pgrank` and `bfs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Number of vertices.
    pub vertices: usize,
    /// Start offset of each vertex's out-edges in `edges` (length `vertices + 1`).
    pub offsets: Vec<usize>,
    /// Destination vertex of each edge.
    pub edges: Vec<usize>,
}

impl Graph {
    /// Generates a power-law (R-MAT-like) graph with `vertices` vertices and
    /// about `avg_degree` out-edges per vertex.
    ///
    /// High-degree vertices concentrate updates on a few cache lines, which is
    /// the contention pattern of Wikipedia/pagerank-style graphs.
    ///
    /// The build is two deterministic passes over the same seeded edge
    /// stream — count out-degrees, then place edges straight into CSR
    /// storage — instead of an intermediate Vec-of-Vecs adjacency. That
    /// costs a second generation run but keeps peak memory at a few words
    /// per vertex/edge, which is what makes multi-million-vertex graphs
    /// (the regime the capacity-bounded runtime buffers target) practical
    /// to generate inside a test.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero.
    #[must_use]
    pub fn power_law(vertices: usize, avg_degree: usize, seed: u64) -> Self {
        assert!(vertices > 0, "graph must have vertices");
        let edges_total = vertices * avg_degree.max(1);
        let gen_edge = |rng: &mut StdRng| -> Option<(usize, usize)> {
            let src = rng.gen_range(0..vertices);
            // Destination biased toward low vertex ids (hubs).
            let r: f64 = rng.gen();
            let dst = ((r * r) * vertices as f64) as usize % vertices;
            (src != dst).then_some((src, dst))
        };
        // Pass 1: count each vertex's main-stream out-degree and decide the
        // connectivity fix-ups (an edge v-1 → v when chance or a zero degree
        // demands it, so BFS from vertex 0 reaches most vertices). The
        // fix-up decision for v sees only main-stream degrees, never earlier
        // fix-ups — those land on v-2 and below.
        let mut degree = vec![0u32; vertices];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..edges_total {
            if let Some((src, _)) = gen_edge(&mut rng) {
                degree[src] += 1;
            }
        }
        let mut fixup = vec![false; vertices];
        for v in 1..vertices {
            let forced = rng.gen_bool(0.05);
            fixup[v] = forced || degree[v - 1] == 0;
        }
        // CSR offsets: main degree plus the at-most-one fix-up edge v → v+1.
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for (v, &deg) in degree.iter().enumerate() {
            total += deg as usize + usize::from(v + 1 < vertices && fixup[v + 1]);
            offsets.push(total);
        }
        // Pass 2: replay the identical stream, placing each vertex's edges
        // in generation order followed by its fix-up — the same per-vertex
        // order the Vec-of-Vecs builder produced.
        let mut cursor: Vec<usize> = offsets[..vertices].to_vec();
        let mut edges = vec![0usize; total];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..edges_total {
            if let Some((src, dst)) = gen_edge(&mut rng) {
                edges[cursor[src]] = dst;
                cursor[src] += 1;
            }
        }
        for (v, &fix) in fixup.iter().enumerate().skip(1) {
            if fix {
                edges[cursor[v - 1]] = v;
                cursor[v - 1] += 1;
            }
        }
        Graph {
            vertices,
            offsets,
            edges,
        }
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbours of a vertex.
    #[must_use]
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The set of vertices reachable from `root` (reference BFS result).
    #[must_use]
    pub fn reachable_from(&self, root: usize) -> Vec<bool> {
        let mut visited = vec![false; self.vertices];
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &n in self.neighbours(v) {
                if !visited[n] {
                    visited[n] = true;
                    queue.push_back(n);
                }
            }
        }
        visited
    }
}

/// A 2-D structured grid, used by the `fluidanimate`-like kernel.
///
/// Threads own contiguous row blocks; cells on block boundaries are updated by
/// both the owner and its neighbour (the ghost-cell pattern of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Grid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        Grid { rows, cols }
    }

    /// Number of cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Linear cell index of (row, col).
    #[must_use]
    pub fn index(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// The contiguous row range owned by `thread` out of `threads`.
    #[must_use]
    pub fn rows_for_thread(&self, thread: usize, threads: usize) -> std::ops::Range<usize> {
        let per = self.rows.div_ceil(threads.max(1));
        let start = (thread * per).min(self.rows);
        let end = ((thread + 1) * per).min(self.rows);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_reproducible_and_in_range() {
        let a = Image::synthetic(10_000, 512, 42);
        let b = Image::synthetic(10_000, 512, 42);
        assert_eq!(a, b, "same seed must give the same image");
        assert!(a.pixels.iter().all(|&p| p < 512));
        let c = Image::synthetic(10_000, 512, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn reference_histogram_sums_to_pixel_count() {
        let img = Image::synthetic(5_000, 64, 1);
        let h = img.reference_histogram();
        assert_eq!(h.len(), 64);
        assert_eq!(h.iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn image_is_skewed_toward_peaks() {
        let img = Image::synthetic(100_000, 1024, 7);
        let h = img.reference_histogram();
        let max = *h.iter().max().unwrap();
        let avg = 100_000 / 1024;
        assert!(max > 4 * avg, "expected hot bins (max {max}, avg {avg})");
    }

    #[test]
    fn csc_matrix_is_well_formed() {
        let m = CscMatrix::synthetic(200, 8, 3);
        assert_eq!(m.col_ptr.len(), 201);
        assert_eq!(*m.col_ptr.last().unwrap(), m.nnz());
        assert_eq!(m.row_idx.len(), m.values.len());
        assert!(m.row_idx.iter().all(|&r| r < m.rows));
        assert!(m.col_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.nnz() >= m.cols, "every column has at least one non-zero");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `col` indexes the *inner* vec of `dense`
    fn spmv_reference_matches_dense_computation() {
        let m = CscMatrix::synthetic(50, 4, 9);
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
        let y = m.spmv_reference(&x);
        // Recompute densely.
        let mut dense = vec![vec![0.0f64; 50]; 50];
        for col in 0..50 {
            for k in m.col_ptr[col]..m.col_ptr[col + 1] {
                dense[m.row_idx[k]][col] += m.values[k];
            }
        }
        for r in 0..50 {
            let expect: f64 = (0..50).map(|c| dense[r][c] * x[c]).sum();
            assert!((y[r] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn graph_is_well_formed_and_reproducible() {
        let g = Graph::power_law(500, 8, 11);
        let g2 = Graph::power_law(500, 8, 11);
        assert_eq!(g, g2);
        assert_eq!(g.offsets.len(), 501);
        assert_eq!(*g.offsets.last().unwrap(), g.num_edges());
        assert!(g.edges.iter().all(|&v| v < 500));
    }

    #[test]
    fn graph_has_hubs() {
        let g = Graph::power_law(2_000, 10, 5);
        let mut in_degree = vec![0usize; g.vertices];
        for &dst in &g.edges {
            in_degree[dst] += 1;
        }
        let max_in = *in_degree.iter().max().unwrap();
        assert!(
            max_in > 5 * 10,
            "power-law graph should have high in-degree hubs"
        );
    }

    #[test]
    fn bfs_reaches_most_vertices() {
        let g = Graph::power_law(1_000, 8, 2);
        let visited = g.reachable_from(0);
        let reached = visited.iter().filter(|&&v| v).count();
        assert!(
            reached > 500,
            "BFS from vertex 0 reached only {reached} vertices"
        );
    }

    #[test]
    fn grid_partitioning_covers_all_rows_without_overlap() {
        let g = Grid::new(37, 10);
        let threads = 8;
        let mut covered = [false; 37];
        for t in 0..threads {
            for r in g.rows_for_thread(t, threads) {
                assert!(!covered[r], "row {r} assigned twice");
                covered[r] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(g.cells(), 370);
        assert_eq!(g.index(3, 4), 34);
    }
}
