//! Deterministic synthetic dataset generators.
//!
//! The paper's 120 GB datasets (uniform/clustered points for knn and
//! k-means, a 50M-page web graph for pagerank) are not distributable; these
//! generators produce scaled-down datasets with the same *structure* (same
//! file/chunk organization, same record formats, matching statistical
//! profiles). Generation is a pure function of `(spec, chunk id)`, so the
//! fill closure used to materialize stores and the reference implementations
//! reading "the same" data cannot drift apart.

use crate::points;
use cb_simnet::DetRng;
use cb_storage::layout::{ChunkMeta, DatasetLayout};
use cb_storage::organizer::organize_even;

/// Shape of generated point clouds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointMode {
    /// Uniform in `[0, 1)^dim` (the knn workload).
    Uniform,
    /// Gaussian blobs around `centers` well-separated centers (the k-means
    /// workload; `spread` is the blob standard deviation).
    Blobs { centers: usize, spread: f64 },
}

/// A synthetic point dataset.
#[derive(Debug, Clone)]
pub struct PointsSpec {
    pub n_files: usize,
    pub points_per_file: usize,
    pub points_per_chunk: usize,
    pub dim: usize,
    pub seed: u64,
    pub mode: PointMode,
}

impl PointsSpec {
    /// The dataset layout this spec materializes to.
    pub fn layout(&self) -> DatasetLayout {
        let unit = points::unit_bytes(self.dim);
        organize_even(
            self.n_files,
            self.points_per_file as u64 * unit,
            self.points_per_chunk as u64 * unit,
            unit,
        )
        .expect("points spec produces a valid layout")
    }

    /// Generate the points of one chunk (row-major flattened).
    pub fn chunk_points(&self, chunk: &ChunkMeta) -> Vec<f32> {
        let mut rng = DetRng::new(self.seed ^ 0x9E3779B9).fork(chunk.id.0 as u64);
        let n = chunk.units as usize;
        let mut out = Vec::with_capacity(n * self.dim);
        match self.mode {
            PointMode::Uniform => {
                for _ in 0..n * self.dim {
                    out.push(rng.uniform() as f32);
                }
            }
            PointMode::Blobs { centers, spread } => {
                for _ in 0..n {
                    let c = rng.index(centers);
                    let center = Self::blob_center(self.seed, c, self.dim);
                    for coord in &center {
                        out.push((coord + spread * rng.std_normal()) as f32);
                    }
                }
            }
        }
        out
    }

    /// The (deterministic) center of blob `c`.
    pub fn blob_center(seed: u64, c: usize, dim: usize) -> Vec<f64> {
        let mut rng = DetRng::new(seed ^ 0xB10B).fork(c as u64);
        (0..dim).map(|_| rng.uniform() * 10.0).collect()
    }

    /// Fill closure for [`cb_storage::builder::materialize`].
    pub fn fill(&self) -> impl FnMut(&ChunkMeta, &mut [u8]) + '_ {
        move |chunk, buf| {
            let pts = self.chunk_points(chunk);
            points::encode_into(&pts, self.dim, buf);
        }
    }

    /// Every point of the dataset, in chunk order — the reference
    /// implementations' view of "the same data".
    pub fn all_points(&self, layout: &DatasetLayout) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(layout.total_units() as usize);
        for chunk in &layout.chunks {
            let flat = self.chunk_points(chunk);
            for rec in flat.chunks_exact(self.dim) {
                out.push(rec.to_vec());
            }
        }
        out
    }
}

/// A synthetic directed graph in edge-list form (pagerank's workload):
/// units are `(src: u32, dst: u32)` pairs, 8 bytes each. Sources follow a
/// discrete power-law-ish distribution (hubs emit many links), destinations
/// are uniform.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    pub n_pages: u32,
    pub n_files: usize,
    pub edges_per_file: usize,
    pub edges_per_chunk: usize,
    pub seed: u64,
}

impl GraphSpec {
    pub const UNIT_BYTES: u64 = 8;

    pub fn layout(&self) -> DatasetLayout {
        organize_even(
            self.n_files,
            self.edges_per_file as u64 * Self::UNIT_BYTES,
            self.edges_per_chunk as u64 * Self::UNIT_BYTES,
            Self::UNIT_BYTES,
        )
        .expect("graph spec produces a valid layout")
    }

    /// Total edges.
    pub fn n_edges(&self) -> u64 {
        (self.n_files * self.edges_per_file) as u64
    }

    /// Sample a power-law-ish page id: squaring a uniform biases mass
    /// toward low ids, giving a heavy-tailed out-degree profile without a
    /// Zipf sampler's cost.
    fn sample_src(rng: &mut DetRng, n_pages: u32) -> u32 {
        let u = rng.uniform();
        ((u * u) * n_pages as f64) as u32 % n_pages
    }

    /// Generate the edges of one chunk.
    pub fn chunk_edges(&self, chunk: &ChunkMeta) -> Vec<(u32, u32)> {
        let mut rng = DetRng::new(self.seed ^ 0xED6E5).fork(chunk.id.0 as u64);
        (0..chunk.units)
            .map(|_| {
                let src = Self::sample_src(&mut rng, self.n_pages);
                let dst = rng.index(self.n_pages as usize) as u32;
                (src, dst)
            })
            .collect()
    }

    /// Fill closure for materialization.
    pub fn fill(&self) -> impl FnMut(&ChunkMeta, &mut [u8]) + '_ {
        move |chunk, buf| {
            let edges = self.chunk_edges(chunk);
            for (e, rec) in edges.iter().zip(buf.chunks_exact_mut(8)) {
                rec[..4].copy_from_slice(&e.0.to_le_bytes());
                rec[4..].copy_from_slice(&e.1.to_le_bytes());
            }
        }
    }

    /// Every edge, in chunk order (reference view).
    pub fn all_edges(&self, layout: &DatasetLayout) -> Vec<(u32, u32)> {
        layout
            .chunks
            .iter()
            .flat_map(|c| self.chunk_edges(c))
            .collect()
    }

    /// Out-degree of every page (needed by the pagerank params).
    pub fn out_degrees(&self, layout: &DatasetLayout) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_pages as usize];
        for (src, _) in self.all_edges(layout) {
            deg[src as usize] += 1;
        }
        deg
    }
}

/// A synthetic text corpus for wordcount: units are 8-byte word ids drawn
/// from a skewed (power-law-ish) vocabulary.
#[derive(Debug, Clone)]
pub struct WordsSpec {
    pub vocabulary: u64,
    pub n_files: usize,
    pub words_per_file: usize,
    pub words_per_chunk: usize,
    pub seed: u64,
}

impl WordsSpec {
    pub const UNIT_BYTES: u64 = 8;

    pub fn layout(&self) -> DatasetLayout {
        organize_even(
            self.n_files,
            self.words_per_file as u64 * Self::UNIT_BYTES,
            self.words_per_chunk as u64 * Self::UNIT_BYTES,
            Self::UNIT_BYTES,
        )
        .expect("words spec produces a valid layout")
    }

    pub fn chunk_words(&self, chunk: &ChunkMeta) -> Vec<u64> {
        let mut rng = DetRng::new(self.seed ^ 0x30D5).fork(chunk.id.0 as u64);
        (0..chunk.units)
            .map(|_| {
                let u = rng.uniform();
                ((u * u * u) * self.vocabulary as f64) as u64 % self.vocabulary
            })
            .collect()
    }

    pub fn fill(&self) -> impl FnMut(&ChunkMeta, &mut [u8]) + '_ {
        move |chunk, buf| {
            for (w, rec) in self.chunk_words(chunk).iter().zip(buf.chunks_exact_mut(8)) {
                rec.copy_from_slice(&w.to_le_bytes());
            }
        }
    }

    pub fn all_words(&self, layout: &DatasetLayout) -> Vec<u64> {
        layout
            .chunks
            .iter()
            .flat_map(|c| self.chunk_words(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pspec(mode: PointMode) -> PointsSpec {
        PointsSpec {
            n_files: 3,
            points_per_file: 120,
            points_per_chunk: 40,
            dim: 4,
            seed: 77,
            mode,
        }
    }

    #[test]
    fn points_layout_shape() {
        let spec = pspec(PointMode::Uniform);
        let layout = spec.layout();
        assert_eq!(layout.files.len(), 3);
        assert_eq!(layout.n_jobs(), 9);
        assert_eq!(layout.total_units(), 360);
        layout.validate().unwrap();
    }

    #[test]
    fn points_generation_is_deterministic_and_chunk_local() {
        let spec = pspec(PointMode::Uniform);
        let layout = spec.layout();
        let a = spec.chunk_points(&layout.chunks[2]);
        let b = spec.chunk_points(&layout.chunks[2]);
        assert_eq!(a, b);
        let c = spec.chunk_points(&layout.chunks[3]);
        assert_ne!(a, c, "different chunks get different data");
    }

    #[test]
    fn fill_and_all_points_agree() {
        let spec = pspec(PointMode::Blobs {
            centers: 3,
            spread: 0.1,
        });
        let layout = spec.layout();
        // Decode what fill() writes for chunk 0 and compare to all_points.
        let chunk = &layout.chunks[0];
        let mut buf = vec![0u8; chunk.len as usize];
        (spec.fill())(chunk, &mut buf);
        let decoded: Vec<Vec<f32>> = crate::records(chunk, &buf, points::unit_bytes(spec.dim))
            .unwrap()
            .map(points::point)
            .collect();
        let all = spec.all_points(&layout);
        assert_eq!(&all[..decoded.len()], &decoded[..]);
    }

    #[test]
    fn blobs_cluster_around_centers() {
        let spec = pspec(PointMode::Blobs {
            centers: 2,
            spread: 0.01,
        });
        let layout = spec.layout();
        let centers: Vec<Vec<f64>> = (0..2)
            .map(|c| PointsSpec::blob_center(spec.seed, c, spec.dim))
            .collect();
        for p in spec.all_points(&layout) {
            let d = centers
                .iter()
                .map(|c| {
                    let cf: Vec<f32> = c.iter().map(|&x| x as f32).collect();
                    points::dist2(&p, &cf)
                })
                .fold(f64::INFINITY, f64::min);
            assert!(d < 1.0, "point far from every center: d2={d}");
        }
    }

    #[test]
    fn graph_edges_in_range_and_deterministic() {
        let spec = GraphSpec {
            n_pages: 50,
            n_files: 2,
            edges_per_file: 200,
            edges_per_chunk: 50,
            seed: 5,
        };
        let layout = spec.layout();
        assert_eq!(layout.n_jobs(), 8);
        let edges = spec.all_edges(&layout);
        assert_eq!(edges.len() as u64, spec.n_edges());
        assert!(edges.iter().all(|&(s, d)| s < 50 && d < 50));
        assert_eq!(edges, spec.all_edges(&layout));
    }

    #[test]
    fn graph_out_degrees_sum_to_edges() {
        let spec = GraphSpec {
            n_pages: 30,
            n_files: 2,
            edges_per_file: 100,
            edges_per_chunk: 25,
            seed: 9,
        };
        let layout = spec.layout();
        let deg = spec.out_degrees(&layout);
        assert_eq!(deg.iter().map(|&d| d as u64).sum::<u64>(), spec.n_edges());
    }

    #[test]
    fn graph_sources_are_skewed() {
        let spec = GraphSpec {
            n_pages: 1000,
            n_files: 1,
            edges_per_file: 10_000,
            edges_per_chunk: 10_000,
            seed: 13,
        };
        let layout = spec.layout();
        let deg = spec.out_degrees(&layout);
        // Low ids (hubs) should hold far more than their uniform share.
        let low: u64 = deg[..100].iter().map(|&d| d as u64).sum();
        assert!(
            low > 2_000,
            "first 10% of pages should emit >20% of edges, got {low}"
        );
    }

    #[test]
    fn words_skewed_and_in_vocab() {
        let spec = WordsSpec {
            vocabulary: 100,
            n_files: 1,
            words_per_file: 5000,
            words_per_chunk: 1000,
            seed: 3,
        };
        let layout = spec.layout();
        let words = spec.all_words(&layout);
        assert_eq!(words.len(), 5000);
        assert!(words.iter().all(|&w| w < 100));
        let zeros = words.iter().filter(|&&w| w == 0).count();
        assert!(zeros > 100, "word 0 should be very frequent, got {zeros}");
    }
}
