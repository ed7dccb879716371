//! The nearest-centroid kernels against the scalar kernel they replaced,
//! which lives on here as the oracle: one `d += diff * diff` chain per
//! centroid, dimensions in order, compared in centroid order with a strict
//! `<`. `Centroids::nearest` (centroid lanes) must pick the same centroid
//! for every point — ties and NaN included — and `KMeansApp::fold_chunk`
//! (point lanes, eight records per block) must leave the same robj bit for
//! bit, in every compilation of its block body that this CPU can run.

use cb_apps::kmeans::{BlockBody, Centroids, KMeansApp, BLOCK_MAX_DIM};
use cb_apps::points;
use cb_simnet::DetRng;
use cb_storage::layout::{ChunkId, ChunkMeta, FileId};
use cloudburst_core::api::GRApp;
use proptest::prelude::*;

/// Around one tile of eight centroids (1, 7, 8, 9), two full tiles (16,
/// the perfbench shape) and the paper's k (1000, a padded last tile).
const KS: [usize; 6] = [1, 7, 8, 9, 16, 1000];
const DIMS: [usize; 3] = [1, 3, 8];

fn scalar_nearest(flat: &[f64], dim: usize, p: &[f32]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, cent) in flat.chunks_exact(dim).enumerate() {
        let mut d = 0.0;
        for (&x, y) in p.iter().zip(cent) {
            let diff = x as f64 - y;
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// The k-means robj of `pts` (flattened, `dim` per point) by the scalar
/// kernel: per-centroid coordinate sums, then the count.
fn scalar_fold(flat: &[f64], dim: usize, pts: &[f32]) -> Vec<f64> {
    let mut robj = vec![0.0; flat.len() / dim * (dim + 1)];
    for p in pts.chunks_exact(dim) {
        let base = scalar_nearest(flat, dim, p) * (dim + 1);
        for (j, &x) in p.iter().enumerate() {
            robj[base + j] += x as f64;
        }
        robj[base + dim] += 1.0;
    }
    robj
}

/// `k * dim` centroid coordinates: uniform in [-10, 10), or on the
/// integer grid {-1, 0, 1}, where centroids repeat.
fn centroids(rng: &mut DetRng, k: usize, dim: usize, coarse: bool) -> Vec<f64> {
    (0..k * dim)
        .map(|_| {
            if coarse {
                rng.index(3) as f64 - 1.0
            } else {
                rng.uniform() * 20.0 - 10.0
            }
        })
        .collect()
}

/// `n * dim` point coordinates: uniform in [-10, 10), or on the half grid
/// {-1, -0.5, 0, 0.5, 1}, where a point is often equally far from two
/// grid centroids.
fn points(rng: &mut DetRng, n: usize, dim: usize, coarse: bool) -> Vec<f32> {
    (0..n * dim)
        .map(|_| {
            if coarse {
                (rng.index(5) as f32 - 2.0) * 0.5
            } else {
                (rng.uniform() * 20.0 - 10.0) as f32
            }
        })
        .collect()
}

fn chunk(pts: &[f32], dim: usize) -> (ChunkMeta, Vec<u8>) {
    let mut bytes = vec![0u8; pts.len() * 4];
    points::encode_into(pts, dim, &mut bytes);
    let meta = ChunkMeta {
        id: ChunkId(0),
        file: FileId(0),
        offset: 0,
        len: bytes.len() as u64,
        units: (pts.len() / dim) as u64,
    };
    (meta, bytes)
}

#[test]
fn ties_go_to_the_lowest_index() {
    // Centroid c sits at c; centroids 3 and 12 repeat 2 and 11, within a
    // tile and across tiles.
    let mut flat: Vec<f64> = (0..20).map(f64::from).collect();
    flat[3] = 2.0;
    flat[12] = 11.0;
    let params = Centroids::new(1, flat.clone());
    for (p, want) in [
        (2.0, 2),
        (11.0, 11),
        (2.5, 2),   // 2 and 3 both 0.25 away
        (7.5, 7),   // 7 and 8 tie across the tile boundary
        (11.5, 11), // 11 and 12 both 0.25 away
        (-5.0, 0),
    ] {
        assert_eq!(params.nearest([p]), want, "point {p}");
        assert_eq!(scalar_nearest(&flat, 1, &[p]), want, "point {p}");
    }
    let same = Centroids::new(2, vec![1.0; 2 * 1000]);
    assert_eq!(same.nearest([0.0, 5.0]), 0);
}

/// Two 2-d centroids: centroid 1 is as far from the origin as centroid 0
/// when rounded twice, and nearer when fused.
fn fused_tie() -> Vec<f64> {
    let mut rng = DetRng::new(1);
    let (a, b) = (0..10_000)
        .find_map(|_| {
            let a = [rng.uniform(), rng.uniform()];
            let d = a[0] * a[0] + a[1] * a[1];
            let fused = a[1].mul_add(a[1], a[0] * a[0]);
            let b = d.sqrt();
            (b * b == d && fused < d).then_some((a, b))
        })
        .expect("a pair whose fused distance is nearer");
    vec![b, 0.0, a[0], a[1]]
}

/// Each distance rounds after every multiply and every add, as the scalar
/// kernel's did: a fused multiply-add could break a tie that the scalar
/// kernel resolves to the lower index.
#[test]
fn distances_are_not_fused() {
    let flat = fused_tie();
    assert_eq!(scalar_nearest(&flat, 2, &[0.0, 0.0]), 0);
    assert_eq!(Centroids::new(2, flat).nearest([0.0, 0.0]), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn nearest_matches_the_scalar_kernel(
        seed in any::<u64>(),
        n in 1usize..40,
        coarse in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        for k in KS {
            for dim in DIMS {
                let flat = centroids(&mut rng, k, dim, coarse);
                let pts = points(&mut rng, n, dim, coarse);
                let params = Centroids::new(dim, flat.clone());
                for p in pts.chunks_exact(dim) {
                    prop_assert_eq!(
                        params.nearest(p),
                        scalar_nearest(&flat, dim, p),
                        "k {} dim {} point {:?}", k, dim, p
                    );
                }
            }
        }
    }

    fn a_nan_coordinate_goes_to_centroid_zero(
        seed in any::<u64>(),
        at in 0usize..8,
        coarse in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        for k in KS {
            for dim in DIMS {
                let flat = centroids(&mut rng, k, dim, coarse);
                let mut p = points(&mut rng, 1, dim, coarse);
                p[at % dim] = f32::NAN;
                prop_assert_eq!(scalar_nearest(&flat, dim, &p), 0);
                prop_assert_eq!(Centroids::new(dim, flat).nearest(&p), 0);
            }
        }
    }

    fn fold_chunk_matches_a_scalar_fold_bit_for_bit(
        seed in any::<u64>(),
        n in 0usize..200,
        nan_at in 0usize..400,
        coarse in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        for k in KS {
            for dim in DIMS {
                let flat = centroids(&mut rng, k, dim, coarse);
                let mut pts = points(&mut rng, n, dim, coarse);
                if let Some(x) = pts.get_mut(nan_at) {
                    *x = f32::NAN;
                }
                let (meta, bytes) = chunk(&pts, dim);
                let app = KMeansApp::new(dim, k);
                let params = Centroids::new(dim, flat.clone());
                let mut robj = app.init(&params);
                prop_assert_eq!(app.fold_chunk(&params, &mut robj, &meta, &bytes), Ok(n as u64));
                let got: Vec<u64> = robj.values().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    scalar_fold(&flat, dim, &pts).iter().map(|v| v.to_bits()).collect();
                prop_assert!(got == want, "k {} dim {}: robj differs from the scalar fold", k, dim);
            }
        }
    }
}

/// Both sides of the block kernel's stack bound: the widest point it folds
/// in blocks of eight, and the narrowest that goes one point at a time.
const BLOCK_DIMS: [usize; 5] = [1, 3, 8, BLOCK_MAX_DIM, BLOCK_MAX_DIM + 1];

/// Every compilation of the block body that this CPU can run.
fn bodies() -> Vec<BlockBody> {
    [BlockBody::Portable, BlockBody::Avx2]
        .into_iter()
        .filter(|b| b.runs_here())
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The robj of `pts` folded by `fold_chunk_on(body)`, as bit patterns.
fn block_fold(body: BlockBody, flat: &[f64], dim: usize, pts: &[f32]) -> Vec<u64> {
    let (meta, bytes) = chunk(pts, dim);
    let app = KMeansApp::new(dim, flat.len() / dim);
    let params = Centroids::new(dim, flat.to_vec());
    let mut robj = app.init(&params);
    assert_eq!(
        app.fold_chunk_on(body, &params, &mut robj, &meta, &bytes),
        Ok(meta.units)
    );
    bits(robj.values())
}

/// A CPU with AVX2 runs both bodies here, so one host checks both.
#[test]
fn every_body_the_cpu_has_is_checked() {
    let bodies = bodies();
    assert_eq!(bodies[0], BlockBody::Portable);
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        bodies.contains(&BlockBody::Avx2),
        std::arch::is_x86_feature_detected!("avx2")
    );
    assert_eq!(Some(&BlockBody::fastest()), bodies.last());
}

/// Each of `ties_go_to_the_lowest_index`'s tied points, in every lane of
/// three blocks and in a tail of three: no lane may pick the higher index.
#[test]
fn ties_across_lanes_and_blocks_go_to_the_lowest_index() {
    let mut flat: Vec<f64> = (0..20).map(f64::from).collect();
    flat[3] = 2.0;
    flat[12] = 11.0;
    let pts: Vec<f32> = [2.5, 7.5, 11.5, 2.0, 11.0]
        .into_iter()
        .cycle()
        .take(27)
        .collect();
    let want = scalar_fold(&flat, 1, &pts);
    for c in [3, 8, 12] {
        assert_eq!(want[c * 2 + 1], 0.0, "centroid {c} won a tie");
    }
    for body in bodies() {
        assert_eq!(block_fold(body, &flat, 1, &pts), bits(&want), "{body:?}");
    }
}

/// `distances_are_not_fused` for the block kernel: the origin in every
/// lane of a block and in a tail of one goes to centroid 0.
#[test]
fn block_distances_are_not_fused() {
    let flat = fused_tie();
    let pts = [0.0; 2 * 9];
    let want = scalar_fold(&flat, 2, &pts);
    assert_eq!(want[2], 9.0);
    for body in bodies() {
        assert_eq!(block_fold(body, &flat, 2, &pts), bits(&want), "{body:?}");
    }
}

/// A NaN coordinate in each lane position of a block sends that point,
/// and only that point, to centroid 0.
#[test]
fn a_nan_in_any_lane_goes_to_centroid_zero() {
    let mut rng = DetRng::new(5);
    for dim in BLOCK_DIMS {
        let flat = centroids(&mut rng, 16, dim, false);
        for lane in 0..8 {
            // Two blocks and a tail of three; the NaN is in the second block.
            let mut pts = points(&mut rng, 19, dim, false);
            let at = (8 + lane) * dim + lane % dim;
            pts[at] = f32::NAN;
            let want = scalar_fold(&flat, dim, &pts);
            assert!(want[lane % dim].is_nan(), "dim {dim} lane {lane}");
            for body in bodies() {
                assert_eq!(
                    block_fold(body, &flat, dim, &pts),
                    bits(&want),
                    "{body:?} dim {dim} lane {lane}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn every_block_body_matches_a_scalar_fold_bit_for_bit(
        seed in any::<u64>(),
        n in 0usize..40,
        nan_at in 0usize..1600,
        coarse in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        for k in KS {
            for dim in BLOCK_DIMS {
                let flat = centroids(&mut rng, k, dim, coarse);
                let mut pts = points(&mut rng, n, dim, coarse);
                if let Some(x) = pts.get_mut(nan_at) {
                    *x = f32::NAN;
                }
                let want = bits(&scalar_fold(&flat, dim, &pts));
                for body in bodies() {
                    prop_assert!(
                        block_fold(body, &flat, dim, &pts) == want,
                        "{:?} k {} dim {} n {}: robj differs from the scalar fold", body, k, dim, n
                    );
                }
            }
        }
    }
}
