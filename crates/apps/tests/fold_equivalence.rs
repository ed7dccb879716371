//! `fold_chunk` (the runtime's route) against the reference route
//! (`decode_chunk`, then `local_reduce` on every unit) for every app that
//! overrides it: on random chunks and params both routes leave the same
//! reduction object, and a chunk that disagrees with its index entry is
//! an `Err` that leaves the object untouched.
//!
//! Objects are compared through their `Debug` text, which spells every
//! `f64` exactly and shows internal state (heap layout, pending sample
//! entries) as well as the result.

use cb_apps::kmeans::{Centroids, KMeansApp};
use cb_apps::knn::{BatchKnnApp, BatchQueries, KnnApp, KnnQuery};
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_apps::points;
use cb_apps::sample::SampleApp;
use cb_apps::selection::{BoxQuery, SelectionApp};
use cb_apps::stats::{encode_readings, StatsApp, StatsQuery};
use cb_apps::wordcount::WordCountApp;
use cb_simnet::DetRng;
use cb_storage::layout::{ChunkId, ChunkMeta, FileId};
use cloudburst_core::api::{reduce_units, DecodeError, GRApp};
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// Consecutive chunks of one file holding `sizes[i]` records each;
/// `fill` writes each chunk's bytes.
fn chunks(
    file: u32,
    sizes: &[usize],
    unit_bytes: usize,
    mut fill: impl FnMut(&mut [u8]),
) -> Vec<(ChunkMeta, Vec<u8>)> {
    let mut offset = 0u64;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut bytes = vec![0u8; n * unit_bytes];
            fill(&mut bytes);
            let meta = ChunkMeta {
                id: ChunkId(i as u32),
                file: FileId(file),
                offset,
                len: bytes.len() as u64,
                units: n as u64,
            };
            offset += meta.len;
            (meta, bytes)
        })
        .collect()
}

/// A coordinate: uniform in [-10, 10), or on a coarse grid so that
/// distances, box edges and nearest centroids tie.
fn coord(rng: &mut DetRng, coarse: bool) -> f32 {
    let x = rng.uniform() * 20.0 - 10.0;
    if coarse {
        x.round() as f32
    } else {
        x as f32
    }
}

/// Point chunks of `dim` coordinates per record.
fn point_chunks(
    rng: &mut DetRng,
    dim: usize,
    file: u32,
    sizes: &[usize],
    coarse: bool,
) -> Vec<(ChunkMeta, Vec<u8>)> {
    chunks(file, sizes, dim * 4, |buf| {
        let flat: Vec<f32> = (0..buf.len() / 4).map(|_| coord(rng, coarse)).collect();
        points::encode_into(&flat, dim, buf);
    })
}

fn point(rng: &mut DetRng, dim: usize, coarse: bool) -> Vec<f32> {
    (0..dim).map(|_| coord(rng, coarse)).collect()
}

fn assert_same<R: Debug>(fast: &R, reference: &R, what: &str) {
    assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{what}");
}

/// Fold `chunks` of `unit_bytes`-byte records both ways, checking after
/// each chunk; then offer the first chunk again, once with a ragged tail
/// (`extra` picks its length) and once with its unit count off by `skew`:
/// both are rejected and the object is unchanged.
fn check<A: GRApp>(
    app: &A,
    params: &A::Params,
    chunks: &[(ChunkMeta, Vec<u8>)],
    unit_bytes: usize,
    extra: usize,
    skew: i64,
) where
    A::RObj: Debug,
{
    let mut fast = app.init(params);
    let mut reference = app.init(params);
    for (meta, bytes) in chunks {
        assert_eq!(
            app.fold_chunk(params, &mut fast, meta, bytes),
            Ok(meta.units)
        );
        reduce_units(app, params, &mut reference, &app.decode_chunk(meta, bytes));
        assert_same(
            &fast,
            &reference,
            "fold_chunk vs decode_chunk + local_reduce",
        );
    }

    let (meta, bytes) = &chunks[0];
    let mut ragged = bytes.clone();
    ragged.resize(bytes.len() + 1 + extra % (unit_bytes - 1), 0);
    let got = app.fold_chunk(params, &mut fast, meta, &ragged);
    assert!(matches!(got, Err(DecodeError::Ragged { .. })), "{got:?}");

    let mut miscounted = *meta;
    miscounted.units = meta.units.saturating_add_signed(skew);
    if miscounted.units == meta.units {
        miscounted.units += 1;
    }
    let got = app.fold_chunk(params, &mut fast, &miscounted, bytes);
    assert_eq!(
        got,
        Err(DecodeError::UnitCount {
            expected: miscounted.units,
            found: meta.units
        })
    );
    assert_same(&fast, &reference, "a rejected chunk folds nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn knn_routes_agree(
        seed in any::<u64>(),
        dim in 1usize..9,
        k in 1usize..12,
        file in 0u32..4,
        sizes in prop::collection::vec(0usize..300, 1..4),
        coarse in any::<bool>(),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let query = KnnQuery { query: point(&mut rng, dim, coarse) };
        let data = point_chunks(&mut rng, dim, file, &sizes, coarse);
        check(&KnnApp::new(dim, k), &query, &data, dim * 4, extra, skew);
    }

    fn batch_knn_routes_agree(
        seed in any::<u64>(),
        dim in 1usize..6,
        k in 1usize..8,
        n_queries in 1usize..4,
        sizes in prop::collection::vec(0usize..200, 1..4),
        coarse in any::<bool>(),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let queries = (0..n_queries).map(|_| point(&mut rng, dim, coarse)).collect();
        let data = point_chunks(&mut rng, dim, 1, &sizes, coarse);
        let app = BatchKnnApp::new(dim, k);
        check(&app, &BatchQueries { queries }, &data, dim * 4, extra, skew);
    }

    fn kmeans_routes_agree(
        seed in any::<u64>(),
        dim in 1usize..9,
        k in 1usize..17,
        sizes in prop::collection::vec(0usize..300, 1..4),
        coarse in any::<bool>(),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let flat = (0..k * dim).map(|_| coord(&mut rng, coarse) as f64).collect();
        let data = point_chunks(&mut rng, dim, 0, &sizes, coarse);
        let params = Centroids::new(dim, flat);
        check(&KMeansApp::new(dim, k), &params, &data, dim * 4, extra, skew);
    }

    fn selection_routes_agree(
        seed in any::<u64>(),
        dim in 1usize..5,
        file in 0u32..4,
        sizes in prop::collection::vec(0usize..300, 1..4),
        coarse in any::<bool>(),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let (a, b) = (point(&mut rng, dim, coarse), point(&mut rng, dim, coarse));
        let lo = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        let data = point_chunks(&mut rng, dim, file, &sizes, coarse);
        let query = BoxQuery::new(lo, hi);
        check(&SelectionApp::new(dim), &query, &data, dim * 4, extra, skew);
    }

    fn sample_routes_agree(
        seed in any::<u64>(),
        dim in 1usize..5,
        k in 1usize..24,
        salt in any::<u64>(),
        file in 0u32..4,
        sizes in prop::collection::vec(0usize..400, 1..4),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let data = point_chunks(&mut rng, dim, file, &sizes, false);
        check(&SampleApp::new(dim, k, salt), &(), &data, dim * 4, extra, skew);
    }

    fn wordcount_routes_agree(
        seed in any::<u64>(),
        vocabulary in 1u64..100,
        sizes in prop::collection::vec(0usize..500, 1..4),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let data = chunks(0, &sizes, 8, |buf| {
            for rec in buf.chunks_exact_mut(8) {
                let w = (rng.uniform() * vocabulary as f64) as u64;
                rec.copy_from_slice(&w.to_le_bytes());
            }
        });
        check(&WordCountApp, &(), &data, 8, extra, skew);
    }

    fn stats_routes_agree(
        seed in any::<u64>(),
        bins in 1usize..20,
        sizes in prop::collection::vec(0usize..500, 1..4),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let data = chunks(0, &sizes, 8, |buf| {
            let readings: Vec<f64> = (0..buf.len() / 8).map(|_| rng.uniform() * 14.0 - 2.0).collect();
            encode_readings(&readings, buf);
        });
        let q = StatsQuery { histogram_lo: 0.0, histogram_hi: 10.0, histogram_bins: bins };
        check(&StatsApp, &q, &data, 8, extra, skew);
    }

    fn pagerank_routes_agree(
        seed in any::<u64>(),
        n_pages in 1u32..60,
        sizes in prop::collection::vec(0usize..500, 1..4),
        extra in 0usize..64,
        skew in -3i64..4,
    ) {
        let mut rng = DetRng::new(seed);
        let page = |rng: &mut DetRng| (rng.uniform() * n_pages as f64) as u32;
        let data = chunks(0, &sizes, 8, |buf| {
            for rec in buf.chunks_exact_mut(8) {
                rec[..4].copy_from_slice(&page(&mut rng).to_le_bytes());
                rec[4..].copy_from_slice(&page(&mut rng).to_le_bytes());
            }
        });
        let degree = (0..n_pages).map(|_| 1 + page(&mut rng)).collect();
        let ranks = (0..n_pages).map(|_| rng.uniform()).collect();
        let params = RankParams::new(Arc::new(ranks), Arc::new(degree));
        check(&PageRankApp::new(n_pages), &params, &data, 8, extra, skew);
    }
}
