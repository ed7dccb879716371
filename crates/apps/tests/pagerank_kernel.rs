//! The share kernel against the per-edge-division kernel it replaced,
//! which lives on here as the oracle: every edge reads `ranks[src]` and
//! `out_degree[src]` and adds their quotient to `robj[dst]`, edges in
//! order. `PageRankApp::fold_chunk` and the reference route
//! (`decode_chunk`, then `local_reduce` per edge) must leave the same robj
//! bit for bit; a chunk naming a page past the graph must fail before any
//! edge is folded, and fail a run's job rather than panic its cluster.

use cb_apps::gen::GraphSpec;
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_apps::scenario::{build_hybrid, HybridOpts};
use cb_simnet::DetRng;
use cb_storage::layout::{ChunkId, ChunkMeta, FileId};
use cloudburst_core::api::{reduce_units, DecodeError, GRApp};
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::{run, RuntimeError};
use proptest::prelude::*;
use std::hint::black_box;
use std::sync::Arc;

/// The robj of `edges` by per-edge division.
fn oracle_fold(ranks: &[f64], out_degree: &[u32], edges: &[(u32, u32)]) -> Vec<f64> {
    let mut robj = vec![0.0; ranks.len()];
    for &(src, dst) in edges {
        robj[dst as usize] += ranks[src as usize] / out_degree[src as usize] as f64;
    }
    robj
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Consecutive chunks of one file holding `sizes[i]` edges of `edges`
/// each, in order.
fn chunks(edges: &[(u32, u32)], sizes: &[usize]) -> Vec<(ChunkMeta, Vec<u8>)> {
    let (mut at, mut offset) = (0, 0u64);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut bytes = Vec::with_capacity(n * 8);
            for (s, d) in &edges[at..at + n] {
                bytes.extend_from_slice(&s.to_le_bytes());
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            at += n;
            let meta = ChunkMeta {
                id: ChunkId(i as u32),
                file: FileId(0),
                offset,
                len: bytes.len() as u64,
                units: n as u64,
            };
            offset += meta.len;
            (meta, bytes)
        })
        .collect()
}

/// A random graph on `n_pages` pages: a `hub` share of the edges leave
/// page 0; the rest leave pages below `n_pages / 2`, so the upper half
/// has out-degree 0. `sizes` splits the edges into chunks.
fn graph(rng: &mut DetRng, n_pages: u32, sizes: &[usize], hub: f64) -> Vec<(u32, u32)> {
    let page = |rng: &mut DetRng, below: u32| (rng.uniform() * below as f64) as u32;
    (0..sizes.iter().sum::<usize>())
        .map(|_| {
            let src = if rng.uniform() < hub {
                0
            } else {
                page(rng, n_pages.div_ceil(2))
            };
            (src, page(rng, n_pages))
        })
        .collect()
}

/// Ranks for the pass: random and unnormalised, so every quotient has
/// its own rounding.
fn ranks(rng: &mut DetRng, n_pages: u32) -> Vec<f64> {
    (0..n_pages).map(|_| rng.uniform()).collect()
}

fn degrees(n_pages: u32, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut d = vec![0u32; n_pages as usize];
    for &(src, _) in edges {
        d[src as usize] += 1;
    }
    d
}

fn params(ranks: &[f64], degree: &[u32]) -> RankParams {
    RankParams::new(Arc::new(ranks.to_vec()), Arc::new(degree.to_vec()))
}

#[test]
fn shares_are_the_per_edge_quotients() {
    let ranks = [0.5, 0.25, 0.125, 0.0, 1.0 / 3.0];
    let degree = [3, 1, 0, 0, 7];
    let p = params(&ranks, &degree);
    for (i, (&r, &d)) in ranks.iter().zip(&degree).enumerate() {
        // Divided at run time, as the kernel does: a constant-folded 0/0
        // may be a NaN of another sign.
        let want = black_box(r) / black_box(d) as f64;
        assert_eq!(p.shares()[i].to_bits(), want.to_bits(), "page {i}");
    }
    assert_eq!(p.shares()[2], f64::INFINITY);
    assert!(p.shares()[3].is_nan());
    assert_eq!(p.ranks(), &ranks);
    assert_eq!(**p.out_degree(), degree);
}

#[test]
#[should_panic(expected = "one rank and one out-degree per page")]
fn params_need_a_degree_per_rank() {
    RankParams::new(Arc::new(vec![0.5, 0.5]), Arc::new(vec![1]));
}

/// A bad source or target is found wherever it sits, named by record and
/// value, and nothing of the chunk is folded.
#[test]
fn a_page_past_the_graph_fails_the_chunk_untouched() {
    const N: u32 = 10;
    let edges: Vec<(u32, u32)> = (0..40).map(|i| (i % N, (i * 7) % N)).collect();
    let app = PageRankApp::new(N);
    let p = RankParams::uniform(Arc::new(degrees(N, &edges)));
    for (at, src_side, value) in [(0, true, N), (17, false, N + 5), (39, true, u32::MAX)] {
        let mut bad = edges.clone();
        if src_side {
            bad[at].0 = value;
        } else {
            bad[at].1 = value;
        }
        let (meta, bytes) = chunks(&bad, &[bad.len()]).remove(0);
        let mut robj = app.init(&p);
        let (meta0, bytes0) = chunks(&edges, &[edges.len()]).remove(0);
        app.fold_chunk(&p, &mut robj, &meta0, &bytes0)
            .expect("good edges");
        let before = robj.clone();
        let got = app.fold_chunk(&p, &mut robj, &meta, &bytes);
        assert_eq!(
            got,
            Err(DecodeError::OutOfRange {
                record: at as u64,
                value: value.into(),
                limit: N.into(),
            })
        );
        assert_eq!(bits(robj.values()), bits(before.values()), "record {at}");
    }
}

/// An in-process run over a chunk with a bad edge loses that chunk, not a
/// cluster: the run ends in `JobsFailed` naming it, and no slave panicked.
#[test]
fn a_bad_edge_fails_the_job_not_the_cluster() {
    let spec = GraphSpec {
        n_pages: 300,
        n_files: 4,
        edges_per_file: 2_000,
        edges_per_chunk: 500,
        seed: 11,
    };
    let layout = spec.layout();
    let victim = layout.chunks[5];
    let file = layout.file(victim.file).name.clone();
    let out_degree = Arc::new(spec.out_degrees(&layout));
    let mut fill = spec.fill();
    let env = build_hybrid(
        layout,
        |c: &ChunkMeta, buf: &mut [u8]| {
            fill(c, buf);
            if c.id == victim.id {
                // Record 42's target.
                buf[42 * 8 + 4..42 * 8 + 8].copy_from_slice(&1_000u32.to_le_bytes());
            }
        },
        HybridOpts {
            frac_local: 0.5,
            local_cores: 2,
            cloud_cores: 2,
            throttle: None,
        },
    )
    .expect("environment");
    let err = run(
        &PageRankApp::new(spec.n_pages),
        &RankParams::uniform(out_degree),
        &env.layout,
        &env.placement,
        &env.deployment,
        &RuntimeConfig::default(),
    )
    .expect_err("a chunk with a bad edge");
    let text = err.to_string();
    assert!(!text.contains("panicked"), "{text}");
    let RuntimeError::JobsFailed {
        dead, last_error, ..
    } = err
    else {
        panic!("expected JobsFailed, got {err:?}");
    };
    assert_eq!(dead, vec![victim.id], "{text}");
    let last = last_error.expect("the failure is named");
    assert!(!last.contains("panicked"), "{last}");
    assert!(
        last.contains(&format!("chunk {} of {file}", victim.id.0)),
        "{last}"
    );
    assert!(
        last.contains("record 42 holds 1000") && last.contains("below 300"),
        "{last}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn fold_chunk_matches_per_edge_division_bit_for_bit(
        seed in any::<u64>(),
        n_pages in 1u32..80,
        sizes in prop::collection::vec(0usize..300, 1..5),
        hub in 0.0f64..0.6,
        wild_degrees in any::<bool>(),
    ) {
        let mut rng = DetRng::new(seed);
        let edges = graph(&mut rng, n_pages, &sizes, hub);
        let ranks = ranks(&mut rng, n_pages);
        // Either the true out-degrees, or arbitrary ones that leave edges
        // from pages of recorded degree 0: no page is special-cased.
        let degree: Vec<u32> = if wild_degrees {
            (0..n_pages).map(|_| (rng.uniform() * 4.0) as u32).collect()
        } else {
            degrees(n_pages, &edges)
        };
        let app = PageRankApp::new(n_pages);
        let p = params(&ranks, &degree);
        let data = chunks(&edges, &sizes);

        let mut folded = app.init(&p);
        let mut reference = app.init(&p);
        for (meta, bytes) in &data {
            prop_assert_eq!(app.fold_chunk(&p, &mut folded, meta, bytes), Ok(meta.units));
            reduce_units(&app, &p, &mut reference, &app.decode_chunk(meta, bytes));
        }
        let want = bits(&oracle_fold(&ranks, &degree, &edges));
        prop_assert!(bits(folded.values()) == want, "fold_chunk differs from the oracle");
        prop_assert!(bits(reference.values()) == want, "the reference route differs from the oracle");
    }
}
