//! Cross-API equivalence: the baseline MapReduce engine and the generalized
//! reduction API must compute the same answers on the same data — the
//! premise of the paper's Fig. 1 comparison.

use cb_apps::kmeans::{kmeans_reference_pass, next_centroids, Centroids, KMeansApp};
use cb_apps::mr_adapters::{KMeansMR, WordCountMR};
use cb_apps::wordcount::WordCountApp;
use cb_mapreduce::{run_mapreduce, MRConfig};
use cloudburst_core::api::{GRApp, ReductionObject};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Fold words through the GR API (split per split, then merge).
fn gr_wordcount(splits: &[Vec<u64>]) -> BTreeMap<u64, u64> {
    let app = WordCountApp;
    let mut acc = app.init(&());
    for split in splits {
        let mut r = app.init(&());
        for w in split {
            app.local_reduce(&(), &mut r, w);
        }
        acc.merge(r);
    }
    acc.iter().map(|(k, (_, n))| (k, n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wordcount: MR (with and without combiner) == GR == naive count.
    #[test]
    fn wordcount_equivalence(
        splits in prop::collection::vec(
            prop::collection::vec(0u64..100, 0..200),
            1..8
        ),
        mappers in 1usize..5,
        reducers in 1usize..5,
        use_combiner in any::<bool>(),
        flush in 1usize..64,
    ) {
        let mut naive: BTreeMap<u64, u64> = BTreeMap::new();
        for w in splits.iter().flatten() {
            *naive.entry(*w).or_insert(0) += 1;
        }

        let cfg = MRConfig { mappers, reducers, use_combiner, flush_threshold: flush };
        let (out, stats) = run_mapreduce(&WordCountMR, splits.clone(), &cfg);
        let mr: BTreeMap<u64, u64> = out.into_iter().collect();
        prop_assert_eq!(&mr, &naive);

        let gr = gr_wordcount(&splits);
        prop_assert_eq!(&gr, &naive);

        // The combiner may only shrink the shuffle, never grow it.
        prop_assert!(stats.pairs_shuffled <= stats.pairs_emitted);
        let total_words: u64 = splits.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(stats.pairs_emitted, total_words);
    }

    /// One k-means pass: MR == GR == sequential reference, for random
    /// points and random initial centroids.
    #[test]
    fn kmeans_pass_equivalence(
        pts in prop::collection::vec(
            prop::collection::vec(-50.0f32..50.0, 2..3).prop_map(|mut v| { v.truncate(2); v }),
            4..120
        ),
        seedlike in 0u32..1000,
    ) {
        let dim = 2;
        let k = 3;
        // Derive distinct-ish centroids from the seed.
        let s = seedlike as f64;
        let init = Centroids::new(dim, vec![
            s % 10.0 - 5.0, (s * 0.7) % 10.0 - 5.0,
            (s * 1.3) % 40.0 - 20.0, (s * 2.1) % 40.0 - 20.0,
            (s * 3.7) % 90.0 - 45.0, (s * 0.3) % 90.0 - 45.0,
        ]);

        // Reference.
        let expect = kmeans_reference_pass(&pts, &init);

        // GR.
        let app = KMeansApp::new(dim, k);
        let mut robj = app.init(&init);
        for p in &pts {
            app.local_reduce(&init, &mut robj, p);
        }
        let gr_next = next_centroids(&app, &robj, &init);
        for (a, b) in gr_next.flat().iter().zip(expect.flat()) {
            prop_assert!((a - b).abs() < 1e-9, "GR {a} vs ref {b}");
        }

        // MR (with combiner).
        let splits: Vec<Vec<Vec<f32>>> = pts.chunks(7).map(|c| c.to_vec()).collect();
        let job = KMeansMR::new(init.clone());
        let cfg = MRConfig { use_combiner: true, flush_threshold: 3, ..Default::default() };
        let (out, _) = run_mapreduce(&job, splits, &cfg);
        for (c, centroid) in out {
            let e = expect.centroid(c as usize);
            for (a, b) in centroid.iter().zip(e) {
                prop_assert!((a - b).abs() < 1e-9, "MR cluster {c}: {a} vs {b}");
            }
        }
    }

    /// GR result is independent of how the input is split (the contract
    /// that lets the runtime schedule chunks anywhere).
    #[test]
    fn gr_split_invariance(
        words in prop::collection::vec(0u64..50, 0..300),
        pivots in prop::collection::vec(0usize..300, 0..4),
    ) {
        let whole = gr_wordcount(std::slice::from_ref(&words));

        let mut cuts: Vec<usize> = pivots.iter().map(|&p| p.min(words.len())).collect();
        cuts.push(0);
        cuts.push(words.len());
        cuts.sort_unstable();
        let splits: Vec<Vec<u64>> = cuts
            .windows(2)
            .map(|w| words[w[0]..w[1]].to_vec())
            .collect();
        let split_result = gr_wordcount(&splits);
        prop_assert_eq!(whole, split_result);
    }
}

/// Deterministic spot-check with a workload big enough to exercise the
/// combiner's flush path repeatedly.
#[test]
fn combiner_heavy_workload_equivalence() {
    let splits: Vec<Vec<u64>> = (0..16)
        .map(|s| {
            (0..10_000)
                .map(|i| ((i * 31 + s * 7) % 257) as u64)
                .collect()
        })
        .collect();
    let naive = {
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        for w in splits.iter().flatten() {
            *m.entry(*w).or_insert(0) += 1;
        }
        m
    };
    for use_combiner in [false, true] {
        let cfg = MRConfig {
            mappers: 8,
            reducers: 8,
            use_combiner,
            flush_threshold: 512,
        };
        let (out, stats) = run_mapreduce(&WordCountMR, splits.clone(), &cfg);
        let got: BTreeMap<u64, u64> = out.into_iter().collect();
        assert_eq!(got, naive, "combiner={use_combiner}");
        if use_combiner {
            assert!(stats.pairs_shuffled < stats.pairs_emitted / 10);
            assert!(stats.peak_buffered_pairs < 160_000 / 10);
        }
    }
}
