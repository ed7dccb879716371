//! The same workloads expressed on the baseline MapReduce API — the other
//! half of the paper's Fig. 1 comparison. Tests assert both programming
//! models compute identical results; the API-comparison benchmark measures
//! their intermediate-memory and shuffle-volume difference.

use crate::kmeans::Centroids;
use cb_mapreduce::MapReduce;

/// Word count on MapReduce: `map` emits `(word, 1)`, the combiner and the
/// reducer both sum.
#[derive(Debug, Clone, Default)]
pub struct WordCountMR;

impl MapReduce for WordCountMR {
    type Input = Vec<u64>;
    type Key = u64;
    type Value = u64;
    type Output = (u64, u64);

    fn map(&self, input: &Vec<u64>, emit: &mut dyn FnMut(u64, u64)) {
        for &w in input {
            emit(w, 1);
        }
    }

    fn reduce(&self, key: &u64, values: Vec<u64>) -> (u64, u64) {
        (*key, values.into_iter().sum())
    }

    fn combine(&self, _key: &u64, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
}

/// One k-means pass on MapReduce: `map` assigns each point to its nearest
/// centroid and emits `(cluster, (coordinate sums, count))`; the combiner
/// merges partial sums; `reduce` outputs the new centroid.
///
/// Unlike the GR version, the centroids ride inside the job (MapReduce has
/// no separate broadcast-params channel).
#[derive(Debug, Clone)]
pub struct KMeansMR {
    pub centroids: Centroids,
}

impl KMeansMR {
    pub fn new(centroids: Centroids) -> Self {
        KMeansMR { centroids }
    }
}

impl MapReduce for KMeansMR {
    /// One split: a vector of points.
    type Input = Vec<Vec<f32>>;
    type Key = u32;
    /// Partial `(coordinate sums, count)`.
    type Value = (Vec<f64>, u64);
    /// `(cluster, new centroid)`.
    type Output = (u32, Vec<f64>);

    fn map(&self, input: &Vec<Vec<f32>>, emit: &mut dyn FnMut(u32, (Vec<f64>, u64))) {
        for p in input {
            let c = self.centroids.nearest(p) as u32;
            emit(c, (p.iter().map(|&x| x as f64).collect(), 1));
        }
    }

    fn reduce(&self, key: &u32, values: Vec<(Vec<f64>, u64)>) -> (u32, Vec<f64>) {
        let (sums, count) = merge_partials(self.centroids.dim(), values);
        let centroid = if count > 0 {
            sums.iter().map(|s| s / count as f64).collect()
        } else {
            self.centroids.centroid(*key as usize).to_vec()
        };
        (*key, centroid)
    }

    fn combine(&self, _key: &u32, values: Vec<(Vec<f64>, u64)>) -> Vec<(Vec<f64>, u64)> {
        vec![merge_partials(self.centroids.dim(), values)]
    }
}

fn merge_partials(dim: usize, values: Vec<(Vec<f64>, u64)>) -> (Vec<f64>, u64) {
    let mut sums = vec![0.0; dim];
    let mut count = 0u64;
    for (s, c) in values {
        for (acc, x) in sums.iter_mut().zip(s) {
            *acc += x;
        }
        count += c;
    }
    (sums, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans_reference_pass, Centroids};
    use crate::wordcount::wordcount_reference;
    use cb_mapreduce::{run_mapreduce, MRConfig};

    #[test]
    fn wordcount_mr_matches_reference() {
        let splits = vec![vec![1u64, 2, 2, 3], vec![3, 3, 3, 4], vec![1]];
        let all: Vec<u64> = splits.iter().flatten().copied().collect();
        let expect = wordcount_reference(&all);
        for use_combiner in [false, true] {
            let cfg = MRConfig {
                use_combiner,
                flush_threshold: 2,
                ..Default::default()
            };
            let (out, _) = run_mapreduce(&WordCountMR, splits.clone(), &cfg);
            let got: std::collections::BTreeMap<u64, u64> = out.into_iter().collect();
            assert_eq!(got, expect, "combiner={use_combiner}");
        }
    }

    #[test]
    fn kmeans_mr_matches_sequential_reference() {
        let pts: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.5, 0.0],
            vec![9.0, 9.0],
            vec![10.0, 10.0],
        ];
        let params = Centroids::new(2, vec![0.0, 0.0, 10.0, 10.0]);
        let expect = kmeans_reference_pass(&pts, &params);

        let splits: Vec<Vec<Vec<f32>>> = pts.chunks(2).map(|c| c.to_vec()).collect();
        let job = KMeansMR::new(params.clone());
        let cfg = MRConfig {
            use_combiner: true,
            flush_threshold: 2,
            ..Default::default()
        };
        let (out, _) = run_mapreduce(&job, splits, &cfg);
        for (c, centroid) in out {
            let exp = expect.centroid(c as usize);
            for (g, e) in centroid.iter().zip(exp) {
                assert!(
                    (g - e).abs() < 1e-12,
                    "cluster {c}: {centroid:?} vs {exp:?}"
                );
            }
        }
    }

    #[test]
    fn kmeans_mr_combiner_shrinks_shuffle() {
        let pts: Vec<Vec<f32>> = (0..1000)
            .map(|i| vec![(i % 10) as f32, (i % 7) as f32])
            .collect();
        let params = Centroids::new(2, vec![0.0, 0.0, 9.0, 6.0]);
        let splits: Vec<Vec<Vec<f32>>> = pts.chunks(100).map(|c| c.to_vec()).collect();
        let job = KMeansMR::new(params);

        let plain = run_mapreduce(&job, splits.clone(), &MRConfig::default()).1;
        let combined = run_mapreduce(
            &job,
            splits,
            &MRConfig {
                use_combiner: true,
                flush_threshold: 50,
                ..Default::default()
            },
        )
        .1;
        assert_eq!(plain.pairs_emitted, 1000);
        assert_eq!(plain.pairs_shuffled, 1000);
        assert!(combined.pairs_shuffled < 100);
    }
}
