//! The shipped combiner library (paper §III-A: *"A user can choose from one
//! of the several common combination functions already implemented in the
//! generalized reduction system library (such as aggregation, concatenation,
//! etc.), or they can provide one of their own."*).
//!
//! Every type here implements [`ReductionObject`] with a commutative,
//! associative `merge`; the property tests in `tests/scheduling_properties.rs`
//! verify the algebra over random inputs and splits.

use crate::api::ReductionObject;
use std::collections::BTreeMap;

/// Element-wise sum of a fixed-length `f64` vector ("aggregation").
///
/// The workhorse for numeric analytics — k-means uses one per centroid,
/// PageRank uses one the size of the rank vector.
///
/// ```
/// use cloudburst_core::combine::VecSum;
/// use cloudburst_core::api::ReductionObject;
///
/// let mut a = VecSum::from_vec(vec![1.0, 2.0]);
/// let b = VecSum::from_vec(vec![10.0, 20.0]);
/// a.merge(b);
/// assert_eq!(a.values(), &[11.0, 22.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VecSum {
    values: Vec<f64>,
}

impl VecSum {
    pub fn zeros(len: usize) -> Self {
        VecSum {
            values: vec![0.0; len],
        }
    }

    pub fn from_vec(values: Vec<f64>) -> Self {
        VecSum { values }
    }

    pub fn add_at(&mut self, idx: usize, x: f64) {
        self.values[idx] += x;
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl ReductionObject for VecSum {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "merging VecSum of different lengths"
        );
        for (a, b) in self.values.iter_mut().zip(other.values) {
            *a += b;
        }
    }

    fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

/// Scalar counters (u64 sum). Often embedded in larger objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(pub u64);

impl ReductionObject for Counter {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn size_bytes(&self) -> usize {
        8
    }
}

/// Concatenation of records, order-normalized on read ("concatenation").
///
/// `merge` appends; because concatenation alone is *not* commutative, the
/// object guarantees order-insensitivity by exposing results only in sorted
/// order. This matches how concatenating combiners are used in practice:
/// the collection is a set of records whose arrival order is meaningless.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Concat<T: Ord + Send + 'static> {
    items: Vec<T>,
}

impl<T: Ord + Send + 'static> Concat<T> {
    pub fn new() -> Self {
        Concat { items: Vec::new() }
    }

    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The collected records, in canonical (sorted) order.
    pub fn into_sorted(mut self) -> Vec<T> {
        self.items.sort_unstable();
        self.items
    }

    /// The collected records in arrival order (wire codecs sort a copy
    /// themselves to stay canonical without consuming the object).
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T: Ord + Send + 'static> ReductionObject for Concat<T> {
    fn merge(&mut self, other: Self) {
        self.items.extend(other.items);
    }
    fn size_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<T>()
    }
}

/// Min / max over a totally ordered domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinMax {
    pub min: Option<i64>,
    pub max: Option<i64>,
}

impl MinMax {
    pub fn observe(&mut self, x: i64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }
}

impl ReductionObject for MinMax {
    fn merge(&mut self, other: Self) {
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }
    fn size_bytes(&self) -> usize {
        16
    }
}

/// Keyed aggregation: `key -> (sum, count)`. The generalized-reduction
/// analogue of a word-count/`reduceByKey`; deterministic iteration order
/// via `BTreeMap`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyedSum {
    entries: BTreeMap<u64, (f64, u64)>,
}

impl KeyedSum {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, key: u64, value: f64) {
        let e = self.entries.entry(key).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn get(&self, key: u64) -> Option<(f64, u64)> {
        self.entries.get(&key).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, (f64, u64))> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }

    /// Reconstruct an entry verbatim — `(sum, count)` as stored, not one
    /// observation like [`KeyedSum::add`]. Merges with any existing entry.
    /// This is how wire codecs rebuild a shipped object exactly.
    pub fn insert_entry(&mut self, key: u64, sum: f64, count: u64) {
        let e = self.entries.entry(key).or_insert((0.0, 0));
        e.0 += sum;
        e.1 += count;
    }
}

impl ReductionObject for KeyedSum {
    fn merge(&mut self, other: Self) {
        for (k, (s, c)) in other.entries {
            let e = self.entries.entry(k).or_insert((0.0, 0));
            e.0 += s;
            e.1 += c;
        }
    }
    fn size_bytes(&self) -> usize {
        self.entries.len() * (8 + 8 + 8)
    }
}

/// Bounded top-K by ascending score: keeps the K smallest `(score, payload)`
/// pairs seen. This is k-NN's reduction object (K nearest = K smallest
/// distances). A binary max-heap caps memory at K entries per worker.
///
/// ```
/// use cloudburst_core::combine::TopK;
///
/// let mut best = TopK::new(2);
/// for (score, id) in [(3.0, 0), (1.0, 1), (2.0, 2)] {
///     best.offer(score, id);
/// }
/// assert_eq!(best.into_sorted(), vec![(1.0, 1), (2.0, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Max-heap on score: the root is the *worst* of the current best K.
    heap: std::collections::BinaryHeap<ScoredEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredEntry {
    score: f64,
    payload: u64,
}

impl Eq for ScoredEntry {}

impl PartialOrd for ScoredEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScoredEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: by score, then payload for determinism. NaN scores
        // are rejected at insert.
        self.score
            .partial_cmp(&other.score)
            .expect("NaN score in TopK")
            .then_with(|| self.payload.cmp(&other.payload))
    }
}

impl TopK {
    /// An empty TopK. Its heap grows as entries are kept, so a `k` read
    /// from the wire costs nothing up front.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "TopK requires k >= 1");
        TopK {
            k,
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// An empty TopK with room for all `k` entries, so no `offer`
    /// allocates: for a `k` the program chose, not one read from input.
    pub fn with_capacity(k: usize) -> Self {
        let mut t = TopK::new(k);
        t.heap.reserve_exact(k);
        t
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a candidate; kept only if among the K best (smallest) so far.
    pub fn offer(&mut self, score: f64, payload: u64) {
        assert!(!score.is_nan(), "NaN score offered to TopK");
        if self.heap.len() < self.k {
            self.heap.push(ScoredEntry { score, payload });
            return;
        }
        let worst = self.heap.peek().expect("non-empty");
        let cand = ScoredEntry { score, payload };
        if cand < *worst {
            self.heap.pop();
            self.heap.push(cand);
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept entries in heap order (wire codecs re-`offer` these on
    /// decode; callers wanting ranked output use [`TopK::into_sorted`]).
    pub fn entries(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.heap.iter().map(|e| (e.score, e.payload))
    }

    /// Best-first (ascending score) results.
    pub fn into_sorted(self) -> Vec<(f64, u64)> {
        let mut v: Vec<ScoredEntry> = self.heap.into_vec();
        v.sort_unstable();
        v.into_iter().map(|e| (e.score, e.payload)).collect()
    }
}

impl ReductionObject for TopK {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.k, other.k, "merging TopK of different k");
        for e in other.heap {
            self.offer(e.score, e.payload);
        }
    }
    fn size_bytes(&self) -> usize {
        self.heap.len() * 16
    }
}

/// Fixed-range histogram: counts per equal-width bin over `[lo, hi)`, with
/// underflow/overflow buckets. Order-insensitive by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(hi > lo, "empty histogram range");
        assert!(n_bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    pub fn observe(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let bin = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[bin] += 1;
        }
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

impl ReductionObject for Histogram {
    fn merge(&mut self, other: Self) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "merging incompatible histograms"
        );
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
    fn size_bytes(&self) -> usize {
        self.bins.len() * 8 + 32
    }
}

/// Streaming first/second moments (count, mean, variance) with the
/// parallel Welford combination — merge order does not affect the result
/// beyond floating-point noise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

impl ReductionObject for Moments {
    fn merge(&mut self, other: Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.mean = (n1 * self.mean + n2 * other.mean) / n;
        self.n += other.n;
    }
    fn size_bytes(&self) -> usize {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecsum_merges_elementwise() {
        let mut a = VecSum::from_vec(vec![1.0, 2.0, 3.0]);
        let b = VecSum::from_vec(vec![10.0, 20.0, 30.0]);
        a.merge(b);
        assert_eq!(a.values(), &[11.0, 22.0, 33.0]);
        assert_eq!(a.size_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn vecsum_length_mismatch_panics() {
        let mut a = VecSum::zeros(2);
        a.merge(VecSum::zeros(3));
    }

    #[test]
    fn counter_merges() {
        let mut a = Counter(3);
        a.merge(Counter(4));
        assert_eq!(a, Counter(7));
    }

    #[test]
    fn concat_is_order_insensitive_after_sort() {
        let mut a = Concat::new();
        a.push(3);
        a.push(1);
        let mut b = Concat::new();
        b.push(2);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.into_sorted(), ba.into_sorted());
    }

    #[test]
    fn minmax_handles_empty_sides() {
        let mut a = MinMax::default();
        let mut b = MinMax::default();
        b.observe(5);
        b.observe(-2);
        a.merge(b);
        assert_eq!(a.min, Some(-2));
        assert_eq!(a.max, Some(5));
        a.merge(MinMax::default());
        assert_eq!(a.min, Some(-2));
    }

    #[test]
    fn keyedsum_merges_by_key() {
        let mut a = KeyedSum::new();
        a.add(1, 2.0);
        a.add(2, 5.0);
        let mut b = KeyedSum::new();
        b.add(1, 3.0);
        b.add(3, 7.0);
        a.merge(b);
        assert_eq!(a.get(1), Some((5.0, 2)));
        assert_eq!(a.get(2), Some((5.0, 1)));
        assert_eq!(a.get(3), Some((7.0, 1)));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn topk_keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (i, s) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            t.offer(*s, i as u64);
        }
        let got = t.into_sorted();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (0.5, 5));
        assert_eq!(got[1], (1.0, 1));
        assert_eq!(got[2], (2.0, 3));
    }

    #[test]
    fn topk_merge_equals_union() {
        let scores: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let mut whole = TopK::new(5);
        for (i, &s) in scores.iter().enumerate() {
            whole.offer(s, i as u64);
        }
        let mut left = TopK::new(5);
        let mut right = TopK::new(5);
        for (i, &s) in scores.iter().enumerate() {
            if i % 2 == 0 {
                left.offer(s, i as u64);
            } else {
                right.offer(s, i as u64);
            }
        }
        left.merge(right);
        assert_eq!(left.into_sorted(), whole.into_sorted());
    }

    #[test]
    fn topk_tie_scores_resolved_by_payload() {
        let mut t = TopK::new(2);
        t.offer(1.0, 9);
        t.offer(1.0, 3);
        t.offer(1.0, 7);
        assert_eq!(t.into_sorted(), vec![(1.0, 3), (1.0, 7)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn topk_rejects_nan() {
        TopK::new(1).offer(f64::NAN, 0);
    }

    #[test]
    fn topk_underfull() {
        let mut t = TopK::new(10);
        t.offer(2.0, 0);
        t.offer(1.0, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_sorted(), vec![(1.0, 1), (2.0, 0)]);
    }

    #[test]
    fn histogram_bins_and_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0] {
            h.observe(x);
        }
        assert_eq!(h.bins(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_merge_equals_union() {
        let mut whole = Histogram::new(0.0, 1.0, 10);
        let mut a = Histogram::new(0.0, 1.0, 10);
        let mut b = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            let x = (i as f64) / 100.0;
            whole.observe(x);
            if i % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        a.merge(b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn histogram_shape_mismatch_panics() {
        let mut a = Histogram::new(0.0, 1.0, 5);
        a.merge(Histogram::new(0.0, 2.0, 5));
    }

    #[test]
    fn moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &xs {
            m.observe(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64) * 0.31 - 7.0).collect();
        let mut whole = Moments::new();
        for &x in &xs {
            whole.observe(x);
        }
        let mut a = Moments::new();
        let mut b = Moments::new();
        for &x in &xs[..71] {
            a.observe(x);
        }
        for &x in &xs[71..] {
            b.observe(x);
        }
        a.merge(b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        // Empty-side identities.
        a.merge(Moments::new());
        assert_eq!(a.count(), 200);
    }
}
