//! Property-based tests of the scheduling state machines and the combiner
//! algebra — the invariants DESIGN.md §8 commits to.

use cb_storage::layout::{ChunkId, LocationId, Placement};
use cb_storage::organizer::organize_even;
use cloudburst_core::api::ReductionObject;
use cloudburst_core::combine::{Concat, KeyedSum, MinMax, TopK, VecSum};
use cloudburst_core::sched::pool::{JobPool, PoolConfig};
use proptest::prelude::*;

const L: LocationId = LocationId(0);
const C: LocationId = LocationId(1);

/// Drive a JobPool with an arbitrary interleaving of requests/completions
/// from two clusters; every job must be granted exactly once and completed
/// exactly once, regardless of schedule. Returns the jobs granted and the
/// completions made, as tallied by the two clusters.
fn drive_pool(
    n_files: usize,
    chunks_per_file: u64,
    frac_local: f64,
    cfg: PoolConfig,
    schedule: &[bool], // true = local acts, false = cloud acts
) -> (usize, usize, JobPool) {
    let layout = organize_even(n_files, chunks_per_file * 64, 64, 8).unwrap();
    let placement = Placement::split_fraction(n_files, frac_local, L, C);
    let total = layout.n_jobs();
    let mut pool = JobPool::new(&layout, &placement, cfg);

    let mut queues: [Vec<ChunkId>; 2] = [Vec::new(), Vec::new()];
    let mut seen = std::collections::BTreeSet::new();
    let (mut step, mut completed) = (0usize, 0usize);
    // Alternate per the schedule (cycled) until everything completes.
    while !pool.all_done() {
        let actor = schedule[step % schedule.len()];
        step += 1;
        let (loc, q) = if actor {
            (L, &mut queues[0])
        } else {
            (C, &mut queues[1])
        };
        // Complete one held job, if any; otherwise request more.
        if let Some(job) = q.pop() {
            pool.complete(loc, job).expect("granted to loc");
            completed += 1;
        } else {
            let grant = pool.request(loc);
            for j in grant.jobs {
                assert!(seen.insert(j), "job {j} granted twice");
                q.push(j);
            }
        }
        // Bail-out guard (should be unreachable): a livelock would loop
        // forever when stealing is off and one side holds nothing.
        if step > total * 100 + 1000 {
            // Drain whatever is held and stop.
            for (i, loc) in [(0usize, L), (1usize, C)] {
                while let Some(j) = queues[i].pop() {
                    pool.complete(loc, j).expect("granted to loc");
                    completed += 1;
                }
            }
            break;
        }
    }
    (seen.len(), completed, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With stealing on, every schedule grants every job exactly once.
    #[test]
    fn pool_grants_every_job_once(
        n_files in 1usize..8,
        chunks_per_file in 1u64..12,
        frac in 0.0f64..1.0,
        local_batch in 1usize..10,
        remote_batch in 1usize..6,
        schedule in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let cfg = PoolConfig {
            local_batch,
            remote_batch,
            allow_stealing: true,
            consecutive: true,
            ..PoolConfig::default()
        };
        let total = n_files * chunks_per_file as usize;
        let (granted, completed, pool) =
            drive_pool(n_files, chunks_per_file, frac, cfg, &schedule);
        prop_assert_eq!(granted, total);
        prop_assert_eq!(completed, total);
        prop_assert!(pool.all_done());
    }

    /// The non-consecutive ablation preserves exactly-once too.
    #[test]
    fn pool_round_robin_still_exactly_once(
        n_files in 2usize..6,
        chunks_per_file in 1u64..8,
        schedule in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let cfg = PoolConfig {
            consecutive: false,
            ..PoolConfig::default()
        };
        let total = n_files * chunks_per_file as usize;
        let (granted, _, pool) = drive_pool(n_files, chunks_per_file, 0.5, cfg, &schedule);
        prop_assert_eq!(granted, total);
        prop_assert!(pool.all_done());
    }

    /// With stealing off, each site completes exactly its own files' jobs.
    #[test]
    fn pool_no_stealing_respects_homes(
        n_files in 2usize..8,
        chunks_per_file in 1u64..8,
        frac in 0.0f64..1.0,
    ) {
        let cfg = PoolConfig {
            allow_stealing: false,
            ..PoolConfig::default()
        };
        let layout = organize_even(n_files, chunks_per_file * 64, 64, 8).unwrap();
        let placement = Placement::split_fraction(n_files, frac, L, C);
        let local_jobs: u64 = placement
            .files_at(L)
            .map(|f| layout.chunks_of_file(f).count() as u64)
            .sum();
        let mut pool = JobPool::new(&layout, &placement, cfg);
        // Each cluster drains everything it can get; no grant is stolen.
        let mut completed = [0u64; 2];
        for (i, loc) in [L, C].into_iter().enumerate() {
            loop {
                let g = pool.request(loc);
                if g.is_empty() {
                    break;
                }
                prop_assert!(!g.stolen);
                for j in g.jobs {
                    pool.complete(loc, j).expect("granted to loc");
                    completed[i] += 1;
                }
            }
        }
        prop_assert!(pool.all_done());
        prop_assert_eq!(completed, [local_jobs, layout.n_jobs() as u64 - local_jobs]);
    }

    /// VecSum merge is commutative and associative.
    #[test]
    fn vecsum_algebra(
        a in prop::collection::vec(-1e6f64..1e6, 1..20),
        b in prop::collection::vec(-1e6f64..1e6, 1..20),
        c in prop::collection::vec(-1e6f64..1e6, 1..20),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        let v = |s: &[f64]| VecSum::from_vec(s.to_vec());

        // Commutative.
        let mut ab = v(a);
        ab.merge(v(b));
        let mut ba = v(b);
        ba.merge(v(a));
        for (x, y) in ab.values().iter().zip(ba.values()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(v(c));
        let mut bc = v(b);
        bc.merge(v(c));
        let mut a_bc = v(a);
        a_bc.merge(bc);
        for (x, y) in ab_c.values().iter().zip(a_bc.values()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    /// TopK over any split of the input equals TopK over the whole input.
    #[test]
    fn topk_split_invariance(
        scores in prop::collection::vec(0u32..10_000, 1..200),
        k in 1usize..20,
        pivot in 0usize..200,
    ) {
        let pivot = pivot.min(scores.len());
        let mut whole = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            whole.offer(s as f64, i as u64);
        }
        let mut left = TopK::new(k);
        for (i, &s) in scores.iter().enumerate().take(pivot) {
            left.offer(s as f64, i as u64);
        }
        let mut right = TopK::new(k);
        for (i, &s) in scores.iter().enumerate().skip(pivot) {
            right.offer(s as f64, i as u64);
        }
        left.merge(right);
        prop_assert_eq!(left.into_sorted(), whole.into_sorted());
    }

    /// KeyedSum split-merge equals whole-input accumulation.
    #[test]
    fn keyedsum_split_invariance(
        pairs in prop::collection::vec((0u64..50, -100.0f64..100.0), 0..200),
        pivot in 0usize..200,
    ) {
        let pivot = pivot.min(pairs.len());
        let mut whole = KeyedSum::new();
        for &(k, v) in &pairs {
            whole.add(k, v);
        }
        let mut left = KeyedSum::new();
        for &(k, v) in &pairs[..pivot] {
            left.add(k, v);
        }
        let mut right = KeyedSum::new();
        for &(k, v) in &pairs[pivot..] {
            right.add(k, v);
        }
        left.merge(right);
        prop_assert_eq!(left.len(), whole.len());
        for (k, (s, n)) in whole.iter() {
            let (s2, n2) = left.get(k).unwrap();
            prop_assert!((s - s2).abs() < 1e-6);
            prop_assert_eq!(n, n2);
        }
    }

    /// Concat's canonical order is merge-order independent.
    #[test]
    fn concat_order_invariance(
        xs in prop::collection::vec(any::<i32>(), 0..100),
        pivot in 0usize..100,
    ) {
        let pivot = pivot.min(xs.len());
        let mut a = Concat::new();
        for &x in &xs[..pivot] {
            a.push(x);
        }
        let mut b = Concat::new();
        for &x in &xs[pivot..] {
            b.push(x);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert_eq!(ab.into_sorted(), ba.into_sorted());
    }

    /// MinMax merge equals min/max over the union.
    #[test]
    fn minmax_union(
        xs in prop::collection::vec(any::<i64>(), 1..100),
        pivot in 0usize..100,
    ) {
        let pivot = pivot.min(xs.len());
        let mut a = MinMax::default();
        for &x in &xs[..pivot] {
            a.observe(x);
        }
        let mut b = MinMax::default();
        for &x in &xs[pivot..] {
            b.observe(x);
        }
        a.merge(b);
        prop_assert_eq!(a.min, xs.iter().copied().min());
        prop_assert_eq!(a.max, xs.iter().copied().max());
    }
}

/// Deterministic regression: empty-side merges are identities.
#[test]
fn merge_identities() {
    let mut t = TopK::new(3);
    t.offer(1.0, 1);
    t.merge(TopK::new(3));
    assert_eq!(t.len(), 1);

    let mut k = KeyedSum::new();
    k.add(1, 1.0);
    k.merge(KeyedSum::new());
    assert_eq!(k.len(), 1);

    let mut v = VecSum::zeros(3);
    v.add_at(1, 5.0);
    v.merge(VecSum::zeros(3));
    assert_eq!(v.values(), &[0.0, 5.0, 0.0]);
}
