//! Scheduler microbenchmarks: the head's job pool at paper scale
//! (960 jobs), under both assignment policies, plus master-queue ops.

use cb_storage::layout::{LocationId, Placement};
use cb_storage::organizer::organize_even;
use cloudburst_core::sched::master::MasterPool;
use cloudburst_core::sched::pool::{JobPool, PoolConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const L: LocationId = LocationId(0);
const C: LocationId = LocationId(1);

/// Drain a 960-job pool with two alternating clusters.
fn drain_pool(cfg: &PoolConfig) -> u64 {
    let layout = organize_even(32, 30 * 64, 64, 8).unwrap();
    let placement = Placement::split_fraction(32, 0.33, L, C);
    let mut pool = JobPool::new(&layout, &placement, cfg.clone());
    let mut held = Vec::new();
    let mut completed = 0u64;
    let mut turn = false;
    while !pool.all_done() {
        turn = !turn;
        let loc = if turn { L } else { C };
        let g = pool.request(loc);
        if g.is_empty() {
            // Complete everything held and loop again.
            for (loc, j) in held.drain(..) {
                pool.complete(loc, j).expect("granted to loc");
                completed += 1;
            }
            continue;
        }
        for j in g.jobs {
            held.push((loc, j));
        }
    }
    completed
}

fn bench_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("job_pool_drain_960");
    for (name, cfg) in [
        ("consecutive", PoolConfig::default()),
        (
            "round_robin",
            PoolConfig {
                consecutive: false,
                ..Default::default()
            },
        ),
        (
            "no_stealing",
            PoolConfig {
                allow_stealing: false,
                ..Default::default()
            },
        ),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(drain_pool(&cfg)))
        });
    }
    g.finish();
}

fn bench_master_pool(c: &mut Criterion) {
    c.bench_function("master_pool_grant_take_1k", |b| {
        b.iter(|| {
            let mut mp = MasterPool::new(4);
            let mut taken = 0usize;
            for batch in 0..100u32 {
                mp.mark_requested();
                mp.on_grant(
                    (0..10).map(|i| cb_storage::layout::ChunkId(batch * 10 + i)),
                    batch % 2 == 0,
                );
                while let Some(j) = mp.take() {
                    taken += black_box(j.chunk.0 as usize) & 1;
                }
            }
            taken
        })
    });
}

criterion_group!(benches, bench_pool, bench_master_pool);
criterion_main!(benches);
