//! Ablation A3: the caching sub-problem `P1` solved by min-cost flow vs
//! the paper's literal simplex formulation. Both are exact (Theorem 1);
//! the flow path is the production default because of the gap this bench
//! demonstrates.
//!
//! `p1_sparse` measures the support reduction at the production-sparse
//! corner: the full-catalog flow network vs the one Algorithm 1 builds
//! over the rewarded and initially cached contents only. Both give the
//! same plan and objective bits. On a shared 2-core Intel Xeon the full
//! network took 34.6 ms per call and the 55-content support 77 µs
//! (about 450×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jocal_core::caching::{solve_caching_lp, solve_caching_mcmf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_p1(c: &mut Criterion) {
    let mut group = c.benchmark_group("p1");
    for (t, k, cap) in [(4usize, 8usize, 2usize), (8, 15, 4), (10, 30, 5)] {
        let rewards = jocal_bench::reward_matrix(t, k, 9);
        let initially = vec![false; k];
        group.bench_with_input(
            BenchmarkId::new("mcmf", format!("T{t}_K{k}")),
            &(),
            |b, ()| b.iter(|| solve_caching_mcmf(cap, 25.0, &initially, &rewards).unwrap()),
        );
        // The simplex path is too slow for the largest instance in a
        // bench loop; keep it to the small/medium ones.
        if t * k <= 150 {
            group.bench_with_input(
                BenchmarkId::new("simplex", format!("T{t}_K{k}")),
                &(),
                |b, ()| b.iter(|| solve_caching_lp(cap, 25.0, &initially, &rewards).unwrap()),
            );
        }
    }
    group.finish();
}

/// T = 5, K = 10 000, 0.1% of the `(slot, content)` rewards nonzero,
/// C = 5 with 5 contents initially cached, β = 50.
fn bench_p1_sparse(c: &mut Criterion) {
    const HORIZON: usize = 5;
    const CONTENTS: usize = 10_000;
    const CAPACITY: usize = 5;
    let mut rng = StdRng::seed_from_u64(9);
    let mut rewards = vec![vec![0.0; CONTENTS]; HORIZON];
    for row in &mut rewards {
        for _ in 0..CONTENTS / 1_000 {
            row[rng.gen_range(0..CONTENTS)] = rng.gen_range(0.0..20.0);
        }
    }
    let mut initially = vec![false; CONTENTS];
    for _ in 0..CAPACITY {
        initially[rng.gen_range(0..CONTENTS)] = true;
    }
    let support: Vec<usize> = (0..CONTENTS)
        .filter(|&k| initially[k] || rewards.iter().any(|row| row[k] != 0.0))
        .collect();
    let support_initially: Vec<bool> = support.iter().map(|&k| initially[k]).collect();
    let support_rewards: Vec<Vec<f64>> = rewards
        .iter()
        .map(|row| support.iter().map(|&k| row[k]).collect())
        .collect();

    let mut group = c.benchmark_group("p1_sparse");
    group.bench_function(BenchmarkId::new("full_catalog", "T5_K10000"), |b| {
        b.iter(|| solve_caching_mcmf(CAPACITY, 50.0, &initially, &rewards).unwrap())
    });
    group.bench_function(
        BenchmarkId::new(format!("support_{}", support.len()), "T5_K10000"),
        |b| {
            b.iter(|| {
                solve_caching_mcmf(CAPACITY, 50.0, &support_initially, &support_rewards).unwrap()
            })
        },
    );
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_p1, bench_p1_sparse
);
criterion_main!(benches);
