//! Property-based tests for the core joint-optimization crate.

use jocal_core::accounting::evaluate_plan;
use jocal_core::caching::{caching_objective, solve_caching_exhaustive, solve_caching_mcmf};
use jocal_core::plan::{verify_feasible, CachePlan, CacheState, LoadPlan};
use jocal_core::primal_dual::{PrimalDualOptions, PrimalDualSolver};
use jocal_core::problem::ProblemInstance;
use jocal_core::CostModel;
use jocal_sim::demand::DemandTrace;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::topology::{ClassId, ContentId, MuClass, Network, SbsId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flow-based P1 solver always matches the exhaustive oracle.
    #[test]
    fn p1_flow_is_exact(
        k in 1usize..5,
        horizon in 1usize..5,
        beta in 0.0..10.0_f64,
        reward_seed in 0u64..10_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(reward_seed);
        let capacity = rng.gen_range(1..=k);
        let initially: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.3)).collect();
        let rewards: Vec<Vec<f64>> = (0..horizon)
            .map(|_| (0..k).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let flow = solve_caching_mcmf(capacity, beta, &initially, &rewards).unwrap();
        let brute = solve_caching_exhaustive(capacity, beta, &initially, &rewards);
        prop_assert!((flow.objective - brute.objective).abs() < 1e-6);
        // The reported objective matches an independent evaluation of the
        // returned plan.
        let eval = caching_objective(beta, &initially, &rewards, &flow.x);
        prop_assert!((flow.objective - eval).abs() < 1e-6);
        // Capacity holds everywhere.
        for row in &flow.x {
            prop_assert!(row.iter().filter(|&&b| b).count() <= capacity);
        }
    }

    /// Restricting P1 to its support (the contents with a nonzero reward
    /// in some slot, plus the initially cached ones) and scattering the
    /// plan back reproduces the full-catalog solve bit for bit, on
    /// sparse rewards with and without a replacement cost.
    #[test]
    fn p1_support_reduction_is_bit_exact(
        k in 1usize..40,
        horizon in 1usize..6,
        density_pct in 0usize..60,
        zero_beta in prop::bool::ANY,
        seed in 0u64..10_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.gen_range(0..=k + 2);
        let beta = if zero_beta { 0.0 } else { rng.gen_range(0.0..10.0) };
        let mut initially = vec![false; k];
        for _ in 0..capacity {
            initially[rng.gen_range(0..k)] = true;
        }
        let density = density_pct as f64 / 100.0;
        let rewards: Vec<Vec<f64>> = (0..horizon)
            .map(|_| {
                (0..k)
                    .map(|_| if rng.gen_bool(density) { rng.gen_range(0.0..10.0) } else { 0.0 })
                    .collect()
            })
            .collect();
        assert_reduction_parity(capacity, beta, &initially, &rewards);
    }

    /// Primal-dual solutions on random tiny scenarios are always feasible
    /// with a valid lower bound.
    #[test]
    fn primal_dual_always_feasible(seed in 0u64..60) {
        let s = ScenarioConfig::tiny().build(seed).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let sol = PrimalDualSolver::new(PrimalDualOptions {
            max_iterations: 15,
            ..PrimalDualOptions::online()
        })
        .solve(&problem)
        .unwrap();
        verify_feasible(&s.network, &s.demand, &sol.cache_plan, &sol.load_plan).unwrap();
        prop_assert!(sol.lower_bound <= sol.breakdown.total() + 1e-6);
        prop_assert!(sol.breakdown.total() >= 0.0);
    }

    /// Accounting identity: breakdown total equals the cost model's
    /// direct evaluation for arbitrary feasible plans.
    #[test]
    fn accounting_matches_cost_model(
        seed in 0u64..500,
        cache_bits in prop::collection::vec(prop::bool::ANY, 10),
    ) {
        let net = Network::builder(5)
            .sbs(
                2,
                6.0,
                3.0,
                vec![
                    MuClass::new(0.7, 0.0, 2.0).unwrap(),
                    MuClass::new(0.3, 0.1, 1.0).unwrap(),
                ],
            )
            .unwrap()
            .build()
            .unwrap();
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = 2;
        let mut demand = DemandTrace::zeros(&net, horizon);
        for t in 0..horizon {
            for m in 0..2 {
                for k in 0..5 {
                    demand
                        .set_lambda(t, SbsId(0), ClassId(m), ContentId(k), rng.gen_range(0.0..2.0))
                        .unwrap();
                }
            }
        }
        let problem = ProblemInstance::fresh(net.clone(), demand.clone()).unwrap();

        // Build a feasible plan from the random bits: at most 2 cached
        // per slot, y = x scaled into the bandwidth.
        let mut x = CachePlan::empty(&net, horizon);
        let mut y = LoadPlan::zeros(&net, horizon);
        for t in 0..horizon {
            let mut used = 0usize;
            for k in 0..5 {
                if cache_bits[t * 5 + k] && used < 2 {
                    x.state_mut(t).set(SbsId(0), ContentId(k), true);
                    used += 1;
                }
            }
            // Serve cached items at a modest fraction (guaranteed within
            // bandwidth for these demand scales).
            for m in 0..2 {
                for k in 0..5 {
                    if x.state(t).contains(SbsId(0), ContentId(k)) {
                        y.set_y(t, SbsId(0), ClassId(m), ContentId(k), 0.4);
                    }
                }
            }
        }
        verify_feasible(&net, &demand, &x, &y).unwrap();
        let breakdown = evaluate_plan(&problem, &x, &y);
        let model = CostModel::paper();
        let direct = model.total(&net, &demand, problem.initial_cache(), &x, &y);
        prop_assert!((breakdown.total() - direct).abs() < 1e-9);
    }

    /// The exact load balance given a cache never exceeds the cost of
    /// the all-BS plan (y = 0), and respects the coupling.
    #[test]
    fn load_given_cache_improves_on_idle(seed in 0u64..60) {
        let s = ScenarioConfig::tiny().build(seed).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        // Cache the first two items everywhere.
        let mut x = CachePlan::empty(&s.network, problem.horizon());
        for t in 0..problem.horizon() {
            x.state_mut(t).set(SbsId(0), ContentId(0), true);
            x.state_mut(t).set(SbsId(0), ContentId(1), true);
        }
        let (y, _) = jocal_core::loadbalance::solve_load_given_cache(&problem, &x, None).unwrap();
        verify_feasible(&s.network, &s.demand, &x, &y).unwrap();
        let with_lb = evaluate_plan(&problem, &x, &y);
        let idle = evaluate_plan(&problem, &x, &LoadPlan::zeros(&s.network, problem.horizon()));
        prop_assert!(with_lb.bs_operating <= idle.bs_operating + 1e-9);
    }
}

/// Fixed regression: an initial cache that matches the optimal set means
/// zero replacement cost for the hold plan.
#[test]
fn hold_plan_with_initial_cache_has_no_fetches() {
    let s = ScenarioConfig::tiny().build(1).unwrap();
    let mut initial = CacheState::empty(&s.network);
    initial.set(SbsId(0), ContentId(0), true);
    initial.set(SbsId(0), ContentId(1), true);
    let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone())
        .unwrap()
        .with_initial_cache(initial.clone())
        .unwrap();
    let hold = CachePlan::from_states(vec![initial; problem.horizon()]).unwrap();
    let y = LoadPlan::zeros(&s.network, problem.horizon());
    let b = evaluate_plan(&problem, &hold, &y);
    assert_eq!(b.replacement_count, 0);
    assert_eq!(b.replacement, 0.0);
}

/// Restricts a P1 instance to its support, the contents with a nonzero
/// reward in some slot or cached in `x⁰`, kept in ascending order as
/// `CachingSupport` keeps them.
fn compact_p1(initially: &[bool], rewards: &[Vec<f64>]) -> (Vec<usize>, Vec<bool>, Vec<Vec<f64>>) {
    let support: Vec<usize> = (0..initially.len())
        .filter(|&k| initially[k] || rewards.iter().any(|row| row[k] != 0.0))
        .collect();
    let compact_initially = support.iter().map(|&k| initially[k]).collect();
    let compact_rewards = rewards
        .iter()
        .map(|row| support.iter().map(|&k| row[k]).collect())
        .collect();
    (support, compact_initially, compact_rewards)
}

/// Solves P1 on the full catalog and on its support, and asserts the
/// scattered-back plan and the objective agree bitwise.
fn assert_reduction_parity(capacity: usize, beta: f64, initially: &[bool], rewards: &[Vec<f64>]) {
    let full = solve_caching_mcmf(capacity, beta, initially, rewards).unwrap();
    let (support, compact_initially, compact_rewards) = compact_p1(initially, rewards);
    let compact = solve_caching_mcmf(capacity, beta, &compact_initially, &compact_rewards).unwrap();
    let mut scattered = vec![vec![false; initially.len()]; rewards.len()];
    for (row, compact_row) in scattered.iter_mut().zip(&compact.x) {
        for (&k, &cached) in support.iter().zip(compact_row) {
            row[k] = cached;
        }
    }
    assert_eq!(scattered, full.x, "support-reduced plan diverged");
    assert_eq!(
        compact.objective.to_bits(),
        full.objective.to_bits(),
        "support-reduced objective diverged: {} vs {}",
        compact.objective,
        full.objective
    );
}

/// The structural edges of the P1 support reduction.
#[test]
fn p1_support_reduction_edges() {
    let sparse = vec![
        vec![0.0, 4.0, 0.0, 0.0, 7.5, 0.0],
        vec![0.0, 0.0, 0.0, 3.0, 7.5, 0.0],
        vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ];
    let zeros = vec![vec![0.0; 6]; 3];
    let cold = vec![false; 6];
    // Contents 2 and 5 are cached but never rewarded.
    let warm = vec![false, false, true, false, false, true];
    for beta in [0.0, 1.0, 5.0, 50.0] {
        // Capacity 0, below, equal to and above the support size.
        for capacity in [0, 1, 2, 4, 5, 6, 9] {
            assert_reduction_parity(capacity, beta, &cold, &sparse);
            assert_reduction_parity(capacity, beta, &warm, &sparse);
            // All-zero rewards: the support is the initial cache alone,
            // or empty.
            assert_reduction_parity(capacity, beta, &cold, &zeros);
            assert_reduction_parity(capacity, beta, &warm, &zeros);
        }
    }
    // Empty support: nothing rewarded, nothing cached.
    let (support, _, compact_rewards) = compact_p1(&cold, &zeros);
    assert!(support.is_empty());
    let empty = solve_caching_mcmf(3, 1.0, &[], &compact_rewards).unwrap();
    assert_eq!(empty.x, vec![Vec::<bool>::new(); 3]);
    assert_eq!(empty.objective.to_bits(), 0.0f64.to_bits());
}
