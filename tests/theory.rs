//! Empirical checks of the paper's theoretical claims on small
//! instances.

use jocal::core::caching::{solve_caching_exhaustive, solve_caching_lp, solve_caching_mcmf};
use jocal::core::primal_dual::PrimalDualOptions;
use jocal::core::{CacheState, CostModel};
use jocal::online::chc::ChcPolicy;
use jocal::online::rounding::{optimal_rho, RoundingPolicy};
use jocal::online::runner::run_policy;
use jocal::online::theory::{paper_approximation_factor, rounding_ratio};
use jocal::sim::predictor::NoisyPredictor;
use jocal::sim::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Theorem 1: the LP relaxation of P1 is integral, and both our solvers
/// find the same optimum as exhaustive search.
#[test]
fn theorem1_integrality_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(555);
    let mut sparsify = StdRng::seed_from_u64(556);
    for _ in 0..25 {
        let k = rng.gen_range(2..6);
        let horizon = rng.gen_range(1..6);
        let capacity = rng.gen_range(1..=k);
        let beta = rng.gen_range(0.0..10.0);
        let initially: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.25)).collect();
        let rewards: Vec<Vec<f64>> = (0..horizon)
            .map(|_| (0..k).map(|_| rng.gen_range(0.0..12.0)).collect())
            .collect();
        let flow = solve_caching_mcmf(capacity, beta, &initially, &rewards).unwrap();
        let lp = solve_caching_lp(capacity, beta, &initially, &rewards).unwrap();
        let brute = solve_caching_exhaustive(capacity, beta, &initially, &rewards);
        assert!((flow.objective - brute.objective).abs() < 1e-6);
        assert!((lp.objective - brute.objective).abs() < 1e-6);

        // Algorithm 1 solves P1 on the reduced network over the
        // support (rewarded or initially cached contents). Zero the
        // rewards of some contents and witness integrality there too.
        let mut sparse = rewards.clone();
        for j in 0..k {
            if sparsify.gen_bool(0.5) {
                for row in &mut sparse {
                    row[j] = 0.0;
                }
            }
        }
        let support: Vec<usize> = (0..k)
            .filter(|&j| initially[j] || sparse.iter().any(|row| row[j] != 0.0))
            .collect();
        let reduced_initially: Vec<bool> = support.iter().map(|&j| initially[j]).collect();
        let reduced: Vec<Vec<f64>> = sparse
            .iter()
            .map(|row| support.iter().map(|&j| row[j]).collect())
            .collect();
        let brute = solve_caching_exhaustive(capacity, beta, &initially, &sparse);
        let flow = solve_caching_mcmf(capacity, beta, &reduced_initially, &reduced).unwrap();
        let lp = solve_caching_lp(capacity, beta, &reduced_initially, &reduced).unwrap();
        assert!((flow.objective - brute.objective).abs() < 1e-6);
        assert!((lp.objective - brute.objective).abs() < 1e-6);
    }
}

/// Theorem 3: the rounding policy's cost stays within the proven
/// approximation factor of the paper's own bound components, and the
/// optimal ρ minimizes the two-term bound.
#[test]
fn theorem3_rounding_bound_structure() {
    let star = optimal_rho();
    assert!((rounding_ratio(star) - paper_approximation_factor()).abs() < 1e-9);
    // CHC with the optimal ρ must not exceed the approximation factor
    // times the unrounded ideal — we check the much stronger empirical
    // statement that it stays within the factor of the *offline optimum*.
    let scenario = ScenarioConfig::paper_default()
        .with_horizon(10)
        .with_beta(50.0)
        .build(9)
        .unwrap();
    let problem = jocal::core::problem::ProblemInstance::fresh(
        scenario.network.clone(),
        scenario.demand.clone(),
    )
    .unwrap();
    let offline = jocal::core::offline::OfflineSolver::new(PrimalDualOptions {
        max_iterations: 40,
        ..Default::default()
    })
    .solve(&problem)
    .unwrap();

    let predictor = NoisyPredictor::new(scenario.demand.clone(), 0.1, 2);
    let mut chc = ChcPolicy::new(5, 3, RoundingPolicy::new(star), PrimalDualOptions::online());
    let outcome = run_policy(
        &scenario.network,
        &CostModel::paper(),
        &predictor,
        &mut chc,
        CacheState::empty(&scenario.network),
    )
    .unwrap();
    let ratio = outcome.breakdown.total() / offline.breakdown.total();
    assert!(
        ratio < paper_approximation_factor(),
        "CHC ratio {ratio} exceeded the 2.618 bound"
    );
}

/// Theorem 2 (empirical): RHC's cost ratio decreases as the window
/// grows, approaching the offline optimum.
#[test]
fn theorem2_rhc_improves_with_window() {
    let scenario = ScenarioConfig::paper_default()
        .with_horizon(12)
        .with_beta(100.0)
        .build(13)
        .unwrap();
    let problem = jocal::core::problem::ProblemInstance::fresh(
        scenario.network.clone(),
        scenario.demand.clone(),
    )
    .unwrap();
    let offline = jocal::core::offline::OfflineSolver::new(PrimalDualOptions {
        max_iterations: 50,
        ..Default::default()
    })
    .solve(&problem)
    .unwrap();
    let mut ratios = Vec::new();
    for w in [1usize, 4, 12] {
        let predictor = NoisyPredictor::new(scenario.demand.clone(), 0.0, 3);
        let mut rhc = jocal::online::rhc::RhcPolicy::new(w, PrimalDualOptions::online());
        let outcome = run_policy(
            &scenario.network,
            &CostModel::paper(),
            &predictor,
            &mut rhc,
            CacheState::empty(&scenario.network),
        )
        .unwrap();
        ratios.push(outcome.breakdown.total() / offline.breakdown.total());
    }
    assert!(
        ratios[2] <= ratios[0] + 1e-6,
        "w=12 ratio {} should not exceed w=1 ratio {}",
        ratios[2],
        ratios[0]
    );
    assert!(ratios[2] < 1.06, "large-window RHC should approach offline");
}
