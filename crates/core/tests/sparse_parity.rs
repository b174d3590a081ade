//! Dense-vs-sparse bit-parity property suite.
//!
//! The sparse hot path (nonzero-indexed P2 solves, cost evaluation and
//! ledger attribution; see `jocal_core::sparse`) claims to be
//! *bit-identical* to the dense reference sweep, not merely close. This
//! suite pins that claim across randomized densities and shapes plus
//! the structural edge cases: all-zero demand, a single nonzero entry,
//! and full density. The dense path is selected per instance via
//! `ProblemInstance::with_dense_oracle`.

use jocal_core::accounting::evaluate_per_slot;
use jocal_core::ledger::{ledger_slot, ledger_slot_sparse};
use jocal_core::loadbalance::solve_load_all;
use jocal_core::plan::LoadPlan;
use jocal_core::primal_dual::{PrimalDualOptions, PrimalDualSolver, WarmStart};
use jocal_core::problem::ProblemInstance;
use jocal_sim::demand::DemandTrace;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::topology::{ClassId, ContentId, Network, SbsId};
use proptest::prelude::*;

fn options() -> PrimalDualOptions {
    PrimalDualOptions {
        max_iterations: 12,
        ..PrimalDualOptions::default()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Solves and evaluates `demand` on both paths and asserts every
/// artifact agrees bitwise.
fn assert_bit_parity(network: &Network, demand: &DemandTrace) {
    assert_warm_bit_parity(network, demand, None);
}

/// [`assert_bit_parity`] with both Algorithm 1 solves warm-started from
/// `warm`.
fn assert_warm_bit_parity(network: &Network, demand: &DemandTrace, warm: Option<&WarmStart>) {
    let sparse = ProblemInstance::fresh(network.clone(), demand.clone()).unwrap();
    let dense = sparse.clone().with_dense_oracle();
    assert!(sparse.sparse_enabled() && !dense.sparse_enabled());

    // Full Algorithm 1 solve: plans, multipliers, bounds, trajectory.
    let solver = PrimalDualSolver::new(options());
    let s = solver.solve_with_warm(&sparse, warm).unwrap();
    let d = solver.solve_with_warm(&dense, warm).unwrap();
    assert_eq!(s.cache_plan, d.cache_plan, "cache plans diverged");
    assert_eq!(
        bits(s.load_plan.tensor().as_slice()),
        bits(d.load_plan.tensor().as_slice()),
        "load plans diverged"
    );
    assert_eq!(bits(s.mu.as_slice()), bits(d.mu.as_slice()), "mu diverged");
    assert_eq!(s.iterations, d.iterations);
    assert_eq!(s.converged, d.converged);
    assert_eq!(s.lower_bound.to_bits(), d.lower_bound.to_bits());
    assert_eq!(s.gap.to_bits(), d.gap.to_bits());
    assert_eq!(s.history, d.history, "convergence trajectories diverged");

    // P2 alone, from the solved multipliers.
    let (ys, objs) = solve_load_all(&sparse, &s.mu, None).unwrap();
    let (yd, objd) = solve_load_all(&dense, &d.mu, None).unwrap();
    assert_eq!(
        bits(ys.tensor().as_slice()),
        bits(yd.tensor().as_slice()),
        "P2 load plans diverged"
    );
    assert_eq!(objs.to_bits(), objd.to_bits(), "P2 objectives diverged");

    // Cost accounting over the executed plans.
    let cs = evaluate_per_slot(&sparse, &s.cache_plan, &s.load_plan);
    let cd = evaluate_per_slot(&dense, &d.cache_plan, &d.load_plan);
    assert_eq!(cs.len(), cd.len());
    for (t, (a, b)) in cs.iter().zip(&cd).enumerate() {
        assert_eq!(a.bs_operating.to_bits(), b.bs_operating.to_bits(), "t={t}");
        assert_eq!(
            a.sbs_operating.to_bits(),
            b.sbs_operating.to_bits(),
            "t={t}"
        );
        assert_eq!(a.replacement.to_bits(), b.replacement.to_bits(), "t={t}");
        assert_eq!(a.replacement_count, b.replacement_count, "t={t}");
    }

    // Ledger attribution, slot by slot.
    let model = *sparse.cost_model();
    let mut prev = sparse.initial_cache().clone();
    for t in 0..demand.horizon() {
        let cache = s.cache_plan.state(t).clone();
        let lds = ledger_slot_sparse(
            network,
            &model,
            sparse.nonzeros(),
            &prev,
            &cache,
            &s.load_plan,
            t,
            t,
        );
        let ldd = ledger_slot(network, &model, demand, &prev, &cache, &d.load_plan, t, t);
        assert_eq!(lds, ldd, "ledger diverged at t={t}");
        prev = cache;
    }
}

fn masked_scenario(k: usize, horizon: usize, density: f64, seed: u64) -> (Network, DemandTrace) {
    let mut cfg = ScenarioConfig::tiny()
        .with_num_contents(k)
        .with_horizon(horizon);
    if density < 1.0 {
        cfg = cfg.with_nonzero_fraction(density);
    }
    let s = cfg.build(seed).unwrap();
    (s.network, s.demand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random catalogs, horizons and mask densities (including fully
    /// dense) agree bitwise on every solver and accounting artifact.
    #[test]
    fn random_density_bit_parity(
        k in 3usize..12,
        horizon in 2usize..5,
        density_pct in 5usize..120,
        seed in 0u64..500,
    ) {
        // Percentages above 100 clamp to fully dense, so the dense
        // regime stays in the sampled mix.
        let density = (density_pct as f64 / 100.0).min(1.0);
        let (network, demand) = masked_scenario(k, horizon, density, seed);
        assert_bit_parity(&network, &demand);
    }
}

#[test]
fn all_zero_demand_bit_parity() {
    let s = ScenarioConfig::tiny().with_horizon(3).build(5).unwrap();
    let zeros = DemandTrace::zeros(&s.network, 3);
    assert_bit_parity(&s.network, &zeros);
}

#[test]
fn single_nonzero_bit_parity() {
    let s = ScenarioConfig::tiny().with_horizon(3).build(6).unwrap();
    let mut demand = DemandTrace::zeros(&s.network, 3);
    demand
        .set_lambda(1, SbsId(0), ClassId(2), ContentId(3), 4.5)
        .unwrap();
    assert_bit_parity(&s.network, &demand);
}

#[test]
fn full_density_multi_sbs_bit_parity() {
    let cfg = ScenarioConfig {
        num_sbs: 2,
        ..ScenarioConfig::tiny()
    };
    let s = cfg.with_horizon(3).build(7).unwrap();
    assert_bit_parity(&s.network, &s.demand);
}

#[test]
fn production_sparse_regime_bit_parity() {
    // The regime the sparse path exists for: a large catalog at ~1%
    // density.
    let (network, demand) = masked_scenario(200, 3, 0.01, 11);
    assert_bit_parity(&network, &demand);
}

#[test]
fn warm_start_off_support_bit_parity() {
    // An RHC-style warm start: the previous window's multipliers and
    // loads shifted one slot. The previous window drew a different
    // mask, so the warm multipliers are nonzero where the current λ is
    // zero. Those coordinates carry P1 reward until the dual ascent
    // clears them; a P1 support built from the λ-support alone would
    // miss them.
    for (density, previous_seed, seed) in [(0.1, 21, 22), (0.3, 23, 24), (1.0, 25, 26)] {
        let (network, previous) = masked_scenario(30, 4, density, previous_seed);
        let (_, demand) = masked_scenario(30, 4, density, seed);
        let cold = PrimalDualSolver::new(options())
            .solve(&ProblemInstance::fresh(network.clone(), previous).unwrap())
            .unwrap();
        let warm = WarmStart {
            mu: cold.mu.shift_time(1),
            y: LoadPlan::from_tensor(cold.load_plan.tensor().shift_time(1)),
        };
        if density < 1.0 {
            let off_support = (0..demand.horizon()).any(|t| {
                network.iter_sbs().any(|(n, sbs)| {
                    let lambda = demand.sbs_slot_slice(t, n);
                    let mu = warm.mu.sbs_slot_slice(t, n);
                    (0..sbs.num_classes() * network.num_contents())
                        .any(|i| mu[i] != 0.0 && lambda[i] == 0.0)
                })
            });
            assert!(
                off_support,
                "density {density}: warm μ stays on the λ-support"
            );
        }
        assert_warm_bit_parity(&network, &demand, Some(&warm));
    }
}
