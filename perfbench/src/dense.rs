//! `dense-rhc`: the paper's default scenario under RHC on one cell,
//! driven through `CellCore::start/step/finish`.

use crate::episode::{idle_slot_cost, take_logs, timed_setups, Episode, Shape, Workload};
use crate::inputs::perturb;
use crate::probe::{new_log, now_ns, Event, Kind, Log, ProbePolicy, ProbeSink, ProbeSource};
use crate::{online_config, serve_config, REFERENCE_SEED};
use jocal_core::plan::CacheState;
use jocal_core::CostModel;
use jocal_experiments::schemes::{build_online_policy, Scheme};
use jocal_online::policy::OnlinePolicy;
use jocal_serve::cell::CellCore;
use jocal_serve::{JsonLinesSink, TraceSource};
use jocal_sim::demand::{DemandGenerator, DemandTrace};
use jocal_sim::popularity::ZipfMandelbrot;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::topology::Network;
use jocal_telemetry::Telemetry;

/// Slots served per episode: enough that the p90 slot interval of one
/// episode has ten samples beyond it.
const SLOTS: usize = 102;

/// The paper's default scenario (N=1, K=30, 30 classes, C=5, B=30,
/// w=10, η=0.1).
fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_default().with_horizon(SLOTS)
}

/// The `dense-rhc` workload for one seed.
pub struct DenseRhc {
    seed: u64,
}

impl DenseRhc {
    /// The workload whose demand `seed` perturbs.
    pub fn new(seed: u64) -> Self {
        DenseRhc { seed }
    }
}

impl Workload for DenseRhc {
    fn shape(&self) -> Shape {
        let cfg = scenario();
        Shape {
            contents: cfg.num_contents,
            sbs: cfg.num_sbs,
            classes: cfg.classes_per_sbs,
            density: 1.0,
            cells: 1,
            slots: SLOTS,
            window: cfg.prediction_window,
            eta: cfg.eta,
            policy: Scheme::Rhc.label(),
        }
    }

    fn tail_q(&self) -> f64 {
        0.9
    }

    fn min_episodes(&self) -> usize {
        3
    }

    fn idle_cost(&self) -> Result<f64, String> {
        let network = network()?;
        let demand = self.demand(&network)?;
        Ok((0..SLOTS)
            .map(|t| idle_slot_cost(&network, &demand.window(t, 1)))
            .sum())
    }

    fn episode(&mut self, traced: bool) -> Result<Episode, String> {
        let ((mut cell, log, telemetry, policy_name), setup_s) =
            timed_setups(|| self.set_up(traced), drop)?;
        let serve_start = now_ns();
        loop {
            let start = now_ns();
            let more = cell
                .core
                .step(&mut cell.source, cell.policy.as_mut(), &mut cell.sink)
                .map_err(|e| format!("slot {}: {e}", cell.core.slots()))?;
            if !more {
                break;
            }
            let end = now_ns();
            log.lock().expect("cell log").events.push(Event {
                kind: Kind::Step,
                start,
                end,
            });
        }
        let Cell {
            core,
            source,
            policy,
            mut sink,
        } = cell;
        core.finish(&mut sink)
            .map_err(|e| format!("cell finish: {e}"))?;
        let serve_end = now_ns();
        drop((source, policy, sink));

        Ok(Episode {
            traced,
            setup_s,
            serve_start,
            serve_end,
            expected_slots: SLOTS,
            lanes: 1,
            clustered: false,
            cells: take_logs(vec![log]),
            telemetry,
            policy: policy_name,
            ingress: None,
        })
    }
}

/// A started cell and the collaborators its steps borrow.
struct Cell {
    core: CellCore,
    source: ProbeSource<TraceSource>,
    policy: Box<dyn OnlinePolicy + Send>,
    sink: ProbeSink<JsonLinesSink<std::io::Sink>>,
}

impl DenseRhc {
    /// Builds the scenario, the policy and the cell, up to the first
    /// slot.
    fn set_up(&self, traced: bool) -> Result<(Cell, Log, Telemetry, String), String> {
        let telemetry = if traced {
            Telemetry::traced()
        } else {
            Telemetry::disabled()
        };
        let log = new_log();
        let cfg = scenario();
        let network = network()?;
        let demand = self.demand(&network)?;
        let run_cfg = online_config(cfg.prediction_window, cfg.eta);
        let policy = build_online_policy(Scheme::Rhc, &run_cfg).expect("RHC is an online policy");
        let policy_name = policy.name().to_string();
        let mut policy: Box<dyn OnlinePolicy + Send> = if traced {
            Box::new(ProbePolicy::new(policy, log.clone()))
        } else {
            policy
        };
        let mut source = ProbeSource::new(TraceSource::new(demand), log.clone());
        let mut sink = ProbeSink::new(JsonLinesSink::new(std::io::sink()), log.clone());
        let core = CellCore::start(
            &network,
            &CostModel::paper(),
            serve_config(run_cfg.window, run_cfg.eta, 0),
            &telemetry,
            &mut source,
            policy.as_mut(),
            CacheState::empty(&network),
            &mut sink,
        )
        .map_err(|e| format!("cell start: {e}"))?;
        let cell = Cell {
            core,
            source,
            policy,
            sink,
        };
        Ok((cell, log, telemetry, policy_name))
    }

    /// The episode's demand trace over `network`.
    fn demand(&self, network: &Network) -> Result<DemandTrace, String> {
        let cfg = scenario();
        let popularity = ZipfMandelbrot::new(cfg.num_contents, cfg.zipf_alpha, cfg.zipf_q)
            .map_err(|e| format!("popularity: {e}"))?;
        let mut demand = DemandGenerator::new(popularity, cfg.temporal.clone())
            .generate(network, SLOTS, ScenarioConfig::demand_seed(REFERENCE_SEED))
            .map_err(|e| format!("demand: {e}"))?;
        perturb(&mut demand, self.seed, 0);
        Ok(demand)
    }
}

/// The cell's network.
fn network() -> Result<Network, String> {
    scenario()
        .build_network(REFERENCE_SEED)
        .map_err(|e| format!("network: {e}"))
}
