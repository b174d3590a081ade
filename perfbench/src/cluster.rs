//! `sparse-chc-cluster`: a large, sparse catalog under CHC on four
//! cells, driven through `ClusterEngine::run`.

use crate::episode::{idle_slot_cost, take_logs, timed_setups, Episode, Shape, Workload};
use crate::inputs::{perturb, PerturbedSource};
use crate::probe::{new_log, now_ns, Log, ProbePolicy, ProbeSink, ProbeSource};
use crate::{online_config, serve_config, REFERENCE_SEED};
use jocal_cluster::{Cell, ClusterConfig, ClusterEngine};
use jocal_core::workspace::Parallelism;
use jocal_core::CostModel;
use jocal_experiments::schemes::{build_online_policy, Scheme};
use jocal_online::policy::OnlinePolicy;
use jocal_serve::{JsonLinesSink, SyntheticSource};
use jocal_sim::popularity::ZipfMandelbrot;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::stream::StreamingDemand;
use jocal_sim::topology::Network;
use jocal_telemetry::Telemetry;

/// Cells served side by side.
const CELLS: usize = 4;
/// Shards, which also bound the worker pool.
const SHARDS: usize = 2;
/// Slots each cell serves per episode.
const SLOTS: usize = 20;
/// The worker pool: one thread per shard.
const POOL: Parallelism = Parallelism::Threads(SHARDS);
/// CHC commitment level `r`.
const COMMITMENT: usize = 3;
/// Fraction of `(t, n, k)` triples that carry demand.
const DENSITY: f64 = 0.001;

/// A production-sparse catalog (K=10 000, 0.1% density) with exact
/// predictions (η=0), so the policies' incremental window path is live.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_default()
        .with_num_contents(10_000)
        .with_nonzero_fraction(DENSITY)
        .with_eta(0.0)
        .with_prediction_window(5)
}

/// The `sparse-chc-cluster` workload for one seed.
pub struct SparseChcCluster {
    seed: u64,
}

impl SparseChcCluster {
    /// The workload whose demand `seed` perturbs.
    pub fn new(seed: u64) -> Self {
        SparseChcCluster { seed }
    }
}

impl Workload for SparseChcCluster {
    fn shape(&self) -> Shape {
        let cfg = scenario();
        Shape {
            contents: cfg.num_contents,
            sbs: cfg.num_sbs,
            classes: cfg.classes_per_sbs,
            density: DENSITY,
            cells: CELLS,
            slots: SLOTS,
            window: cfg.prediction_window,
            eta: cfg.eta,
            policy: Scheme::Chc {
                commitment: COMMITMENT,
            }
            .label(),
        }
    }

    fn tail_q(&self) -> f64 {
        0.85
    }

    fn min_episodes(&self) -> usize {
        3
    }

    fn idle_cost(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for cell in 0..CELLS {
            let network = network(cell)?;
            let generator = self.generator(cell)?;
            for t in 0..SLOTS {
                let mut slot = generator
                    .slot(&network, t)
                    .map_err(|e| format!("cell {cell} slot {t}: {e}"))?;
                perturb(&mut slot, self.seed, t);
                total += idle_slot_cost(&network, &slot);
            }
        }
        Ok(total)
    }

    fn episode(&mut self, traced: bool) -> Result<Episode, String> {
        let ((cells, engine, logs, telemetry, policy_name), setup_s) =
            timed_setups(|| self.set_up(traced), drop)?;
        let serve_start = now_ns();
        engine.run(cells).map_err(|e| format!("cluster: {e}"))?;
        let serve_end = now_ns();

        Ok(Episode {
            traced,
            setup_s,
            serve_start,
            serve_end,
            expected_slots: CELLS * SLOTS,
            lanes: POOL.workers(CELLS.min(SHARDS)),
            clustered: true,
            cells: take_logs(logs),
            telemetry,
            policy: policy_name,
            ingress: None,
        })
    }
}

/// Everything one episode serves: the cells, the engine that drives
/// them, their logs, the telemetry handle and the policy's name.
type SetUp = (Vec<Cell>, ClusterEngine, Vec<Log>, Telemetry, String);

impl SparseChcCluster {
    /// Builds every cell's network, demand stream and policy, and the
    /// cluster engine, up to the first slot.
    fn set_up(&self, traced: bool) -> Result<SetUp, String> {
        let telemetry = if traced {
            Telemetry::traced()
        } else {
            Telemetry::disabled()
        };
        let logs: Vec<Log> = (0..CELLS).map(|_| new_log()).collect();
        let cfg = scenario();
        let run_cfg = online_config(cfg.prediction_window, cfg.eta);
        let mut cells = Vec::with_capacity(CELLS);
        let mut policy_name = String::new();
        for (i, log) in logs.iter().enumerate() {
            let network = network(i)?;
            let source = PerturbedSource::new(
                SyntheticSource::bounded(self.generator(i)?, network.clone(), SLOTS),
                self.seed,
            );
            let policy = build_online_policy(
                Scheme::Chc {
                    commitment: COMMITMENT,
                },
                &run_cfg,
            )
            .expect("CHC is an online policy");
            policy_name = policy.name().to_string();
            let policy: Box<dyn OnlinePolicy + Send> = if traced {
                Box::new(ProbePolicy::new(policy, log.clone()))
            } else {
                policy
            };
            cells.push(
                Cell::new(
                    network,
                    CostModel::paper(),
                    serve_config(run_cfg.window, run_cfg.eta, i),
                    Box::new(ProbeSource::new(source, log.clone())),
                    policy,
                )
                .with_sink(Box::new(ProbeSink::new(
                    JsonLinesSink::new(std::io::sink()),
                    log.clone(),
                ))),
            );
        }
        let engine = ClusterEngine::new(ClusterConfig::new(SHARDS).with_parallelism(POOL))
            .with_telemetry(telemetry.clone());
        Ok((cells, engine, logs, telemetry, policy_name))
    }

    /// Cell `cell`'s reference demand stream.
    fn generator(&self, cell: usize) -> Result<StreamingDemand, String> {
        let cfg = scenario();
        let popularity = ZipfMandelbrot::new(cfg.num_contents, cfg.zipf_alpha, cfg.zipf_q)
            .map_err(|e| format!("popularity: {e}"))?;
        let seed = ScenarioConfig::demand_seed(ScenarioConfig::cell_seed(REFERENCE_SEED, cell));
        StreamingDemand::new(popularity, cfg.temporal.clone(), seed)
            .and_then(|g| g.with_nonzero_fraction(cfg.nonzero_fraction))
            .map_err(|e| format!("cell {cell} demand: {e}"))
    }
}

/// Cell `cell`'s network.
fn network(cell: usize) -> Result<Network, String> {
    scenario()
        .build_network(ScenarioConfig::cell_seed(REFERENCE_SEED, cell))
        .map_err(|e| format!("cell {cell} network: {e}"))
}
