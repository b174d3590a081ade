//! One measured episode: set up a workload, serve a fixed number of
//! slots through it, keep what the wrappers saw.

use crate::probe::{CellLog, Log};
use jocal_core::accounting::evaluate_slot_sparse;
use jocal_core::{CacheState, CostModel, LoadPlan, SlotNonzeros};
use jocal_gateway::GatewayStats;
use jocal_sim::demand::DemandTrace;
use jocal_sim::topology::Network;
use jocal_telemetry::Telemetry;

/// Shape of the inputs a workload generates, stamped on every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Catalog size `K`.
    pub contents: usize,
    /// SBSs per cell `N`.
    pub sbs: usize,
    /// MU classes per SBS.
    pub classes: usize,
    /// Configured demand density (fraction of `(t, n, k)` with demand).
    pub density: f64,
    /// Cells served side by side.
    pub cells: usize,
    /// Slots each cell serves per episode.
    pub slots: usize,
    /// Prediction window `w`.
    pub window: usize,
    /// Prediction noise `η`.
    pub eta: f64,
    /// Policy label.
    pub policy: String,
}

/// What the load generator saw, on the workload that has one.
#[derive(Debug, Default)]
pub struct Ingress {
    /// Per cell, per slot: when the request carrying the slot was due.
    pub due: Vec<Vec<u64>>,
    /// Per cell, per slot: when its `202 Accepted` arrived (`0` if none).
    pub ack: Vec<Vec<u64>>,
    /// Per request: how late the generator sent it (ns).
    pub lag_ns: Vec<u64>,
    /// Per request: response time measured from when it was due (ns).
    pub http_ns: Vec<u64>,
    /// Requests sent.
    pub requests: usize,
    /// Requests answered `202 Accepted`.
    pub accepted: usize,
    /// Request body sizes, summed.
    pub body_bytes: usize,
    /// The gateway's own counters at shutdown.
    pub stats: GatewayStats,
    /// Capture frames the cells' flight recorders built.
    pub frames: u64,
    /// Serialized size of the frames still retained, summed.
    pub frame_bytes: u64,
    /// Frames behind `frame_bytes`.
    pub frames_sized: u64,
}

/// One episode's raw observations.
#[derive(Debug)]
pub struct Episode {
    /// Whether the wrappers and the program's span tracer were on.
    pub traced: bool,
    /// Set-up times: from the first input being built to the first
    /// slot, once per repetition.
    pub setup_s: Vec<f64>,
    /// Start of serving, in `probe::now_ns` time.
    pub serve_start: u64,
    /// End of serving, in `probe::now_ns` time.
    pub serve_end: u64,
    /// Slots the episode should decide, over all cells.
    pub expected_slots: usize,
    /// Threads stepping cells concurrently.
    pub lanes: usize,
    /// Whether cells were driven by the cluster runtime.
    pub clustered: bool,
    /// One log per cell, in cell order.
    pub cells: Vec<CellLog>,
    /// The telemetry handle the program ran with.
    pub telemetry: Telemetry,
    /// The serving policy's name (the label of its metric series).
    pub policy: String,
    /// Load-generator observations (HTTP workload only).
    pub ingress: Option<Ingress>,
}

impl Episode {
    /// Serving wall time in seconds.
    pub fn serve_s(&self) -> f64 {
        self.serve_end.saturating_sub(self.serve_start) as f64 / 1e9
    }

    /// Slots decided over all cells.
    pub fn decided(&self) -> usize {
        self.cells.iter().map(|c| c.records.len()).sum()
    }
}

/// The eq. 9 cost of serving one slot of demand (a horizon-1 trace)
/// with empty caches, every request from the BS.
pub fn idle_slot_cost(network: &Network, slot: &DemandTrace) -> f64 {
    let mut nonzeros = SlotNonzeros::default();
    nonzeros.rebuild_from(slot);
    let empty = CacheState::empty(network);
    let load = LoadPlan::zeros(network, 1);
    evaluate_slot_sparse(
        network,
        &CostModel::paper(),
        &nonzeros,
        &empty,
        &empty,
        &load,
        0,
    )
    .total()
}

/// Set-ups timed per episode; only the last one serves.
const SETUP_REPEATS: usize = 7;

/// Runs `setup` several times, timing each, and returns the last result
/// with every timing; earlier results go to `discard` untimed.
///
/// # Errors
///
/// The first set-up failure.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let started = std::time::Instant::now();
        kept = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Moves each cell's log out of its shared handle once every wrapper
/// holding it has been dropped.
pub fn take_logs(logs: Vec<Log>) -> Vec<CellLog> {
    logs.into_iter()
        .map(|log| {
            std::sync::Arc::try_unwrap(log)
                .unwrap_or_else(|_| panic!("a wrapper of a finished cell is still alive"))
                .into_inner()
                .expect("no wrapper panicked while holding its cell log")
        })
        .collect()
}

/// A benchmark workload.
pub trait Workload {
    /// The shape of the inputs it generates.
    fn shape(&self) -> Shape;

    /// The tail quantile its latency metrics report, fixed so that a run
    /// of the configured length leaves at least ten samples beyond it.
    fn tail_q(&self) -> f64;

    /// Fewest episodes a run measures, however long they take.
    fn min_episodes(&self) -> usize;

    /// Sets up and serves one episode.
    ///
    /// # Errors
    ///
    /// Any failure of the program, with context.
    fn episode(&mut self, traced: bool) -> Result<Episode, String>;

    /// The eq. 9 cost of serving an episode's inputs with empty caches
    /// (every request from the BS), summed over cells and slots; every
    /// episode serves the same inputs.
    ///
    /// # Errors
    ///
    /// Failures regenerating the inputs.
    fn idle_cost(&self) -> Result<f64, String>;

    /// Workload-specific output checks against a finished untraced
    /// episode; each returned string is one failed check.
    fn check(&mut self, _episode: &Episode) -> Vec<String> {
        Vec::new()
    }
}
