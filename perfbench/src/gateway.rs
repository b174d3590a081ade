//! `gateway-lrfu-open`: HTTP ingest into `Gateway::start`, driven by a
//! single-connection open-loop generator, under the LRFU baseline.

use crate::episode::{idle_slot_cost, take_logs, timed_setups, Episode, Ingress, Shape, Workload};
use crate::inputs::perturb;
use crate::probe::{new_log, now_ns, Log, ProbePolicy, ProbeSink};
use crate::{online_config, serve_config, REFERENCE_SEED};
use jocal_cluster::ClusterConfig;
use jocal_core::plan::CacheState;
use jocal_core::workspace::Parallelism;
use jocal_core::CostModel;
use jocal_experiments::schemes::{build_online_policy, RunConfig, Scheme};
use jocal_flightrec::{CaptureHeader, FlightRecorder};
use jocal_gateway::{CellSpec, Gateway, GatewayConfig, ObservabilityConfig};
use jocal_online::policy::OnlinePolicy;
use jocal_serve::cell::CellCore;
use jocal_serve::metrics::{MemorySink, SlotMetrics};
use jocal_serve::{ChunkedTraceReader, DemandSource, JsonLinesSink, ServeConfig, TraceSource};
use jocal_sim::demand::DemandTrace;
use jocal_sim::popularity::ZipfMandelbrot;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::stream::StreamingDemand;
use jocal_sim::topology::Network;
use jocal_sim::trace::write_trace;
use jocal_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cells behind the gateway.
const CELLS: usize = 2;
/// Shards of the serving cluster (and its worker pool).
const SHARDS: usize = 2;
/// HTTP worker threads.
const HTTP_WORKERS: usize = 2;
/// Slots each cell serves per episode. Short episodes give a run many
/// of them to take the best from.
const SLOTS: usize = 150;
/// Requests released per second, one slot each, alternating cells:
/// about half the slots per second this gateway can decide.
const RATE_PER_S: f64 = 800.0;
/// The generator has fallen behind when the median request leaves
/// later than this share of the inter-arrival gap after it was due;
/// such a run does not offer the load it claims.
const MAX_LAG_SHARE: f64 = 0.25;
/// Fraction of `(t, n, k)` triples that carry demand.
const DENSITY: f64 = 0.1;
/// Flight-recorder retention per cell, in frames. The recorder keeps
/// its ring in memory: every slot still builds its capture frame, but
/// no frame goes to disk, whose latency on a shared machine swings far
/// more than any change to the program could.
const RECORDER_FRAMES: usize = 64;

/// A small sparse scenario (N=2, K=200, 10% density) with window 1.
fn scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_default()
        .with_num_contents(200)
        .with_nonzero_fraction(DENSITY)
        .with_prediction_window(1);
    cfg.num_sbs = 2;
    cfg
}

/// The `gateway-lrfu-open` workload for one seed.
pub struct GatewayLrfuOpen {
    /// Per cell: its network (fixed topology).
    networks: Vec<Network>,
    /// Per cell, per slot: the `POST /v1/demand` body carrying it.
    bodies: Vec<Vec<Vec<u8>>>,
    /// Cost of serving the bodies with empty caches.
    idle_cost: f64,
    run_cfg: RunConfig,
}

/// A started gateway with its cells' logs, its telemetry handle and its
/// cells' flight recorders.
type SetUp = (Gateway, Vec<Log>, Telemetry, Vec<FlightRecorder>);

impl GatewayLrfuOpen {
    /// Generates the request bodies: the reference demand perturbed by
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Scenario or serialization failures.
    pub fn new(seed: u64) -> Result<Self, String> {
        let cfg = scenario();
        let mut networks = Vec::with_capacity(CELLS);
        let mut bodies = Vec::with_capacity(CELLS);
        let mut idle_cost = 0.0;
        for cell in 0..CELLS {
            let network = cfg
                .build_network(ScenarioConfig::cell_seed(REFERENCE_SEED, cell))
                .map_err(|e| format!("cell {cell} network: {e}"))?;
            let popularity = ZipfMandelbrot::new(cfg.num_contents, cfg.zipf_alpha, cfg.zipf_q)
                .map_err(|e| format!("popularity: {e}"))?;
            let demand_seed =
                ScenarioConfig::demand_seed(ScenarioConfig::cell_seed(REFERENCE_SEED, cell));
            let generator = StreamingDemand::new(popularity, cfg.temporal.clone(), demand_seed)
                .and_then(|g| g.with_nonzero_fraction(cfg.nonzero_fraction))
                .map_err(|e| format!("cell {cell} demand: {e}"))?;
            let mut cell_bodies = Vec::with_capacity(SLOTS);
            for t in 0..SLOTS {
                let mut slot = generator
                    .slot(&network, t)
                    .map_err(|e| format!("cell {cell} slot {t}: {e}"))?;
                perturb(&mut slot, seed, t);
                idle_cost += idle_slot_cost(&network, &slot);
                let mut body = Vec::new();
                write_trace(&slot, &mut body).map_err(|e| format!("body: {e}"))?;
                cell_bodies.push(body);
            }
            networks.push(network);
            bodies.push(cell_bodies);
        }
        Ok(GatewayLrfuOpen {
            networks,
            bodies,
            idle_cost,
            run_cfg: online_config(cfg.prediction_window, cfg.eta),
        })
    }

    fn cell_config(&self, cell: usize) -> ServeConfig {
        let mut cfg = serve_config(self.run_cfg.window, self.run_cfg.eta, cell);
        cfg.ledger = true;
        cfg
    }

    fn policy(&self) -> Box<dyn OnlinePolicy + Send> {
        build_online_policy(Scheme::Lrfu, &self.run_cfg).expect("LRFU is an online policy")
    }

    /// Builds every cell's policy, sink and flight recorder and starts
    /// the gateway, up to the first slot.
    fn set_up(&self, traced: bool) -> Result<SetUp, String> {
        // Telemetry is part of this workload's configuration; tracing
        // adds the span recorder on top.
        let telemetry = if traced {
            Telemetry::traced()
        } else {
            Telemetry::enabled()
        };
        let logs: Vec<Log> = (0..CELLS).map(|_| new_log()).collect();
        let mut recorders = Vec::with_capacity(CELLS);
        let mut specs = Vec::with_capacity(CELLS);
        for (cell, log) in logs.iter().enumerate() {
            let policy = self.policy();
            let policy: Box<dyn OnlinePolicy + Send> = if traced {
                Box::new(ProbePolicy::new(policy, log.clone()))
            } else {
                policy
            };
            let mut header = CaptureHeader::new(Scheme::Lrfu.label(), "lrfu");
            header.cell = cell as u64;
            header.window = self.run_cfg.window as u64;
            header.horizon = Some(SLOTS as u64);
            header.ledger = true;
            let recorder = FlightRecorder::in_memory(header, RECORDER_FRAMES);
            recorders.push(recorder.clone());
            specs.push(
                CellSpec::new(
                    self.networks[cell].clone(),
                    CostModel::paper(),
                    self.cell_config(cell),
                    policy,
                )
                .with_sink(Box::new(ProbeSink::new(
                    JsonLinesSink::new(std::io::sink()),
                    log.clone(),
                )))
                .with_expected_slots(SLOTS)
                .with_recorder(recorder),
            );
        }
        let config = GatewayConfig {
            http_workers: HTTP_WORKERS,
            // No SLO is configured, so the background sampler would only
            // wake every 250 ms and delay each shutdown by as much.
            observability: ObservabilityConfig {
                sample_interval: None,
                ..ObservabilityConfig::default()
            },
            ..GatewayConfig::default()
        };
        let cluster = ClusterConfig::new(SHARDS).with_parallelism(Parallelism::Threads(SHARDS));
        let gateway = Gateway::start(&config, cluster, specs, &telemetry)
            .map_err(|e| format!("gateway start: {e}"))?;
        Ok((gateway, logs, telemetry, recorders))
    }

    /// Replays cell `cell`'s bodies in process through `CellCore` over a
    /// `TraceSource`, returning its slot records.
    fn replay(&self, cell: usize) -> Result<Vec<SlotMetrics>, String> {
        let network = &self.networks[cell];
        let mut trace = DemandTrace::zeros(network, SLOTS);
        let mut one = DemandTrace::zeros(network, 1);
        for (t, body) in self.bodies[cell].iter().enumerate() {
            let mut reader =
                ChunkedTraceReader::new(body.as_slice()).map_err(|e| format!("body {t}: {e}"))?;
            if !reader
                .next_slot(&mut one)
                .map_err(|e| format!("body {t}: {e}"))?
            {
                return Err(format!("body {t} carries no slot"));
            }
            trace
                .copy_slot_from(t, &one, 0)
                .map_err(|e| format!("body {t}: {e}"))?;
        }
        let mut source = TraceSource::new(trace);
        let mut policy = self.policy();
        let mut sink = MemorySink::default();
        let model = CostModel::paper();
        let mut core = CellCore::start(
            network,
            &model,
            self.cell_config(cell),
            &Telemetry::disabled(),
            &mut source,
            policy.as_mut(),
            CacheState::empty(network),
            &mut sink,
        )
        .map_err(|e| format!("replay start: {e}"))?;
        while core
            .step(&mut source, policy.as_mut(), &mut sink)
            .map_err(|e| format!("replay: {e}"))?
        {}
        core.finish(&mut sink)
            .map_err(|e| format!("replay finish: {e}"))?;
        Ok(sink.slots)
    }
}

impl Workload for GatewayLrfuOpen {
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
            policy: Scheme::Lrfu.label(),
        }
    }

    fn tail_q(&self) -> f64 {
        0.96
    }

    fn min_episodes(&self) -> usize {
        3
    }

    fn idle_cost(&self) -> Result<f64, String> {
        Ok(self.idle_cost)
    }

    fn episode(&mut self, traced: bool) -> Result<Episode, String> {
        let ((gateway, logs, telemetry, recorders), setup_s) = timed_setups(
            || self.set_up(traced),
            |(gateway, ..)| {
                gateway.drain();
                let _ = gateway.join();
            },
        )?;

        let mut ingress = self.drive(&gateway.local_addr().to_string());
        if ingress.accepted < ingress.requests {
            // A slot that never arrived would keep its cell waiting.
            gateway.drain();
        }
        let (_, stats) = gateway.join().map_err(|e| format!("gateway: {e}"))?;
        ingress.stats = stats;
        for recorder in &recorders {
            ingress.frames += recorder.frames_recorded();
            for frame in recorder.snapshot() {
                let line = serde_json::to_string(&frame).map_err(|e| format!("frame: {e}"))?;
                ingress.frame_bytes += line.len() as u64 + 1;
                ingress.frames_sized += 1;
            }
        }

        let cells = take_logs(logs);
        let serve_start = ingress.due[0][0];
        let serve_end = cells
            .iter()
            .filter_map(|c| c.records.last().map(|(at, _)| *at))
            .max()
            .unwrap_or(serve_start);
        Ok(Episode {
            traced,
            setup_s,
            serve_start,
            serve_end,
            expected_slots: CELLS * SLOTS,
            lanes: SHARDS,
            clustered: true,
            cells,
            telemetry,
            policy: self.policy().name().to_string(),
            ingress: Some(ingress),
        })
    }

    fn check(&mut self, episode: &Episode) -> Vec<String> {
        let mut problems = Vec::new();
        for (cell, log) in episode.cells.iter().enumerate() {
            match self.replay(cell) {
                Ok(expected) => {
                    let served: Vec<&SlotMetrics> = log.records.iter().map(|(_, m)| m).collect();
                    if let Some(diff) = crate::first_difference(&served, &expected) {
                        problems.push(format!(
                            "cell {cell}: gateway records differ from the in-process replay: {diff}"
                        ));
                    }
                }
                Err(e) => problems.push(format!("cell {cell}: replay failed: {e}")),
            }
        }
        if let Some(ingress) = &episode.ingress {
            let gap_ns = 1e9 / RATE_PER_S;
            let lags: Vec<f64> = ingress.lag_ns.iter().map(|&n| n as f64).collect();
            let typical = crate::stats::median(&lags);
            if typical > MAX_LAG_SHARE * gap_ns {
                problems.push(format!(
                    "load generator fell behind: median lag {:.3} ms exceeds {:.0}% of the {:.3} ms gap",
                    typical / 1e6,
                    MAX_LAG_SHARE * 100.0,
                    gap_ns / 1e6
                ));
            }
        }
        problems
    }
}

impl GatewayLrfuOpen {
    /// Releases every slot's request on the fixed schedule over one
    /// keep-alive connection, timing each from when it was due.
    ///
    /// Requests are pipelined: one thread writes each request when it is
    /// due whether or not earlier responses have arrived, and a second
    /// thread reads the responses, which the gateway answers in order.
    /// A slow response therefore delays no later release.
    fn drive(&self, addr: &str) -> Ingress {
        if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) < 2 {
            eprintln!("warning: the load generator's two threads exceed this machine's one core");
        }
        let requests = CELLS * SLOTS;
        let gap_ns = 1e9 / RATE_PER_S;
        let mut ingress = Ingress {
            due: vec![vec![0; SLOTS]; CELLS],
            ack: vec![vec![0; SLOTS]; CELLS],
            lag_ns: Vec::with_capacity(requests),
            http_ns: Vec::with_capacity(requests),
            requests,
            ..Ingress::default()
        };
        let Some((mut writer, reader)) = connect(addr) else {
            return ingress;
        };
        // A short lead lets the first due time sit in the future.
        let first_due = now_ns() + 2_000_000;
        let due = |i: usize| first_due + (i as f64 * gap_ns) as u64;
        let responses = std::thread::scope(|scope| {
            let reading = scope.spawn(move || read_responses(reader, requests));
            for i in 0..requests {
                let (cell, slot) = (i % CELLS, i / CELLS);
                let due = due(i);
                let now = now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let body = &self.bodies[cell][slot];
                let head = format!(
                    "POST /v1/demand?cell={cell} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                ingress.lag_ns.push(now_ns().saturating_sub(due));
                ingress.body_bytes += body.len();
                let sent = writer
                    .write_all(head.as_bytes())
                    .and_then(|()| writer.write_all(body));
                if sent.is_err() {
                    break;
                }
            }
            reading.join().expect("the response reader does not panic")
        });
        for (i, (done, status)) in responses.into_iter().enumerate() {
            let (cell, slot) = (i % CELLS, i / CELLS);
            ingress.due[cell][slot] = due(i);
            ingress.http_ns.push(done.saturating_sub(due(i)));
            if status == 202 {
                ingress.accepted += 1;
                ingress.ack[cell][slot] = done;
            }
        }
        for i in ingress.http_ns.len()..requests {
            ingress.due[i % CELLS][i / CELLS] = due(i);
        }
        ingress
    }
}

/// Opens the generator's connection: a write half and a buffered read
/// half of one socket.
fn connect(addr: &str) -> Option<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr).ok()?;
    let timeout = Some(Duration::from_secs(10));
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(timeout).ok()?;
    stream.set_write_timeout(timeout).ok()?;
    let reader = BufReader::new(stream.try_clone().ok()?);
    Some((stream, reader))
}

/// Reads up to `count` responses in order, stamping each with the time
/// it was complete; stops early at the first transport or protocol
/// failure.
fn read_responses(mut reader: BufReader<TcpStream>, count: usize) -> Vec<(u64, u16)> {
    let mut out = Vec::with_capacity(count);
    let mut line = String::new();
    while out.len() < count {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let Some(status) = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()) else {
            break;
        };
        let mut length = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return out;
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; length];
        if reader.read_exact(&mut body).is_err() {
            break;
        }
        out.push((now_ns(), status));
    }
    out
}
