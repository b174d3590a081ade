//! The jocal benchmark: end-to-end and per-layer metrics of the serving
//! stack on three workloads.
//!
//! ```text
//! jocal-perfbench --workload <dense-rhc|sparse-chc-cluster|gateway-lrfu-open|all>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! jocal-perfbench --compare <saved-output-a> <saved-output-b>
//! ```
//!
//! A run serves episodes of a fixed number of slots until `--seconds`
//! have passed (and at least a workload-specific minimum of episodes),
//! checks the program's outputs, and prints one line per metric, a
//! fingerprint line and, last, one JSON result line. `--trace 0`
//! reports the end-to-end metrics of untraced episodes; `--trace 1`
//! alternates untraced and traced episodes and reports the per-layer
//! metrics of the traced ones. The exit code is non-zero when any
//! output check fails. See `perfbench/README.md`.

mod cluster;
mod dense;
mod episode;
mod gateway;
mod heap;
mod inputs;
mod probe;
mod report;
mod stats;

use episode::{Episode, Workload};
use jocal_core::primal_dual::PrimalDualOptions;
use jocal_core::workspace::Parallelism;
use jocal_experiments::schemes::RunConfig;
use jocal_serve::metrics::SlotMetrics;
use jocal_serve::ServeConfig;
use jocal_sim::predictor::NoiseModel;
use jocal_telemetry::BuildInfo;
use report::Metric;
use serde::Value;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed of every workload's reference inputs: its cells' topologies
/// and reference demand. The workload seed perturbs that demand (see
/// `inputs`).
pub const REFERENCE_SEED: u64 = 42;
/// Master seed of the cells' request-sampling streams.
const REQUEST_SEED: u64 = 7;
/// Seed of the prediction-noise model.
const NOISE_SEED: u64 = 1_000_003;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["dense-rhc", "sparse-chc-cluster", "gateway-lrfu-open"];

/// Online-policy settings: each cell's window solves run on one thread,
/// so the cluster's shard pool is the only parallelism.
pub fn online_config(window: usize, eta: f64) -> RunConfig {
    RunConfig {
        window,
        eta,
        online_opts: PrimalDualOptions {
            parallelism: Parallelism::Threads(1),
            ..PrimalDualOptions::online()
        },
        ..RunConfig::default()
    }
}

/// Serve settings of cell `cell`.
pub fn serve_config(window: usize, eta: f64, cell: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        window,
        jocal_sim::scenario::ScenarioConfig::cell_seed(REQUEST_SEED, cell),
    );
    cfg.noise = NoiseModel::new(eta, NOISE_SEED);
    cfg
}

/// Whether two slot records carry the same decisions and costs, bit for
/// bit. Solve latency and buffer occupancy are wall-clock readings and
/// are not compared.
fn same_slot(a: &SlotMetrics, b: &SlotMetrics) -> bool {
    a.slot == b.slot
        && a.requests == b.requests
        && a.sbs_served.to_bits() == b.sbs_served.to_bits()
        && a.spilled.to_bits() == b.spilled.to_bits()
        && a.bs_served.to_bits() == b.bs_served.to_bits()
        && a.hit_ratio.to_bits() == b.hit_ratio.to_bits()
        && a.cost.bs_operating.to_bits() == b.cost.bs_operating.to_bits()
        && a.cost.sbs_operating.to_bits() == b.cost.sbs_operating.to_bits()
        && a.cost.replacement.to_bits() == b.cost.replacement.to_bits()
        && a.cost.replacement_count == b.cost.replacement_count
        && a.repair_scaled_sbs == b.repair_scaled_sbs
}

/// Where two slot-record streams first disagree, if they do.
pub fn first_difference(got: &[&SlotMetrics], want: &[SlotMetrics]) -> Option<String> {
    if let Some(i) = got.iter().zip(want).position(|(a, b)| !same_slot(a, b)) {
        return Some(format!(
            "slot {i}: cost {} vs {}",
            got[i].cost.total(),
            want[i].cost.total()
        ));
    }
    (got.len() != want.len()).then(|| format!("{} slots vs {}", got.len(), want.len()))
}

#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

/// The outcome of one workload run.
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    fingerprint: Value,
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dense-rhc" => Box::new(dense::DenseRhc::new(seed)),
        "sparse-chc-cluster" => Box::new(cluster::SparseChcCluster::new(seed)),
        "gateway-lrfu-open" => Box::new(gateway::GatewayLrfuOpen::new(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Output checks shared by every workload; each string is one failure.
fn check_streams(untraced: &[Episode], traced: &[Episode]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(reference) = untraced.first() else {
        return vec!["no untraced episode completed".into()];
    };
    for (k, episode) in untraced.iter().chain(traced).enumerate() {
        let label = if episode.traced { "traced" } else { "untraced" };
        if episode.decided() != episode.expected_slots {
            problems.push(format!(
                "episode {k} ({label}) decided {} of {} slots",
                episode.decided(),
                episode.expected_slots
            ));
        }
        for (cell, log) in episode.cells.iter().enumerate() {
            let bad = log.records.iter().find(|(_, m)| {
                !(m.cost.total().is_finite()
                    && m.cost.total() >= 0.0
                    && m.sbs_served.is_finite()
                    && m.sbs_served <= m.requests as f64 + 1e-9)
            });
            if let Some((_, m)) = bad {
                problems.push(format!(
                    "episode {k} cell {cell} slot {}: bad record {m:?}",
                    m.slot
                ));
            }
            let want: Vec<SlotMetrics> = reference.cells[cell]
                .records
                .iter()
                .map(|(_, m)| m.clone())
                .collect();
            let got: Vec<&SlotMetrics> = log.records.iter().map(|(_, m)| m).collect();
            if let Some(diff) = first_difference(&got, &want) {
                problems.push(format!(
                    "episode {k} ({label}) cell {cell} differs from the first untraced episode: {diff}"
                ));
            }
            if episode.traced && log.instrumented == 0 {
                problems.push(format!(
                    "episode {k} cell {cell}: instrument() never reached the policy"
                ));
            }
        }
    }
    problems
}

fn run_workload(opts: &Options, name: &str) -> Result<Outcome, String> {
    let mut workload = build(name, opts.seed)?;
    let shape = workload.shape();
    let budget = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut heap_mb = Vec::new();
    loop {
        let base = heap::start();
        untraced.push(workload.episode(false)?);
        heap_mb.push(heap::peak_since(base) as f64 / f64::from(1 << 20));
        if opts.trace {
            traced.push(workload.episode(true)?);
        }
        if untraced.len() >= workload.min_episodes() && started.elapsed() >= budget {
            break;
        }
    }
    if !opts.trace {
        // The output checks compare a traced episode with the untraced
        // ones; its timings are not reported.
        traced.push(workload.episode(true)?);
    }

    let mut problems = check_streams(&untraced, &traced);
    problems.extend(workload.check(&untraced[0]));
    let a1_spans = report::span_count(&traced, &["pd_iteration", "p1", "p2", "recovery"]);
    if shape.policy != "LRFU" && a1_spans == 0 {
        problems.push("the traced episodes recorded no Algorithm 1 spans".into());
    }
    if shape.eta == 0.0 && shape.window > 1 && report::incremental_frac(&traced) == Some(0.0) {
        problems.push(
            "exact predictions but no incremental window build: stable_predictions was lost".into(),
        );
    }

    let episodes = untraced.iter().chain(&traced);
    let mut attempted = 0;
    let mut failed = 0;
    for episode in episodes {
        attempted += episode.expected_slots;
        failed += episode.expected_slots.saturating_sub(episode.decided());
        if let Some(ingress) = &episode.ingress {
            attempted += ingress.requests;
            failed += ingress.requests - ingress.accepted;
        }
    }
    let ok_frac = 1.0 - stats::ratio(failed as f64, attempted as f64);
    let tail_q = workload.tail_q();
    let metrics = if opts.trace {
        report::per_layer(&traced, &untraced, tail_q)
    } else {
        let samples = report::tail_samples(&untraced);
        if stats::beyond(samples, tail_q) < 10.0 {
            eprintln!("warning: {samples} samples leave fewer than ten beyond the tail quantile");
        }
        let idle = workload.idle_cost()?;
        report::end_to_end(&untraced, tail_q, ok_frac, stats::median(&heap_mb), idle)
    };

    let body_bytes = untraced
        .iter()
        .filter_map(|e| e.ingress.as_ref())
        .map(|i| stats::ratio(i.body_bytes as f64, i.requests as f64))
        .next()
        .unwrap_or(0.0);
    let nonzeros = report::nonzeros_per_slot(&traced);
    let coordinates = (shape.sbs * shape.classes * shape.contents) as f64;
    let fingerprint = object(vec![
        (
            "workload",
            object(vec![
                ("name", Value::Str(name.into())),
                ("contents", int(shape.contents)),
                ("sbs", int(shape.sbs)),
                ("classes", int(shape.classes)),
                ("density", Value::Float(shape.density)),
                ("realized_density", Value::Float(nonzeros / coordinates)),
                ("nonzeros_per_slot", Value::Float(nonzeros)),
                ("slots", int(shape.slots)),
                ("cells", int(shape.cells)),
                ("window", int(shape.window)),
                ("policy", Value::Str(shape.policy.clone())),
                ("body_bytes_per_request", Value::Float(body_bytes)),
                ("seed", Value::Str(opts.seed.to_string())),
            ]),
        ),
        ("machine", machine()),
        (
            "run",
            object(vec![
                ("untraced_episodes", int(untraced.len())),
                ("traced_episodes", int(traced.len())),
                ("tail_quantile", Value::Float(tail_q)),
            ]),
        ),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        fingerprint,
    })
}

fn int(v: usize) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What the numbers were measured on.
fn machine() -> Value {
    let build = BuildInfo::current();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    object(vec![
        (
            "nproc",
            int(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
        ),
        ("cpu", Value::Str(cpu)),
        ("profile", Value::Str(build.profile.into())),
        ("git_sha", Value::Str(build.git_sha.into())),
        ("version", Value::Str(build.version.into())),
    ])
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, Metric)],
) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    object(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&result).expect("a value tree serializes")
}

fn run(opts: &Options) -> ExitCode {
    let names: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let mut all_correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut combined = Vec::new();
    for name in &names {
        println!(
            "workload {name} seed {} seconds {} trace {}",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let outcome = match run_workload(opts, name) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                println!("{}", result_line(false, 1, 1, &[]));
                return ExitCode::FAILURE;
            }
        };
        for m in &outcome.metrics {
            println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for problem in &outcome.problems {
            println!("  check failed: {problem}");
        }
        let correct = outcome.problems.is_empty();
        println!(
            "fingerprint {}",
            serde_json::to_string(&outcome.fingerprint).expect("a value tree serializes")
        );
        let named: Vec<(String, Metric)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.clone()))
            .collect();
        if names.len() > 1 {
            println!(
                "{}",
                result_line(correct, outcome.attempted, outcome.failed, &named)
            );
        }
        combined.extend(named.into_iter().map(|(n, m)| {
            (
                if names.len() > 1 {
                    format!("{name}/{n}")
                } else {
                    n
                },
                m,
            )
        }));
        all_correct &= correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    println!("{}", result_line(all_correct, attempted, failed, &combined));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads a saved run output: its fingerprint and its result line.
fn read_saved(path: &str) -> Result<(Value, Value), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let fingerprint = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .ok_or_else(|| format!("{path}: no fingerprint line"))?;
    let result = text
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{path}: no result line"))?;
    let parse = |s: &str| serde_json::from_str::<Value>(s).map_err(|e| format!("{path}: {e}"));
    Ok((parse(fingerprint)?, parse(result)?))
}

/// Prints each metric of two saved runs side by side, refusing when the
/// runs measured different inputs.
fn compare(a: &str, b: &str) -> ExitCode {
    let ((fa, ra), (fb, rb)) = match (read_saved(a), read_saved(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = |f: &Value| serde_json::to_string(&f.get("workload")).unwrap_or_default();
    if workload(&fa) != workload(&fb) {
        eprintln!(
            "refusing to compare: workload fingerprints differ\n  {a}: {}\n  {b}: {}",
            workload(&fa),
            workload(&fb)
        );
        return ExitCode::from(2);
    }
    let machine = |f: &Value| serde_json::to_string(&f.get("machine")).unwrap_or_default();
    if machine(&fa) != machine(&fb) {
        println!("note: machine fingerprints differ");
    }
    let value = |r: &Value, name: &str| match r
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Value::Float(v)) => Some(*v),
        Some(Value::Int(v)) => Some(*v as f64),
        _ => None,
    };
    if let Some(Value::Object(metrics)) = ra.get("metrics") {
        for (name, _) in metrics {
            if let (Some(x), Some(y)) = (value(&ra, name), value(&rb, name)) {
                println!(
                    "{name:<28} {x:>14.6} {y:>14.6} {:>8.3}x",
                    stats::ratio(y, x)
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        if args.len() != 3 {
            eprintln!("usage: jocal-perfbench --compare <saved-a> <saved-b>");
            return ExitCode::from(2);
        }
        return compare(&args[1], &args[2]);
    }
    match parse_options(&args) {
        Ok(opts) => run(&opts),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
