//! Turns measured episodes into the benchmark's named metrics.

use crate::episode::Episode;
use crate::probe::{CellLog, Event, Kind};
use crate::stats::{median, ms, quantile, ratio};
use std::collections::HashMap;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The busy interval of each step a cell served, in slot order.
///
/// A workload that steps the cell itself logs the steps directly. Under
/// the cluster runtime a step is bounded by the first wrapped call it
/// makes (the source top-up, or the decision) and the last sink call
/// after its slot record.
fn steps(log: &CellLog) -> Vec<(u64, u64)> {
    let direct: Vec<(u64, u64)> = log
        .events
        .iter()
        .filter(|e| e.kind == Kind::Step)
        .map(|e| (e.start, e.end))
        .collect();
    if !direct.is_empty() {
        return direct;
    }
    let mut out = Vec::new();
    let mut open: Option<(u64, u64)> = None;
    let mut recorded = false;
    for e in &log.events {
        match e.kind {
            Kind::Source | Kind::SourceEnd | Kind::Decide => {
                if recorded {
                    out.extend(open.take());
                    recorded = false;
                }
                let start = open.map_or(e.start, |(s, _)| s);
                open = Some((start, e.end));
            }
            Kind::SinkSlot => {
                let start = open.map_or(e.start, |(s, _)| s);
                open = Some((start, e.end));
                recorded = true;
            }
            Kind::SinkOther => {
                if let Some((s, _)) = open {
                    open = Some((s, e.end));
                }
            }
            Kind::Predict | Kind::Step => {}
        }
    }
    if recorded {
        out.extend(open);
    }
    out
}

fn durations<'a>(log: &'a CellLog, kinds: &[Kind]) -> impl Iterator<Item = u64> + 'a {
    let kinds = kinds.to_vec();
    log.events
        .iter()
        .filter(move |e| kinds.contains(&e.kind))
        .map(Event::dur)
}

fn total(log: &CellLog, kinds: &[Kind]) -> u64 {
    durations(log, kinds).sum()
}

/// For each slot a cell decided, the time its input became available:
/// when the load generator was due to send it, or else when the
/// source handed it to the cell.
fn available_at(episode: &Episode, cell: usize) -> Vec<u64> {
    match &episode.ingress {
        Some(ingress) => ingress.due[cell].clone(),
        None => episode.cells[cell]
            .events
            .iter()
            .filter(|e| e.kind == Kind::Source)
            .map(|e| e.end)
            .collect(),
    }
}

/// Latency samples of one episode, in milliseconds.
#[derive(Debug, Default)]
struct Latencies {
    /// Per cell, the interval between consecutive slot records.
    interval: Vec<f64>,
    /// From when a slot's input was available to its record.
    ingest: Vec<f64>,
}

fn latencies(episode: &Episode) -> Latencies {
    let mut out = Latencies::default();
    for (cell, log) in episode.cells.iter().enumerate() {
        out.interval
            .extend(log.records.windows(2).map(|w| ms(w[1].0 - w[0].0)));
        let available = available_at(episode, cell);
        out.ingest.extend(
            log.records
                .iter()
                .zip(&available)
                .map(|((at, _), due)| ms(at.saturating_sub(*due))),
        );
    }
    out
}

/// End-to-end metrics over the untraced episodes of one run.
///
/// Timings are taken per episode and the run reports its best episode:
/// the machine is shared, and interference from outside only ever slows
/// an episode down. Set-up time is the median over every set-up of the
/// run, and heap use the median over episodes. `idle_cost` is what
/// serving one episode's inputs with empty caches would cost.
pub fn end_to_end(
    episodes: &[Episode],
    tail_q: f64,
    ok_frac: f64,
    heap_mb: f64,
    idle_cost: f64,
) -> Vec<Metric> {
    let setup: Vec<f64> = episodes.iter().flat_map(|e| e.setup_s.clone()).collect();
    let rate = episodes
        .iter()
        .map(|e| ratio(e.decided() as f64, e.serve_s()))
        .fold(0.0, f64::max);
    let per_episode: Vec<Latencies> = episodes.iter().map(latencies).collect();
    let best = |q: f64, pick: fn(&Latencies) -> &Vec<f64>| {
        per_episode
            .iter()
            .map(|l| quantile(pick(l), q))
            .fold(f64::INFINITY, f64::min)
    };
    // Decisions repeat bit for bit across episodes, so the first one
    // stands for all of them.
    let (mut cost, mut served, mut requests) = (0.0, 0.0, 0u64);
    if let Some(first) = episodes.first() {
        for log in &first.cells {
            for (_, m) in &log.records {
                cost += m.cost.total();
                served += m.sbs_served;
                requests += m.requests;
            }
        }
    }
    let bs_frac = if requests == 0 {
        1.0
    } else {
        1.0 - served / requests as f64
    };
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("slots_per_s", rate, "1/s"),
        metric("slot_p50_ms", best(0.5, |l| &l.interval), "ms"),
        metric("slot_tail_ms", best(tail_q, |l| &l.interval), "ms"),
        metric("ingest_p50_ms", best(0.5, |l| &l.ingest), "ms"),
        metric("ingest_tail_ms", best(tail_q, |l| &l.ingest), "ms"),
        metric("ok_frac", ok_frac, "frac"),
        metric("cost_ratio", ratio(cost, idle_cost), "ratio"),
        metric("bs_frac", bs_frac, "frac"),
        metric("peak_heap_mb", heap_mb, "MB"),
    ]
}

/// The fewest samples one episode holds behind a tail metric.
pub fn tail_samples(episodes: &[Episode]) -> usize {
    episodes
        .iter()
        .map(|e| {
            let l = latencies(e);
            l.interval.len().min(l.ingest.len())
        })
        .min()
        .unwrap_or(0)
}

/// Self time per span name, in nanoseconds, over the spans the
/// program's tracer recorded: a span's duration minus the part its
/// children cover.
fn self_times(episode: &Episode) -> HashMap<&'static str, u64> {
    let spans = episode.telemetry.tracer().spans();
    let mut children: HashMap<u64, u64> = HashMap::new();
    for span in &spans {
        if let Some(parent) = span.parent {
            *children.entry(parent).or_default() += span.dur_us;
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for span in &spans {
        let own = span
            .dur_us
            .saturating_sub(children.get(&span.id).copied().unwrap_or(0));
        *out.entry(span.name).or_default() += own * 1000;
    }
    out
}

/// The program's counters and histograms one traced episode read.
#[derive(Debug, Default)]
struct Counters {
    pd_solves: u64,
    pd_iterations: u64,
    pd_converged: u64,
    pd_early_exits: u64,
    pgd_iterations: u64,
    p2_solves: u64,
    flips: u64,
    incremental_builds: u64,
    full_builds: u64,
    nonzeros_sum: u64,
    nonzeros_count: u64,
}

impl Counters {
    fn read(episode: &Episode) -> Self {
        let t = &episode.telemetry;
        let labeled = |name: &str| t.counter_with(name, "policy", &episode.policy).get();
        let nonzeros = t.histogram("serve_slot_nonzeros").snapshot();
        Counters {
            pd_solves: t.counter("pd_solves_total").get(),
            pd_iterations: t.counter("pd_iterations_total").get(),
            pd_converged: t.counter("pd_converged_total").get(),
            pd_early_exits: t.counter("pd_early_exit_total").get(),
            pgd_iterations: t.counter("p2_pgd_iterations_total").get(),
            p2_solves: t.counter("p2_slot_solves_total").get(),
            flips: labeled("chc_rounding_flips_total"),
            incremental_builds: labeled("window_incremental_builds_total"),
            full_builds: labeled("window_full_builds_total"),
            nonzeros_sum: nonzeros.sum,
            nonzeros_count: nonzeros.count,
        }
    }

    /// The counters summed over `episodes`.
    fn over(episodes: &[Episode]) -> Self {
        let mut sum = Counters::default();
        for o in episodes.iter().map(Counters::read) {
            sum.pd_solves += o.pd_solves;
            sum.pd_iterations += o.pd_iterations;
            sum.pd_converged += o.pd_converged;
            sum.pd_early_exits += o.pd_early_exits;
            sum.pgd_iterations += o.pgd_iterations;
            sum.p2_solves += o.p2_solves;
            sum.flips += o.flips;
            sum.incremental_builds += o.incremental_builds;
            sum.full_builds += o.full_builds;
            sum.nonzeros_sum += o.nonzeros_sum;
            sum.nonzeros_count += o.nonzeros_count;
        }
        sum
    }
}

/// Realized nonzero `(n, m, k)` demand coordinates per served slot,
/// as the program counted them in the traced episodes.
pub fn nonzeros_per_slot(traced: &[Episode]) -> f64 {
    let c = Counters::over(traced);
    ratio(c.nonzeros_sum as f64, c.nonzeros_count as f64)
}

/// Window builds that took the incremental path, as a share of all.
pub fn incremental_frac(traced: &[Episode]) -> Option<f64> {
    let c = Counters::over(traced);
    let builds = c.incremental_builds + c.full_builds;
    (builds > 0).then(|| c.incremental_builds as f64 / builds as f64)
}

/// Spans named in `names` the program recorded in `traced`.
pub fn span_count(traced: &[Episode], names: &[&str]) -> usize {
    traced
        .iter()
        .map(|e| {
            e.telemetry
                .tracer()
                .spans()
                .iter()
                .filter(|s| names.contains(&s.name))
                .count()
        })
        .sum()
}

/// Per-layer metrics over the traced episodes of one run; `untraced`
/// supplies the tracing-off throughput the overhead is measured
/// against.
pub fn per_layer(traced: &[Episode], untraced: &[Episode], tail_q: f64) -> Vec<Metric> {
    let mut busy = 0u64;
    let mut decide = 0u64;
    let mut predict = 0u64;
    let mut predict_calls = 0usize;
    let mut source = 0u64;
    let mut sink = 0u64;
    let mut post_decide = 0u64;
    let mut slots = 0usize;
    let mut scaled = 0usize;
    let mut decide_ms = Vec::new();
    let mut lane_ns = 0u64;
    let mut clustered = false;
    let mut skews = Vec::new();
    let mut ring_wait = Vec::new();
    let mut lag = Vec::new();
    let mut highwater = 0usize;
    let mut shed = 0u64;
    let mut frames = 0u64;
    let mut frame_bytes = 0u64;
    let mut frames_sized = 0u64;
    let mut admit_us = Vec::new();
    let mut http = Vec::new();
    let mut own: HashMap<&'static str, u64> = HashMap::new();
    let counters = Counters::over(traced);

    for episode in traced {
        for (name, ns) in self_times(episode) {
            *own.entry(name).or_default() += ns;
        }
        let per_cell: Vec<Vec<(u64, u64)>> = episode.cells.iter().map(steps).collect();
        for (cell, log) in episode.cells.iter().enumerate() {
            busy += per_cell[cell].iter().map(|(s, e)| e - s).sum::<u64>();
            decide += total(log, &[Kind::Decide]);
            decide_ms.extend(durations(log, &[Kind::Decide]).map(ms));
            predict += total(log, &[Kind::Predict]);
            predict_calls += log
                .events
                .iter()
                .filter(|e| e.kind == Kind::Predict)
                .count();
            source += total(log, &[Kind::Source, Kind::SourceEnd]);
            sink += total(log, &[Kind::SinkSlot, Kind::SinkOther]);
            let mut decided_at = None;
            for e in &log.events {
                match e.kind {
                    Kind::Decide => decided_at = Some(e.end),
                    Kind::SinkSlot => {
                        if let Some(end) = decided_at.take() {
                            post_decide += e.start.saturating_sub(end);
                        }
                    }
                    _ => {}
                }
            }
            slots += log.records.len();
            scaled += log
                .records
                .iter()
                .filter(|(_, m)| m.repair_scaled_sbs > 0)
                .count();
            if let Some(ingress) = &episode.ingress {
                let decides = log.events.iter().filter(|e| e.kind == Kind::Decide);
                for (e, &ack) in decides.zip(&ingress.ack[cell]) {
                    if ack > 0 {
                        ring_wait.push(ms(e.start.saturating_sub(ack)));
                    }
                }
            }
        }
        if episode.clustered {
            clustered = true;
            lane_ns += episode.lanes as u64 * episode.serve_end.saturating_sub(episode.serve_start);
            let rounds = per_cell.iter().map(Vec::len).min().unwrap_or(0);
            for r in 0..rounds {
                let lens: Vec<f64> = per_cell.iter().map(|s| ms(s[r].1 - s[r].0)).collect();
                let max = lens.iter().copied().fold(0.0, f64::max);
                skews.push(max - median(&lens));
            }
        }
        if let Some(ingress) = &episode.ingress {
            lag.extend(ingress.lag_ns.iter().map(|&n| ms(n)));
            highwater = highwater.max(ingress.stats.queue_depth_highwater);
            shed += ingress.stats.rejected_overload;
            frames += ingress.frames;
            frame_bytes += ingress.frame_bytes;
            frames_sized += ingress.frames_sized;
            http.extend(ingress.http_ns.iter().map(|&n| ms(n)));
            let snapshot = episode.telemetry.histogram("gateway_request_us").snapshot();
            admit_us.push(snapshot.quantile(0.5));
        }
    }

    let share = |ns: u64| ratio(ns as f64, busy as f64);
    let span = |name: &str| own.get(name).copied().unwrap_or(0);
    let per_slot = |n: f64| ratio(n, slots as f64);
    let solves = counters.pd_solves as f64;
    let rate = |episodes: &[Episode]| {
        median(
            &episodes
                .iter()
                .map(|e| ratio(e.decided() as f64, e.serve_s()))
                .collect::<Vec<_>>(),
        )
    };
    let untraced_rate = rate(untraced);
    let overhead = if untraced_rate > 0.0 {
        1.0 - rate(traced) / untraced_rate
    } else {
        0.0
    };
    let builds = (counters.incremental_builds + counters.full_builds) as f64;

    vec![
        metric("p2.self_share", share(span("p2")), "frac"),
        metric(
            "p2.pgd_iters_per_solve",
            ratio(counters.pgd_iterations as f64, counters.p2_solves as f64),
            "iters",
        ),
        metric("p1.self_share", share(span("p1")), "frac"),
        metric(
            "p1.calls",
            per_slot(span_count(traced, &["p1"]) as f64),
            "calls/slot",
        ),
        metric(
            "pd.self_share",
            share(span("pd_solve") + span("pd_iteration")),
            "frac",
        ),
        metric(
            "pd.iters_per_solve",
            ratio(counters.pd_iterations as f64, solves),
            "iters",
        ),
        metric(
            "pd.converged_frac",
            ratio(counters.pd_converged as f64, solves),
            "frac",
        ),
        metric(
            "pd.early_exit_frac",
            ratio(counters.pd_early_exits as f64, solves),
            "frac",
        ),
        metric("recovery.self_share", share(span("recovery")), "frac"),
        metric("policy.busy_share", share(decide), "frac"),
        metric("policy.decide_p50_ms", median(&decide_ms), "ms"),
        metric("policy.decide_tail_ms", quantile(&decide_ms, tail_q), "ms"),
        metric(
            "chc.flips_per_slot",
            per_slot(counters.flips as f64),
            "flips/slot",
        ),
        metric(
            "window.incremental_frac",
            ratio(counters.incremental_builds as f64, builds),
            "frac",
        ),
        metric(
            "predictor.calls",
            per_slot(predict_calls as f64),
            "calls/slot",
        ),
        metric("predictor.busy_share", share(predict), "frac"),
        metric("cell.post_decide_share", share(post_decide), "frac"),
        metric(
            "cell.nonzeros_per_slot",
            ratio(counters.nonzeros_sum as f64, counters.nonzeros_count as f64),
            "nnz/slot",
        ),
        metric("repair.scaled_frac", per_slot(scaled as f64), "frac"),
        metric("source.busy_share", share(source), "frac"),
        metric("sink.busy_share", share(sink), "frac"),
        metric(
            "cluster.worker_util",
            if clustered {
                ratio(busy as f64, lane_ns as f64)
            } else {
                0.0
            },
            "frac",
        ),
        metric("cluster.round_skew_ms", median(&skews), "ms"),
        metric("gateway.admit_p50_us", median(&admit_us), "us"),
        metric("gateway.http_p50_ms", median(&http), "ms"),
        metric("gateway.http_tail_ms", quantile(&http, tail_q), "ms"),
        metric("gateway.ring_wait_p50_ms", median(&ring_wait), "ms"),
        metric(
            "gateway.ring_wait_tail_ms",
            quantile(&ring_wait, tail_q),
            "ms",
        ),
        metric("gateway.queue_highwater", highwater as f64, "slots"),
        metric("gateway.shed", shed as f64, "count"),
        metric("flightrec.frames", per_slot(frames as f64), "frames/slot"),
        metric(
            "flightrec.bytes_per_frame",
            ratio(frame_bytes as f64, frames_sized as f64),
            "B",
        ),
        metric("loadgen.lag_p99_ms", quantile(&lag, 0.99), "ms"),
        metric("trace.overhead_frac", overhead, "frac"),
    ]
}
