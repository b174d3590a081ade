//! Timing wrappers around the program's public traits.
//!
//! Each serving cell gets one [`CellLog`]; the wrappers around its
//! [`DemandSource`], [`OnlinePolicy`] (and, inside a decision, the
//! [`PredictionWindow`] it is handed) and [`MetricsSink`] append
//! timestamped events to it. Every wrapper forwards every trait method
//! to the wrapped value unchanged, so a wrapped run decides bit for bit
//! like an unwrapped one; the benchmark checks that on every run.

use jocal_core::ledger::SlotLedger;
use jocal_core::CoreError;
use jocal_online::policy::{Action, OnlinePolicy, PolicyContext};
use jocal_serve::metrics::{MetricsSink, RatioRecord, RunHeader, ServeSummary, SlotMetrics};
use jocal_serve::source::DemandSource;
use jocal_serve::ServeError;
use jocal_sim::demand::DemandTrace;
use jocal_sim::predictor::PredictionWindow;
use jocal_telemetry::Telemetry;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call, on one process-wide monotonic clock
/// shared by the wrappers, the workloads and the load generator.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one event timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `DemandSource::next_slot` call that delivered a slot.
    Source,
    /// A `DemandSource::next_slot` call that reported end of stream.
    SourceEnd,
    /// An `OnlinePolicy::decide` call.
    Decide,
    /// A `PredictionWindow::predict` call made during a decision.
    Predict,
    /// A `MetricsSink::slot` call.
    SinkSlot,
    /// Any other per-slot sink call (`ledger`, `ratio`).
    SinkOther,
    /// One `CellCore::step` call, when the workload makes it itself.
    Step,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// What was timed.
    pub kind: Kind,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

impl Event {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything the wrappers of one cell observed.
#[derive(Debug, Default)]
pub struct CellLog {
    /// Timed calls in call order.
    pub events: Vec<Event>,
    /// Slot records in emission order, with the end time of the
    /// `sink.slot` call that delivered each.
    pub records: Vec<(u64, SlotMetrics)>,
    /// Calls to `OnlinePolicy::instrument` that reached the wrapper.
    pub instrumented: usize,
}

/// Shared handle to one cell's log.
pub type Log = Arc<Mutex<CellLog>>;

/// A fresh, empty log.
pub fn new_log() -> Log {
    Arc::new(Mutex::new(CellLog::default()))
}

fn lock(log: &Log) -> MutexGuard<'_, CellLog> {
    log.lock()
        .expect("a wrapper panicked while holding its cell log")
}

fn push(log: &Log, kind: Kind, start: u64) {
    let end = now_ns();
    lock(log).events.push(Event { kind, start, end });
}

/// Times a [`DemandSource`].
#[derive(Debug)]
pub struct ProbeSource<S> {
    inner: S,
    log: Log,
}

impl<S: DemandSource> ProbeSource<S> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: S, log: Log) -> Self {
        ProbeSource { inner, log }
    }
}

impl<S: DemandSource> DemandSource for ProbeSource<S> {
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_slot(&mut self, out: &mut DemandTrace) -> Result<bool, ServeError> {
        let start = now_ns();
        let delivered = self.inner.next_slot(out)?;
        let kind = if delivered {
            Kind::Source
        } else {
            Kind::SourceEnd
        };
        push(&self.log, kind, start);
        Ok(delivered)
    }
}

/// Times an [`OnlinePolicy`], and the [`PredictionWindow`] it reads.
#[derive(Debug)]
pub struct ProbePolicy {
    inner: Box<dyn OnlinePolicy + Send>,
    log: Log,
}

impl ProbePolicy {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: Box<dyn OnlinePolicy + Send>, log: Log) -> Self {
        ProbePolicy { inner, log }
    }
}

impl OnlinePolicy for ProbePolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, ctx: &PolicyContext<'_>) -> Result<Action, CoreError> {
        let predictor = ProbePredictor {
            inner: ctx.predictor,
            log: &self.log,
        };
        let ctx = PolicyContext {
            network: ctx.network,
            cost_model: ctx.cost_model,
            predictor: &predictor,
            current_cache: ctx.current_cache,
            horizon: ctx.horizon,
        };
        let start = now_ns();
        let action = self.inner.decide(t, &ctx);
        push(&self.log, Kind::Decide, start);
        action
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn instrument(&mut self, telemetry: &Telemetry) {
        lock(&self.log).instrumented += 1;
        self.inner.instrument(telemetry);
    }
}

/// Times the predictions a policy requests while deciding.
#[derive(Debug)]
struct ProbePredictor<'a> {
    inner: &'a dyn PredictionWindow,
    log: &'a Log,
}

impl PredictionWindow for ProbePredictor<'_> {
    fn predict(&self, now: usize, horizon: usize) -> DemandTrace {
        let start = now_ns();
        let window = self.inner.predict(now, horizon);
        push(self.log, Kind::Predict, start);
        window
    }

    fn stable_predictions(&self) -> bool {
        self.inner.stable_predictions()
    }
}

/// Times a [`MetricsSink`] and keeps every slot record it passes on,
/// stamped with the time the wrapped sink returned.
#[derive(Debug)]
pub struct ProbeSink<K> {
    inner: K,
    log: Log,
}

impl<K: MetricsSink> ProbeSink<K> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: K, log: Log) -> Self {
        ProbeSink { inner, log }
    }
}

impl<K: MetricsSink> MetricsSink for ProbeSink<K> {
    fn header(&mut self, header: &RunHeader) -> Result<(), ServeError> {
        self.inner.header(header)
    }

    fn slot(&mut self, metrics: &SlotMetrics) -> Result<(), ServeError> {
        let start = now_ns();
        self.inner.slot(metrics)?;
        let end = now_ns();
        let mut log = lock(&self.log);
        log.events.push(Event {
            kind: Kind::SinkSlot,
            start,
            end,
        });
        log.records.push((end, metrics.clone()));
        Ok(())
    }

    fn summary(&mut self, summary: &ServeSummary) -> Result<(), ServeError> {
        self.inner.summary(summary)
    }

    fn ledger(&mut self, ledger: &SlotLedger) -> Result<(), ServeError> {
        let start = now_ns();
        self.inner.ledger(ledger)?;
        push(&self.log, Kind::SinkOther, start);
        Ok(())
    }

    fn ratio(&mut self, record: &RatioRecord) -> Result<(), ServeError> {
        let start = now_ns();
        self.inner.ratio(record)?;
        push(&self.log, Kind::SinkOther, start);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ServeError> {
        self.inner.flush()
    }
}
