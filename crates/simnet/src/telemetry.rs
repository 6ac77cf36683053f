//! Live telemetry plane: virtual-clock time series and per-phase profiling.
//!
//! The experiment reports summarise a run *after* it ends; this module is the
//! instrument for watching one *while* it runs. It provides two independent
//! tools, both **off by default** and both drawing **no randomness** — an
//! instrumented world replays byte-identically to an uninstrumented one:
//!
//! * [`Telemetry`] — a time-series recorder on the **virtual** clock.
//!   Counters, gauges and fixed-bucket histograms are keyed by
//!   `(subsystem, name, optional label)`; at a configurable virtual-time
//!   interval the engine snapshots every series into a [`Frame`] held in a
//!   bounded in-memory ring. Frames export as JSON lines ([`Telemetry::to_jsonl`]),
//!   roll up into a markdown table ([`Telemetry::rollup`]) and hash into a
//!   determinism digest ([`Telemetry::digest`]). A frame callback
//!   ([`Telemetry::set_on_frame`]) feeds live `repro watch` streaming.
//! * [`Profiler`] — **wall**-clock timers around the event loop's hot phases
//!   ([`Phase`]), answering "where did the microseconds go" at 10k+ nodes.
//!   Wall times are measurement output only: they never feed back into the
//!   simulation or its reports, so determinism is untouched.
//!
//! Both engines carry the hooks: the sequential [`World`](crate::world::World)
//! samples when the event loop crosses an interval boundary, the sharded
//! [`ShardedWorld`](crate::world::shard::ShardedWorld) samples at window
//! barriers by folding shard-local state in canonical order — so with
//! telemetry on, the recorded series are byte-identical at any shard count.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;
use crate::time::{SimDuration, SimTime};

/// Default virtual-time sampling interval (one simulated second).
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Bound on the in-memory frame ring: when it is full the oldest frame is
/// dropped (and counted in [`Telemetry::dropped_frames`]).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Upper bounds (bytes) of the payload-size histogram buckets used by both
/// engines; the final implicit bucket is `+Inf`.
pub const PAYLOAD_SIZE_BOUNDS: &[u64] = &[16, 64, 256, 1024, 4096, 16384];

/// Configuration of the [`Telemetry`] recorder.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Virtual-time spacing of sampled frames.
    pub sample_interval: SimDuration,
    /// Record per-shard `shard/*` series (load, occupancy, imbalance,
    /// rebalances) in the sharded world. Off by default because these series
    /// are inherently shard-layout-dependent: leaving them out keeps every
    /// recorded capture byte-identical at any `--shards` count.
    pub shard_series: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            shard_series: false,
        }
    }
}

impl TelemetryConfig {
    /// A configuration sampling every `interval` of virtual time.
    pub fn every(interval: SimDuration) -> Self {
        TelemetryConfig {
            sample_interval: interval.max(SimDuration::from_micros(1)),
            ..TelemetryConfig::default()
        }
    }

    /// The same configuration with per-shard `shard/*` series switched on.
    pub fn with_shard_series(mut self) -> Self {
        self.shard_series = true;
        self
    }
}

/// Identity of one time series: subsystem, metric name, optional label
/// (a node name, radio technology, …).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Subsystem owning the series (`"world"`, `"resilience"`, …).
    pub subsystem: &'static str,
    /// Metric name within the subsystem.
    pub name: &'static str,
    /// Optional discriminating label (e.g. a radio technology).
    pub label: Option<String>,
}

impl SeriesKey {
    fn new(subsystem: &'static str, name: &'static str, label: Option<&str>) -> Self {
        SeriesKey {
            subsystem,
            name,
            label: label.map(str::to_string),
        }
    }

    /// `subsystem/name` (plus `{label}` when present), as printed in tables.
    pub fn display(&self) -> String {
        match &self.label {
            Some(l) => format!("{}/{}{{{l}}}", self.subsystem, self.name),
            None => format!("{}/{}", self.subsystem, self.name),
        }
    }
}

/// A fixed-bucket histogram: counts per upper bound plus an overflow bucket,
/// with total count and sum for mean/rate derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Adds every bucket of `other` into this histogram (bounds must match).
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram bounds must match to merge");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every observed value.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Current value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotone cumulative count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(f64),
    /// Distribution of observed values.
    Histogram(Histogram),
}

impl SeriesValue {
    fn kind(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
            SeriesValue::Histogram(_) => "histogram",
        }
    }

    /// The value as a scalar: counters and histogram counts as `f64`, gauges
    /// verbatim.
    pub fn as_f64(&self) -> f64 {
        match self {
            SeriesValue::Counter(v) => *v as f64,
            SeriesValue::Gauge(v) => *v,
            SeriesValue::Histogram(h) => h.count as f64,
        }
    }
}

/// One sampled snapshot: every series' value at a virtual-time boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The virtual instant the frame belongs to (an interval boundary).
    pub at: SimTime,
    samples: Vec<(SeriesKey, SeriesValue)>,
}

impl Frame {
    /// The sampled series in ascending key order.
    pub fn samples(&self) -> &[(SeriesKey, SeriesValue)] {
        &self.samples
    }

    /// Scalar value of the unlabelled series `subsystem/name`, if sampled.
    pub fn get(&self, subsystem: &str, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.label.is_none())
            .map(|(_, v)| v.as_f64())
    }
}

/// A frame callback, invoked with each completed sample ([`Telemetry::set_on_frame`]).
pub type FrameSink = Box<dyn FnMut(&Frame)>;

/// The virtual-clock time-series recorder. See the module docs for the model.
#[derive(Default)]
pub struct Telemetry {
    config: TelemetryConfig,
    series: BTreeMap<SeriesKey, SeriesValue>,
    frames: VecDeque<Frame>,
    next_sample: Option<SimTime>,
    dropped: u64,
    on_frame: Option<FrameSink>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("series", &self.series.len())
            .field("frames", &self.frames.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Telemetry {
    /// Creates an empty recorder; the first frame is due one sample interval
    /// after the virtual epoch.
    pub fn new(config: TelemetryConfig) -> Self {
        let first = SimTime::ZERO + config.sample_interval;
        Telemetry {
            config,
            series: BTreeMap::new(),
            frames: VecDeque::new(),
            next_sample: Some(first),
            dropped: 0,
            on_frame: None,
        }
    }

    /// Sets a counter to an absolute cumulative value (the engines mirror
    /// their already-maintained counters at sample time).
    pub fn set_counter(&mut self, subsystem: &'static str, name: &'static str, label: Option<&str>, value: u64) {
        self.series
            .insert(SeriesKey::new(subsystem, name, label), SeriesValue::Counter(value));
    }

    /// Sets a gauge to an instantaneous level.
    pub fn set_gauge(&mut self, subsystem: &'static str, name: &'static str, label: Option<&str>, value: f64) {
        self.series
            .insert(SeriesKey::new(subsystem, name, label), SeriesValue::Gauge(value));
    }

    /// Records one observation into a fixed-bucket histogram series.
    pub fn observe(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: Option<&str>,
        bounds: &'static [u64],
        value: u64,
    ) {
        let entry = self
            .series
            .entry(SeriesKey::new(subsystem, name, label))
            .or_insert_with(|| SeriesValue::Histogram(Histogram::new(bounds)));
        if let SeriesValue::Histogram(h) = entry {
            h.observe(value);
        }
    }

    /// Replaces a histogram series wholesale (the sharded engine folds its
    /// per-shard histograms into one at each barrier sample).
    pub fn set_histogram(&mut self, subsystem: &'static str, name: &'static str, label: Option<&str>, hist: Histogram) {
        self.series
            .insert(SeriesKey::new(subsystem, name, label), SeriesValue::Histogram(hist));
    }

    /// True when virtual time has crossed the next sample boundary, i.e. a
    /// call to [`Telemetry::sample`] would emit a frame.
    pub fn due(&self, now: SimTime) -> bool {
        self.next_sample.map(|at| now >= at).unwrap_or(false)
    }

    /// Emits a frame if `now` has crossed the next sample boundary.
    ///
    /// The frame is stamped at the **latest boundary crossed** (boundaries are
    /// multiples of the sample interval), so frame times depend only on the
    /// interval and the instants the engine checks — never on wall time. At
    /// most one frame is emitted per call; skipped boundaries (an event-free
    /// stretch, a coarse barrier window) collapse into the latest one.
    pub fn sample(&mut self, now: SimTime) {
        let Some(next) = self.next_sample else { return };
        if now < next {
            return;
        }
        let interval = self.config.sample_interval;
        let skipped = now.saturating_since(next).as_micros() / interval.as_micros().max(1);
        let at = next + SimDuration::from_micros(skipped * interval.as_micros());
        self.next_sample = Some(at + interval);
        let frame = Frame {
            at,
            samples: self.series.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        };
        if let Some(cb) = self.on_frame.as_mut() {
            cb(&frame);
        }
        if self.frames.len() >= DEFAULT_RING_CAPACITY {
            self.frames.pop_front();
            self.dropped += 1;
        }
        self.frames.push_back(frame);
    }

    /// Installs a callback invoked on every emitted frame (live `watch`
    /// streaming). The callback observes frames; it cannot alter them.
    pub fn set_on_frame(&mut self, cb: FrameSink) {
        self.on_frame = Some(cb);
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter()
    }

    /// Number of retained frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Frames evicted because the ring was full.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped
    }

    /// The most recent frame, if any was emitted.
    pub fn latest(&self) -> Option<&Frame> {
        self.frames.back()
    }

    /// Serialises every retained frame as JSON lines, one line per series
    /// sample, in (time, key) order. The encoding is hand-rolled through
    /// [`crate::json`] (the workspace builds offline; `serde` is a stub) and
    /// fully deterministic; keys and labels are escaped, so a label may hold
    /// any text and its sample is still one valid JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for frame in &self.frames {
            for (key, value) in &frame.samples {
                let _ = write!(out, "{{\"t_us\":{},\"subsystem\":", frame.at.as_micros());
                json::string(&mut out, key.subsystem);
                out.push_str(",\"name\":");
                json::string(&mut out, key.name);
                if let Some(label) = &key.label {
                    out.push_str(",\"label\":");
                    json::string(&mut out, label);
                }
                let _ = write!(out, ",\"kind\":\"{}\"", value.kind());
                match value {
                    SeriesValue::Counter(v) => {
                        let _ = write!(out, ",\"value\":{v}");
                    }
                    SeriesValue::Gauge(v) => {
                        out.push_str(",\"value\":");
                        json::number(&mut out, *v, None);
                    }
                    SeriesValue::Histogram(h) => {
                        let _ = write!(out, ",\"count\":{},\"sum\":{},\"counts\":[", h.count, h.sum);
                        for (i, c) in h.counts.iter().enumerate() {
                            let _ = write!(out, "{}{c}", if i == 0 { "" } else { "," });
                        }
                        out.push(']');
                    }
                }
                out.push_str("}\n");
            }
        }
        out
    }

    /// FNV-1a hash of the JSONL serialisation — the byte-identity digest the
    /// determinism and shard-invariance tests compare.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }

    /// End-of-run roll-up: one row per series with its latest value, plus the
    /// frame/drop bookkeeping, as a markdown table.
    pub fn rollup(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} frame(s) sampled every {}s of virtual time ({} dropped by the ring)",
            self.frames.len(),
            self.config.sample_interval.as_secs_f64(),
            self.dropped
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| series | kind | last value |");
        let _ = writeln!(out, "|---|---|---|");
        for (key, value) in &self.series {
            let rendered = match value {
                SeriesValue::Counter(v) => v.to_string(),
                SeriesValue::Gauge(v) => format!("{v:.2}"),
                SeriesValue::Histogram(h) => format!(
                    "n={} sum={} mean={:.1}",
                    h.count,
                    h.sum,
                    if h.count == 0 {
                        0.0
                    } else {
                        h.sum as f64 / h.count as f64
                    }
                ),
            };
            let _ = writeln!(out, "| {} | {} | {rendered} |", key.display(), value.kind());
        }
        out
    }
}

/// Incremental FNV-1a: the digest primitive behind every byte-identity
/// check (telemetry captures, the E17/E18 world digest, E19's plan digest).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest, in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
}

// ---------------------------------------------------------------------------
// Per-phase wall-clock profiling
// ---------------------------------------------------------------------------

/// The event-loop phases the profiler attributes wall time to. The first
/// nine cover the sequential engine's event kinds; the last four are the
/// sharded engine's coordinator work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Agent start/restart callbacks.
    AgentStart,
    /// Agent timer callbacks.
    Timers,
    /// Inquiry completion: grid walk, candidate filtering, hit delivery.
    Discovery,
    /// Spatial-grid refresh (sequential engine: a sub-span inside
    /// [`Phase::Discovery`] that re-buckets the walkers due and nothing
    /// else — the walk itself is discovery's own time; sharded engine: the
    /// per-window rebuild).
    GridRefresh,
    /// Connection-attempt resolution (incl. handover re-attaches).
    Connect,
    /// In-flight message delivery.
    Delivery,
    /// Periodic link coverage checks.
    LinkCheck,
    /// Graceful disconnect processing.
    Disconnect,
    /// Fault-schedule processing (crashes, restarts, radio outages).
    Faults,
    /// Sharded engine: rebuilding the global node snapshot.
    Snapshot,
    /// Sharded engine: the parallel shard windows (wall time of the scope).
    ShardWindows,
    /// Sharded engine: window barrier — cross-shard message merge and fold.
    BarrierMerge,
    /// Sharded engine: core time spent inside the parallel scope but outside
    /// a shard's own pass — waiting for the slowest shard, plus thread
    /// start-up — summed over shards. With it, the scope's core time
    /// (`shards x shard-windows`) splits into per-event spans, this, and the
    /// remainder: the pass's own shell (slot walk, queue pops, mail).
    ShardIdle,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 13] = [
        Phase::AgentStart,
        Phase::Timers,
        Phase::Discovery,
        Phase::GridRefresh,
        Phase::Connect,
        Phase::Delivery,
        Phase::LinkCheck,
        Phase::Disconnect,
        Phase::Faults,
        Phase::Snapshot,
        Phase::ShardWindows,
        Phase::BarrierMerge,
        Phase::ShardIdle,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::AgentStart => "agent-start",
            Phase::Timers => "timers",
            Phase::Discovery => "discovery",
            Phase::GridRefresh => "grid-refresh",
            Phase::Connect => "connect",
            Phase::Delivery => "delivery",
            Phase::LinkCheck => "link-check",
            Phase::Disconnect => "disconnect",
            Phase::Faults => "faults",
            Phase::Snapshot => "snapshot",
            Phase::ShardWindows => "shard-windows",
            Phase::BarrierMerge => "barrier-merge",
            Phase::ShardIdle => "shard-idle",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Default)]
struct PhaseCell {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

/// Wall-clock time per event-loop phase. Interior-mutable (`Cell`) so
/// read-only hot paths can record through `&self`; plain data, `Send`, and
/// mergeable so every shard can carry its own and fold at the end.
///
/// Wall times are diagnostics only: they are never written into reports,
/// metrics or telemetry series, so enabling the profiler cannot perturb a
/// run's results.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    cells: [PhaseCell; Phase::ALL.len()],
}

impl Profiler {
    /// A disabled profiler ([`Profiler::begin`] returns `None`, recording is
    /// a no-op).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// An enabled profiler.
    pub fn enabled() -> Self {
        Profiler {
            enabled: true,
            ..Profiler::default()
        }
    }

    /// Whether this profiler records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a span; `None` (free) when disabled.
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span started with [`Profiler::begin`], attributing it to `phase`.
    pub fn end(&self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            let cell = &self.cells[phase.idx()];
            cell.calls.set(cell.calls.get() + 1);
            cell.nanos.set(cell.nanos.get() + t0.elapsed().as_nanos() as u64);
        }
    }

    /// Adds pre-measured spans (used when folding shard-local profilers).
    pub fn add(&self, phase: Phase, calls: u64, nanos: u64) {
        let cell = &self.cells[phase.idx()];
        cell.calls.set(cell.calls.get() + calls);
        cell.nanos.set(cell.nanos.get() + nanos);
    }

    /// Folds every phase of `other` into this profiler.
    pub fn merge(&self, other: &Profiler) {
        for phase in Phase::ALL {
            let cell = &other.cells[phase.idx()];
            self.add(phase, cell.calls.get(), cell.nanos.get());
        }
    }

    /// Spans recorded for a phase.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.cells[phase.idx()].calls.get()
    }

    /// Wall nanoseconds recorded for a phase.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.cells[phase.idx()].nanos.get()
    }

    /// The per-subsystem breakdown as a markdown table, phases sorted by
    /// recorded wall time. `sim_elapsed` scales the per-virtual-second cost
    /// column; pass [`SimDuration::ZERO`] to omit it.
    pub fn report(&self, sim_elapsed: SimDuration) -> String {
        let mut rows: Vec<(Phase, u64, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, self.calls(p), self.nanos(p)))
            .filter(|&(_, calls, _)| calls > 0)
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.idx().cmp(&b.0.idx())));
        // The grid refresh is a sub-span inside discovery/link handling in
        // the sequential engine, the shard-window span is the scope wall that
        // encloses the per-event phases in the sharded engine, and shard-idle
        // is the part of that scope no shard worked in; none may be
        // double-counted in the total.
        let total: u64 = rows
            .iter()
            .filter(|(p, ..)| !matches!(p, Phase::GridRefresh | Phase::ShardWindows | Phase::ShardIdle))
            .map(|(_, _, n)| n)
            .sum();
        let mut out = String::new();
        let _ = writeln!(out, "| phase | calls | wall (ms) | ns/call | share |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for (phase, calls, nanos) in &rows {
            let share = if *phase == Phase::GridRefresh {
                "(sub-span)".to_string()
            } else if *phase == Phase::ShardWindows {
                "(scope wall)".to_string()
            } else if *phase == Phase::ShardIdle {
                "(waiting)".to_string()
            } else if total > 0 {
                format!("{:.1}%", *nanos as f64 * 100.0 / total as f64)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "| {} | {calls} | {:.2} | {} | {share} |",
                phase.name(),
                *nanos as f64 / 1e6,
                nanos / (*calls).max(1)
            );
        }
        let _ = writeln!(
            out,
            "\ntotal accounted: {:.2} ms{}",
            total as f64 / 1e6,
            if sim_elapsed > SimDuration::ZERO {
                format!(
                    " ({:.2} ms per simulated second)",
                    total as f64 / 1e6 / sim_elapsed.as_secs_f64()
                )
            } else {
                String::new()
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_snapshot_into_frames() {
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        tel.set_counter("world", "messages_sent", None, 5);
        tel.set_gauge("world", "nodes_alive", None, 10.0);
        tel.observe("world", "payload_bytes", None, PAYLOAD_SIZE_BOUNDS, 100);
        tel.observe("world", "payload_bytes", None, PAYLOAD_SIZE_BOUNDS, 5000);
        assert!(!tel.due(SimTime::from_millis(999)));
        assert!(tel.due(SimTime::from_secs(1)));
        tel.sample(SimTime::from_secs(1));
        assert_eq!(tel.frame_count(), 1);
        let frame = tel.latest().unwrap();
        assert_eq!(frame.at, SimTime::from_secs(1));
        assert_eq!(frame.get("world", "messages_sent"), Some(5.0));
        assert_eq!(frame.get("world", "nodes_alive"), Some(10.0));
        assert_eq!(frame.get("world", "payload_bytes"), Some(2.0));
        assert_eq!(frame.get("world", "missing"), None);
    }

    #[test]
    fn a_label_with_a_quote_and_a_control_character_is_one_valid_json_line() {
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        tel.set_gauge("world", "load", Some("say \"hi\"\nnow"), 0.5);
        tel.sample(SimTime::from_secs(1));
        let jsonl = tel.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_us\":1000000,\"subsystem\":\"world\",\"name\":\"load\",\"label\":\"say \\\"hi\\\"\\u000anow\",\
             \"kind\":\"gauge\",\"value\":0.5}\n"
        );
        assert_eq!(jsonl.lines().count(), 1);
    }

    #[test]
    fn skipped_boundaries_collapse_into_the_latest() {
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        tel.set_counter("world", "ticks", None, 1);
        // Virtual time jumps straight past boundaries 1..=5: one frame, at 5 s.
        tel.sample(SimTime::from_millis(5_400));
        assert_eq!(tel.frame_count(), 1);
        assert_eq!(tel.latest().unwrap().at, SimTime::from_secs(5));
        // The next boundary is 6 s, not 5.4 s + 1 s.
        assert!(!tel.due(SimTime::from_millis(5_900)));
        assert!(tel.due(SimTime::from_secs(6)));
    }

    #[test]
    fn ring_capacity_bounds_memory_and_counts_drops() {
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        let samples = DEFAULT_RING_CAPACITY as u64 + 7;
        for s in 1..=samples {
            tel.set_counter("world", "ticks", None, s);
            tel.sample(SimTime::from_secs(s));
        }
        assert_eq!(tel.frame_count(), DEFAULT_RING_CAPACITY);
        assert_eq!(tel.dropped_frames(), 7);
        let first_kept = tel.frames().next().unwrap();
        assert_eq!(first_kept.at, SimTime::from_secs(8));
    }

    #[test]
    fn jsonl_is_deterministic_and_digest_matches() {
        let build = || {
            let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(2)));
            tel.set_counter("world", "messages_sent", Some("wlan"), 7);
            tel.set_gauge("resilience", "breakers_open", None, 2.0);
            tel.observe("world", "payload_bytes", None, PAYLOAD_SIZE_BOUNDS, 64);
            tel.sample(SimTime::from_secs(2));
            tel
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.digest(), b.digest());
        let jsonl = a.to_jsonl();
        assert!(jsonl.contains("\"t_us\":2000000"));
        assert!(jsonl.contains("\"label\":\"wlan\""));
        assert!(jsonl.contains("\"kind\":\"histogram\""));
        assert_eq!(jsonl.lines().count(), 3);
    }

    #[test]
    fn on_frame_callback_streams_every_frame() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let mut tel = Telemetry::new(TelemetryConfig::every(SimDuration::from_secs(1)));
        tel.set_on_frame(Box::new(move |frame| sink.borrow_mut().push(frame.at)));
        tel.set_gauge("world", "nodes_alive", None, 1.0);
        tel.sample(SimTime::from_secs(1));
        tel.sample(SimTime::from_millis(1_500));
        tel.sample(SimTime::from_secs(2));
        assert_eq!(*seen.borrow(), vec![SimTime::from_secs(1), SimTime::from_secs(2)]);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut a = Histogram::new(PAYLOAD_SIZE_BOUNDS);
        a.observe(10); // <= 16
        a.observe(16); // <= 16 (bounds are inclusive upper)
        a.observe(17); // <= 64
        a.observe(1_000_000); // overflow
        assert_eq!(a.bucket_counts(), &[2, 1, 0, 0, 0, 0, 1]);
        let mut b = Histogram::new(PAYLOAD_SIZE_BOUNDS);
        b.observe(64);
        b.merge(&a);
        assert_eq!(b.count(), 5);
        assert_eq!(b.sum(), 1_000_107);
        assert_eq!(b.bucket_counts(), &[2, 2, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn profiler_records_merges_and_reports() {
        let p = Profiler::enabled();
        let t0 = p.begin();
        assert!(t0.is_some());
        p.end(Phase::Discovery, t0);
        p.add(Phase::Delivery, 10, 5_000_000);
        let shard = Profiler::enabled();
        shard.add(Phase::Delivery, 5, 2_000_000);
        shard.add(Phase::BarrierMerge, 1, 1_000_000);
        p.merge(&shard);
        assert_eq!(p.calls(Phase::Delivery), 15);
        assert_eq!(p.nanos(Phase::Delivery), 7_000_000);
        assert_eq!(p.calls(Phase::Discovery), 1);
        let report = p.report(SimDuration::from_secs(10));
        assert!(report.contains("| delivery | 15 |"));
        assert!(report.contains("barrier-merge"));
        assert!(report.contains("per simulated second"));
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(p.begin().is_none());
        p.end(Phase::Timers, p.begin());
        assert_eq!(p.calls(Phase::Timers), 0);
        assert_eq!(p.nanos(Phase::Timers), 0);
    }
}
