//! Scenario-side switchboard for the live telemetry plane.
//!
//! The engines ([`World`], [`ShardedWorld`]) carry the recording hooks; this
//! module decides *whether* a given experiment run engages them. The `repro`
//! CLI (and tests) call [`configure`] once per thread, the experiment
//! builders call [`observe`] around an uninterrupted run (or
//! [`instrument_world`] / [`instrument_sharded`] on each world they create
//! and [`finish_world`] / [`finish_sharded`] when the run ends), and the CLI
//! drains the recorded [`TelemetryCapture`]s with
//! [`take_captures`] after the report is printed.
//!
//! Settings are **thread-local and default to [`TelemetryMode::Off`]**: sweep
//! worker threads, `cargo test` and every existing entry point see inert
//! hooks and byte-identical runs unless they opt in themselves. Telemetry
//! output never goes to stdout — reports stay diffable against the recorded
//! baselines with the plane on or off.

use std::cell::{Cell, RefCell};

use simnet::prelude::*;
use simnet::telemetry::DEFAULT_SAMPLE_INTERVAL;

/// How the telemetry plane is engaged for runs on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No recorder attached; runs are untouched (the default).
    Off,
    /// Record frames for an end-of-run roll-up / JSONL export.
    Record,
    /// Record, and additionally stream every frame to stderr as it is
    /// emitted (`repro watch`).
    Watch,
}

/// Thread-local telemetry settings for experiment runs.
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySettings {
    /// Recording mode.
    pub mode: TelemetryMode,
    /// Virtual-time spacing of sampled frames.
    pub sample_interval: SimDuration,
    /// Also enable per-phase wall-clock profiling (independent of `mode`).
    pub profile: bool,
    /// Also record per-shard `shard/*` series in sharded runs. Off by
    /// default: these series depend on the shard layout, so the default
    /// captures stay byte-identical at any `--shards` count.
    pub shard_series: bool,
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        TelemetrySettings {
            mode: TelemetryMode::Off,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            profile: false,
            shard_series: false,
        }
    }
}

/// Everything one instrumented run leaves behind.
#[derive(Debug, Clone)]
pub struct TelemetryCapture {
    /// Which run this is (experiment slug plus scenario key, e.g.
    /// `"E12 nodes=400"`).
    pub scope: String,
    /// Frames retained by the ring.
    pub frames: usize,
    /// Frames the ring evicted.
    pub dropped: u64,
    /// JSON-lines export of every retained frame (empty when the run was
    /// profile-only).
    pub jsonl: String,
    /// FNV-1a digest of `jsonl` — what the determinism tests compare.
    pub digest: u64,
    /// End-of-run roll-up table (`None` when the run was profile-only).
    pub rollup: Option<String>,
    /// Per-phase profile table (`None` unless profiling was on).
    pub profile: Option<String>,
}

thread_local! {
    static SETTINGS: Cell<TelemetrySettings> = Cell::new(TelemetrySettings::default());
    static CAPTURES: RefCell<Vec<TelemetryCapture>> = const { RefCell::new(Vec::new()) };
}

/// Sets the telemetry settings for experiment runs on this thread.
pub fn configure(settings: TelemetrySettings) {
    SETTINGS.with(|s| s.set(settings));
}

/// The settings in force on this thread.
pub fn settings() -> TelemetrySettings {
    SETTINGS.with(|s| s.get())
}

/// Drains every capture recorded on this thread since the last call.
pub fn take_captures() -> Vec<TelemetryCapture> {
    CAPTURES.with(|c| c.borrow_mut().drain(..).collect())
}

fn push_capture(capture: TelemetryCapture) {
    CAPTURES.with(|c| c.borrow_mut().push(capture));
}

/// Attaches the configured recorder/profiler to a sequential world. A no-op
/// under [`TelemetryMode::Off`] without profiling.
pub fn instrument_world(world: &mut World, scope: &str) {
    let s = settings();
    if s.mode != TelemetryMode::Off {
        world.enable_telemetry(TelemetryConfig::every(s.sample_interval));
        if s.mode == TelemetryMode::Watch {
            if let Some(tel) = world.telemetry_mut() {
                tel.set_on_frame(watch_printer(scope.to_string()));
            }
        }
    }
    if s.profile {
        world.enable_profiling();
    }
}

/// Attaches the configured recorder/profiler to a sharded world.
pub fn instrument_sharded(world: &mut ShardedWorld, scope: &str) {
    let s = settings();
    if s.mode != TelemetryMode::Off {
        let mut config = TelemetryConfig::every(s.sample_interval);
        config.shard_series = s.shard_series;
        world.enable_telemetry(config);
        if s.mode == TelemetryMode::Watch {
            if let Some(tel) = world.telemetry_mut() {
                tel.set_on_frame(watch_printer(scope.to_string()));
            }
        }
    }
    if s.profile {
        world.enable_profiling();
    }
}

/// Harvests a sequential world's recorder/profile into a capture. Call once
/// when the run is over (before the world is dropped).
pub fn finish_world(world: &mut World, scope: &str) {
    let elapsed = world.now().saturating_since(SimTime::ZERO);
    let profile = settings().profile.then(|| world.profiler().report(elapsed));
    finish(world.take_telemetry(), profile, scope);
}

/// Harvests a sharded world's recorder/profile into a capture.
pub fn finish_sharded(world: &mut ShardedWorld, scope: &str) {
    let elapsed = world.now().saturating_since(SimTime::ZERO);
    let profile = settings().profile.then(|| world.profile().report(elapsed));
    finish(world.take_telemetry(), profile, scope);
}

fn finish(telemetry: Option<Box<Telemetry>>, profile: Option<String>, scope: &str) {
    if telemetry.is_none() && profile.is_none() {
        return;
    }
    let capture = match telemetry {
        Some(tel) => {
            let jsonl = tel.to_jsonl();
            TelemetryCapture {
                scope: scope.to_string(),
                frames: tel.frame_count(),
                dropped: tel.dropped_frames(),
                digest: simnet::telemetry::fnv1a(jsonl.as_bytes()),
                jsonl,
                rollup: Some(tel.rollup()),
                profile,
            }
        }
        None => TelemetryCapture {
            scope: scope.to_string(),
            frames: 0,
            dropped: 0,
            jsonl: String::new(),
            digest: simnet::telemetry::fnv1a(b""),
            rollup: None,
            profile,
        },
    };
    push_capture(capture);
}

/// Runs a sequential world for `duration`, chunked at the sample interval so
/// `refresh` can mirror scenario-level gauges (resilience pipeline state,
/// handover counts) into the recorder between frames. With telemetry off the
/// chunking — and the refresh work — is skipped entirely; with it on, the
/// chunked `run_until` sequence processes the exact same events in the exact
/// same order, so the simulation itself is unchanged either way.
pub fn run_world(world: &mut World, duration: SimDuration, mut refresh: impl FnMut(&mut World)) {
    let s = settings();
    if s.mode == TelemetryMode::Off {
        world.run_for(duration);
        return;
    }
    let end = world.now() + duration;
    while world.now() < end {
        refresh(world);
        let step = s.sample_interval.min(end.saturating_since(world.now()));
        world.run_for(step);
    }
    refresh(world);
}

/// Observes one uninterrupted run: [`instrument_world`], [`run_world`] for
/// `duration` with nothing to refresh, [`finish_world`]. Runs that sample,
/// refresh gauges or quiesce between those steps call them separately.
pub fn observe(world: &mut World, scope: &str, duration: SimDuration) {
    instrument_world(world, scope);
    run_world(world, duration, |_| {});
    finish_world(world, scope);
}

/// The live `repro watch` frame printer: one stderr line per sampled frame
/// with the aggregate vitals (and per-frame connect/delivery rates derived
/// from the counter deltas).
fn watch_printer(scope: String) -> simnet::FrameSink {
    let mut prev: Option<(SimTime, f64, f64)> = None;
    Box::new(move |frame| {
        let t = frame.at;
        let connects = frame.get("world", "connects_established").unwrap_or(0.0);
        let delivered = frame.get("world", "messages_delivered").unwrap_or(0.0);
        let (t0, c0, d0) = prev.unwrap_or((SimTime::ZERO, 0.0, 0.0));
        let dt = t.saturating_since(t0).as_secs_f64();
        let (cps, dps) = if dt > 0.0 {
            ((connects - c0) / dt, (delivered - d0) / dt)
        } else {
            (0.0, 0.0)
        };
        prev = Some((t, connects, delivered));
        let mut line = format!(
            "[watch] {scope} t={:.0}s alive={:.0} links={:.0} connects/s={cps:.1} delivered/s={dps:.1} delivery={:.1}%",
            t.saturating_since(SimTime::ZERO).as_secs_f64(),
            frame.get("world", "nodes_alive").unwrap_or(0.0),
            frame.get("world", "links_open").unwrap_or(0.0),
            frame.get("world", "delivery_rate").unwrap_or(1.0) * 100.0,
        );
        let shed = frame.get("resilience", "inbound_shed").unwrap_or(0.0)
            + frame.get("resilience", "outbound_shed").unwrap_or(0.0)
            + frame.get("resilience", "queue_shed").unwrap_or(0.0);
        if let Some(open) = frame.get("resilience", "breakers_open") {
            line.push_str(&format!(" shed={shed:.0} breakers_open={open:.0}"));
        }
        if let Some(crashes) = frame.get("faults", "node_crashes") {
            if crashes > 0.0 {
                line.push_str(&format!(" crashes={crashes:.0}"));
            }
        }
        eprintln!("{line}");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_default_to_off_and_are_thread_local() {
        assert_eq!(settings().mode, TelemetryMode::Off);
        configure(TelemetrySettings {
            mode: TelemetryMode::Record,
            ..TelemetrySettings::default()
        });
        assert_eq!(settings().mode, TelemetryMode::Record);
        let other = std::thread::spawn(|| settings().mode).join().unwrap();
        assert_eq!(other, TelemetryMode::Off, "settings must not leak across threads");
        configure(TelemetrySettings::default());
    }

    #[test]
    fn finish_with_nothing_attached_records_no_capture() {
        configure(TelemetrySettings::default());
        let mut world = World::new(WorldConfig::with_seed(7));
        observe(&mut world, "noop", SimDuration::from_secs(2));
        assert!(take_captures().is_empty());
    }
}
