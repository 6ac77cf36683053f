//! The part every city experiment shares (E12, E13, E15, E17 and the city
//! half of E18): a WLAN-only square district whose area grows with the
//! population so the density stays constant, seeded placement of stationary
//! terminals and random-waypoint pedestrians, and seeded crash/restart churn.
//!
//! The experiments' settings types embed one [`City`] and declare its grid
//! parameters by naming the rows below, so `density`, `mobile_fraction`,
//! `duration_s` and `downtime_s` are parsed and assigned in one place.

use simnet::prelude::*;

use crate::experiments::params::{number, seconds, Param};
use crate::topology::random_positions;

/// An empty sequential world seeded with `seed` for a WLAN-only city: the
/// grid cells are sized to the WLAN range instead of the 10 m Bluetooth
/// default.
pub fn wlan_world(seed: u64) -> World {
    let mut config = WorldConfig::with_seed(seed);
    config.grid_cell_m = config.radio.wlan.range_m;
    World::new(config)
}

/// Settings of the shared city core.
#[derive(Debug, Clone)]
pub struct City {
    /// Base random seed: world, placement and churn plans derive from it.
    pub seed: u64,
    /// Device density in nodes per square kilometre; the simulated area
    /// grows with the node count so the density stays constant.
    pub density_per_km2: f64,
    /// Fraction of nodes roaming as random-waypoint pedestrians (the rest
    /// are stationary terminals).
    pub mobile_fraction: f64,
    /// Simulated duration of each run.
    pub duration: SimDuration,
    /// How often each device scans its neighbourhood (the inquiry interval
    /// of every discovery plugin under the full stack).
    pub inquiry_interval: SimDuration,
    /// Mean downtime of a crashed node.
    pub mean_downtime: SimDuration,
}

impl City {
    /// Side length in metres of the square area holding `nodes` devices at
    /// the configured density.
    pub fn side_m(&self, nodes: usize) -> f64 {
        (nodes as f64 / self.density_per_km2 * 1_000_000.0).sqrt()
    }

    /// An empty sequential world for a city of `nodes` devices (see
    /// [`wlan_world`]).
    pub fn world(&self, nodes: usize) -> World {
        wlan_world(self.seed ^ (nodes as u64))
    }

    /// The sharded-engine configuration for a city of `nodes` devices on
    /// `shards` worker threads: 1 s lookahead windows and link checks, WLAN
    /// grid cells, motion compiled ten minutes past the horizon.
    pub fn sharded_config(&self, nodes: usize, shards: usize, max_speed_mps: f64) -> ShardedConfig {
        let area = Rect::square(self.side_m(nodes));
        let mut config = ShardedConfig::new(self.seed ^ (nodes as u64), area);
        config.shards = shards;
        config.grid_cell_m = config.radio.wlan.range_m;
        config.link_check_interval = SimDuration::from_secs(1);
        config.window = Some(SimDuration::from_secs(1));
        config.max_speed_mps = max_speed_mps;
        config.mobility_horizon = SimTime::ZERO + self.duration + SimDuration::from_secs(600);
        config
    }

    /// Seeded placement of `nodes` devices: every device starts uniformly at
    /// random inside the city square, every `round(1 / mobile_fraction)`-th
    /// one is a pedestrian random-waypoint walker (0.7–2.0 m/s, 20 s pauses)
    /// and the rest never move. Yields `(index, mobility, is_mobile)`; `salt`
    /// is the experiment's own placement stream.
    pub fn placement(&self, nodes: usize, salt: u64) -> impl Iterator<Item = (usize, MobilityModel, bool)> {
        let side = self.side_m(nodes);
        let area = Rect::square(side);
        let mobile_every = if self.mobile_fraction <= 0.0 {
            usize::MAX
        } else {
            (1.0 / self.mobile_fraction).round().max(1.0) as usize
        };
        let starts = random_positions(nodes, side, self.seed ^ salt ^ (nodes as u64));
        starts.into_iter().enumerate().map(move |(i, start)| {
            let is_mobile = i % mobile_every == 0;
            let mobility = if is_mobile {
                MobilityModel::RandomWaypoint {
                    area,
                    start,
                    min_speed_mps: 0.7,
                    max_speed_mps: 2.0,
                    pause: SimDuration::from_secs(20),
                }
            } else {
                MobilityModel::stationary(start)
            };
            (i, mobility, is_mobile)
        })
    }

    /// Installs one seeded crash/restart schedule ([`FaultPlan::churn`] up to
    /// the run's horizon) on every `every`-th node of `nodes`, at `per_hour`
    /// expected crashes per churning node per hour. Does nothing when the
    /// rate is zero, so a control run never touches the fault engine. `salt`
    /// is the experiment's own planner stream; a node's plan depends only on
    /// it and the node's index. `install` hands the plan to whichever engine
    /// the city runs on.
    pub fn install_churn(
        &self,
        nodes: &[NodeId],
        every: usize,
        per_hour: f64,
        salt: u64,
        mut install: impl FnMut(NodeId, FaultPlan),
    ) {
        if per_hour <= 0.0 {
            return;
        }
        let mtbf = SimDuration::from_secs_f64(3_600.0 / per_hour);
        let horizon = SimTime::ZERO + self.duration;
        let planner = SimRng::new(self.seed ^ salt);
        for (i, &node) in nodes.iter().enumerate().step_by(every) {
            let mut rng = planner.derive(i as u64);
            install(node, FaultPlan::churn(horizon, mtbf, self.mean_downtime, &mut rng));
        }
    }

    /// Grid parameter `density`.
    pub const fn density<S: AsMut<City>>() -> Param<S> {
        Param::new("density", "devices per square kilometre", |s, v| {
            number(v).map(|d| s.as_mut().density_per_km2 = d)
        })
    }

    /// Grid parameter `mobile_fraction`.
    pub const fn mobile_fraction<S: AsMut<City>>() -> Param<S> {
        Param::new("mobile_fraction", "fraction of roaming pedestrians", |s, v| {
            number(v).map(|m| s.as_mut().mobile_fraction = m)
        })
    }

    /// Grid parameter `duration_s`.
    pub const fn duration_s<S: AsMut<City>>() -> Param<S> {
        Param::new("duration_s", "simulated seconds", |s, v| {
            seconds(v).map(|d| s.as_mut().duration = d)
        })
    }

    /// Grid parameter `downtime_s`.
    pub const fn downtime_s<S: AsMut<City>>() -> Param<S> {
        Param::new("downtime_s", "mean downtime of a crashed node", |s, v| {
            seconds(v).map(|d| s.as_mut().mean_downtime = d)
        })
    }
}
