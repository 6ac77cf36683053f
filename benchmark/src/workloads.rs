//! The four city workloads, generated from one seed.
//!
//! Every placement, churn schedule, insider choice and world seed is drawn
//! from a labelled [`SimRng::derive`] stream of the benchmark seed; the crates
//! under test receive only the generated world. All four are WLAN cities at
//! constant density, so node count sets the cache footprint and nothing else.

use std::rc::Rc;

use peerhood::config::{PeerHoodConfig, SecurityConfig};
use peerhood::hostile::ProtocolForge;
use peerhood::resilience::ResilienceConfig;
use scenarios::experiments::full_stack::{metro_configs, FullStackHost, METRO_SERVICE};
use scenarios::experiments::sharded::ShardCityAgent;
use simnet::prelude::*;

use crate::probe::ProbeWatch;
use crate::trace::{Trace, TracedHost};

/// The seed used when none is given (the paper's conference date).
pub const DEFAULT_SEED: u64 = 20080815;

const STREAM_WORLD: u64 = 0x0B01;
const STREAM_PLACEMENT: u64 = 0x0B02;
const STREAM_CHURN: u64 = 0x0B03;
const STREAM_INSIDERS: u64 = 0x0B04;

/// Which engine and agent a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential `World`, every node a `FullStackHost`.
    FullStack,
    /// `ShardedWorld`, every node a `ShardCityAgent` probe.
    Sharded,
}

/// The attack a hostile city is under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attack {
    /// One node in this many is a compromised insider.
    pub insider_every: usize,
    /// When the insiders' compromise windows open.
    pub compromise_at_s: u64,
    /// Spacing of each insider's injection attempts.
    pub inject_every_ms: u64,
    /// Length of the mid-run window that islands the left third of the city.
    pub partition_s: u64,
}

/// One workload: what runs, at what size, and why it is measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Why the workload exists (one line, as `BENCHMARK.json` carries it).
    pub why: &'static str,
    /// Engine and agent.
    pub kind: Kind,
    /// City population.
    pub nodes: usize,
    /// Devices per square kilometre.
    pub density_per_km2: f64,
    /// Every n-th node is a random-waypoint walker (1 = every node).
    pub walker_every: usize,
    /// Crashes per hour on every tenth node; zero switches churn off.
    pub churn_per_hour: f64,
    /// Mean downtime of a crashed node.
    pub mean_downtime_s: u64,
    /// Simulated seconds the run loop advances.
    pub sim_secs: u64,
    /// Inquiry interval of every node.
    pub inquiry_s: u64,
    /// Auth, sanity, reputation, breakers, backpressure and admission on every
    /// node, and the attack they face; `None` leaves all hardening off.
    pub attack: Option<Attack>,
}

impl Spec {
    /// Side of the square city in metres.
    pub fn side_m(&self) -> f64 {
        (self.nodes as f64 / self.density_per_km2 * 1_000_000.0).sqrt()
    }

    /// The unit of work of the throughput metric: one node advanced by one
    /// simulated second.
    pub fn node_sim_secs(&self) -> u64 {
        self.nodes as u64 * self.sim_secs
    }

    /// The parameters as `key=value` pairs for the ledger.
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("nodes", self.nodes as f64),
            ("density_per_km2", self.density_per_km2),
            ("walker_every", self.walker_every as f64),
            ("churn_per_hour", self.churn_per_hour),
            ("mean_downtime_s", self.mean_downtime_s as f64),
            ("sim_secs", self.sim_secs as f64),
            ("inquiry_s", self.inquiry_s as f64),
            ("insider_every", self.attack.map_or(0.0, |a| a.insider_every as f64)),
        ]
    }
}

/// Benchmark size or the seconds-long smoke size `check` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes every recorded number refers to.
    Full,
    /// Small cities that exercise the same code in seconds.
    Smoke,
}

const ATTACK: Attack = Attack {
    insider_every: 20,
    compromise_at_s: 30,
    inject_every_ms: 300,
    partition_s: 30,
};

/// The four workloads at the given size, in ledger order.
pub fn all(size: Size) -> Vec<Spec> {
    let fullstack = Spec {
        name: "city_fullstack",
        why: "steady state: 75 % stationary full stacks, small frames; where a stationary-link or frame-path gain must show",
        kind: Kind::FullStack,
        nodes: 4_000,
        density_per_km2: 2_000.0,
        walker_every: 4,
        churn_per_hour: 40.0,
        mean_downtime_s: 20,
        sim_secs: 240,
        inquiry_s: 10,
        attack: None,
    };
    let mobile = Spec {
        name: "city_mobile",
        why: "the paper's title case: every node walks, so the same layers reconfigure instead of idling; a stationary-pair shortcut must show no gain",
        nodes: 2_000,
        walker_every: 1,
        churn_per_hour: 0.0,
        sim_secs: 200,
        ..fullstack.clone()
    };
    let hostile = Spec {
        name: "city_hostile",
        why: "auth, sanity, reputation, admission and breakers on together under 5 % insiders and a partition; minus city_fullstack it prices hardening",
        attack: Some(ATTACK),
        ..fullstack.clone()
    };
    let sharded = Spec {
        name: "city_sharded",
        why: "100k light probes on the sharded engine: peerhood does nothing, so it bypasses every middleware change and is the only window-scheduler load",
        kind: Kind::Sharded,
        nodes: 100_000,
        density_per_km2: 1_000.0,
        walker_every: 5,
        churn_per_hour: 20.0,
        mean_downtime_s: 25,
        sim_secs: 45,
        inquiry_s: 20,
        attack: None,
    };
    let mut specs = vec![fullstack, mobile, hostile, sharded];
    if size == Size::Smoke {
        for spec in &mut specs {
            match spec.kind {
                Kind::FullStack => (spec.nodes, spec.sim_secs) = (300, 60),
                Kind::Sharded => (spec.nodes, spec.sim_secs) = (5_000, 20),
            }
        }
    }
    specs
}

/// The workload called `name`, if there is one.
pub fn by_name(name: &str, size: Size) -> Option<Spec> {
    all(size).into_iter().find(|s| s.name == name)
}

/// Worker threads `city_sharded` runs on: both cores of the authoring box,
/// fewer only where the machine has fewer.
pub fn shard_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn mobility(spec: &Spec, i: usize, area: Rect, start: Point) -> MobilityModel {
    if i.is_multiple_of(spec.walker_every) {
        MobilityModel::RandomWaypoint {
            area,
            start,
            min_speed_mps: 0.7,
            max_speed_mps: 2.0,
            pause: SimDuration::from_secs(20),
        }
    } else {
        MobilityModel::stationary(start)
    }
}

/// The churn schedule of node `i`, if it is one of the churning tenth.
fn churn_plan(spec: &Spec, planner: &SimRng, i: usize) -> Option<FaultPlan> {
    if spec.churn_per_hour <= 0.0 || !i.is_multiple_of(10) {
        return None;
    }
    let mtbf = SimDuration::from_secs_f64(3_600.0 / spec.churn_per_hour);
    let horizon = SimTime::from_secs(spec.sim_secs);
    let mut rng = planner.derive(i as u64);
    Some(FaultPlan::churn(
        horizon,
        mtbf,
        SimDuration::from_secs(spec.mean_downtime_s),
        &mut rng,
    ))
}

/// A built full-stack city, ready for its first `run_for`.
pub struct City {
    /// The world, every node added and every plan installed.
    pub world: World,
    /// The compromised insiders, ascending (empty unless the city is hostile).
    pub insiders: Vec<NodeId>,
    /// The node configuration in force (the stationary one; walkers differ
    /// only in the mobility class they advertise).
    pub config: Rc<PeerHoodConfig>,
    /// Wall nanoseconds spent in the `add_node` loop.
    pub add_node_ns: u64,
}

/// Builds a sequential full-stack city. With a `trace`, every host is wrapped
/// in a [`TracedHost`] reporting into it.
pub fn build_city(spec: &Spec, seed: u64, trace: Option<&Rc<Trace>>) -> City {
    let root = SimRng::new(seed);
    let side = spec.side_m();
    let area = Rect::square(side);
    let mut config = WorldConfig::with_seed(root.derive(STREAM_WORLD).next_u64());
    config.grid_cell_m = config.radio.wlan.range_m;
    let mut world = World::new(config);

    let (static_cfg, mobile_cfg) = metro_configs(SimDuration::from_secs(spec.inquiry_s));
    let harden = |cfg: Rc<PeerHoodConfig>| match spec.attack {
        None => cfg,
        Some(_) => {
            let mut hardened = (*cfg).clone();
            hardened.security = SecurityConfig::auth();
            hardened.resilience = ResilienceConfig::all_on();
            Rc::new(hardened)
        }
    };
    let (static_cfg, mobile_cfg) = (harden(static_cfg), harden(mobile_cfg));

    let mut placer = root.derive(STREAM_PLACEMENT);
    let mut starts = Vec::with_capacity(spec.nodes);
    let add_started = std::time::Instant::now();
    for i in 0..spec.nodes {
        let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
        starts.push(start);
        let cfg = if i.is_multiple_of(spec.walker_every) {
            &mobile_cfg
        } else {
            &static_cfg
        };
        let host = FullStackHost::new(Rc::clone(cfg));
        let agent: Box<dyn NodeAgent> = match trace {
            Some(trace) => Box::new(TracedHost::new(host, Rc::clone(trace))),
            None => Box::new(host),
        };
        world.add_node(
            format!("m{i}"),
            mobility(spec, i, area, start),
            &[RadioTech::Wlan],
            agent,
        );
    }
    let add_node_ns = add_started.elapsed().as_nanos() as u64;

    let ids: Vec<NodeId> = world.node_ids().collect();
    let planner = root.derive(STREAM_CHURN);
    for (i, &node) in ids.iter().enumerate() {
        if let Some(plan) = churn_plan(spec, &planner, i) {
            world.install_fault_plan(node, plan);
        }
    }

    let mut insiders = Vec::new();
    if let Some(attack) = spec.attack {
        let mut order: Vec<usize> = (0..spec.nodes).collect();
        root.derive(STREAM_INSIDERS).shuffle(&mut order);
        order.truncate(spec.nodes / attack.insider_every);
        order.sort_unstable();
        insiders = order.iter().map(|&i| ids[i]).collect();

        let end = SimTime::from_secs(spec.sim_secs);
        let mut plan = AdversaryPlan::new();
        for &node in &insiders {
            plan = plan.compromise(
                node,
                SimTime::from_secs(attack.compromise_at_s),
                end,
                SimDuration::from_millis(attack.inject_every_ms),
            );
        }
        let cut_from = (spec.sim_secs / 2).saturating_sub(attack.partition_s / 2);
        let island = ids
            .iter()
            .zip(&starts)
            .filter(|(_, p)| p.x < side / 3.0)
            .map(|(&id, _)| id);
        plan = plan.partition(
            SimTime::from_secs(cut_from),
            SimTime::from_secs(cut_from + attack.partition_s),
            island,
        );
        world.install_adversary_plan(plan);
        world.set_frame_forge(Box::new(ProtocolForge::new(METRO_SERVICE)));
    }
    City {
        world,
        insiders,
        config: static_cfg,
        add_node_ns,
    }
}

/// A built probe city on the sharded engine.
pub struct ProbeCity {
    /// The world, every node added and every plan installed.
    pub world: ShardedWorld,
    /// Wall nanoseconds spent in the `add_node` loop.
    pub add_node_ns: u64,
}

/// Builds the sharded probe city on `shards` worker threads (static stripes).
pub fn build_probe_city(spec: &Spec, seed: u64, shards: usize) -> ProbeCity {
    let root = SimRng::new(seed);
    let side = spec.side_m();
    let area = Rect::new(0.0, 0.0, side, side);
    let mut config = ShardedConfig::new(root.derive(STREAM_WORLD).next_u64(), area);
    config.shards = shards;
    config.grid_cell_m = config.radio.wlan.range_m;
    config.link_check_interval = SimDuration::from_secs(1);
    config.window = Some(SimDuration::from_secs(1));
    config.max_speed_mps = 2.0;
    config.mobility_horizon = SimTime::from_secs(spec.sim_secs + 600);
    let mut world = ShardedWorld::new(config);

    let mut placer = root.derive(STREAM_PLACEMENT);
    let inquiry = SimDuration::from_secs(spec.inquiry_s);
    let add_started = std::time::Instant::now();
    for i in 0..spec.nodes {
        let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
        let probe = ShardCityAgent::new(inquiry, SimDuration::from_secs(10));
        world.add_node(
            format!("s{i}"),
            mobility(spec, i, area, start),
            &[RadioTech::Wlan],
            Box::new(ProbeWatch::new(probe)),
        );
    }
    let add_node_ns = add_started.elapsed().as_nanos() as u64;

    let planner = root.derive(STREAM_CHURN);
    for (i, node) in world.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
        if let Some(plan) = churn_plan(spec, &planner, i) {
            world.install_fault_plan(node, &plan);
        }
    }
    ProbeCity { world, add_node_ns }
}
