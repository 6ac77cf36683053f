//! The crowd family's shared core (E16 and E19): clients running a
//! [`CrowdApp`] that attaches to the best `"hotspot"` provider (a
//! [`HotspotApp`]) and pings it every tick, placed as full PeerHood stacks
//! in one WLAN disc, and run once per mode, one report row each.
//!
//! An experiment's settings are a [`Crowd`] plus what the experiment adds,
//! paired with the modes it runs. Every setting both crowds use is a field
//! here, and the `clients` and `duration_s` rows below are their only
//! declaration. [`Crowd::run`] is the one instrumented run and
//! [`CrowdTally`] the one per-client sum.

use peerhood::application::Application;
use peerhood::error::PeerHoodError;
use peerhood::ids::{ConnectionId, DeviceAddress};
use peerhood::node::{PeerHoodApi, PeerHoodNode};
use peerhood::service::ServiceInfo;
use peerhood::session::ServiceSession;
use simnet::prelude::*;

use crate::experiments::params::{count, seconds, Param};

/// Name of the service the hotspots offer and the crowd consumes.
pub const HOTSPOT_SERVICE: &str = "hotspot";

const PING_TIMER: u64 = 0xC40;

/// Settings of the crowd core, plus `extra`, what one experiment adds.
#[derive(Debug, Clone)]
pub struct Crowd<E> {
    /// Base random seed: the world and everything scheduled in it derive
    /// from it, whichever mode runs.
    pub seed: u64,
    /// Crowd size.
    pub clients: usize,
    /// Simulated duration of each mode's run.
    pub duration: SimDuration,
    /// Inquiry interval of every node's discovery plugin.
    pub inquiry_interval: SimDuration,
    /// Discovery warmup: clients hold their first attach back this long so
    /// everyone has fetched every hotspot and the §3.4.3 ranking — not
    /// fetch order — picks the provider.
    pub warmup: SimDuration,
    /// Application tick: attached clients send pings, detached ones
    /// re-attach.
    pub ping_interval: SimDuration,
    /// Pings sent per tick while attached.
    pub pings_per_tick: usize,
    /// The experiment's own settings.
    pub extra: E,
}

impl<E> Crowd<E> {
    /// A crowd member as these settings configure it.
    pub fn app(&self) -> CrowdApp {
        CrowdApp {
            tick: self.ping_interval,
            ping_burst: self.pings_per_tick,
            warmup: self.warmup,
            session: ServiceSession::default(),
            counts: CrowdCounts::default(),
        }
    }

    /// Runs `world` for the crowd's duration under the thread's
    /// [`telemetry`](crate::telemetry) settings. Between frames the stacks
    /// of `ids` are summed into one `T` by `absorb`, and `export` mirrors
    /// the sum into the telemetry plane.
    pub fn run<T: Default>(
        &self,
        world: &mut World,
        scope: &str,
        ids: &[NodeId],
        absorb: impl Fn(&mut T, &PeerHoodNode),
        export: impl Fn(&T, &mut Telemetry),
    ) {
        crate::telemetry::instrument_world(world, scope);
        crate::telemetry::run_world(world, self.duration, |world| {
            let mut total = T::default();
            for &id in ids {
                world.with_agent::<PeerHoodNode, _>(id, |node, _| absorb(&mut total, node));
            }
            if let Some(tel) = world.telemetry_mut() {
                export(&total, tel);
            }
        });
        crate::telemetry::finish_world(world, scope);
    }

    /// Grid parameter `clients`, over the crowd and the modes it runs.
    pub const fn clients<M>() -> Param<(Self, M)> {
        Param::new("clients", "crowd size", |(s, _), v| count(v).map(|n| s.clients = n))
    }

    /// Grid parameter `duration_s`, over the crowd and the modes it runs.
    pub const fn duration_s<M>() -> Param<(Self, M)> {
        Param::new("duration_s", "simulated seconds per mode", |(s, _), v| {
            seconds(v).map(|d| s.duration = d)
        })
    }
}

/// What a crowd's [`CrowdApp`]s counted, added up one node at a time.
#[derive(Debug, Clone, Default)]
pub struct CrowdTally {
    /// Echo payloads delivered to each node, in node order (0 for a node
    /// that is down or runs no [`CrowdApp`]).
    pub delivered: Vec<u64>,
    /// The live [`CrowdApp`]s' counters, summed.
    pub total: CrowdCounts,
}

impl CrowdTally {
    /// Adds up the [`CrowdApp`] counters of the nodes `ids`, in order, and
    /// hands every live node's stack to `each` for the stack's own counters.
    pub fn of(world: &mut World, ids: &[NodeId], mut each: impl FnMut(&PeerHoodNode)) -> Self {
        let mut tally = CrowdTally::default();
        for &id in ids {
            let delivered = world.with_agent::<PeerHoodNode, _>(id, |node, _| {
                each(node);
                node.with_app(|app: &CrowdApp| {
                    tally.total.absorb(&app.counts);
                    app.counts.delivered
                })
            });
            tally.delivered.push(delivered.flatten().unwrap_or(0));
        }
        tally
    }
}

simnet::counter_table! {
    /// What one [`CrowdApp`] counted.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CrowdCounts {
        /// Client sessions established.
        pub sessions_established: u64,
        /// Sessions the middleware could not keep alive.
        pub sessions_lost: u64,
        /// Attaches diverted away from an open-breaker provider.
        pub diverted: u64,
        /// Pings sent.
        pub pings_sent: u64,
        /// Echo payloads delivered back to this client.
        pub delivered: u64,
        /// Sends refused by the backpressure layer.
        pub sends_shed: u64,
        /// Total reconnection latency, from the middleware's first report
        /// of the session down.
        pub reconnect_secs_total: f64,
        /// Number of latency samples in `reconnect_secs_total`.
        pub reconnects: u64,
    }
}

/// A crowd member: attaches to the best `"hotspot"` provider and pings it
/// every tick. When the attach is refused synchronously by an open circuit
/// breaker, it walks the rest of the known providers instead of waiting for
/// the breaker's peer to come back — the diversion the pipeline exists to
/// enable.
pub struct CrowdApp {
    /// Tick interval (pings while attached, re-attach otherwise).
    tick: SimDuration,
    /// Pings sent per tick while attached.
    ping_burst: usize,
    /// No attach before this long into the run (discovery warmup).
    warmup: SimDuration,
    session: ServiceSession,
    /// What this member counted.
    pub counts: CrowdCounts,
}

impl CrowdApp {
    fn try_attach(&mut self, api: &mut PeerHoodApi<'_>) {
        if !self.session.may_dial() || api.now() < SimTime::ZERO + self.warmup {
            return;
        }
        match api.connect_to_service(HOTSPOT_SERVICE) {
            Ok(conn) => self.session.dialled(conn),
            Err(PeerHoodError::CircuitOpen(_)) => {
                // The best-ranked provider is behind an open breaker: try
                // the other known providers in deterministic address order.
                let providers: Vec<DeviceAddress> = api
                    .service_list()
                    .into_iter()
                    .filter(|(_, s)| s.name == HOTSPOT_SERVICE)
                    .map(|(addr, _)| addr)
                    .collect();
                for addr in providers {
                    if let Ok(conn) = api.connect_to(addr, HOTSPOT_SERVICE) {
                        self.session.dialled(conn);
                        self.counts.diverted += 1;
                        return;
                    }
                }
            }
            Err(_) => {}
        }
    }
}

/// A crowd member declines the middleware's provider switch: a session it
/// loses is down until its own dial on a later tick.
impl Application for CrowdApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        self.session.restarted();
        api.schedule_timer(self.tick, PING_TIMER);
    }

    fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, _address: DeviceAddress) {
        self.try_attach(api);
    }

    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if let Some(up) = self.session.connected(api, conn) {
            self.counts.sessions_established += 1;
            if let Some(down_for) = up.down_for {
                self.counts.reconnect_secs_total += down_for.as_secs_f64();
                self.counts.reconnects += 1;
            }
        }
    }

    fn on_connect_failed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, _error: PeerHoodError) {
        self.session.connect_failed(conn);
    }

    fn on_data(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId, _payload: Vec<u8>) {
        self.counts.delivered += 1;
    }

    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
        if self.session.disconnected(api.now(), conn) {
            self.counts.sessions_lost += 1;
        }
    }

    fn on_reconnect_required(
        &mut self,
        _api: &mut PeerHoodApi<'_>,
        _conn: ConnectionId,
        _provider: DeviceAddress,
    ) -> bool {
        false
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        if token != PING_TIMER {
            return;
        }
        match self.session.up() {
            Some(conn) => {
                for _ in 0..self.ping_burst {
                    match api.send(conn, b"crowd-ping".to_vec()) {
                        Ok(()) => self.counts.pings_sent += 1,
                        Err(_) => {
                            self.counts.sends_shed += 1;
                            break;
                        }
                    }
                }
            }
            None => self.try_attach(api),
        }
        api.schedule_timer(self.tick, PING_TIMER);
    }
}

/// A hotspot: registers the [`HOTSPOT_SERVICE`] and echoes every payload
/// back to its sender.
#[derive(Default)]
pub struct HotspotApp {
    /// Payloads received and echoed.
    pub served: u64,
    /// Echoes refused by the backpressure layer.
    pub echoes_shed: u64,
}

impl Application for HotspotApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        let _ = api.register_service(ServiceInfo::new(HOTSPOT_SERVICE, "v1", 80));
    }

    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        match api.send(conn, payload) {
            Ok(()) => self.served += 1,
            Err(_) => self.echoes_shed += 1,
        }
    }
}
