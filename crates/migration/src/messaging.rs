//! The simple messaging client and server used by the thesis' own tests.
//!
//! §4.3 tests the bridge service with "two simple clients and one server":
//! each client sends a message 20 times with one-second intervals through the
//! bridge and the server prints it. §5.2.1 simulates routing handover with a
//! client printing "good morning!" 50 times on the server's screen. These
//! applications reproduce that workload and record the timings the
//! experiments need.

use peerhood::node::PeerHoodApi;
use peerhood::prelude::*;
use simnet::{SimDuration, SimTime};

const TOKEN_CONNECT: u64 = 1;
const TOKEN_SEND: u64 = 2;

/// A client that connects to a named service and sends a fixed message a
/// configured number of times at a fixed interval.
#[derive(Debug)]
pub struct MessagingClient {
    /// Service to connect to.
    pub service: String,
    /// The message sent on every tick.
    pub message: Vec<u8>,
    /// How many times to send it.
    pub repetitions: u32,
    /// Interval between messages.
    pub interval: SimDuration,
    /// Delay before the first connection attempt.
    pub start_after: SimDuration,
    /// If the connection cannot be established (or no provider is known yet),
    /// retry after this long.
    pub retry_after: SimDuration,
    /// Maximum number of connection attempts before giving up.
    pub max_attempts: u32,

    // --- recorded state ---
    /// The active connection, if any.
    pub conn: Option<ConnectionId>,
    /// Messages sent so far (in the current task run).
    pub sent: u32,
    /// When each message was handed to the middleware, in sending order
    /// (across task restarts).
    pub sent_at: Vec<SimTime>,
    /// Connection attempts made.
    pub attempts: u32,
    /// When the first connection attempt started.
    pub first_attempt_at: Option<SimTime>,
    /// When the connection was last established.
    pub connected_at: Option<SimTime>,
    /// When all repetitions had been sent.
    pub finished_at: Option<SimTime>,
    /// Times the underlying route was replaced while the session survived
    /// (routing handover / reconnection, the `ChangeConnection` callback).
    pub connection_changes: u32,
    /// Times the middleware reported the connection as lost for good.
    pub disconnects: u32,
    /// Times the task had to restart from zero on a new provider.
    pub restarts: u32,
    /// True once the client has permanently given up.
    pub gave_up: bool,
}

impl MessagingClient {
    /// Creates a client for the §4.3 bridge test: 20 messages at 1 s
    /// intervals.
    pub fn bridge_test(service: impl Into<String>, start_after: SimDuration) -> Self {
        MessagingClient::new(
            service,
            b"test message".to_vec(),
            20,
            SimDuration::from_secs(1),
            start_after,
        )
    }

    /// Creates a client for the §5.2.1 handover simulation: "good morning!"
    /// 50 times at 1 s intervals.
    pub fn good_morning(service: impl Into<String>, start_after: SimDuration) -> Self {
        MessagingClient::new(
            service,
            b"good morning!".to_vec(),
            50,
            SimDuration::from_secs(1),
            start_after,
        )
    }

    /// Creates a fully parameterised client.
    pub fn new(
        service: impl Into<String>,
        message: Vec<u8>,
        repetitions: u32,
        interval: SimDuration,
        start_after: SimDuration,
    ) -> Self {
        MessagingClient {
            service: service.into(),
            message,
            repetitions,
            interval,
            start_after,
            retry_after: SimDuration::from_secs(5),
            max_attempts: 10,
            conn: None,
            sent: 0,
            sent_at: Vec::new(),
            attempts: 0,
            first_attempt_at: None,
            connected_at: None,
            finished_at: None,
            connection_changes: 0,
            disconnects: 0,
            restarts: 0,
            gave_up: false,
        }
    }

    /// True once every repetition has been sent.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Seconds between the first connection attempt and establishment, if
    /// both happened.
    pub fn connection_setup_seconds(&self) -> Option<f64> {
        Some((self.connected_at? - self.first_attempt_at?).as_secs_f64())
    }

    fn try_connect(&mut self, api: &mut PeerHoodApi<'_>) {
        if self.gave_up || self.conn.is_some() {
            return;
        }
        if self.attempts >= self.max_attempts {
            self.gave_up = true;
            return;
        }
        match api.connect_to_service(&self.service) {
            Ok(conn) => {
                self.attempts += 1;
                if self.first_attempt_at.is_none() {
                    self.first_attempt_at = Some(api.now());
                }
                self.conn = Some(conn);
            }
            Err(_) => {
                // Provider not discovered yet; retry later.
                api.schedule_timer(self.retry_after, TOKEN_CONNECT);
            }
        }
    }
}

impl Application for MessagingClient {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        api.schedule_timer(self.start_after, TOKEN_CONNECT);
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        match token {
            TOKEN_CONNECT => self.try_connect(api),
            TOKEN_SEND => {
                let conn = match self.conn {
                    Some(c) => c,
                    None => return,
                };
                if self.sent >= self.repetitions {
                    return;
                }
                if api.send(conn, self.message.clone()).is_ok() {
                    self.sent += 1;
                    self.sent_at.push(api.now());
                }
                if self.sent >= self.repetitions {
                    self.finished_at = Some(api.now());
                } else {
                    api.schedule_timer(self.interval, TOKEN_SEND);
                }
            }
            _ => {}
        }
    }

    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if self.conn == Some(conn) {
            self.connected_at = Some(api.now());
            api.schedule_timer(SimDuration::from_millis(10), TOKEN_SEND);
        }
    }

    fn on_connect_failed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _error: PeerHoodError) {
        if self.conn == Some(conn) {
            self.conn = None;
            api.schedule_timer(self.retry_after, TOKEN_CONNECT);
        }
    }

    fn on_connection_changed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if self.conn == Some(conn) {
            self.connection_changes += 1;
            if self.connected_at.is_none() {
                self.connected_at = Some(api.now());
            }
            // Resume sending if anything is left.
            if self.sent < self.repetitions && !self.finished() {
                api.schedule_timer(SimDuration::from_millis(10), TOKEN_SEND);
            }
        }
    }

    fn on_service_reconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _provider: DeviceAddress) {
        if self.conn == Some(conn) {
            // A different provider means the task starts over (§5.2.2).
            self.restarts += 1;
            self.sent = 0;
            self.connection_changes += 1;
            api.schedule_timer(SimDuration::from_millis(10), TOKEN_SEND);
        }
    }

    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
        if self.conn == Some(conn) {
            self.disconnects += 1;
            if !self.finished() {
                // Try again from scratch unless exhausted.
                self.conn = None;
                api.schedule_timer(self.retry_after, TOKEN_CONNECT);
            }
        }
    }
}

/// A server that registers a named service and records every message it
/// receives (the "print it on the screen" server of §4.3/§5.2.1).
#[derive(Debug)]
pub struct MessagingServer {
    /// The service name to register.
    pub service: String,
    /// Every received message with its arrival time.
    pub received: Vec<(SimTime, Vec<u8>)>,
    /// Number of clients that connected.
    pub clients: u32,
    /// Number of times a session's route changed under it.
    pub connection_changes: u32,
}

impl MessagingServer {
    /// Creates a server for the given service name.
    pub fn new(service: impl Into<String>) -> Self {
        MessagingServer {
            service: service.into(),
            received: Vec::new(),
            clients: 0,
            connection_changes: 0,
        }
    }

    /// Number of received messages.
    pub fn received_count(&self) -> usize {
        self.received.len()
    }

    /// Largest gap in seconds between consecutive received messages (a proxy
    /// for the interruption caused by a handover).
    pub fn largest_gap_seconds(&self) -> f64 {
        self.received
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64())
            .fold(0.0, f64::max)
    }
}

impl Application for MessagingServer {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        api.register_service(ServiceInfo::new(self.service.clone(), "messaging", 40))
            .expect("messaging service registers once");
    }

    fn on_peer_connected(
        &mut self,
        _api: &mut PeerHoodApi<'_>,
        _conn: ConnectionId,
        _client: DeviceInfo,
        _service: &str,
    ) {
        self.clients += 1;
    }

    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, _conn: ConnectionId, payload: Vec<u8>) {
        self.received.push((api.now(), payload));
    }

    fn on_connection_changed(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId) {
        self.connection_changes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerhood::config::PeerHoodConfig;
    use peerhood::node::PeerHoodNode;
    use simnet::{MobilityModel, OnWorld, Point, RadioTech, World, WorldConfig};

    fn bt() -> [RadioTech; 1] {
        [RadioTech::Bluetooth]
    }

    #[test]
    fn client_sends_all_messages_to_the_server() {
        let mut world = World::new(WorldConfig::ideal(77));
        let client = world.add_node(
            "client",
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            &bt(),
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::mobile_device("client"))
                    .app(MessagingClient::new(
                        "msg",
                        b"hi".to_vec(),
                        5,
                        SimDuration::from_millis(500),
                        SimDuration::from_secs(30),
                    ))
                    .build(),
            )),
        );
        let server = world.add_node(
            "server",
            MobilityModel::stationary(Point::new(5.0, 0.0)),
            &bt(),
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::static_device("server"))
                    .app(MessagingServer::new("msg"))
                    .build(),
            )),
        );
        world.run_for(SimDuration::from_secs(120));
        let (sent, finished, setup) = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let app = n.app::<MessagingClient>().unwrap();
                (app.sent, app.finished(), app.connection_setup_seconds())
            })
            .unwrap();
        assert_eq!(sent, 5);
        assert!(finished);
        assert!(setup.unwrap() >= 0.0);
        let received = world
            .with_agent::<PeerHoodNode, _>(server, |n, _| {
                let app = n.app::<MessagingServer>().unwrap();
                (app.received_count(), app.clients)
            })
            .unwrap();
        assert_eq!(received, (5, 1));
    }

    #[test]
    fn client_retries_until_the_service_is_discovered() {
        // The client starts trying to connect before discovery has had any
        // chance to find the server, so the first attempts fail with
        // ServiceNotFound and the retry path is exercised.
        let mut world = World::new(WorldConfig::ideal(78));
        let client = world.add_node(
            "client",
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            &bt(),
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::mobile_device("client"))
                    .app(MessagingClient::new(
                        "msg",
                        b"x".to_vec(),
                        1,
                        SimDuration::from_secs(1),
                        SimDuration::from_millis(100),
                    ))
                    .build(),
            )),
        );
        world.add_node(
            "server",
            MobilityModel::stationary(Point::new(5.0, 0.0)),
            &bt(),
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::static_device("server"))
                    .app(MessagingServer::new("msg"))
                    .build(),
            )),
        );
        world.run_for(SimDuration::from_secs(120));
        let finished = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| n.app::<MessagingClient>().unwrap().finished())
            .unwrap();
        assert!(finished);
    }

    #[test]
    fn server_gap_statistic() {
        let mut s = MessagingServer::new("x");
        assert_eq!(s.largest_gap_seconds(), 0.0);
        s.received.push((SimTime::from_secs(1), vec![]));
        s.received.push((SimTime::from_secs(2), vec![]));
        s.received.push((SimTime::from_secs(10), vec![]));
        assert!((s.largest_gap_seconds() - 8.0).abs() < 1e-9);
        assert_eq!(s.received_count(), 3);
    }

    #[test]
    fn constructors_match_the_thesis_workloads() {
        let bridge = MessagingClient::bridge_test("msg", SimDuration::ZERO);
        assert_eq!(bridge.repetitions, 20);
        assert_eq!(bridge.interval, SimDuration::from_secs(1));
        let gm = MessagingClient::good_morning("msg", SimDuration::ZERO);
        assert_eq!(gm.repetitions, 50);
        assert_eq!(gm.message, b"good morning!".to_vec());
    }
}
