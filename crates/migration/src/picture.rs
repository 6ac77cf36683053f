//! The picture-analysis task-migration applications (§5.3, Fig. 5.9/5.10).
//!
//! The client uploads a picture split into data packages, clears the
//! "sending" flag, and goes to sleep waiting for the result; the server
//! counts packages, "processes" the picture for a while, and writes the
//! result back — reconnecting to the client through the device storage if
//! the connection broke in the meantime (result routing).

use std::collections::BTreeMap;

use peerhood::node::PeerHoodApi;
use peerhood::prelude::*;
use peerhood::session::{ServiceSession, SessionUp, REDIAL_AFTER};
use simnet::{SimDuration, SimTime};

use crate::task::{TaskOutcome, TaskSpec};

const TOKEN_CONNECT: u64 = 1;
const TOKEN_SEND: u64 = 2;
const TOKEN_PROCESS_BASE: u64 = 1000;

fn encode_header(packages: u32) -> Vec<u8> {
    let mut h = b"PKGS".to_vec();
    h.extend_from_slice(&packages.to_be_bytes());
    h
}

fn decode_header(payload: &[u8]) -> Option<u32> {
    if payload.len() == 8 && &payload[..4] == b"PKGS" {
        Some(u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]))
    } else {
        None
    }
}

/// The mobile client that migrates a picture-analysis task.
#[derive(Debug)]
pub struct PictureClient {
    /// Service name of the analysis server.
    pub service: String,
    /// Workload parameters.
    pub spec: TaskSpec,
    /// Delay before the first connection attempt.
    pub start_after: SimDuration,
    /// Interval between uploaded packages.
    pub package_interval: SimDuration,
    /// The task's client session: its connection and whether a new
    /// provider restarts the task.
    pub session: ServiceSession,

    // --- recorded state ---
    /// Packages sent in the current upload run.
    pub sent_packages: u32,
    /// When the upload finished.
    pub upload_complete_at: Option<SimTime>,
    /// The received analysis result.
    pub result: Option<Vec<u8>>,
    /// When the result arrived.
    pub result_received_at: Option<SimTime>,
    /// Number of times the upload had to restart from zero.
    pub restarts: u32,
    /// Number of times `begin_upload` ran (1 for an uninterrupted task).
    pub upload_attempts: u32,
    /// Route changes under the live session (handover / result routing).
    pub connection_changes: u32,
    /// Final disconnect notifications received.
    pub disconnects: u32,
}

impl PictureClient {
    /// Creates a client for the given workload.
    pub fn new(service: impl Into<String>, spec: TaskSpec, start_after: SimDuration) -> Self {
        PictureClient {
            service: service.into(),
            spec,
            start_after,
            package_interval: SimDuration::from_millis(200),
            session: ServiceSession::default(),
            sent_packages: 0,
            upload_complete_at: None,
            result: None,
            result_received_at: None,
            restarts: 0,
            upload_attempts: 0,
            connection_changes: 0,
            disconnects: 0,
        }
    }

    /// True once the analysis result has arrived.
    pub fn completed(&self) -> bool {
        self.result.is_some()
    }

    /// Classifies how the task ended (used by experiment E9).
    pub fn outcome(&self) -> TaskOutcome {
        if !self.completed() {
            return TaskOutcome::Incomplete;
        }
        if self.restarts > 0 || self.upload_attempts > 1 {
            TaskOutcome::CompletedAfterRecovery
        } else if self.connection_changes > 0 || self.disconnects > 0 {
            TaskOutcome::CompletedViaResultRouting
        } else {
            TaskOutcome::CompletedDirect
        }
    }

    fn try_connect(&mut self, api: &mut PeerHoodApi<'_>) {
        if !self.session.may_dial() || self.completed() {
            return;
        }
        match api.connect_to_service(&self.service) {
            Ok(conn) => self.session.dialled(conn),
            Err(_) => api.schedule_timer(REDIAL_AFTER, TOKEN_CONNECT),
        }
    }

    /// The session came up: the upload begins, and counts as a restart if
    /// the task does.
    fn begin_upload(&mut self, api: &mut PeerHoodApi<'_>, up: SessionUp) {
        let Some(conn) = self.session.conn() else {
            return;
        };
        if up.restarts_task {
            self.restarts += 1;
        }
        self.upload_complete_at = None;
        self.sent_packages = 0;
        self.upload_attempts += 1;
        let _ = api.send(conn, encode_header(self.spec.packages));
        api.schedule_timer(self.package_interval, TOKEN_SEND);
    }
}

impl Application for PictureClient {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        api.schedule_timer(self.start_after, TOKEN_CONNECT);
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        match token {
            TOKEN_CONNECT => self.try_connect(api),
            TOKEN_SEND => {
                let Some(conn) = self.session.conn() else {
                    return;
                };
                if self.upload_complete_at.is_some() || self.completed() {
                    return;
                }
                let payload = vec![0xAB; self.spec.package_size];
                if api.send(conn, payload).is_ok() {
                    self.sent_packages += 1;
                }
                if self.sent_packages >= self.spec.packages {
                    self.upload_complete_at = Some(api.now());
                    // §5.3: tell the middleware the connection is no longer
                    // needed; if it breaks now, just wait for the server to
                    // come back with the result.
                    let _ = api.set_sending(conn, false);
                } else {
                    api.schedule_timer(self.package_interval, TOKEN_SEND);
                }
            }
            _ => {}
        }
    }

    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if let Some(up) = self.session.connected(api, conn) {
            self.begin_upload(api, up);
        }
    }

    fn on_connect_failed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _error: PeerHoodError) {
        if self.session.connect_failed(conn) {
            api.schedule_timer(REDIAL_AFTER, TOKEN_CONNECT);
        }
    }

    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        if self.session.drives(conn) && self.result.is_none() {
            self.result = Some(payload);
            self.result_received_at = Some(api.now());
        }
    }

    fn on_connection_changed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if self.session.drives(conn) {
            if !self.completed() {
                self.connection_changes += 1;
            }
            // If the route changed mid-upload, keep uploading.
            if self.upload_complete_at.is_none() && !self.completed() {
                api.schedule_timer(self.package_interval, TOKEN_SEND);
            }
        }
    }

    fn on_reconnect_required(
        &mut self,
        api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        _provider: DeviceAddress,
    ) -> bool {
        self.session.switching(api.now(), conn);
        true
    }

    fn on_service_reconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, provider: DeviceAddress) {
        if let Some(up) = self.session.switched(api, conn, provider) {
            self.begin_upload(api, up);
        }
    }

    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
        if !self.session.drives(conn) {
            return;
        }
        if !self.completed() {
            self.disconnects += 1;
        }
        if self.upload_complete_at.is_some() || self.completed() {
            // Waiting for the result: the session sleeps, and the server
            // calls back on the same connection (result routing).
            return;
        }
        // Broken mid-upload and the middleware gave up: try again.
        self.session.disconnected(api.now(), conn);
        api.schedule_timer(REDIAL_AFTER, TOKEN_CONNECT);
    }
}

#[derive(Debug, Default, Clone)]
struct Session {
    expected: Option<u32>,
    received: u32,
    processing: bool,
    done: bool,
}

/// The picture-analysis server (Fig. 5.10).
#[derive(Debug)]
pub struct PictureServer {
    /// Service name to register.
    pub service: String,
    /// Processing time per received package.
    pub processing_per_package: SimDuration,
    /// Size of the result written back to the client.
    pub result_size: usize,

    sessions: BTreeMap<ConnectionId, Session>,
    token_conns: BTreeMap<u64, ConnectionId>,
    next_token: u64,
    /// Number of completed analyses (result written back, possibly queued).
    pub results_sent: u32,
    /// Number of clients that connected.
    pub clients: u32,
}

impl PictureServer {
    /// Creates a server matching the given workload parameters.
    pub fn for_spec(service: impl Into<String>, spec: &TaskSpec) -> Self {
        PictureServer {
            service: service.into(),
            processing_per_package: spec.processing_per_package,
            result_size: spec.result_size,
            sessions: BTreeMap::new(),
            token_conns: BTreeMap::new(),
            next_token: 0,
            results_sent: 0,
            clients: 0,
        }
    }

    /// Number of packages received across every session.
    pub fn packages_received(&self) -> u32 {
        self.sessions.values().map(|s| s.received).sum()
    }
}

impl Application for PictureServer {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        api.register_service(ServiceInfo::new(self.service.clone(), "image analysis", 50))
            .expect("picture service registers once");
    }

    fn on_peer_connected(
        &mut self,
        _api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        _client: DeviceInfo,
        _service: &str,
    ) {
        self.clients += 1;
        self.sessions.entry(conn).or_default();
    }

    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        let now_processing = {
            let session = self.sessions.entry(conn).or_default();
            if session.done || session.processing {
                return;
            }
            if let Some(expected) = decode_header(&payload) {
                session.expected = Some(expected);
                session.received = 0;
                false
            } else {
                session.received += 1;
                session.expected.map(|e| session.received >= e).unwrap_or(false)
            }
        };
        if now_processing {
            let (packages, token) = {
                let session = self.sessions.get_mut(&conn).expect("session exists");
                session.processing = true;
                let token = TOKEN_PROCESS_BASE + self.next_token;
                self.next_token += 1;
                (session.received, token)
            };
            self.token_conns.insert(token, conn);
            let duration = self.processing_per_package * packages as u64;
            api.schedule_timer(duration, token);
        }
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        if let Some(conn) = self.token_conns.remove(&token) {
            if let Some(session) = self.sessions.get_mut(&conn) {
                session.processing = false;
                session.done = true;
            }
            // Write the result back; if the client is gone, the middleware
            // queues it and performs result routing (Fig. 5.10's "find client
            // device, reconnect to client, write result back").
            let result = vec![0xCD; self.result_size];
            if api.send(conn, result).is_ok() {
                self.results_sent += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerhood::config::PeerHoodConfig;
    use peerhood::node::PeerHoodNode;
    use simnet::{MobilityModel, OnWorld, Point, RadioTech, World, WorldConfig};

    #[test]
    fn header_roundtrip() {
        assert_eq!(decode_header(&encode_header(42)), Some(42));
        assert_eq!(decode_header(b"nope"), None);
        assert_eq!(decode_header(&[0u8; 8]), None);
        assert_eq!(decode_header(&encode_header(0)), Some(0));
    }

    #[test]
    fn outcome_classification() {
        let mut c = PictureClient::new("svc", TaskSpec::small(), SimDuration::ZERO);
        assert_eq!(c.outcome(), TaskOutcome::Incomplete);
        c.result = Some(vec![]);
        assert_eq!(c.outcome(), TaskOutcome::CompletedDirect);
        c.disconnects = 1;
        assert_eq!(c.outcome(), TaskOutcome::CompletedViaResultRouting);
        c.restarts = 1;
        assert_eq!(c.outcome(), TaskOutcome::CompletedAfterRecovery);
    }

    #[test]
    fn small_task_completes_over_a_stable_connection() {
        let spec = TaskSpec::small();
        let mut world = World::new(WorldConfig::ideal(91));
        let client = world.add_node(
            "phone",
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::mobile_device("phone"))
                    .app(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(25)))
                    .build(),
            )),
        );
        let server = world.add_node(
            "pc",
            MobilityModel::stationary(Point::new(5.0, 0.0)),
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::static_device("pc"))
                    .app(PictureServer::for_spec("analysis", &spec))
                    .build(),
            )),
        );
        world.run_for(SimDuration::from_secs(180));
        let outcome = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let app = n.app::<PictureClient>().unwrap();
                (app.outcome(), app.sent_packages, app.result.as_ref().map(|r| r.len()))
            })
            .unwrap();
        assert_eq!(outcome.0, TaskOutcome::CompletedDirect);
        assert_eq!(outcome.1, spec.packages);
        assert_eq!(outcome.2, Some(spec.result_size));
        let server_state = world
            .with_agent::<PeerHoodNode, _>(server, |n, _| {
                let app = n.app::<PictureServer>().unwrap();
                (app.results_sent, app.packages_received(), app.clients)
            })
            .unwrap();
        assert_eq!(server_state, (1, spec.packages, 1));
    }

    #[test]
    fn result_is_routed_back_after_the_client_disconnects() {
        // The client walks out of coverage right after its upload finishes;
        // the server completes processing and re-establishes the connection
        // to return the result once the client walks back into range.
        let spec = TaskSpec {
            packages: 10,
            package_size: 2 * 1024,
            processing_per_package: SimDuration::from_secs(6),
            result_size: 4 * 1024,
        };
        let mut world = World::new(WorldConfig::ideal(92));
        // Walk away at t=60 s (after the upload), come back at t=140 s.
        let client = world.add_node(
            "phone",
            MobilityModel::Waypoints {
                points: vec![
                    Point::new(0.0, 0.0),
                    Point::new(0.0, 0.0),
                    Point::new(60.0, 0.0),
                    Point::new(60.0, 0.0),
                    Point::new(0.0, 0.0),
                ],
                speed_mps: 1.5,
                start_after: SimDuration::from_secs(60),
            },
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::mobile_device("phone"))
                    .app(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(25)))
                    .build(),
            )),
        );
        world.add_node(
            "pc",
            MobilityModel::stationary(Point::new(5.0, 0.0)),
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(
                PeerHoodNode::builder()
                    .config(PeerHoodConfig::static_device("pc"))
                    .app(PictureServer::for_spec("analysis", &spec))
                    .build(),
            )),
        );
        world.run_for(SimDuration::from_secs(500));
        let (outcome, result_at) = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let app = n.app::<PictureClient>().unwrap();
                (app.outcome(), app.result_received_at)
            })
            .unwrap();
        assert_eq!(outcome, TaskOutcome::CompletedViaResultRouting);
        assert!(result_at.unwrap() > SimTime::from_secs(100));
    }
}
