//! One client session of a service (§5.2.2): a plain value an application
//! embeds and calls from the callbacks it already has. It schedules no
//! timer, emits no event and holds no middleware state, and it states the
//! restart rule once: a session that comes up on a provider other than the
//! one its task began on restarts the task (Fig. 5.3), whether the
//! middleware's provider switch or the application's own redial got it there.

use simnet::{SimDuration, SimTime};

use crate::ids::{ConnectionId, DeviceAddress};
use crate::node::PeerHoodApi;

/// How long an application waits to dial again after a dial that could not
/// start or a session the middleware gave up.
pub const REDIAL_AFTER: SimDuration = SimDuration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// No session: the application may dial one.
    Idle,
    /// The application's own dial is in flight.
    Dialling(ConnectionId),
    /// Established.
    Up(ConnectionId),
    /// Broken; the middleware's switch to another provider is in flight on
    /// the same connection id.
    Switching(ConnectionId),
}

/// What brought a session up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// The application's own dial.
    Dial,
    /// A provider switch, on its first dial.
    Switch,
    /// A provider switch after a second chance: a re-dial or a re-aim.
    SwitchRescued,
}

/// A session that came up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionUp {
    /// What brought it up.
    pub via: Via,
    /// How long it was down, from the middleware's first report, if it was.
    pub down_for: Option<SimDuration>,
    /// It came up on a provider other than the task's: the task restarts.
    pub restarts_task: bool,
}

/// One client session: where it stands, since when it is down, the provider
/// its task began on and the dials it spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSession {
    state: SessionState,
    down_since: Option<SimTime>,
    task_provider: Option<DeviceAddress>,
    attempts: u32,
    max_attempts: u32,
}

impl Default for ServiceSession {
    /// A session that redials without limit.
    fn default() -> Self {
        ServiceSession::with_attempts(u32::MAX)
    }
}

impl ServiceSession {
    /// A session that gives up after `max_attempts` dials of its own.
    pub fn with_attempts(max_attempts: u32) -> Self {
        ServiceSession {
            state: SessionState::Idle,
            down_since: None,
            task_provider: None,
            attempts: 0,
            max_attempts,
        }
    }

    /// The connection the session drives, if any.
    pub fn conn(&self) -> Option<ConnectionId> {
        match self.state {
            SessionState::Idle => None,
            SessionState::Dialling(c) | SessionState::Up(c) | SessionState::Switching(c) => Some(c),
        }
    }

    /// The established connection, if the session is up.
    pub fn up(&self) -> Option<ConnectionId> {
        let SessionState::Up(c) = self.state else { return None };
        Some(c)
    }

    /// True when `conn` is the session's connection.
    pub fn drives(&self, conn: ConnectionId) -> bool {
        self.conn() == Some(conn)
    }

    /// True when the session is idle and has dials left.
    pub fn may_dial(&self) -> bool {
        self.state == SessionState::Idle && self.attempts < self.max_attempts
    }

    /// The application's dial `conn` started.
    pub fn dialled(&mut self, conn: ConnectionId) {
        self.state = SessionState::Dialling(conn);
        self.attempts = self.attempts.saturating_add(1);
    }

    /// The middleware restarted and the connection went with it; the rest
    /// stays.
    pub fn restarted(&mut self) {
        self.state = SessionState::Idle;
    }

    /// `on_connected`: the application's dial `conn` is up.
    pub fn connected(&mut self, api: &PeerHoodApi<'_>, conn: ConnectionId) -> Option<SessionUp> {
        let to = self.drives(conn).then(|| api.connection(conn)).flatten()?.remote;
        self.come_up(api.now(), conn, to, Via::Dial)
    }

    /// `on_service_reconnected`: the switch of `conn` reached `to`.
    pub fn switched(&mut self, api: &PeerHoodApi<'_>, conn: ConnectionId, to: DeviceAddress) -> Option<SessionUp> {
        let rescued = self.drives(conn) && api.connection(conn).is_some_and(|c| c.switch_rescued());
        let via = if rescued { Via::SwitchRescued } else { Via::Switch };
        self.come_up(api.now(), conn, to, via)
    }

    /// `on_connect_failed`: whether `conn` was the session's, now idle.
    pub fn connect_failed(&mut self, conn: ConnectionId) -> bool {
        let drove = self.drives(conn);
        if drove {
            self.state = SessionState::Idle;
        }
        drove
    }

    /// `on_disconnected`: whether `conn` was the session's, now idle and
    /// down since now unless it already was.
    pub fn disconnected(&mut self, now: SimTime, conn: ConnectionId) -> bool {
        let drove = self.connect_failed(conn);
        if drove {
            self.down_since.get_or_insert(now);
        }
        drove
    }

    /// `on_reconnect_required`, approved: whether `conn` was the session's,
    /// now switching and down since now unless it already was.
    pub fn switching(&mut self, now: SimTime, conn: ConnectionId) -> bool {
        let drove = self.drives(conn);
        if drove {
            self.state = SessionState::Switching(conn);
            self.down_since.get_or_insert(now);
        }
        drove
    }

    /// The one place a session comes up, and the restart rule.
    fn come_up(&mut self, now: SimTime, conn: ConnectionId, to: DeviceAddress, via: Via) -> Option<SessionUp> {
        if !self.drives(conn) {
            return None;
        }
        self.state = SessionState::Up(conn);
        let restarts_task = self.task_provider.replace(to).is_some_and(|p| p != to);
        let down_for = self.down_since.take().map(|t0| now.saturating_since(t0));
        Some(SessionUp {
            via,
            down_for,
            restarts_task,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(n: u32) -> ConnectionId {
        ConnectionId::new(DeviceAddress::from_node_raw(0), n)
    }

    fn provider(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    /// Every callback the session takes for a connection.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Connected(u64),
        Switched(u64, bool),
        ConnectFailed,
        Disconnected,
        Switching,
    }

    const CALLS: [Call; 7] = [
        Call::Connected(1),
        Call::Connected(2),
        Call::Switched(2, false),
        Call::Switched(2, true),
        Call::ConnectFailed,
        Call::Disconnected,
        Call::Switching,
    ];

    /// Applies `call` for `c` at `now`: whether the session drove `c`, and
    /// what it reported if it came up.
    fn apply(s: &mut ServiceSession, call: Call, now: SimTime, c: ConnectionId) -> (bool, Option<SessionUp>) {
        match call {
            Call::Connected(p) => {
                let up = s.come_up(now, c, provider(p), Via::Dial);
                (up.is_some(), up)
            }
            Call::Switched(p, rescued) => {
                let via = if rescued { Via::SwitchRescued } else { Via::Switch };
                let up = s.come_up(now, c, provider(p), via);
                (up.is_some(), up)
            }
            Call::ConnectFailed => (s.connect_failed(c), None),
            Call::Disconnected => (s.disconnected(now, c), None),
            Call::Switching => (s.switching(now, c), None),
        }
    }

    /// A session in `state` whose task began on provider 1 and which the
    /// middleware reported down at 10 s unless it is up.
    fn session_in(state: SessionState) -> ServiceSession {
        let up = matches!(state, SessionState::Up(_));
        ServiceSession {
            state,
            down_since: (!up).then_some(SimTime::from_secs(10)),
            task_provider: Some(provider(1)),
            attempts: 1,
            max_attempts: 3,
        }
    }

    #[test]
    fn every_callback_in_every_state() {
        let (mine, other) = (conn(1), conn(2));
        let now = SimTime::from_secs(40);
        let states = [
            SessionState::Idle,
            SessionState::Dialling(mine),
            SessionState::Up(mine),
            SessionState::Switching(mine),
        ];
        for state in states {
            for call in CALLS {
                let before = session_in(state);
                // A callback for a connection the session does not drive
                // changes nothing.
                let mut s = before.clone();
                assert_eq!(apply(&mut s, call, now, other), (false, None), "{state:?} {call:?}");
                assert_eq!(s, before, "{state:?} {call:?} for another connection");
                let mut s = before.clone();
                let (drove, up) = apply(&mut s, call, now, mine);
                if state == SessionState::Idle {
                    assert!(!drove && s == before, "an idle session drives nothing: {call:?}");
                    continue;
                }
                assert!(drove, "{state:?} {call:?}");
                let expected = match call {
                    Call::Connected(_) | Call::Switched(..) => SessionState::Up(mine),
                    Call::ConnectFailed | Call::Disconnected => SessionState::Idle,
                    Call::Switching => SessionState::Switching(mine),
                };
                assert_eq!(s.state, expected, "{state:?} {call:?}");
                // The down window runs from the first report, and the next
                // establishment closes it.
                let down = match call {
                    Call::Connected(_) | Call::Switched(..) => None,
                    Call::ConnectFailed => before.down_since,
                    Call::Disconnected | Call::Switching => before.down_since.or(Some(now)),
                };
                assert_eq!(s.down_since, down, "{state:?} {call:?}");
                if let Some(up) = up {
                    let was_down = before.down_since.map(|t0| now.saturating_since(t0));
                    assert_eq!(up.down_for, was_down, "{state:?} {call:?}");
                    let (via, on) = match call {
                        Call::Connected(p) => (Via::Dial, p),
                        Call::Switched(p, false) => (Via::Switch, p),
                        Call::Switched(p, true) => (Via::SwitchRescued, p),
                        _ => unreachable!(),
                    };
                    assert_eq!(up.via, via);
                    assert_eq!(
                        up.restarts_task,
                        on != 1,
                        "{state:?} {call:?}: restart iff the provider changed"
                    );
                    assert_eq!(s.task_provider, Some(provider(on)));
                }
            }
        }
    }

    #[test]
    fn the_down_window_is_kept_from_the_first_report() {
        let mut s = ServiceSession::default();
        s.dialled(conn(1));
        assert_eq!(
            s.come_up(SimTime::from_secs(5), conn(1), provider(1), Via::Dial)
                .unwrap()
                .down_for,
            None
        );
        assert!(s.switching(SimTime::from_secs(10), conn(1)));
        assert!(
            s.switching(SimTime::from_secs(12), conn(1)),
            "a re-aimed switch asks again"
        );
        assert!(s.connect_failed(conn(1)));
        s.restarted();
        s.dialled(conn(2));
        assert!(s.disconnected(SimTime::from_secs(20), conn(2)));
        s.dialled(conn(3));
        let up = s
            .come_up(SimTime::from_secs(25), conn(3), provider(1), Via::Dial)
            .unwrap();
        assert_eq!(up.down_for, Some(SimDuration::from_secs(15)));
        assert!(!up.restarts_task, "back on the task's provider");
    }

    #[test]
    fn a_task_restarts_exactly_when_its_provider_changes() {
        let mut s = ServiceSession::default();
        s.dialled(conn(1));
        let first = s
            .come_up(SimTime::from_secs(1), conn(1), provider(1), Via::Dial)
            .unwrap();
        assert!(!first.restarts_task, "the task begins here");
        // The app's own redial reaches another provider: the task restarts.
        assert!(s.disconnected(SimTime::from_secs(2), conn(1)));
        s.dialled(conn(2));
        assert!(
            s.come_up(SimTime::from_secs(3), conn(2), provider(2), Via::Dial)
                .unwrap()
                .restarts_task
        );
        // The middleware's switch reaches a third: it restarts again.
        assert!(s.switching(SimTime::from_secs(4), conn(2)));
        assert!(
            s.come_up(SimTime::from_secs(5), conn(2), provider(3), Via::Switch)
                .unwrap()
                .restarts_task
        );
        // A redial back to the same provider continues the task.
        assert!(s.disconnected(SimTime::from_secs(6), conn(2)));
        s.dialled(conn(3));
        assert!(
            !s.come_up(SimTime::from_secs(7), conn(3), provider(3), Via::Dial)
                .unwrap()
                .restarts_task
        );
    }

    #[test]
    fn the_cap_ends_the_redials() {
        let mut s = ServiceSession::with_attempts(2);
        for n in 1..=2 {
            assert!(s.may_dial());
            s.dialled(conn(n));
            assert!(!s.may_dial(), "a dial in flight");
            assert!(s.connect_failed(conn(n)));
        }
        assert_eq!(s.attempts, 2);
        assert!(!s.may_dial(), "every dial is spent");
        let mut unlimited = ServiceSession::default();
        for n in 0..1000 {
            unlimited.dialled(conn(n));
            unlimited.connect_failed(conn(n));
        }
        assert!(unlimited.may_dial());
    }
}
