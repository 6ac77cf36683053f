//! Output checks: is what the run produced what the workload promises?
//!
//! A benchmark number from a run that did the wrong thing is worse than no
//! number. Each check names the property it guards; `run`, `measure` and
//! `check` all exit non-zero when any fails.

use crate::outcome::Outcome;
use crate::replay::Replay;
use crate::workloads::{Kind, Spec};

fn count(outcome: &Outcome, name: &str) -> f64 {
    outcome.counts.get(name).copied().unwrap_or(0.0)
}

/// Checks one run's simulated results; returns one line per failed check.
pub fn outcome(spec: &Spec, o: &Outcome) -> Vec<String> {
    let mut failed = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failed.push(format!("{}: {what}", spec.name));
        }
    };
    let c = |name: &str| count(o, name);
    let engine = match spec.kind {
        Kind::FullStack => "simnet.world",
        Kind::Sharded => "simnet.shard",
    };
    let (sent, delivered, lost) = (
        c(&format!("{engine}.msgs_sent")),
        c(&format!("{engine}.msgs_delivered")),
        c(&format!("{engine}.msgs_lost")),
    );
    require(
        sent > 0.0 && delivered + lost <= sent,
        format!("delivered {delivered} + lost {lost} must not exceed sent {sent}"),
    );
    let half = spec.nodes as f64 / 2.0;
    match spec.kind {
        Kind::Sharded => {
            let sessions = c("simnet.shard.sessions_established");
            require(
                sessions > half,
                format!("{sessions} probe attachments, need more than {half}"),
            );
            require(o.reconnect_s > 0.0, "no probe ever re-attached".into());
        }
        Kind::FullStack => {
            let sessions = c("peerhood.app.sessions_established");
            require(sessions > half, format!("{sessions} sessions, need more than {half}"));
            require(
                c("peerhood.handover.completions") > 0.0,
                "no routing handover completed".into(),
            );
            require(c("peerhood.app.reconnects") > 0.0, "no session ever reconnected".into());
        }
    }
    let security = [
        "peerhood.security.frames_authenticated",
        "peerhood.security.auth_rejected",
        "peerhood.security.replay_rejected",
        "peerhood.security.sanity_rejected",
        "peerhood.security.penalties_recorded",
    ];
    let verdicts = [
        "peerhood.resilience.breaker_trips",
        "peerhood.resilience.breaker_blocked",
        "peerhood.resilience.admitted",
        "peerhood.resilience.shed",
    ];
    match spec.attack {
        // Layers that are off must have decided nothing.
        None => {
            for name in security.iter().chain(&verdicts) {
                require(c(name) == 0.0, format!("{name} = {} with the layer off", c(name)));
            }
        }
        Some(_) => {
            require(
                o.poisoned_routes == 0,
                format!("{} forged routes survive in honest storages", o.poisoned_routes),
            );
            let injected = c("simnet.adversary.frames_injected");
            let rejected = c("peerhood.security.auth_rejected")
                + c("peerhood.security.replay_rejected")
                + c("peerhood.security.sanity_rejected");
            require(
                injected > 0.0 && rejected >= 0.9 * injected,
                format!("rejected {rejected} of {injected} injected frames, need 90 %"),
            );
            require(
                c("peerhood.resilience.breaker_trips") > 0.0,
                "no circuit breaker ever tripped".into(),
            );
            require(
                c("peerhood.resilience.admitted") > 0.0,
                "admission control admitted nothing".into(),
            );
        }
    }
    failed
}

/// Cross-checks the frame-path replay against the run it replays.
pub fn replay(spec: &Spec, o: &Outcome, r: &Replay) -> Vec<String> {
    let mut failed = Vec::new();
    if r.frames == 0 {
        failed.push(format!("{}: the traced run kept no frame to replay", spec.name));
    }
    if r.undecodable != 0 {
        failed.push(format!(
            "{}: {} frames passed authentication and did not decode",
            spec.name, r.undecodable
        ));
    }
    if spec.attack.is_some() {
        // A bad MAC is a stateless verdict, so the replay's count is exact. The
        // in-run sum can only under-count it (a node's counters die with its
        // stack at a crash), and nothing but the adversary makes bad MACs.
        let in_run = count(o, "peerhood.security.auth_rejected");
        let hostile = count(o, "simnet.adversary.frames_injected") + count(o, "simnet.adversary.frames_tampered");
        let bad_mac = r.bad_mac as f64;
        if !(in_run <= bad_mac && bad_mac <= hostile) {
            failed.push(format!(
                "{}: replay saw {bad_mac} bad MACs, outside [{in_run} rejected in-run, {hostile} hostile frames]",
                spec.name
            ));
        }
    } else if r.bad_mac + r.replayed != 0 {
        failed.push(format!(
            "{}: the replay rejected frames with authentication off",
            spec.name
        ));
    }
    failed
}
