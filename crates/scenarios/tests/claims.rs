//! Every report's *Paper:* line is a checked claim, at eight seeds.
//!
//! The goldens pin a report's bytes at two seeds: they say *that* a report
//! moved, not whether it still shows what its *Paper:* line says. Here every
//! registry entry has one row whose check is written from that line, and
//! every check reads its report by row key (the registry's scenario key, the
//! one a sweep groups by) and column name. Each row runs through
//! [`Experiment::run`] at the quick preset, or at the grid point it names, at
//! each of [`SEEDS`].
//!
//! A claim the reproduction does not meet today is a *finding*: its row must
//! fail at one seed at least, and the test prints the seeds it fails at. The
//! change that fixes the behaviour makes the row hold everywhere, which fails
//! this test until the row is flipped to a claim. A finding's bound is never
//! loosened to make it pass.

use std::thread;

use scenarios::experiments::{registry, Experiment, Params, RunOutput};

/// The quick seeds every row is checked at.
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Returns `Err(message)` from the enclosing check unless the condition holds.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($message)+));
        }
    };
}

/// A run's report, read by row key and column name.
struct Table<'a>(&'a RunOutput);

impl<'a> Table<'a> {
    /// Every row, in report order.
    fn rows(&self) -> impl Iterator<Item = Row<'a>> + '_ {
        let report = &self.0.report;
        self.0.samples.iter().zip(&report.rows).map(|(sample, row)| Row {
            key: &sample.scenario,
            columns: &report.columns,
            cells: &row.cells,
        })
    }

    /// The row whose scenario key is `key`, e.g. `"strategy=routing handover (keep server 1)"`.
    fn row(&self, key: &str) -> Row<'a> {
        self.rows()
            .find(|row| row.key == key)
            .unwrap_or_else(|| panic!("{}: no row `{key}`", self.0.report.id))
    }
}

#[derive(Clone, Copy)]
struct Row<'a> {
    key: &'a str,
    columns: &'a [String],
    cells: &'a [String],
}

impl<'a> Row<'a> {
    fn text(&self, column: &str) -> &'a str {
        self.columns
            .iter()
            .zip(self.cells)
            .find(|(name, _)| *name == column)
            .map(|(_, cell)| cell.as_str())
            .unwrap_or_else(|| panic!("row `{}`: no column `{column}`", self.key))
    }

    fn num(&self, column: &str) -> f64 {
        let cell = self.text(column);
        cell.parse()
            .unwrap_or_else(|_| panic!("row `{}`, `{column}`: `{cell}` is not a number", self.key))
    }

    fn flag(&self, column: &str) -> bool {
        let cell = self.text(column);
        cell.parse()
            .unwrap_or_else(|_| panic!("row `{}`, `{column}`: `{cell}` is not true/false", self.key))
    }
}

type Check = fn(&Table) -> Result<(), String>;

/// One registry entry's claim.
struct Claim {
    id: &'static str,
    /// The grid point the check runs at; empty for the quick preset.
    at: &'static [(&'static str, &'static str)],
    /// One more setting under which the report must come out byte-identical.
    same_at: Option<(&'static str, &'static str)>,
    check: Check,
    /// The reproduction does not meet this claim today (ROADMAP item 1).
    finding: bool,
}

const fn claim(id: &'static str, check: Check) -> Claim {
    Claim {
        id,
        at: &[],
        same_at: None,
        check,
        finding: false,
    }
}

const fn finding(id: &'static str, check: Check) -> Claim {
    Claim {
        finding: true,
        ..claim(id, check)
    }
}

/// E15 at a population a debug build runs in about a second.
const SMALL_METROPOLIS: &[(&str, &str)] = &[("nodes", "300"), ("duration_s", "80")];
/// E17 and E18 at a debug-sized city, on one shard; checked against two.
const SMALL_SHARDED_CITY: &[(&str, &str)] = &[("nodes", "600"), ("duration_s", "60"), ("shards", "1")];

const CLAIMS: [Claim; 19] = [
    claim("E1", e01_dynamic_discovery_sees_everything),
    claim("E2", e02_flooding_costs_more_than_a_linear_cycle),
    claim("E3", e03_a_hop_below_230_rejects_the_route),
    finding("E4", e04_delay_stays_within_jumps_times_cycle),
    claim("E5", e05_a_static_bridge_keeps_the_relay),
    claim("E6", e06_set_up_takes_3_to_18_s_and_relaying_adds_little_delay),
    claim("E7", e07_only_a_server_switch_restarts_the_task),
    finding("E8", e08_slow_decay_hands_over),
    claim("E9", e09_three_regimes_three_outcomes),
    claim("E10", e10_bridges_carry_the_phone_to_the_server),
    claim("E11", e11_the_link_peer_target_leaves_a_chain),
    claim("E12", e12_the_loop_runs_at_city_scale),
    claim("E13", e13_churn_breaks_sessions_and_devices_reattach),
    claim("E14", e14_attachment_collapses_and_recovers),
    Claim {
        at: SMALL_METROPOLIS,
        ..claim("E15", e15_real_stacks_hold_sessions_under_churn)
    },
    claim("E16", e16_the_pipeline_diverts_the_crowd),
    Claim {
        at: SMALL_SHARDED_CITY,
        same_at: Some(("shards", "2")),
        ..claim("E17", e17_the_sharded_city_runs)
    },
    Claim {
        at: SMALL_SHARDED_CITY,
        same_at: Some(("shards", "2")),
        ..claim("E18", e18_the_crowd_piles_into_one_district)
    },
    claim("E19", e19_each_tier_lets_less_through),
];

/// "Direct-only and two-hop discovery leave devices outside the inquiry
/// coverage invisible; dynamic discovery achieves total environment
/// awareness."
fn e01_dynamic_discovery_sees_everything(t: &Table) -> Result<(), String> {
    for r in t.rows() {
        let (direct, two_hop, dynamic) = (r.num("direct-only"), r.num("two-hop"), r.num("dynamic"));
        ensure!(
            dynamic == 1.0,
            "{}: dynamic discovery knows {dynamic} of the network",
            r.key
        );
        ensure!(
            direct <= two_hop && two_hop <= dynamic,
            "{}: direct-only {direct}, two-hop {two_hop}, dynamic {dynamic} are out of order",
            r.key
        );
    }
    ensure!(
        t.rows().any(|r| r.num("direct-only") < 1.0),
        "direct-only discovery left no device invisible"
    );
    Ok(())
}

/// "Gnutella-style flooding generates huge query traffic; PeerHood sends the
/// inquiry only to direct neighbours, so one cycle is linear in the number of
/// links."
fn e02_flooding_costs_more_than_a_linear_cycle(t: &Table) -> Result<(), String> {
    let per_link = |r: Row| r.num("peerhood msgs / cycle") / r.num("edges");
    let first = t.rows().next().map(per_link).ok_or("no rows")?;
    for r in t.rows() {
        let (gnutella, peerhood) = (
            r.num("gnutella msgs (all nodes search, TTL 7)"),
            r.num("peerhood msgs / cycle"),
        );
        ensure!(
            gnutella > peerhood,
            "{}: flooding sent {gnutella}, PeerHood {peerhood}",
            r.key
        );
        ensure!(
            per_link(r) == first,
            "{}: {} PeerHood messages per link, not {first}",
            r.key,
            per_link(r)
        );
    }
    Ok(())
}

/// "Two routes with equal quality sums (230+230 vs 210+250): the route
/// containing a hop below the minimum demanded threshold 230 is rejected."
fn e03_a_hop_below_230_rejects_the_route(t: &Table) -> Result<(), String> {
    let (good, weak) = (t.row("route=A-B-D"), t.row("route=A-C-D"));
    ensure!(good.num("sum") == weak.num("sum"), "the two routes' sums differ");
    ensure!(
        !weak.flag("acceptable (threshold 230)") && !weak.flag("selected"),
        "A-C-D, with a 210 hop, was accepted or selected"
    );
    ensure!(
        good.flag("acceptable (threshold 230)") && good.flag("selected"),
        "A-B-D was not selected"
    );
    Ok(())
}

/// "Max Delay = Num Jumps x searching cycle time."
fn e04_delay_stays_within_jumps_times_cycle(t: &Table) -> Result<(), String> {
    for r in t.rows() {
        let (measured, bound) = (r.num("measured delay (s)"), r.num("predicted bound (s)"));
        ensure!(
            measured <= bound,
            "{}: learned after {measured} s, bound {bound} s",
            r.key
        );
    }
    Ok(())
}

/// "Static terminals should be preferred as bridges; a dynamic bridge walks
/// away and breaks the relayed connection."
fn e05_a_static_bridge_keeps_the_relay(t: &Table) -> Result<(), String> {
    let (fixed, walking) = (t.row("bridge mobility=static"), t.row("bridge mobility=dynamic"));
    ensure!(
        fixed.text("route chosen through") != "direct/none",
        "the route does not go through the static bridge"
    );
    ensure!(fixed.flag("relay survived 120 s"), "the static bridge's relay broke");
    ensure!(
        !walking.flag("relay survived 120 s"),
        "the walking bridge's relay survived"
    );
    Ok(())
}

/// "Successful connections took 3-18 s to establish; relayed data showed an
/// almost negligible delay": a relayed message arrives before the client
/// sends the next one, a second later.
fn e06_set_up_takes_3_to_18_s_and_relaying_adds_little_delay(t: &Table) -> Result<(), String> {
    let r = t.row("all");
    ensure!(r.num("successful") > 0.0, "no trial connected");
    let (min, max) = (r.num("setup min (s)"), r.num("setup max (s)"));
    ensure!(
        (3.0..=18.0).contains(&min) && (3.0..=18.0).contains(&max),
        "set-up took {min}-{max} s"
    );
    let delay = r.text("mean one-way delay (ms)");
    ensure!(delay != "-", "no trial delivered all 20 messages");
    let delay = r.num("mean one-way delay (ms)");
    ensure!(
        delay > 0.0 && delay < 1000.0,
        "a relayed message took {delay} ms, not less than the 1 s send interval"
    );
    Ok(())
}

/// "Switching to a second server providing the same service forces the whole
/// task migration to start again; keeping the original server through a
/// bridge preserves it."
fn e07_only_a_server_switch_restarts_the_task(t: &Table) -> Result<(), String> {
    let switch = t.row("strategy=service reconnection (switch server)");
    let routed = t.row("strategy=routing handover (keep server 1)");
    ensure!(switch.num("task restarts") > 0.0, "switching servers restarted no task");
    ensure!(
        routed.num("task restarts") == 0.0 && routed.num("route changes") > 0.0,
        "the routing handover restarted the task or never re-routed"
    );
    Ok(())
}

/// "With the quality decremented by 1/s the handover triggers ... and
/// completes like a normal interconnection; at walking-speed decay the
/// connection is often lost before the second route is ready." The stall
/// column is the largest delivery gap, not the interconnection time the
/// 4-15 s band is about, so the band is not checked.
fn e08_slow_decay_hands_over(t: &Table) -> Result<(), String> {
    let (slow, fast) = (t.row("decay (quality/s)=1.00"), t.row("decay (quality/s)=30.00"));
    let (runs, completed) = (slow.num("runs"), slow.num("handover completed"));
    ensure!(
        completed == runs,
        "at 1 quality/s {completed} of {runs} handovers completed"
    );
    ensure!(
        fast.num("handover completed") <= completed,
        "fast decay completed more handovers than slow decay"
    );
    Ok(())
}

/// "Small tasks finish before the device leaves coverage; with a considerable
/// package count the connection breaks during processing and the server
/// routes the result back through its device storage; with a huge count the
/// connection breaks during the upload itself."
fn e09_three_regimes_three_outcomes(t: &Table) -> Result<(), String> {
    for (regime, outcome, routed_back) in [
        ("small", "CompletedDirect", false),
        ("considerable", "CompletedViaResultRouting", true),
        ("huge", "CompletedAfterRecovery", false),
    ] {
        let r = t.row(&format!("regime={regime}"));
        ensure!(r.text("outcome") == outcome, "{regime}: {}", r.text("outcome"));
        ensure!(
            r.flag("result routed back") == routed_back,
            "{regime}: result routed back is not {routed_back}"
        );
    }
    Ok(())
}

/// "A phone inside a tunnel without GPRS coverage reaches the GPRS-connected
/// server outside through a chain of Bluetooth bridge devices."
fn e10_bridges_carry_the_phone_to_the_server(t: &Table) -> Result<(), String> {
    let (bridged, alone) = (t.row("bridge chain=3 Bluetooth bridges"), t.row("bridge chain=none"));
    ensure!(
        bridged.flag("phone knows server"),
        "with bridges the phone never learns the server"
    );
    ensure!(bridged.num("route jumps") > 1.0, "the route is not a chain");
    ensure!(
        bridged.num("messages delivered / 10") > 0.0,
        "nothing crossed the tunnel"
    );
    ensure!(
        !alone.flag("phone knows server") && alone.num("messages delivered / 10") == 0.0,
        "without bridges the phone reached the server"
    );
    Ok(())
}

/// "A client that walks away and comes back ends up connected through an
/// unnecessary chain of bridges."
fn e11_the_link_peer_target_leaves_a_chain(t: &Table) -> Result<(), String> {
    let thesis = t.row("handover target=link peer (thesis implementation)");
    let destination = t.row("handover target=final destination");
    ensure!(thesis.flag("final route bridged"), "the returned client is not bridged");
    let (left, fixed) = (
        thesis.num("bridge pairs left active"),
        destination.num("bridge pairs left active"),
    );
    ensure!(
        left > fixed,
        "the link-peer target left {left} bridge pairs, the destination target {fixed}"
    );
    Ok(())
}

/// "The spatially-indexed world sustains the paper's
/// discovery/monitoring/handover loop at city scale."
fn e12_the_loop_runs_at_city_scale(t: &Table) -> Result<(), String> {
    for r in t.rows() {
        ensure!(
            r.num("inquiries") >= r.num("nodes"),
            "{}: a device never scanned",
            r.key
        );
        ensure!(r.num("links established") > 0.0, "{}: no device attached", r.key);
        ensure!(r.num("handovers") > 0.0, "{}: no handover", r.key);
    }
    Ok(())
}

/// "E13 injects seeded crash/restart churn and measures how sessions survive
/// and how quickly devices re-attach as the churn rate grows."
fn e13_churn_breaks_sessions_and_devices_reattach(t: &Table) -> Result<(), String> {
    let mut survival = f64::INFINITY;
    for r in t.rows() {
        let broken = r.num("broken by churn");
        if r.num("churn (/node/h)") == 0.0 {
            ensure!(
                r.num("crashes") == 0.0 && broken == 0.0,
                "{}: the control crashed",
                r.key
            );
            ensure!(
                r.num("churn survival %") == 100.0,
                "{}: the control lost sessions",
                r.key
            );
            continue;
        }
        ensure!(r.num("crashes") > 0.0 && broken > 0.0, "{}: churn broke nothing", r.key);
        ensure!(r.num("mean reconnect (s)") > 0.0, "{}: no device re-attached", r.key);
        let now = r.num("churn survival %");
        ensure!(now <= survival, "{}: survival rose to {now} % as churn grew", r.key);
        survival = now;
    }
    Ok(())
}

/// "60% of a city block loses its radio at once and another 25% crashes, then
/// every crashed device reboots within five seconds. Attachment must collapse
/// during the blackout and recover once radios return."
fn e14_attachment_collapses_and_recovers(t: &Table) -> Result<(), String> {
    let before = t.row("phase=before t (s)=115");
    let blackout = t.row("phase=blackout t (s)=150");
    let recovered = t.row("phase=recovered t (s)=300");
    let block = before.num("alive");
    ensure!(
        blackout.num("radios dark") == (0.6 * block).round() && blackout.num("alive") == (0.75 * block).round(),
        "the blackout did not darken 60 % and crash 25 % of {block} devices"
    );
    ensure!(
        blackout.num("attached %") < before.num("attached %"),
        "attachment did not collapse"
    );
    ensure!(
        recovered.num("alive") == block && recovered.num("radios dark") == 0.0,
        "not every device and radio came back"
    );
    ensure!(
        recovered.num("attached %") >= before.num("attached %"),
        "attachment recovered to {} % of {} %",
        recovered.num("attached %"),
        before.num("attached %")
    );
    Ok(())
}

/// "Every device runs the complete PeerHood stack ... plus a service
/// workload, under mobility and seeded churn", and the city is populated with
/// working middleware: most devices hold a session at the end.
fn e15_real_stacks_hold_sessions_under_churn(t: &Table) -> Result<(), String> {
    let r = t.row("nodes=300");
    for column in ["sessions", "pings delivered", "handovers", "crashes"] {
        ensure!(r.num(column) > 0.0, "no {column}");
    }
    ensure!(r.num("restarts") == r.num("crashes"), "a crashed stack never restarted");
    ensure!(r.num("attached %") > 50.0, "only {} % attached", r.num("attached %"));
    Ok(())
}

/// "A crowd split across a healthy and a flapping hotspot starves without the
/// resilience pipeline; with ... the crowd diverts to the healthy provider
/// and goodput and fairness recover."
fn e16_the_pipeline_diverts_the_crowd(t: &Table) -> Result<(), String> {
    let (off, on) = (t.row("resilience=off"), t.row("resilience=on"));
    ensure!(on.num("diverted") > 0.0, "nobody diverted");
    for column in ["goodput", "fairness"] {
        ensure!(
            on.num(column) > off.num(column),
            "{column} {} with the pipeline, {} without",
            on.num(column),
            off.num(column)
        );
    }
    Ok(())
}

/// "Byte-identical at any shard count" is the same-report check at two
/// shards; the city itself must connect and deliver.
fn e17_the_sharded_city_runs(t: &Table) -> Result<(), String> {
    let r = t.row("nodes=600");
    ensure!(
        r.num("links established") > 0.0 && r.num("pings delivered") > 0.0,
        "the city never connected or delivered"
    );
    Ok(())
}

/// "A flash crowd piles most of the city's devices and traffic into one
/// district"; "rerun with a different --shards and diff — the output must not
/// change" is the same-report check at two shards.
fn e18_the_crowd_piles_into_one_district(t: &Table) -> Result<(), String> {
    let r = t.row("nodes=600");
    ensure!(
        r.num("crowd %") > 50.0,
        "the crowd holds {} % of the city",
        r.num("crowd %")
    );
    ensure!(
        r.num("links established") > 0.0 && r.num("pings delivered") > 0.0,
        "the city never connected or delivered"
    );
    Ok(())
}

/// "The paper's middleware trusts every frame a neighbour sends. Compromised
/// insiders ... poison the neighbourhood with phantom providers ...; the same
/// attack schedule is replayed against each peerhood::security tier and the
/// scorecard counts what got through."
fn e19_each_tier_lets_less_through(t: &Table) -> Result<(), String> {
    let off = t.row("defenses=off");
    ensure!(
        off.num("hostile accepted") == off.num("hostile frames") && off.num("routes poisoned") > 0.0,
        "the undefended middleware refused a hostile frame or kept every route clean"
    );
    let mut accepted = off.num("hostile accepted");
    for tier in ["sanity", "auth"] {
        let r = t.row(&format!("defenses={tier}"));
        ensure!(r.num("hostile rejected") > 0.0, "{tier} rejected nothing");
        ensure!(
            r.num("hostile accepted") < accepted,
            "{tier} let {} hostile frames through, the tier below {accepted}",
            r.num("hostile accepted")
        );
        accepted = r.num("hostile accepted");
    }
    Ok(())
}

impl Claim {
    /// Runs the experiment at `seed` and checks the claim.
    fn verify(&self, experiment: &Experiment, seed: u64) -> Result<(), String> {
        let mut params = Params::new();
        for (key, value) in self.at {
            params.set(*key, *value);
        }
        let run = experiment.run(seed, &params, true).expect("the grid point is valid");
        (self.check)(&Table(&run))?;
        if let Some((key, value)) = self.same_at {
            params.set(key, value);
            let again = experiment.run(seed, &params, true).expect("the grid point is valid");
            ensure!(again.report == run.report, "the report moved at {key}={value}");
        }
        Ok(())
    }
}

#[test]
fn every_paper_line_holds_at_every_seed_and_every_finding_still_fails() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let rows: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
    assert_eq!(rows, ids, "one claim row per registry entry, in registry order");
    let mut wrong = Vec::new();
    for (claim, experiment) in CLAIMS.iter().zip(registry()) {
        // Half the seeds on each of two threads; each run builds its worlds
        // inside its thread.
        let failures: Vec<(u64, String)> = thread::scope(|scope| {
            let halves: Vec<_> = SEEDS
                .chunks(SEEDS.len() / 2)
                .map(|seeds| {
                    scope.spawn(move || {
                        let verdicts = seeds.iter().map(|&seed| (seed, claim.verify(experiment, seed)));
                        verdicts
                            .filter_map(|(seed, verdict)| verdict.err().map(|e| (seed, e)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves.into_iter().flat_map(|half| half.join().unwrap()).collect()
        });
        let seeds: Vec<String> = failures.iter().map(|(seed, _)| seed.to_string()).collect();
        let first = failures.first().map(|(seed, e)| format!("seed {seed}: {e}"));
        match (claim.finding, first) {
            (false, Some(first)) => wrong.push(format!(
                "{}: the claim fails at seeds {} ({first})",
                claim.id,
                seeds.join(", ")
            )),
            (true, None) => wrong.push(format!(
                "{}: the finding holds at every seed; make the row a claim and close it in ROADMAP item 1",
                claim.id
            )),
            (true, Some(first)) => eprintln!("{} (finding) fails at seeds {} ({first})", claim.id, seeds.join(", ")),
            (false, None) => {}
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
