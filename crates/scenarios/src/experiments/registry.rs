//! The experiment registry: E1–E19 as one static table.
//!
//! Every experiment of the reproduction is runnable through one call:
//! [`Experiment::run`]`(seed, params, quick)` returns both the
//! human-readable markdown [`ExperimentReport`] and a numeric [`SampleRow`]
//! stream — the raw material the `sweep` campaign engine aggregates across
//! seeds and grid points. `run_all` iterates this registry, so a new entry
//! here is automatically part of the suite, the `repro` CLI and every sweep.
//!
//! An entry is the one place an experiment's id, title and *Paper:* line are
//! written: the entry point fills in only columns, rows and notes, and
//! [`Experiment::run`] stamps the header on. Beside them an entry names its
//! settings type's two presets, parameter table (see
//! [`params`](super::params)) and entry point; nothing else is written per
//! experiment. `crates/scenarios/tests/claims.rs` holds one check per entry,
//! written from its *Paper:* line and run at eight seeds.
//!
//! The table is `'static` data: a sweep worker thread looks its experiment
//! up with [`find`] and builds the world entirely inside the worker (a
//! sequential `World` is not `Send`: its agents need not be).

use std::collections::BTreeMap;

use crate::experiments::params::{count, Param, Params};
use crate::experiments::{
    e01_coverage_exclusion, e02_gnutella_traffic, e03_quality_route_selection, e04_notification_delay,
    e05_static_vs_dynamic_bridge, e06_bridge_performance, e07_two_server_handover, e08_routing_handover,
    e09_result_routing, e10_coverage_amplification, e11_monitoring_limitation, e12_dense_city, e13_churn_sweep,
    e14_blackout_flash_crowd, e15_full_stack_metropolis, e16_overload, e17_sharded_metropolis, e18_hotspot_metropolis,
    e19_hostile_city, AdversarySettings, ChurnSettings, Defense, DiscoverySettings, HotspotSettings,
    MetropolisSettings, OverloadSettings, ScaleSettings, ShardedSettings,
};
use crate::report::ExperimentReport;

/// One numeric observation row from one experiment run: a stable scenario
/// key (the row's identity within the report, seed-independent by
/// construction) plus the metrics measured for it, in column order.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Row identity, e.g. `"nodes=100 churn (/node/h)=60.00"`. Sweep
    /// aggregation groups samples from different seeds by this key.
    pub scenario: String,
    /// `(metric name, value)` pairs in report-column order.
    pub metrics: Vec<(String, f64)>,
}

/// Everything one experiment run produces: the markdown table and the
/// numeric samples derived from it.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The figure-level markdown table (what `repro` prints).
    pub report: ExperimentReport,
    /// The numeric samples (what `sweep` aggregates).
    pub samples: Vec<SampleRow>,
}

/// Derives [`SampleRow`]s from a report table: the declared `key_columns`
/// form each row's scenario key (`col=cell`, joined by spaces; `"all"` when
/// none are declared), every other cell that parses as a finite `f64`
/// becomes a metric named after its column. Duplicate scenario keys get a
/// deterministic `#2`, `#3`, … suffix in row order.
pub fn samples_from_report(report: &ExperimentReport, key_columns: &[&str]) -> Vec<SampleRow> {
    let key_idx: Vec<usize> = key_columns
        .iter()
        .filter_map(|k| report.columns.iter().position(|c| c == k))
        .collect();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    report
        .rows
        .iter()
        .map(|row| {
            let mut scenario = key_idx
                .iter()
                .filter_map(|&i| row.cells.get(i).map(|cell| format!("{}={cell}", report.columns[i])))
                .collect::<Vec<_>>()
                .join(" ");
            if scenario.is_empty() {
                scenario = "all".to_string();
            }
            let n = seen.entry(scenario.clone()).or_insert(0);
            *n += 1;
            if *n > 1 {
                scenario.push_str(&format!("#{n}"));
            }
            let metrics = report
                .columns
                .iter()
                .enumerate()
                .filter(|(i, _)| !key_idx.contains(i))
                .filter_map(|(i, col)| {
                    let value: f64 = row.cells.get(i)?.parse().ok()?;
                    value.is_finite().then(|| (col.clone(), value))
                })
                .collect();
            SampleRow { scenario, metrics }
        })
        .collect()
}

/// How one experiment is put together from its settings type `S`: the two
/// presets, where the seed goes, the parameter table, and the entry point.
struct Plan<S: 'static> {
    quick: fn() -> S,
    full: fn() -> S,
    seed: fn(&mut S) -> &mut u64,
    params: &'static [Param<S>],
    report: fn(&S) -> ExperimentReport,
}

impl<S> Plan<S> {
    fn preset(&self, seed: u64, quick: bool) -> S {
        let mut settings = if quick { (self.quick)() } else { (self.full)() };
        *(self.seed)(&mut settings) = seed;
        settings
    }

    fn row(&self, key: &str) -> Result<&Param<S>, String> {
        self.params.iter().find(|p| p.key == key).ok_or_else(|| {
            let known: Vec<&str> = self.params.iter().map(|p| p.key).collect();
            let known = if known.is_empty() {
                "none".to_string()
            } else {
                known.join(", ")
            };
            format!("no grid parameter `{key}` (available: {known})")
        })
    }
}

/// A [`Plan`] with its settings type erased, so the registry is one table.
trait AnyPlan: Sync {
    fn params(&self) -> Vec<(&'static str, &'static str)>;
    fn check(&self, key: &str, value: &str) -> Result<(), String>;
    fn run(&self, seed: u64, params: &Params, quick: bool) -> Result<ExperimentReport, String>;
}

impl<S> AnyPlan for Plan<S> {
    fn params(&self) -> Vec<(&'static str, &'static str)> {
        self.params.iter().map(|p| (p.key, p.help)).collect()
    }

    fn check(&self, key: &str, value: &str) -> Result<(), String> {
        (self.row(key)?.set)(&mut self.preset(0, true), value)
    }

    fn run(&self, seed: u64, params: &Params, quick: bool) -> Result<ExperimentReport, String> {
        let mut settings = self.preset(seed, quick);
        for (key, value) in params.iter() {
            (self.row(key)?.set)(&mut settings, value).map_err(|e| format!("{key}: {e}"))?;
        }
        Ok((self.report)(&settings))
    }
}

/// The plan of an experiment whose only input is the seed.
const fn seeded(report: fn(&u64) -> ExperimentReport) -> Plan<u64> {
    Plan {
        quick: || 0,
        full: || 0,
        seed: |seed| seed,
        params: &[],
        report,
    }
}

/// One experiment of the reproduction.
///
/// [`Experiment::run`] is deterministic in `(seed, params, quick)` and builds
/// every world it needs internally — it is called from sweep worker threads,
/// so nothing that stays on one thread (a sequential world and its agents)
/// escapes the call.
pub struct Experiment {
    /// Figure-level identifier, e.g. `"E13"`.
    pub id: &'static str,
    /// CLI name, e.g. `"churn"`.
    pub slug: &'static str,
    /// The report's title, also `repro --list`'s and a sweep's.
    pub title: &'static str,
    /// The thesis claim (or, beyond the thesis, the property) the report
    /// reproduces: its *Paper:* line.
    pub paper_claim: &'static str,
    /// Report columns forming a row's identity (the rest become metrics).
    pub key_columns: &'static [&'static str],
    /// The seed this experiment historically runs with inside the full
    /// suite. `None` follows the suite seed; the settings-driven families
    /// pin their own, which keeps `run_all` byte-identical to the
    /// pre-registry entry points.
    pub suite_seed: Option<u64>,
    plan: &'static dyn AnyPlan,
}

impl Experiment {
    /// `(key, help)` of every grid parameter this experiment declares, in
    /// `repro --list` order (may be empty).
    pub fn params(&self) -> Vec<(&'static str, &'static str)> {
        self.plan.params()
    }

    /// Whether [`Experiment::run`] would accept `key = value`: looks the row
    /// up and calls its setter on a scratch preset.
    pub fn check(&self, key: &str, value: &str) -> Result<(), String> {
        self.plan.check(key, value)
    }

    /// Runs the experiment: applies `params` to the quick or full preset,
    /// builds its worlds, measures, and returns the report — headed by this
    /// row's id, title and *Paper:* line — plus numeric samples. An
    /// undeclared key or an unparsable value is an error.
    pub fn run(&self, seed: u64, params: &Params, quick: bool) -> Result<RunOutput, String> {
        let mut report = self.plan.run(seed, params, quick)?;
        (report.id, report.title, report.paper_claim) = (self.id, self.title, self.paper_claim);
        let samples = samples_from_report(&report, self.key_columns);
        Ok(RunOutput { report, samples })
    }
}

static REGISTRY: [Experiment; 19] = [
    Experiment {
        id: "E1",
        slug: "coverage",
        title: "Coverage exclusion vs. discovery algorithm",
        paper_claim: "Direct-only and two-hop discovery leave devices outside the inquiry coverage invisible; dynamic \
            discovery achieves total environment awareness (Fig. 3.1-3.6).",
        key_columns: &["nodes"],
        suite_seed: Some(1),
        plan: &Plan {
            quick: DiscoverySettings::quick,
            full: DiscoverySettings::default,
            seed: |s| &mut s.seed,
            params: DiscoverySettings::PARAMS,
            report: e01_coverage_exclusion,
        },
    },
    Experiment {
        id: "E2",
        slug: "gnutella",
        title: "Gnutella flooding vs. PeerHood discovery traffic",
        paper_claim: "Gnutella-style flooding generates huge query traffic; PeerHood sends the inquiry only to direct \
            neighbours, so one cycle is linear in the number of links (§3.2-3.3).",
        key_columns: &["nodes"],
        suite_seed: None,
        plan: &seeded(|&seed| e02_gnutella_traffic(seed)),
    },
    Experiment {
        id: "E3",
        slug: "routes",
        title: "Link-quality route selection (threshold rule)",
        paper_claim: "Two routes with equal quality sums (230+230 vs 210+250): the route containing a hop below the \
            minimum demanded threshold 230 is rejected (Fig. 3.9).",
        key_columns: &["route"],
        suite_seed: None,
        plan: &seeded(|_| e03_quality_route_selection()),
    },
    Experiment {
        id: "E4",
        slug: "notification",
        title: "Maximum change-notification delay vs. jump count",
        paper_claim: "Max Delay = Num Jumps x searching cycle time: a change several jumps away is learned only after \
            that many full discovery cycles (Fig. 3.10).",
        key_columns: &["jumps"],
        suite_seed: None,
        plan: &Plan {
            quick: || (0, 2),
            full: || (0, 3),
            seed: |(seed, _)| seed,
            params: &[Param::new("jumps", "maximum jump count to sweep", |(_, jumps), v| {
                count(v).map(|n| *jumps = n)
            })],
            report: |&(seed, jumps)| e04_notification_delay(seed, jumps),
        },
    },
    Experiment {
        id: "E5",
        slug: "bridge-choice",
        title: "Static vs. dynamic devices as bridge",
        paper_claim: "Static terminals should be preferred as bridges; a dynamic bridge walks away and breaks the \
            relayed connection (Fig. 3.11).",
        key_columns: &["bridge mobility"],
        suite_seed: None,
        plan: &seeded(|&seed| e05_static_vs_dynamic_bridge(seed)),
    },
    Experiment {
        id: "E6",
        slug: "bridge-perf",
        title: "Bridge connection performance (two clients, one bridge, one server)",
        paper_claim: "Out of ten attempts three failed with normal Bluetooth connection faults; successful \
            connections took 3-18 s to establish; relayed data showed an almost negligible delay (§4.3).",
        key_columns: &[],
        suite_seed: None,
        plan: &Plan {
            quick: || (0, 4),
            full: || (0, 10),
            seed: |(seed, _)| seed,
            params: &[Param::new("trials", "connection trials to run", |(_, trials), v| {
                count(v).map(|n| *trials = n)
            })],
            report: |&(seed, trials)| e06_bridge_performance(seed, trials),
        },
    },
    Experiment {
        id: "E7",
        slug: "two-server",
        title: "Two-server handover vs. routing handover",
        paper_claim: "Switching to a second server providing the same service forces the whole task migration to \
            start again; keeping the original server through a bridge preserves it (Fig. 5.3-5.4).",
        key_columns: &["strategy"],
        suite_seed: None,
        plan: &seeded(|&seed| e07_two_server_handover(seed)),
    },
    Experiment {
        id: "E8",
        slug: "routing-handover",
        title: "Routing handover under artificial quality decay",
        paper_claim: "With the quality decremented by 1/s the handover triggers after the 230 threshold and three low \
            samples and completes like a normal interconnection (4-15 s); at walking-speed decay the connection is \
            often lost before the second route is ready (§5.2.1).",
        key_columns: &["decay (quality/s)"],
        suite_seed: None,
        plan: &Plan {
            quick: || (0, 1),
            full: || (0, 3),
            seed: |(seed, _)| seed,
            params: &[Param::new("runs", "runs per decay rate", |(_, runs), v| {
                count(v).map(|n| *runs = n)
            })],
            report: |&(seed, runs)| e08_routing_handover(seed, runs),
        },
    },
    Experiment {
        id: "E9",
        slug: "result-routing",
        title: "Result routing across the three package-count regimes",
        paper_claim: "Small tasks finish before the device leaves coverage; with a considerable package count the \
            connection breaks during processing and the server routes the result back through its device storage; \
            with a huge count the connection breaks during the upload itself (§5.3).",
        key_columns: &["regime"],
        suite_seed: None,
        plan: &seeded(|&seed| e09_result_routing(seed)),
    },
    Experiment {
        id: "E10",
        slug: "amplification",
        title: "Coverage amplification through a tunnel",
        paper_claim: "A phone inside a tunnel without GPRS coverage reaches the GPRS-connected server outside through \
            a chain of Bluetooth bridge devices (Fig. 6.1).",
        key_columns: &["bridge chain"],
        suite_seed: None,
        plan: &seeded(|&seed| e10_coverage_amplification(seed)),
    },
    Experiment {
        id: "E11",
        slug: "monitoring",
        title: "Monitoring limitation: chain growth when the client returns",
        paper_claim: "Because each HandoverThread only extends the path from its own position, a client that walks \
            away and comes back ends up connected through an unnecessary chain of bridges (Fig. 5.6/5.7).",
        key_columns: &["handover target"],
        suite_seed: None,
        plan: &seeded(|&seed| e11_monitoring_limitation(seed)),
    },
    Experiment {
        id: "E12",
        slug: "scale",
        title: "Dense-city discovery and handover at scale",
        paper_claim: "Beyond the thesis: the spatially-indexed world sustains the paper's \
            discovery/monitoring/handover loop at city scale (1k-10k devices at constant density), where the original \
            full-scan world was quadratic in the population.",
        key_columns: &["nodes"],
        suite_seed: Some(12),
        plan: &Plan {
            quick: ScaleSettings::quick,
            full: ScaleSettings::full,
            seed: |s| &mut s.city.seed,
            params: ScaleSettings::PARAMS,
            report: e12_dense_city,
        },
    },
    Experiment {
        id: "E13",
        slug: "churn",
        title: "Churn sweep: session survival under crash/restart schedules",
        paper_claim: "Beyond the thesis: the middleware's whole premise is surviving mobility-induced failure, but \
            the original evaluation only ever breaks links by walking out of range. E13 injects seeded crash/restart \
            churn and measures how sessions survive and how quickly devices re-attach as the churn rate grows.",
        key_columns: &["nodes", "churn (/node/h)"],
        suite_seed: Some(13),
        plan: &Plan {
            quick: ChurnSettings::quick,
            full: ChurnSettings::full,
            seed: |s| &mut s.city.seed,
            params: ChurnSettings::PARAMS,
            report: e13_churn_sweep,
        },
    },
    Experiment {
        id: "E14",
        slug: "blackout",
        title: "Blackout & flash crowd: mass outage and a restart storm",
        paper_claim: "Beyond the thesis: 60% of a city block loses its radio at once and another 25% crashes, then \
            every crashed device reboots within five seconds. Attachment must collapse during the blackout and \
            recover once radios return and the restart storm's discovery wave passes.",
        key_columns: &["phase", "t (s)"],
        suite_seed: None,
        plan: &Plan {
            // (seed, quick): E14's sizes hang off the quick flag itself.
            quick: || (0, true),
            full: || (0, false),
            seed: |(seed, _)| seed,
            params: &[],
            report: |&(seed, quick)| e14_blackout_flash_crowd(seed, quick),
        },
    },
    Experiment {
        id: "E15",
        slug: "metropolis",
        title: "Full-stack metropolis: real middleware on thousands of nodes",
        paper_claim: "Beyond the thesis: every device runs the complete PeerHood stack (daemon, dynamic discovery, \
            engine, handover machinery) plus a service workload, under mobility and seeded churn. The zero-copy frame \
            and allocation-lean storage refactor is what makes the per-node cost small enough to populate the city \
            with real middleware.",
        key_columns: &["nodes"],
        suite_seed: Some(15),
        plan: &Plan {
            quick: MetropolisSettings::quick,
            full: MetropolisSettings::full,
            seed: |s| &mut s.city.seed,
            params: MetropolisSettings::PARAMS,
            report: e15_full_stack_metropolis,
        },
    },
    Experiment {
        id: "E16",
        slug: "overload",
        title: "Overload city: flash crowd against a flapping hotspot",
        paper_claim: "Beyond the thesis: the paper's middleware accepts every connection and re-dials any provider \
            forever. A crowd split across a healthy and a flapping hotspot starves without the resilience pipeline; \
            with per-peer circuit breakers, backpressure and admission control the crowd diverts to the healthy \
            provider and goodput and fairness recover.",
        key_columns: &["resilience"],
        suite_seed: Some(16),
        plan: &Plan {
            // The settings plus the pipeline modes to run, one row each.
            quick: || (OverloadSettings::quick(), vec![false, true]),
            full: || (OverloadSettings::full(), vec![false, true]),
            seed: |(settings, _)| &mut settings.seed,
            params: OverloadSettings::PARAMS,
            report: |(settings, modes)| e16_overload(settings, modes),
        },
    },
    Experiment {
        id: "E17",
        slug: "sharded-metropolis",
        title: "Sharded metropolis: deterministic intra-run parallelism at 100k+ nodes",
        paper_claim: "Beyond the thesis: the world itself parallelises. Spatial shards advance in conservative \
            lookahead windows with cross-shard events merged in canonical order, so one run spreads across every core \
            while staying byte-identical at any shard count. This table contains a digest of every counter and \
            lifecycle event and no shard-dependent cell: rerun with a different --shards value and diff — the output \
            must not change.",
        key_columns: &["nodes"],
        suite_seed: Some(17),
        plan: &Plan {
            quick: ShardedSettings::quick,
            full: ShardedSettings::full,
            seed: |s| &mut s.city.seed,
            params: ShardedSettings::PARAMS,
            report: e17_sharded_metropolis,
        },
    },
    Experiment {
        id: "E18",
        slug: "hotspot",
        title: "Hotspot metropolis: a flash crowd against the load-balanced sharded world",
        paper_claim: "Beyond the thesis: a flash crowd piles most of the city's devices and traffic into one district \
            — the worst case for equal-width spatial stripes, whose hottest shard then does nearly all the work each \
            window. Load-balanced sharding re-cuts stripe boundaries along the per-shard load at window barriers \
            (hysteresis-gated, from pure simulation state), which changes wall-clock time only: this table carries a \
            digest of every counter and no shard- or partition-dependent cell. Rerun with a different --shards and \
            diff — the output must not change.",
        key_columns: &["nodes"],
        suite_seed: Some(18),
        plan: &Plan {
            quick: HotspotSettings::quick,
            full: HotspotSettings::full,
            seed: |s| &mut s.city.seed,
            params: HotspotSettings::PARAMS,
            report: e18_hotspot_metropolis,
        },
    },
    Experiment {
        id: "E19",
        slug: "adversary",
        title: "Hostile city: partitions and Byzantine insiders vs. the defence tiers",
        paper_claim: "Beyond the thesis: the paper's middleware trusts every frame a neighbour sends. Compromised \
            insiders replay sessions, forge connection requests and poison the neighbourhood with phantom providers \
            while a seeded partition splits the city; the same attack schedule is replayed against each \
            peerhood::security tier and the scorecard counts what got through.",
        key_columns: &["defenses"],
        suite_seed: Some(19),
        plan: &Plan {
            // The settings plus the defence tiers to run, one row each.
            quick: || (AdversarySettings::quick(), Defense::ALL.to_vec()),
            full: || (AdversarySettings::full(), Defense::ALL.to_vec()),
            seed: |(settings, _)| &mut settings.seed,
            params: AdversarySettings::PARAMS,
            report: |(settings, tiers)| e19_hostile_city(settings, tiers),
        },
    },
];

/// Every experiment of the reproduction, in E1–E19 order.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Looks an experiment up by slug or id, case-insensitively.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.slug.eq_ignore_ascii_case(name) || e.id.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::params::{number, on_off};

    #[test]
    fn registry_has_nineteen_unique_experiments() {
        let reg = registry();
        assert_eq!(reg.len(), 19);
        let mut slugs: Vec<&str> = reg.iter().map(|e| e.slug).collect();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        slugs.sort_unstable();
        slugs.dedup();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(slugs.len(), 19, "slugs must be unique");
        assert_eq!(ids.len(), 19, "ids must be unique");
        for (i, experiment) in reg.iter().enumerate() {
            assert_eq!(experiment.id, format!("E{}", i + 1), "E1-E19 in order");
            assert!(!experiment.title.is_empty() && !experiment.paper_claim.is_empty());
        }
        for (i, id, slug) in [
            (12, "E13", "churn"),
            (15, "E16", "overload"),
            (16, "E17", "sharded-metropolis"),
            (17, "E18", "hotspot"),
            (18, "E19", "adversary"),
        ] {
            assert_eq!((reg[i].id, reg[i].slug), (id, slug));
        }
    }

    #[test]
    fn find_resolves_slug_and_id() {
        assert_eq!(find("churn").unwrap().id, "E13");
        assert_eq!(find("e13").unwrap().slug, "churn");
        assert_eq!(find("METROPOLIS").unwrap().id, "E15");
        assert!(find("nope").is_none());
    }

    #[test]
    fn samples_keep_key_columns_as_identity_and_numbers_as_metrics() {
        let mut r = ExperimentReport::new(&["nodes", "kind", "sessions", "survival %"]);
        r.push_row(["100", "a", "17", "98.50"]);
        r.push_row(["100", "b", "abc", "77.00"]);
        let samples = samples_from_report(&r, &["nodes", "kind"]);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].scenario, "nodes=100 kind=a");
        assert_eq!(
            samples[0].metrics,
            vec![("sessions".to_string(), 17.0), ("survival %".to_string(), 98.5)]
        );
        // Non-numeric cells outside the key columns are skipped, not keyed.
        assert_eq!(samples[1].metrics, vec![("survival %".to_string(), 77.0)]);
    }

    #[test]
    fn duplicate_scenarios_get_deterministic_suffixes() {
        let mut r = ExperimentReport::new(&["phase", "v"]);
        r.push_row(["warm", "1"]);
        r.push_row(["warm", "2"]);
        r.push_row(["cool", "3"]);
        let samples = samples_from_report(&r, &["phase"]);
        let keys: Vec<&str> = samples.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(keys, vec!["phase=warm", "phase=warm#2", "phase=cool"]);
    }

    #[test]
    fn rows_without_key_columns_fall_back_to_all() {
        let mut r = ExperimentReport::new(&["v"]);
        r.push_row(["4"]);
        let samples = samples_from_report(&r, &[]);
        assert_eq!(samples[0].scenario, "all");
        assert_eq!(samples[0].metrics, vec![("v".to_string(), 4.0)]);
    }

    #[test]
    fn param_kind_validation() {
        assert!(count("42").is_ok());
        assert!(count("-1").is_err());
        assert!(number("2.5").is_ok());
        assert!(number("inf").is_err());
        assert!(on_off("on").is_ok());
        assert!(on_off("off").is_ok());
        assert!(on_off("true").is_err());
        assert!("off".parse::<Defense>().is_ok());
        assert!("sanity".parse::<Defense>().is_ok());
        assert!("auth".parse::<Defense>().is_ok());
        assert!("Auth".parse::<Defense>().is_err());
    }
}
