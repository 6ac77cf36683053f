//! Drives the built `repro` binary at its real surface: argument errors, the
//! generic `--<key> <value>` parameter flags and a reader that hangs up.

use std::process::{Command, Stdio};

use scenarios::experiments::{registry, Params};
use sweep::SweepSpec;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A mistyped parameter value is refused with its table row's own message
/// (the one `sweep --grid` gives) before anything runs; a flag the experiment
/// does not declare — E18's retired partition knobs among them — is an
/// unknown flag, refused naming the keys the experiment does take.
#[test]
fn mistyped_flag_values_are_rejected_not_defaulted() {
    const HOTSPOT_KEYS: &str = "(available: shards, nodes, density, crowd_fraction, duration_s)";
    for (experiment, key, complaint) in [
        (
            "adversary",
            "defenses",
            "`bogus` is not a defence tier (off|sanity|auth)".to_string(),
        ),
        ("overload", "resilience", "`bogus` is not a toggle (on|off)".to_string()),
        (
            "hotspot",
            "adaptive",
            format!("no grid parameter `adaptive` {HOTSPOT_KEYS}"),
        ),
        (
            "hotspot",
            "imbalance",
            format!("no grid parameter `imbalance` {HOTSPOT_KEYS}"),
        ),
        (
            "hotspot",
            "patience",
            format!("no grid parameter `patience` {HOTSPOT_KEYS}"),
        ),
    ] {
        let flag = format!("--{key}");
        let out = repro()
            .args([experiment, "--quick", &flag, "bogus"])
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{flag} bogus must exit non-zero");
        assert!(out.stdout.is_empty(), "{flag} bogus must not run the experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {flag}: {complaint}")),
            "{flag}: unexpected message: {stderr}"
        );
    }
}

/// The CLI twin of `integration_experiments::grid_params_reach_the_experiment_settings`:
/// `--<key> <value>` reaches the settings through the same table row a
/// `--grid` axis does.
#[test]
fn any_declared_parameter_is_a_flag_of_its_experiment() {
    let out = repro()
        .args([
            "churn",
            "--quick",
            "--nodes",
            "40",
            "--churn",
            "240",
            "--duration_s",
            "30",
        ])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| nodes"))
        .collect();
    assert_eq!(rows.len(), 1, "one population x one churn rate: {stdout}");
    assert!(rows[0].starts_with("| 40 | 240.00 |"), "{}", rows[0]);
}

#[test]
fn a_misspelt_parameter_flag_is_rejected_naming_the_available_keys() {
    let out = repro()
        .args(["churn", "--quick", "--nodse", "40"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "error: --nodse: no grid parameter `nodse` (available: nodes, churn, density, \
             mobile_fraction, duration_s, downtime_s)"
        ),
        "{stderr}"
    );
}

/// One loop over the static table: every declared key is printed by `--list`
/// from its row, and the row's setter is what the CLI, `SweepSpec::validate`
/// and `Experiment::run` all accept a value with or reject it by — so the
/// four cannot drift apart.
#[test]
fn every_declared_parameter_goes_through_one_row_on_every_path() {
    /// A valid value per key, small enough that the runs stay debug-fast.
    fn sample(key: &str) -> &'static str {
        match key {
            "convergence_s" | "duration_s" => "20",
            "jumps" | "shards" | "hostiles" => "2",
            "trials" | "runs" => "1",
            "nodes" => "60",
            "clients" => "12",
            "density" => "2000",
            "mobile_fraction" | "crowd_fraction" => "0.5",
            "churn" => "60",
            "downtime_s" => "5",
            "resilience" => "off",
            "defenses" => "auth",
            other => panic!("no sample value for the new key `{other}`"),
        }
    }
    let list = repro().arg("--list").output().expect("repro runs").stdout;
    let list = String::from_utf8_lossy(&list);
    let mut keys = 0;
    for experiment in registry() {
        let mut all = Params::new();
        for (key, help) in experiment.params() {
            keys += 1;
            let at = format!("{} --{key}", experiment.slug);
            assert!(list.contains(&format!("         --grid {key:18} {help}\n")), "{at}");
            all.set(key, sample(key));

            assert_eq!(experiment.check(key, sample(key)), Ok(()), "{at}");
            let axis = |value: &str| {
                SweepSpec::new(experiment.slug)
                    .axis(key, vec![value.to_string()])
                    .unwrap()
            };
            assert_eq!(axis(sample(key)).validate(), Ok(()), "{at}");

            let complaint = experiment.check(key, "bogus").expect_err(&at);
            assert!(complaint.starts_with("`bogus` is not "), "{at}: {complaint}");
            let swept = axis("bogus").validate().expect_err(&at).to_string();
            assert!(
                swept.ends_with(&format!("`{key}` of `{}`: {complaint}", experiment.slug)),
                "{swept}"
            );
            let mut bogus = Params::new();
            bogus.set(key, "bogus");
            let ran = experiment.run(1, &bogus, true).expect_err(&at);
            assert_eq!(ran, format!("{key}: {complaint}"));
            let cli = repro()
                .args([experiment.slug, "--quick", &format!("--{key}"), "bogus"])
                .output()
                .expect("repro runs");
            assert!(!cli.status.success() && cli.stdout.is_empty(), "{at}");
            let stderr = String::from_utf8_lossy(&cli.stderr);
            assert!(
                stderr.contains(&format!("error: --{key}: {complaint}\n")),
                "{at}: {stderr}"
            );
        }
        // Every sample at once is accepted by the run itself.
        let output = experiment.run(1, &all, true).expect(experiment.slug);
        assert!(!output.report.rows.is_empty(), "{}", experiment.slug);
    }
    assert_eq!(keys, 37, "a new parameter needs a sample value above");
}

/// `repro --list | head -1`: the reader going away is a clean exit, not a
/// panic with a backtrace.
#[test]
fn a_closed_stdout_pipe_is_a_clean_exit() {
    let mut child = repro()
        .arg("--list")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
