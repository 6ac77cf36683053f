//! Drives the built `repro` binary at its real surface: argument errors and
//! a reader that hangs up.

use std::process::{Command, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A mistyped flag value is refused with the parameter kind's own message
/// (the one `sweep --grid` gives) before anything runs.
#[test]
fn mistyped_flag_values_are_rejected_not_defaulted() {
    for (experiment, flag, complaint) in [
        (
            "adversary",
            "--defenses",
            "`bogus` is not a defence tier (off|sanity|auth)",
        ),
        ("hotspot", "--imbalance", "`bogus` is not a finite number"),
        ("hotspot", "--patience", "`bogus` is not an unsigned integer"),
    ] {
        let out = repro()
            .args([experiment, "--quick", flag, "bogus"])
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
