//! `clara profile` and `clara validate` judge a prediction against one
//! ground truth: the simulator's steady-state mean, the later half of
//! the run's per-packet latencies. On the paper-default cell both
//! commands simulate the same trace, so the profile's `vs simulated`
//! figure is the validate cell's `actual_cycles` and its `rel. error` is
//! the `err` column, character for character, with `--packets` given and
//! without it (both commands default to one packet count). firewall's
//! stages are all priced per packet; CI pins the pure stage plan the
//! same way with dpi-imem.

use std::path::PathBuf;
use std::process::Command;

fn params() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../microbench/tests/data/netronome-agilio-cx40.params")
}

/// Run `clara` with `args` and return its stdout, asserting exit 0.
fn clara(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_clara")).args(args).output().expect("clara starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clara {args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The text between `start` and the next `end` in `line`.
fn between<'a>(line: &'a str, start: &str, end: &str) -> &'a str {
    let from = line.find(start).unwrap_or_else(|| panic!("no `{start}` in {line:?}")) + start.len();
    let len = line[from..].find(end).unwrap_or_else(|| panic!("no `{end}` in {line:?}"));
    &line[from..from + len]
}

/// `clara profile` and a one-cell `clara validate` of the paper-default
/// cell, each given `packets` (`None`: each command's default), agree on
/// the simulated figure and the error.
fn assert_one_ground_truth(packets: Option<&str>) {
    let params = params();
    let params = params.to_str().expect("utf-8 path");
    let packets: Vec<&str> = packets.map(|n| vec!["--packets", n]).unwrap_or_default();
    let profile = clara(&[&["profile", "firewall", "--params", params][..], &packets].concat());
    let validate = clara(
        &[
            &[
                "validate", "firewall", "--params", params, "--rates", "60000", "--payloads",
                "300", "--flows", "1000", "-o", "-",
            ][..],
            &packets,
        ]
        .concat(),
    );

    let line = profile
        .lines()
        .find(|l| l.starts_with("predicted ") && l.contains(" vs simulated "))
        .unwrap_or_else(|| panic!("no prediction line in:\n{profile}"));
    let simulated = between(line, " vs simulated ", " (");
    let profile_err = between(line, "(rel. error ", ")");

    // The one table row of the one-cell grid: `... | predicted actual err%`.
    let row = validate
        .lines()
        .find(|l| l.trim_start().starts_with("60000 "))
        .unwrap_or_else(|| panic!("no cell row in:\n{validate}"));
    let validate_err = row.split_whitespace().last().expect("err column");
    let actual: f64 = between(&validate, "\"actual_cycles\": ", ",").parse().expect("a number");

    assert_eq!(simulated, format!("{actual:.0}"), "profile:\n{profile}\nvalidate:\n{validate}");
    assert_eq!(profile_err, validate_err, "profile:\n{profile}\nvalidate:\n{validate}");
}

#[test]
fn profile_and_validate_report_one_ground_truth() {
    assert_one_ground_truth(Some("4000"));
}

#[test]
fn profile_and_validate_default_to_one_packet_count() {
    assert_one_ground_truth(None);
}
