//! End-to-end smoke tests of the `dlsim` binary.

use std::process::Command;

fn dlsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlsim"))
}

#[test]
fn help_and_list_exit_zero() {
    let out = dlsim().arg("help").output().expect("spawn dlsim");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = dlsim().arg("list").output().expect("spawn dlsim");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("workloads:"));
}

#[test]
fn bad_flags_exit_nonzero_with_usage() {
    let out = dlsim()
        .args(["run", "--workload", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn run_emits_valid_json() {
    let out = dlsim()
        .args([
            "run",
            "--workload",
            "km",
            "--dimms",
            "4",
            "--channels",
            "2",
            "--scale",
            "7",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout must be valid JSON");
    assert!(v["elapsed_ns"].as_f64().unwrap() > 0.0);
    assert!(v["stats"]["barriers"].as_f64().unwrap() > 0.0);
}

#[test]
fn run_honours_the_event_budget() {
    let run = |extra: &[&str]| {
        let out = dlsim()
            .args(["run", "--workload", "pr", "--scale", "8"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let json = |text: &str| -> serde_json::Value { serde_json::from_str(text).unwrap() };
    let full = json(&run(&["--json"]));
    let cut = json(&run(&["--max-events", "10", "--json"]));
    assert_eq!(full["status"].as_str(), Some("Completed"));
    assert_eq!(cut["status"]["BudgetExceeded"].as_str(), Some("Events"));
    let (full_ns, cut_ns) = (
        full["elapsed_ns"].as_f64().unwrap(),
        cut["elapsed_ns"].as_f64().unwrap(),
    );
    assert!(
        cut_ns < full_ns,
        "budgeted {cut_ns} ns vs full {full_ns} ns"
    );

    assert!(run(&[]).contains("status           : completed"));
    let text = run(&["--max-events", "10"]);
    assert!(text.contains("exceeded the event budget"), "{text}");
}

#[test]
fn sweep_prints_every_value() {
    let out = dlsim()
        .args([
            "sweep",
            "--workload",
            "hs",
            "--param",
            "dimms",
            "--values",
            "4,8",
            "--scale",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains('4') && text.contains('8'));
}

#[test]
fn invalid_inputs_fail_with_an_error_not_a_panic() {
    for (args, msg) in [
        (
            &["run", "--link-gbps", "0"][..],
            "link bandwidth must be non-zero",
        ),
        (&["run", "--scale", "40"][..], "scale must be in"),
        (
            &[
                "sweep",
                "--workload",
                "pr",
                "--param",
                "scale",
                "--values",
                "7,40",
            ][..],
            "scale must be in",
        ),
    ] {
        let out = dlsim().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            matches!(out.status.code(), Some(1 | 2)),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
}
