//! Command-line contract of the `figures` binary: an unknown selector or
//! flag is an error, never a silent empty run.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn unknown_selector_fails_with_the_selector_list() {
    let out = figures(&["fig99"]);
    assert!(!out.status.success(), "fig99 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `fig99`"), "{stderr}");
    assert!(
        stderr.contains("fig13") && stderr.contains("thermal"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may be printed before the error"
    );
}

#[test]
fn misspelled_flag_fails_before_any_simulation() {
    let out = figures(&["--thread", "2", "table1"]);
    assert!(!out.status.success(), "--thread must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--thread`"), "{stderr}");
}

#[test]
fn zero_insts_fails_before_any_simulation() {
    // Zero instructions would print every figure as 0.00 and exit 0.
    for args in [
        &["--insts", "0", "table1"][..],
        &["--insts", "0", "--json", "never-written.json", "fig3"],
        &["--insts", "-5", "fig3"],
    ] {
        let out = figures(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--insts needs a positive number"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed before the error");
    }
}

#[test]
fn known_selector_still_runs() {
    // Table 1 is static text: no simulation, so this stays instant.
    let out = figures(&["table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
