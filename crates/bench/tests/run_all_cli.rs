//! The `run_all` command line: a bad `--only` list is a usage error.

use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env(
            "FLASHMARK_RESULTS",
            std::env::temp_dir().join("flashmark_run_all_cli"),
        )
        .output()
        .expect("run_all runs")
}

#[test]
fn unknown_only_name_exits_2_and_lists_the_valid_names() {
    for args in [&["--only", "fig04,fig99"][..], &["--only=nope"]] {
        let out = run_all(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("valid names: fig04, fig05,"), "{stderr}");
    }
}

#[test]
fn only_without_a_value_exits_2() {
    assert_eq!(run_all(&["--only"]).status.code(), Some(2));
}
