//! `mrls schedule` input handling: an explicit `in=` that cannot be loaded
//! is an error (exit 2), never a silent fallback to a generated instance;
//! without `in=` the instance is generated from the recipe keys.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mrls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrls"))
        .args(args)
        .output()
        .expect("the mrls binary runs")
}

/// A scratch path under the system temp directory, unique per process.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mrls-cli-test-{}-{name}", std::process::id()))
}

fn in_arg(path: &Path) -> String {
    format!("in={}", path.display())
}

#[test]
fn missing_input_file_exits_2() {
    let path = temp_path("missing.json");
    let out = mrls(&["schedule", &in_arg(&path)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("could not read"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is scheduled");
}

#[test]
fn corrupt_input_file_exits_2() {
    let path = temp_path("corrupt.json");
    std::fs::write(&path, "{\"system\": [4, 4], \"jobs\": ").unwrap();
    let out = mrls(&["schedule", &in_arg(&path)]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("could not parse"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is scheduled");
}

#[test]
fn without_input_file_schedules_the_recipe_instance() {
    let out = mrls(&[
        "schedule",
        "n=12",
        "d=2",
        "p=8",
        "dag=chain",
        "seed=3",
        "gantt=false",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("graph class     : chain"), "{stdout}");
    assert!(stdout.contains("valid schedule  : true"), "{stdout}");
}
