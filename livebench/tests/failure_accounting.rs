//! A run whose outputs are corrupted must count those solves as failed, say
//! it is not correct, and still print every metric `BENCHMARK.json` names.

use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Metric names listed in one section of `BENCHMARK.json`.
fn metric_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(MANIFEST).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_owned()).collect()
}

/// Run the benchmark binary and return its last stdout line.
fn run(trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_livebench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", "heat_dispatch", "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--corrupt-every", "4"])
        .output()
        .expect("run livebench");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

fn field(line: &str, key: &str) -> String {
    let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
    rest[..rest.find([',', '}']).unwrap()].to_owned()
}

fn check(trace: u8, section: &str) -> String {
    let line = run(trace);
    assert_eq!(field(&line, "correct"), "false", "{line}");
    let attempted: u64 = field(&line, "attempted").parse().unwrap();
    let failed: u64 = field(&line, "failed").parse().unwrap();
    assert!(attempted >= 100, "{line}");
    assert_eq!(failed, attempted / 4, "every fourth solve is corrupted: {line}");
    for name in metric_names(section) {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {line}");
    }
    line
}

#[test]
fn corrupted_solves_fail_and_every_end_to_end_metric_prints() {
    let line = check(0, "end_to_end");
    let ok_ratio: f64 =
        field(&line[line.find("\"ok_ratio\"").unwrap()..], "value").parse().unwrap();
    assert!((ok_ratio - 0.75).abs() < 0.01, "{line}");
}

#[test]
fn corrupted_solves_fail_and_every_per_layer_metric_prints() {
    check(1, "per_layer");
}
