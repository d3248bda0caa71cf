//! Runs all four workloads at n ≤ 200 through the real binary and checks
//! the output contract against `BENCHMARK.json`: every declared metric is
//! emitted exactly once with its unit, the correctness gate passes, and the
//! seed changes the generated inputs but not the metric set.

use aaa_observe::Json;
use std::path::Path;
use std::process::Command;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.arr_field(key)
        .unwrap()
        .iter()
        .map(|m| (m.str_field("name").unwrap().into(), m.str_field("unit").unwrap().into()))
        .collect()
}

/// Runs the benchmark binary at smoke size; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: u8) -> Json {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_aaa-benchmark"))
        .args(["--workload", workload, "--size", "smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    assert!(output.status.success(), "{workload}: exit {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    if trace == 1 {
        let file = out.join(format!("trace_{workload}.json"));
        let doc = Json::parse(&std::fs::read_to_string(file).expect("trace file written"))
            .expect("trace file parses");
        assert!(!doc.arr_field("spans").unwrap().is_empty(), "{workload}: empty trace");
    }
    result
}

/// Asserts the result carries exactly the declared metrics; returns them.
fn metrics(workload: &str, result: &Json, want: &[(String, String)]) -> Vec<(String, f64)> {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: not correct");
    assert_eq!(result.u64_field("failed").unwrap(), 0, "{workload}: failed ops");
    assert!(result.u64_field("attempted").unwrap() >= 1);
    let Some(Json::Obj(got)) = result.get("metrics") else { panic!("metrics is an object") };
    let names: Vec<&str> = got.iter().map(|(name, _)| name.as_str()).collect();
    let wanted: Vec<&str> = want.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, wanted, "{workload}: every declared metric exactly once, in order");
    got.iter()
        .zip(want)
        .map(|((name, entry), (_, unit))| {
            let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(!name.is_empty() && name.chars().all(legal), "illegal name {name}");
            assert_eq!(entry.str_field("unit").unwrap(), unit, "{workload}: unit of {name}");
            let value = entry.f64_field("value").unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

fn check(workload: &str) {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!(
        spec.arr_field("workloads").unwrap().iter().any(|w| w.str_field("name") == Ok(workload)),
        "{workload} is declared"
    );

    for (name, value) in metrics(workload, &run(workload, 42, 0), &end_to_end) {
        assert!(value > 0.0, "{workload}: end-to-end metric {name} must never be 0");
    }

    // Counts are exact functions of the generated inputs: the same seed
    // repeats them, another seed moves at least one.
    let counts = |seed| -> Vec<(String, f64)> {
        metrics(workload, &run(workload, seed, 1), &per_layer)
            .into_iter()
            .zip(&per_layer)
            .filter(|(_, (_, unit))| unit == "count")
            .map(|(metric, _)| metric)
            .collect()
    };
    let first = counts(42);
    assert_eq!(first, counts(42), "{workload}: same seed, same inputs");
    assert_ne!(first, counts(7), "{workload}: --seed 7 changes the inputs");
}

#[test]
fn cold_static() {
    check("cold_static");
}

#[test]
fn wave_additions() {
    check("wave_additions");
}

#[test]
fn stream_serve() {
    check("stream_serve");
}

#[test]
fn net_cold() {
    check("net_cold");
}
