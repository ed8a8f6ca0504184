//! Smoke test of the benchmark itself: every workload, shrunk to a
//! tiny size, emits every metric `BENCHMARK.json` names with its unit
//! and passes its checks; and each workload's self-check fires when
//! the workload is deliberately broken.

use std::time::Duration;

use perfbench::fleet::FleetShape;
use perfbench::serve::ServeShape;
use perfbench::{result_line, Workload};

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let get = |v: &serde::Value, key: &str| -> serde::Value {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing key {key}"))
    };
    get(&doc, section)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            let name = get(m, "name").as_str().expect("name").to_owned();
            let unit = get(m, "unit").as_str().expect("unit").to_owned();
            (name, unit)
        })
        .collect()
}

fn tiny_steady() -> FleetShape {
    FleetShape {
        vms: 24,
        min_reps: 3,
        ..FleetShape::pas_steady()
    }
}

fn tiny_churn() -> FleetShape {
    FleetShape {
        vms: 24,
        surge_pairs: 1,
        min_reps: 3,
        ..FleetShape::ondemand_churn()
    }
}

fn tiny_serve() -> ServeShape {
    ServeShape {
        specs: 2,
        duration_s: 300.0,
        setups: 2,
        min_jobs: 4,
        ..ServeShape::paper_campaigns()
    }
}

/// Runs `workload` briefly in both modes and checks the printed
/// result line against `BENCHMARK.json`.
fn emits_every_declared_metric(workload: Workload) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut report = workload.run(7, 0.2, trace);
        let line = result_line(&mut report, trace);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let doc: serde::Value = serde_json::from_str(&line).expect("the result line is JSON");
        let top = doc.as_map().expect("an object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top[0].1.as_bool(), Some(true), "{line}");
        assert_eq!(top[2].1.as_num(), Some(0.0), "{line}");
        let metrics = top[3].1.as_map().expect("metrics object");
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.as_map().expect("metric object")[1]
                    .1
                    .as_str()
                    .expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect();
        assert_eq!(emitted, declared(section), "{section} of {workload:?}");
        if !trace {
            for (name, m) in metrics {
                let value = m.as_map().expect("metric object")[0]
                    .1
                    .as_num()
                    .expect("value");
                assert!(
                    value > 0.0,
                    "end-to-end {name} must never be 0 ({workload:?})"
                );
            }
        }
    }
}

#[test]
fn fleet_pas_steady_emits_every_metric() {
    emits_every_declared_metric(Workload::Fleet(tiny_steady()));
}

#[test]
fn fleet_ondemand_churn_emits_every_metric() {
    emits_every_declared_metric(Workload::Fleet(tiny_churn()));
}

#[test]
fn serve_paper_campaigns_emits_every_metric() {
    emits_every_declared_metric(Workload::Serve(tiny_serve()));
}

#[test]
fn every_declared_workload_exists() {
    for name in Workload::NAMES {
        assert!(Workload::named(name).is_some(), "{name}");
    }
    assert!(Workload::named("no_such_workload").is_none());
}

fn fails_with(workload: Workload, needle: &str) {
    let mut report = workload.run(7, 0.1, false);
    let line = result_line(&mut report, false);
    assert!(report.failed > 0, "{line}");
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(
        report.failures.iter().any(|f| f.contains(needle)),
        "expected a failure mentioning {needle:?}: {:?}",
        report.failures
    );
}

#[test]
fn churn_without_surges_fails_its_self_check() {
    fails_with(
        Workload::Fleet(FleetShape {
            surge_pairs: 0,
            ..tiny_churn()
        }),
        "migrated no VM",
    );
}

#[test]
fn steady_fleet_with_a_governor_fails_its_self_check() {
    fails_with(
        Workload::Fleet(FleetShape {
            pas: false,
            ..tiny_steady()
        }),
        "governor",
    );
}

#[test]
fn serve_with_jobs_left_unfinished_fails_its_self_check() {
    fails_with(
        Workload::Serve(ServeShape {
            job_timeout: Duration::ZERO,
            ..tiny_serve()
        }),
        "did not finish",
    );
}
