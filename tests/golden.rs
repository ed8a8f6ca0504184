//! Behaviour lock across commits: FNV-1a digests of every artefact a
//! quick reproduction writes, compared against the committed
//! `tests/golden/digests.txt`.
//!
//! The determinism suite compares runs *within* one build; this test
//! catches a refactor that changes every run the same way. It covers
//! every registered experiment at `--quick` (the CSV and JSON that
//! `repro <name> --out` writes), the example credit sweep trimmed to
//! one replicate, and one traced PAS fleet rendered as trace JSONL.
//!
//! A deliberate behaviour change regenerates the file with
//! `PAS_BLESS=1 cargo test --test golden`; each re-bless is recorded
//! in CHANGES.md with the digests that moved and why.

use std::fmt::Write as _;
use std::path::PathBuf;

use pas_repro::campaign::CampaignSpec;
use pas_repro::cluster::{fnv1a64, parallel_map, Fleet, FleetConfig};
use pas_repro::experiments::runner::{all_experiment_names, run_experiment_jobs};
use pas_repro::experiments::scenario::Fidelity;
use pas_repro::metrics::export;

mod common;

/// Worker threads for the independent experiments.
const JOBS: usize = 2;

/// `(artefact name, bytes)` for every registered experiment, as
/// `repro all --quick --out` writes them: a CSV when the report has
/// series, and always a JSON.
fn experiment_artefacts() -> Vec<(String, String)> {
    let reports = parallel_map(JOBS, all_experiment_names(), |_, name| {
        run_experiment_jobs(name, Fidelity::Quick, 1).expect("registered experiment")
    });
    let mut out = Vec::new();
    for report in &reports {
        if !report.series.is_empty() {
            out.push((format!("{}.csv", report.id), report.to_csv()));
        }
        let json = export::to_json(report).expect("finite values");
        out.push((format!("{}.json", report.id), json));
    }
    out
}

/// The example credit sweep at `--quick`, trimmed to one replicate.
fn credit_sweep_artefacts() -> Vec<(String, String)> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/campaigns/credit-sweep.json");
    let text = std::fs::read_to_string(&path).expect("example spec is readable");
    let mut spec = CampaignSpec::from_json(&text).expect("valid example spec");
    spec.seeds.replicates = 1;
    let report = pas_repro::campaign::run(&spec, true, JOBS).expect("campaign runs");
    report.artefact_files().expect("report serializes")
}

/// One traced PAS fleet over the mixed population the fleet
/// determinism test uses.
fn traced_fleet_artefact() -> (String, String) {
    let specs = common::mixed_fleet_specs();
    let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
    fleet.enable_tracing(pas_repro::trace::DEFAULT_CAPACITY);
    fleet.run_epochs(5, JOBS);
    let trace = fleet.take_trace().expect("tracing was enabled");
    let jsonl = pas_repro::trace::render_jsonl("golden-pas-fleet", &[(None, &trace)]);
    ("golden-pas-fleet-trace.jsonl".to_owned(), jsonl)
}

fn render_digests(artefacts: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, bytes) in artefacts {
        let _ = writeln!(out, "{:016x}  {name}", fnv1a64(bytes.as_bytes()));
    }
    out
}

#[test]
fn artefact_digests_match_the_committed_golden_file() {
    let mut artefacts = experiment_artefacts();
    artefacts.extend(credit_sweep_artefacts());
    artefacts.push(traced_fleet_artefact());
    let got = render_digests(&artefacts);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt");
    if std::env::var_os("PAS_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, &got).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("tests/golden/digests.txt exists (bless with PAS_BLESS=1)");
    if got != want {
        let want_lines: Vec<&str> = want.lines().collect();
        let got_lines: Vec<&str> = got.lines().collect();
        let moved: Vec<&str> = got_lines
            .iter()
            .filter(|l| !want_lines.contains(l))
            .copied()
            .collect();
        let gone: Vec<&str> = want_lines
            .iter()
            .filter(|l| !got_lines.contains(l))
            .copied()
            .collect();
        panic!(
            "artefact digests differ from tests/golden/digests.txt\n\
             now:\n  {}\ncommitted:\n  {}",
            moved.join("\n  "),
            gone.join("\n  ")
        );
    }
}
