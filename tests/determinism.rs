//! Reproducibility: identical seeds give bit-identical runs; the
//! figures are therefore exactly regenerable.

use pas_repro::experiments::scenario::{build, Fidelity, ScenarioConfig};
use pas_repro::governors::Ondemand;
use pas_repro::hypervisor::SchedulerKind;
use pas_repro::workloads::Intensity;

mod common;

fn run_seeded(seed: u64) -> Vec<(f64, f64)> {
    let mut sc = build(
        ScenarioConfig::new(SchedulerKind::Credit, Intensity::Exact, Fidelity::Quick)
            .with_governor(Box::new(Ondemand::default()))
            .with_bursty_arrivals(seed),
    );
    sc.run();
    sc.global_load_series(sc.v20, "v20").points().to_vec()
}

#[test]
fn same_seed_same_trace() {
    let a = run_seeded(7);
    let b = run_seeded(7);
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "timestamps identical");
        assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "values identical");
    }
}

#[test]
fn different_seed_different_trace() {
    let a = run_seeded(7);
    let b = run_seeded(8);
    let differing = a.iter().zip(&b).filter(|(x, y)| x.1 != y.1).count();
    assert!(differing > 0, "bursty arrivals must depend on the seed");
}

#[test]
fn fluid_runs_are_seed_independent() {
    let run = |seed| {
        let mut sc = build(
            ScenarioConfig::new(SchedulerKind::Pas, Intensity::Thrashing, Fidelity::Quick)
                .with_bursty_arrivals(seed), // bursty flag off below
        );
        // Note: thrashing + Poisson still saturates; use global load.
        sc.run();
        sc.global_load_series(sc.v20, "v20").mean()
    };
    // Saturated thrashing runs are statistically identical across
    // seeds even with Poisson arrivals (the queue never empties).
    let a = run(1);
    let b = run(2);
    assert!((a - b).abs() < 1.0, "saturated runs agree: {a} vs {b}");
}

/// The façade quickstart scenario (src/lib.rs) extended with one
/// seeded bursty workload, exported through the metrics crate.
fn quickstart_exports(seed: u64) -> (String, String) {
    use pas_repro::hypervisor::work::ConstantDemand;
    use pas_repro::hypervisor::{HostConfig, VmConfig};
    use pas_repro::metrics::{export, TimeSeries};
    use pas_repro::pas_core::Credit;
    use pas_repro::simkernel::{SimDuration, SimRng};
    use pas_repro::workloads::{ArrivalModel, Profile, WebApp};

    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    let fmax = host.fmax_mcps();
    host.add_vm(
        VmConfig::new("v20", Credit::percent(20.0)),
        Box::new(ConstantDemand::new(fmax)),
    );
    // The quickstart's lazy V70, made bursty so the simkernel seed
    // actually flows into the trace.
    host.add_vm(
        VmConfig::new("v70", Credit::percent(70.0)),
        Box::new(WebApp::new(
            Profile::active_for(SimDuration::from_secs(60), Intensity::Fraction(0.5)),
            0.70 * fmax,
            fmax,
            ArrivalModel::Poisson {
                request_mcycles: 50.0,
                rng: SimRng::seed_from(seed),
            },
        )),
    );
    host.run_for(SimDuration::from_secs(60));

    let snaps = host.stats().snapshots();
    assert!(!snaps.is_empty(), "the run must produce snapshots");
    let v20 = TimeSeries::from_points(
        "v20_absolute_pct",
        snaps
            .iter()
            .map(|s| (s.t_secs, s.vms[0].absolute_load_pct))
            .collect(),
    );
    let v70 = TimeSeries::from_points(
        "v70_absolute_pct",
        snaps
            .iter()
            .map(|s| (s.t_secs, s.vms[1].absolute_load_pct))
            .collect(),
    );
    let freq = TimeSeries::from_points(
        "frequency_mhz",
        snaps
            .iter()
            .map(|s| (s.t_secs, f64::from(s.freq_mhz)))
            .collect(),
    );
    let csv = export::to_csv(&[&v20, &v70, &freq]);
    let json = export::to_json(&vec![v20, v70, freq]).expect("finite values");
    (csv, json)
}

/// Parallel execution must not change results: every fleet-scale
/// experiment (the ones that simulate hosts on worker threads) must
/// produce byte-identical CSV and JSON artefacts with 1 and 4 jobs.
/// The `repro` binary's `--jobs` flag goes through exactly this path
/// (`run_experiment_jobs`); the full CLI pipeline is additionally
/// covered end-to-end in `crates/experiments/tests/cli.rs`.
#[test]
fn fleet_experiments_are_byte_identical_across_job_counts() {
    use pas_repro::experiments::run_experiment_jobs;
    use pas_repro::metrics::export;

    for name in ["consolidation", "churn", "cluster-energy", "migration"] {
        let a = run_experiment_jobs(name, Fidelity::Quick, 1).expect("known experiment");
        let b = run_experiment_jobs(name, Fidelity::Quick, 4).expect("known experiment");
        assert_eq!(
            a.to_csv().as_bytes(),
            b.to_csv().as_bytes(),
            "{name}: CSV artefact must not depend on --jobs"
        );
        let ja = export::to_json(&a).expect("finite values");
        let jb = export::to_json(&b).expect("finite values");
        assert_eq!(
            ja.as_bytes(),
            jb.as_bytes(),
            "{name}: JSON artefact must not depend on --jobs"
        );
        assert_eq!(a.text, b.text, "{name}: printed report must match");
    }
}

/// The campaign subsystem's acceptance criterion, exercised through
/// the library API (the `repro campaign` CLI path is covered
/// end-to-end in `crates/experiments/tests/cli.rs`): a spec with two
/// sweep axes and three seeds per design point must produce
/// byte-identical text and artefacts for 1 and 4 worker threads.
#[test]
fn campaigns_are_byte_identical_across_job_counts() {
    use pas_repro::campaign;

    let spec = campaign::CampaignSpec::from_json(
        r#"{
            "name": "determinism",
            "scenario": {
                "kind": "host",
                "scheduler": "credit",
                "governor": "stable-ondemand",
                "duration_s": 300,
                "vms": [
                    { "name": "v20", "credit_pct": 20,
                      "workload": { "kind": "web-app", "intensity_pct": 100,
                                    "bursty": true } }
                ]
            },
            "sweep": [
                { "param": "scheduler", "values": ["credit", "pas"] },
                { "param": "credit_pct:v20", "values": [10, 20] }
            ],
            "seeds": { "base": 42, "replicates": 3 }
        }"#,
    )
    .expect("valid spec");
    let a = campaign::run(&spec, true, 1).expect("serial run");
    let b = campaign::run(&spec, true, 4).expect("parallel run");
    assert_eq!(a.total_runs, 12, "2 × 2 points × 3 seeds");
    assert_eq!(
        a.text().as_bytes(),
        b.text().as_bytes(),
        "campaign stdout must not depend on --jobs"
    );
    assert_eq!(a.summary_csv().as_bytes(), b.summary_csv().as_bytes());
    assert_eq!(a.runs_csv().as_bytes(), b.runs_csv().as_bytes());
    let ja = pas_repro::metrics::export::to_json(&a).expect("finite values");
    let jb = pas_repro::metrics::export::to_json(&b).expect("finite values");
    assert_eq!(ja.as_bytes(), jb.as_bytes());
}

/// The idle-skip fast path is a wall-clock optimisation only: on an
/// idle-heavy fleet (most VMs quiescent from the first epoch) the
/// exported CSV artefact and the fleet totals must be byte-identical
/// with the fast path on and off, serial and parallel. This is the
/// top-level guarantee behind `fleet_idle_heavy_{skip,exact}` in
/// `repro bench` reporting a speedup without changing any result.
#[test]
fn idle_skip_fleet_artifacts_are_byte_identical() {
    use pas_repro::cluster::{Fleet, FleetConfig, VmSpec};
    use pas_repro::metrics::export;

    let mut specs = vec![
        VmSpec::new("busy0", 4.0, 0.30),
        VmSpec::new("busy1", 4.0, 0.30),
    ];
    specs.extend((0..14).map(|i| VmSpec::new(format!("idle{i}"), 4.0, 0.0).with_credit_frac(0.15)));
    let run = |fast: bool, jobs: usize| {
        let mut fleet = Fleet::build(
            FleetConfig::performance_defaults().with_idle_fast_path(fast),
            &specs,
        );
        fleet.run_epochs(6, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            export::to_csv(&[fleet.load_series()]),
        )
    };
    let (energy_exact, csv_exact) = run(false, 1);
    for (fast, jobs) in [(true, 1), (true, 4), (false, 4)] {
        let (energy, csv) = run(fast, jobs);
        assert_eq!(
            energy, energy_exact,
            "energy must be bit-identical (fast={fast}, jobs={jobs})"
        );
        assert_eq!(
            csv.as_bytes(),
            csv_exact.as_bytes(),
            "load-series CSV must be byte-identical (fast={fast}, jobs={jobs})"
        );
    }
}

/// The sharded placement layer is a pure worker partitioning: VMs
/// hash to a fixed universe of virtual zones, shards own contiguous
/// zone ranges, and the coordinator concatenates shard results
/// zone-major — so the shard count, like the job count, must never
/// change a single byte of the artefacts. This pins the fleet-scale
/// contract: `repro campaign examples/campaigns/fleet-scale.json` is
/// regenerable on any machine whatever `--jobs` or `shards` say.
#[test]
fn sharded_fleet_artifacts_are_byte_identical_across_jobs_and_shards() {
    use pas_repro::cluster::{Fleet, FleetConfig, ShardConfig, VmSpec};
    use pas_repro::metrics::export;

    let specs: Vec<VmSpec> = (0..48)
        .map(|i| {
            let mem = [2.0, 4.0, 8.0][i % 3];
            let cpu = 0.03 + 0.02 * (i % 4) as f64;
            VmSpec::new(format!("vm{i}"), mem, cpu)
        })
        .collect();
    let run = |shards: usize, jobs: usize| {
        let mut fleet = Fleet::build(
            FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards)),
            &specs,
        );
        fleet.run_epochs(4, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            export::to_csv(&[fleet.load_series()]),
            fleet.load_sketch().summary(),
        )
    };
    let (energy_ref, csv_ref, sketch_ref) = run(1, 1);
    for (shards, jobs) in [(1, 2), (1, 8), (4, 1), (4, 2), (16, 8)] {
        let (energy, csv, sketch) = run(shards, jobs);
        assert_eq!(
            energy, energy_ref,
            "energy must be bit-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            csv.as_bytes(),
            csv_ref.as_bytes(),
            "load-series CSV must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            sketch, sketch_ref,
            "load sketch must agree (shards={shards}, jobs={jobs})"
        );
    }
}

/// The tracing subsystem's acceptance criterion: a traced campaign's
/// event-trace JSONL — and every deterministic artefact next to it —
/// must be byte-identical across `--jobs` 1/2/8 and shard counts
/// 1/4/16. Events are a pure function of simulation state (ordered by
/// `(sim_time, stream, seq)`), so neither worker scheduling nor
/// placement partitioning may leak a single byte into the trace. The
/// wall-clock profile is deliberately NOT compared: it lives in its
/// own artefact precisely so byte-identity checks can skip it.
#[test]
fn traced_campaign_trace_jsonl_is_byte_identical_across_jobs_and_shards() {
    use pas_repro::campaign;

    let spec_for = |shards: usize| {
        campaign::CampaignSpec::from_json(&format!(
            r#"{{
                "name": "traced-determinism",
                "scenario": {{
                    "kind": "fleet",
                    "scheduler": "pas",
                    "duration_s": 600,
                    "size": 24,
                    "mem_gib_choices": [2, 4, 8],
                    "cpu_frac_min": 0.05,
                    "cpu_frac_max": 0.30,
                    "credit_factor": 1.5,
                    "epoch_s": 30,
                    "migration": {{ "high_pct": 85, "target_pct": 70 }},
                    "shards": {shards}
                }},
                "seeds": {{ "base": 2013, "replicates": 2 }}
            }}"#
        ))
        .expect("valid spec")
    };
    let run = |shards: usize, jobs: usize| {
        campaign::run_traced(&spec_for(shards), true, jobs, 8192).expect("traced run")
    };

    let base = run(1, 1);
    assert!(
        base.trace_jsonl
            .starts_with("{\"schema\":\"pas-repro-trace/v1\""),
        "trace header carries the schema"
    );
    assert!(
        base.trace_jsonl.contains("\"event\":\"placement\""),
        "fleet traces record the placement"
    );
    for (shards, jobs) in [(1, 2), (1, 8), (4, 1), (4, 2), (16, 8)] {
        let other = run(shards, jobs);
        assert_eq!(
            base.trace_jsonl.as_bytes(),
            other.trace_jsonl.as_bytes(),
            "trace JSONL must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            base.report.text().as_bytes(),
            other.report.text().as_bytes(),
            "report must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            base.report.summary_csv().as_bytes(),
            other.report.summary_csv().as_bytes()
        );
        assert_eq!(
            base.report.runs_csv().as_bytes(),
            other.report.runs_csv().as_bytes()
        );
    }

    // And tracing never perturbs the simulation: the untraced report
    // is byte-identical too.
    let untraced = campaign::run(&spec_for(4), true, 2).expect("untraced run");
    assert_eq!(base.report.text().as_bytes(), untraced.text().as_bytes());
}

/// Regression for the workspace bootstrap: two runs of the quickstart
/// scenario with the same simkernel seed must produce byte-identical
/// CSV and JSON metric exports.
#[test]
fn quickstart_metrics_exports_are_byte_identical() {
    let (csv_a, json_a) = quickstart_exports(0xC0FFEE);
    let (csv_b, json_b) = quickstart_exports(0xC0FFEE);
    assert_eq!(
        csv_a.as_bytes(),
        csv_b.as_bytes(),
        "CSV export must be reproducible"
    );
    assert_eq!(
        json_a.as_bytes(),
        json_b.as_bytes(),
        "JSON export must be reproducible"
    );
}

/// A mixed PAS fleet's artefacts must be byte-identical across
/// `--jobs` 1/2/8 and shard counts 1/4/16. Some of its hosts stay busy
/// while others go quiescent and run inline, off the worker pool:
/// neither routing nor worker scheduling may leak into a single byte.
#[test]
fn mixed_fleet_artifacts_are_byte_identical_across_jobs_and_shards() {
    use pas_repro::cluster::{Fleet, FleetConfig, ShardConfig};
    use pas_repro::metrics::export;

    let specs = common::mixed_fleet_specs();
    let run = |shards: usize, jobs: usize| {
        let mut fleet = Fleet::build(
            FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards)),
            &specs,
        );
        fleet.run_epochs(5, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            totals.sla_ratio.to_bits(),
            export::to_csv(&[fleet.load_series()]),
        )
    };
    let reference = run(1, 1);
    for (shards, jobs) in [(1, 2), (1, 8), (4, 2), (16, 8), (4, 8)] {
        let got = run(shards, jobs);
        assert_eq!(
            got, reference,
            "artefacts must be byte-identical (shards={shards}, jobs={jobs})"
        );
    }
}
