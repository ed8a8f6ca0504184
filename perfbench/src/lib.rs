//! The repository's benchmark: three workloads, each driving the
//! simulator through its public crates and timing the calls from
//! outside.
//!
//! * `fleet_pas_steady` — the fleet-scale campaign's PAS fleet, scaled
//!   down, under steady demand; the host slice loop and PAS accounting
//!   do the work.
//! * `fleet_ondemand_churn` — Credit + ondemand under demand surges
//!   with migration; governor, rebalance and VM moves do real work.
//! * `serve_paper_campaigns` — a closed-loop client against the
//!   in-process campaign server; HTTP, middleware, queue and campaign
//!   layers do the work.
//!
//! A run prints, as its last line, one JSON object: whether every
//! output was correct, the operations attempted and failed, and the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run), each with its unit.

pub mod fleet;
pub mod measure;
pub mod serve;

use std::fmt::Write as _;

/// Every end-to-end metric, with its unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_host_s_per_s", "s/s"),
    ("rss_peak_mb", "MiB"),
    ("energy_mj", "MJ"),
    ("sla_ratio", "ratio"),
    ("job_turnaround_p50_s", "s"),
    ("job_turnaround_p90_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
];

/// Every per-layer metric, with its unit, in output order. A workload
/// that never enters a layer reports that layer's metrics as zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.place_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.epoch_p50_s", "s"),
    ("cluster.controller_self_s", "s"),
    ("cluster.migrations", "count"),
    ("cluster.hosts", "count"),
    ("hypervisor.host_slice_s", "s"),
    ("hypervisor.sched_acct_s", "s"),
    ("hypervisor.governor_s", "s"),
    ("hypervisor.snapshot_s", "s"),
    ("hypervisor.fused_slices", "count"),
    ("campaign.parse_s", "s"),
    ("campaign.expand_s", "s"),
    ("campaign.run_point_p50_s", "s"),
    ("campaign.run_point_p90_s", "s"),
    ("campaign.reduce_s", "s"),
    ("campaign.artefacts_s", "s"),
    ("server.http_parse_s", "s"),
    ("server.mw.request_log_s", "s"),
    ("server.mw.token_auth_s", "s"),
    ("server.mw.rate_limit_s", "s"),
    ("server.mw.spec_validation_s", "s"),
    ("server.queue_wait_s", "s"),
    ("server.polls_per_job", "count"),
    ("bench.cpu_s", "s"),
    ("bench.runq_wait_s", "s"),
    ("bench.probe_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unsteady_units", "count"),
    ("bench.jobs", "count"),
    ("bench.requests", "count"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A measurement.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations: repetitions, requests, self-checks.
    pub attempted: u64,
    /// Checked operations whose outcome was wrong.
    pub failed: u64,
    /// What went wrong, one line per failed operation.
    pub failures: Vec<String>,
    /// The end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Sample counts behind the reported percentiles.
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_owned());
        }
    }

    /// The metrics a run prints, in catalogue order: the end-to-end
    /// ones, or with `trace` the per-layer ones (zero for a layer the
    /// workload never enters). A missing end-to-end metric or a
    /// non-finite value is a failure.
    pub fn output_metrics(&mut self, trace: bool) -> Vec<Metric> {
        let (catalogue, measured) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut problems = Vec::new();
        let out = catalogue
            .iter()
            .map(|&(name, unit)| {
                let found = measured.iter().find(|m| m.name == name);
                let value = match found {
                    Some(m) if m.value.is_finite() && m.unit == unit => m.value,
                    Some(_) => {
                        problems.push(format!("{name} is not finite or has the wrong unit"));
                        0.0
                    }
                    None if trace => 0.0,
                    None => {
                        problems.push(format!("{name} was not measured"));
                        0.0
                    }
                };
                Metric::new(name, value, unit)
            })
            .collect();
        for p in problems {
            self.check(false, &p);
        }
        out
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `fleet_pas_steady` or `fleet_ondemand_churn`.
    Fleet(fleet::FleetShape),
    /// `serve_paper_campaigns`.
    Serve(serve::ServeShape),
}

impl Workload {
    /// Every workload name, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 3] = [
        "fleet_pas_steady",
        "fleet_ondemand_churn",
        "serve_paper_campaigns",
    ];

    /// The full-size workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "fleet_pas_steady" => Some(Workload::Fleet(fleet::FleetShape::pas_steady())),
            "fleet_ondemand_churn" => Some(Workload::Fleet(fleet::FleetShape::ondemand_churn())),
            "serve_paper_campaigns" => Some(Workload::Serve(serve::ServeShape::paper_campaigns())),
            _ => None,
        }
    }

    /// Runs the workload.
    #[must_use]
    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Report {
        match self {
            Workload::Fleet(shape) => fleet::run(shape, seed, seconds, trace),
            Workload::Serve(shape) => serve::run(shape, seed, seconds, trace),
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[must_use]
pub fn result_line(report: &mut Report, trace: bool) -> String {
    let metrics = report.output_metrics(trace);
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}
