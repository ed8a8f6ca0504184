//! The two fleet workloads: repetitions of one fixed unit — build a
//! fresh fleet from the seeded population, advance it a fixed number
//! of control epochs on one worker, read the bill — timed from outside
//! through the `cluster` crate's public functions.
//!
//! Every repetition covers the same simulated window from a fresh
//! build, so its cost does not depend on how long the process has
//! been running, and every repetition must produce bit-identical
//! totals.

use std::time::Instant;

use cluster::fleet::FleetTotals;
use cluster::{
    place_sharded, Fleet, FleetConfig, FleetGovernor, MigrationTrigger, ShardConfig, VmSpec,
};
use hypervisor::host::SchedulerKind;
use hypervisor::HostPerf;
use simkernel::SimDuration;

use crate::measure::{keep_timing, median, percentile, secs_since, Bracket, Rng, SchedStat};
use crate::{Metric, Report};

/// Control-epoch length, simulated seconds: the repository's fleet
/// campaigns (`examples/campaigns/fleet-*.json`) and migration study.
pub const EPOCH_S: u64 = 30;
/// Host-sized tenant groups, in GiB per VM: 16-GiB hosts filled by
/// two 8-GiB, four 4-GiB or eight 2-GiB VMs. Dealt out in this cycle,
/// a third of the VMs take each of the campaigns' sizes (2, 4, 8 GiB),
/// as the campaigns' uniform draw does on average.
const GROUPS: [(f64, usize); 7] = [
    (8.0, 2),
    (8.0, 2),
    (8.0, 2),
    (8.0, 2),
    (4.0, 4),
    (4.0, 4),
    (2.0, 8),
];
/// The campaigns' range of tenant steady demand, as a host fraction.
const CPU_FRAC: (f64, f64) = (0.03, 0.1);
/// The campaigns' booked credit per unit of steady demand.
const CREDIT_FACTOR: f64 = 1.5;
/// Shard controllers of the campaigns' sharded placement.
const SHARDS: usize = 16;
/// VMs per spare host, as in the placement campaign (24 VMs, 1 spare).
const VMS_PER_SPARE: usize = 24;
/// Steady demand of a surging tenant, as in the migration study
/// (`crates/experiments/src/migration.rs`).
const SURGER_CPU_FRAC: f64 = 0.2;
/// Booked credit of a surging tenant, and the demand it jumps to when
/// it surges, as in the migration study.
const SURGER_CREDIT_FRAC: f64 = 0.6;
/// Memory of a surging tenant: two fill a 16-GiB host.
const SURGER_MEM_GIB: f64 = 8.0;

/// What a fleet workload builds and how long one repetition runs.
///
/// `pas` picks the campaign fleet path — PAS on every host, sharded
/// placement, bounded statistics — and `migration` the migration
/// study's: spare hosts and the load trigger. The self-checks follow:
/// a migrating fleet must migrate VMs and spend time in the governor,
/// any other fleet must do neither.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// VMs in the population, surging ones included.
    pub vms: usize,
    /// Control epochs per repetition.
    pub epochs: usize,
    /// PAS on every host (`true`) or Credit with the ondemand
    /// governor (`false`).
    pub pas: bool,
    /// Load-triggered migration with the default watermarks, and one
    /// spare host per [`VMS_PER_SPARE`] VMs to shed load into.
    pub migration: bool,
    /// Pairs of surging tenants. Both VMs of a pair share a host and
    /// jump to their booking together, which saturates that host.
    pub surge_pairs: usize,
    /// Timed repetitions to collect at least, time permitting.
    pub min_reps: usize,
}

impl FleetShape {
    /// `fleet_pas_steady`: the fleet-scale campaign's PAS fleet at 96
    /// VMs, steady demand.
    #[must_use]
    pub fn pas_steady() -> Self {
        FleetShape {
            vms: 96,
            epochs: 2,
            pas: true,
            migration: false,
            surge_pairs: 0,
            min_reps: 100,
        }
    }

    /// `fleet_ondemand_churn`: Credit + ondemand, the placement
    /// campaign's tenants plus the migration study's surging pairs,
    /// with migration on and spare hosts.
    #[must_use]
    pub fn ondemand_churn() -> Self {
        FleetShape {
            vms: 96,
            epochs: 3,
            pas: false,
            migration: true,
            surge_pairs: 4,
            min_reps: 100,
        }
    }

    /// Spare hosts the fleet provisions.
    #[must_use]
    pub fn spares(&self) -> usize {
        if self.migration {
            self.vms.div_ceil(VMS_PER_SPARE)
        } else {
            0
        }
    }

    /// The fleet configuration every repetition builds. The sharded
    /// placement keeps one virtual zone per shard controller, so a
    /// zone holds several VMs at this population, as it does at the
    /// campaigns' sizes under the default 64 zones.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::pas_defaults()
            .with_epoch(SimDuration::from_secs(EPOCH_S))
            .with_spares(self.spares());
        if self.pas {
            cfg = cfg
                .with_sharding(ShardConfig::new(SHARDS).with_virtual_zones(SHARDS))
                .with_bounded_stats(true);
        } else {
            cfg.scheduler = SchedulerKind::Credit;
            cfg.governor = Some(FleetGovernor::Ondemand);
        }
        if self.migration {
            cfg = cfg.with_trigger(MigrationTrigger::default());
        }
        cfg
    }

    /// The seeded VM population.
    ///
    /// The surging pairs come first, so first-fit gives each pair a
    /// host of its own; pair `k`'s surge instant is the `k`-th of a
    /// fixed grid over all but the last epoch, and the seed picks which
    /// pair gets which instant. The steady tenants follow in host-sized
    /// groups ([`GROUPS`]), which placement, bound by memory, keeps
    /// together. Member `j` of an `n`-VM group draws its demand from
    /// the `j`-th of `n` equal strata of the campaigns' range, booked
    /// at [`CREDIT_FACTOR`] times demand, and the seed shuffles the
    /// group. So every host of a size carries about the same load
    /// whatever the seed: under Credit + ondemand a host's cost
    /// depends steeply on its load (the 2-GiB hosts, near half load,
    /// are the dearest), and free draws would make the fleet's cost
    /// follow how many hosts a seed happens to load past that point.
    #[must_use]
    pub fn population(&self, seed: u64) -> Vec<VmSpec> {
        let mut rng = Rng::new(seed, if self.pas { 1 } else { 2 });
        let pairs = self.surge_pairs;
        let window_s = (self.epochs.saturating_sub(1).max(1) as u64 * EPOCH_S) as f64;
        let mut instants: Vec<f64> = (0..pairs)
            .map(|k| window_s * (k as f64 + 0.5) / pairs as f64)
            .collect();
        rng.shuffle(&mut instants);

        let mut specs = Vec::with_capacity(self.vms);
        for at in instants {
            for _ in 0..2 {
                specs.push(
                    VmSpec::new(
                        format!("vm{}", specs.len()),
                        SURGER_MEM_GIB,
                        SURGER_CPU_FRAC,
                    )
                    .with_credit_frac(SURGER_CREDIT_FRAC)
                    .with_steps(vec![(at, SURGER_CREDIT_FRAC)]),
                );
            }
        }
        let (lo, hi) = CPU_FRAC;
        for &(mem_gib, n) in GROUPS.iter().cycle() {
            let left = self.vms.saturating_sub(specs.len());
            if left == 0 {
                break;
            }
            let mut demands: Vec<f64> = (0..n)
                .map(|j| lo + (hi - lo) * (j as f64 + rng.uniform(0.0, 1.0)) / n as f64)
                .collect();
            rng.shuffle(&mut demands);
            for cpu in demands.into_iter().take(left) {
                specs.push(
                    VmSpec::new(format!("vm{}", specs.len()), mem_gib, cpu)
                        .with_credit_frac(cpu * CREDIT_FACTOR),
                );
            }
        }
        specs
    }
}

/// One repetition's timings, in seconds at the reference speed (see
/// [`crate::measure::REFERENCE_PROBE_S`]), and results.
struct Rep {
    probe_s: f64,
    /// The machine kept its speed through the repetition.
    steady: bool,
    setup_s: f64,
    build_s: f64,
    place_s: f64,
    run_s: f64,
    epochs_s: Vec<f64>,
    steps_s: Vec<f64>,
    job_s: f64,
    hosts: usize,
    totals: FleetTotals,
    perf: Option<(HostPerf, u64)>,
}

/// Runs one repetition between two timings of the probe. With
/// `profile` the hosts time their phases (the traced run) and the
/// placement is timed on its own as well.
fn rep(shape: &FleetShape, seed: u64, profile: bool) -> Rep {
    let bracket = Bracket::open();
    let started = Instant::now();
    let specs = shape.population(seed);
    let cfg = shape.config();
    let built = Instant::now();
    let mut fleet = Fleet::build(cfg.clone(), &specs);
    let build_s = secs_since(built);
    let setup_s = secs_since(started);
    if profile {
        fleet.enable_profiling();
    }
    // One control step per epoch, as a caller driving the fleet sees
    // it: advance one epoch, then read the bill.
    let mut epochs_s = Vec::with_capacity(shape.epochs);
    let mut steps_s = Vec::with_capacity(shape.epochs);
    let mut totals = None;
    for _ in 0..shape.epochs {
        let t = Instant::now();
        fleet.run_epochs(1, 1);
        epochs_s.push(secs_since(t));
        totals = Some(std::hint::black_box(fleet.totals()));
        steps_s.push(secs_since(t));
    }
    let job_s = secs_since(started);
    let place_s = if profile {
        let t = Instant::now();
        match &cfg.sharding {
            Some(sc) => drop(std::hint::black_box(place_sharded(
                cfg.policy,
                &specs,
                cfg.capacity,
                sc,
            ))),
            None => drop(std::hint::black_box(cfg.policy.place(&specs, cfg.capacity))),
        }
        secs_since(t)
    } else {
        0.0
    };
    let (scale, probe_s, steady) = bracket.close();
    let scaled = |v: Vec<f64>| v.into_iter().map(|s| s * scale).collect::<Vec<_>>();
    Rep {
        probe_s,
        steady,
        setup_s: setup_s * scale,
        build_s: build_s * scale,
        place_s: place_s * scale,
        run_s: epochs_s.iter().sum::<f64>() * scale,
        epochs_s: scaled(epochs_s),
        steps_s: scaled(steps_s),
        job_s: job_s * scale,
        hosts: fleet.host_count(),
        totals: totals.expect("at least one epoch"),
        perf: profile.then(|| fleet.perf_totals()),
    }
}

/// Bit-level equality of two fleet bills.
fn same_bill(a: &FleetTotals, b: &FleetTotals) -> bool {
    a.energy_j.to_bits() == b.energy_j.to_bits()
        && a.sla_ratio.to_bits() == b.sla_ratio.to_bits()
        && a.migration_count == b.migration_count
        && a.downtime_s.to_bits() == b.downtime_s.to_bits()
}

/// Repeats the unit for `budget` seconds and until `min_reps` steady
/// repetitions are timed (see [`keep_timing`]), checking every bill
/// against the reference. Returns the steady repetitions and the
/// number left out as unsteady.
fn pass(
    shape: &FleetShape,
    seed: u64,
    reference: &Rep,
    report: &mut Report,
    budget: f64,
    min_reps: usize,
    profile: bool,
) -> (Vec<Rep>, usize) {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut unsteady = 0;
    while keep_timing(started, budget, reps.len(), min_reps) {
        let r = rep(shape, seed, profile);
        let same = same_bill(&r.totals, &reference.totals) && r.hosts == reference.hosts;
        report.check(same, "a repetition's bill differs from the reference");
        if r.steady {
            reps.push(r);
        } else {
            unsteady += 1;
        }
    }
    (reps, unsteady)
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `trace` is set) and reports its metrics.
#[must_use]
pub fn run(shape: &FleetShape, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();

    // An untimed, profiled warm-up: it fills caches, and its bill and
    // phase counters are the reference every timed repetition must
    // reproduce and the evidence the self-checks read.
    let warm = rep(shape, seed, true);
    let (warm_perf, fused) = warm.perf.expect("profiled");
    let migrations = warm.totals.migration_count;
    if shape.migration {
        report.check(migrations > 0, "churn fleet migrated no VM");
        report.check(
            warm_perf.governor_ns > 0,
            "churn fleet spent no time in the governor",
        );
    } else {
        report.check(migrations == 0, "steady fleet migrated VMs");
        report.check(
            warm_perf.governor_ns == 0,
            "steady fleet spent time in the governor",
        );
    }

    let sched_before = SchedStat::now();
    let (budget, min_reps) = if trace {
        (seconds / 2.0, shape.min_reps / 4)
    } else {
        (seconds, shape.min_reps)
    };
    let (gated, unsteady) = pass(shape, seed, &warm, &mut report, budget, min_reps, false);
    let (traced, _) = if trace {
        pass(shape, seed, &warm, &mut report, budget, min_reps, true)
    } else {
        (Vec::new(), 0)
    };
    let sched = SchedStat::now().since(sched_before);

    let column = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let sim_host_s = (warm.hosts as u64 * shape.epochs as u64 * EPOCH_S) as f64;
    let jobs = column(&gated, &|r| r.job_s);
    let steps_ms: Vec<f64> = gated
        .iter()
        .flat_map(|r| r.steps_s.iter().map(|q| q * 1e3))
        .collect();
    report.e2e = vec![
        Metric::new("setup_s", median(&column(&gated, &|r| r.setup_s)), "s"),
        Metric::new(
            "sim_host_s_per_s",
            sim_host_s / median(&column(&gated, &|r| r.run_s)),
            "s/s",
        ),
        Metric::new("rss_peak_mb", crate::measure::rss_peak_mb(), "MiB"),
        Metric::new("energy_mj", warm.totals.energy_j / 1e6, "MJ"),
        Metric::new("sla_ratio", warm.totals.sla_ratio, "ratio"),
        Metric::new("job_turnaround_p50_s", percentile(&jobs, 50.0), "s"),
        Metric::new("job_turnaround_p90_s", percentile(&jobs, 90.0), "s"),
        Metric::new("request_p50_ms", percentile(&steps_ms, 50.0), "ms"),
        Metric::new("request_p90_ms", percentile(&steps_ms, 90.0), "ms"),
    ];
    report.samples = vec![("jobs", jobs.len()), ("requests", steps_ms.len())];

    if trace {
        let traced_median = |f: &dyn Fn(&Rep) -> f64| median(&column(&traced, f));
        let perf = |r: &Rep| {
            let (p, _) = r.perf.expect("traced repetitions are profiled");
            // Phase counters are raw host nanoseconds; bring them to
            // the reference speed like every other time.
            let scale = crate::measure::REFERENCE_PROBE_S / r.probe_s / 1e9;
            [
                p.host_slice_ns,
                p.sched_acct_ns,
                p.governor_ns,
                p.snapshot_ns,
            ]
            .map(|ns| ns as f64 * scale)
        };
        let epochs: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.epochs_s.iter().copied())
            .collect();
        report.layers = vec![
            Metric::new("cluster.place_s", traced_median(&|r| r.place_s), "s"),
            Metric::new("cluster.build_s", traced_median(&|r| r.build_s), "s"),
            Metric::new("cluster.epoch_p50_s", median(&epochs), "s"),
            Metric::new(
                "cluster.controller_self_s",
                traced_median(&|r| (r.run_s - perf(r).iter().sum::<f64>()).max(0.0)),
                "s",
            ),
            Metric::new("cluster.migrations", migrations as f64, "count"),
            Metric::new("cluster.hosts", warm.hosts as f64, "count"),
            Metric::new(
                "hypervisor.host_slice_s",
                traced_median(&|r| perf(r)[0]),
                "s",
            ),
            Metric::new(
                "hypervisor.sched_acct_s",
                traced_median(&|r| perf(r)[1]),
                "s",
            ),
            Metric::new("hypervisor.governor_s", traced_median(&|r| perf(r)[2]), "s"),
            Metric::new("hypervisor.snapshot_s", traced_median(&|r| perf(r)[3]), "s"),
            Metric::new("hypervisor.fused_slices", fused as f64, "count"),
            Metric::new("bench.cpu_s", sched.cpu_s, "s"),
            Metric::new("bench.runq_wait_s", sched.runq_wait_s, "s"),
            Metric::new(
                "bench.probe_s",
                median(&column(&gated, &|r| r.probe_s)),
                "s",
            ),
            Metric::new(
                "bench.trace_overhead_pct",
                (traced_median(&|r| r.job_s) / median(&jobs) - 1.0) * 100.0,
                "%",
            ),
            Metric::new("bench.unsteady_units", unsteady as f64, "count"),
            Metric::new("bench.jobs", (jobs.len() + traced.len()) as f64, "count"),
            Metric::new("bench.requests", steps_ms.len() as f64, "count"),
        ];
    }
    report
}
