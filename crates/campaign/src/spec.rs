//! The campaign specification: scenarios as data.
//!
//! A [`CampaignSpec`] is parsed from JSON (via the vendored
//! `serde_json`) and describes everything the single-host scenario
//! builder and [`cluster::fleet::Fleet::build`] can build in code:
//! machine preset, scheduler, governor, per-VM credit and workload
//! (pi-app / web-app / trace / fluid), fleet size, placement policy,
//! migration watermarks, duration. On top of the base scenario the
//! spec carries sweep axes (see [`crate::sweep`]) and a replication
//! plan (seeds).
//!
//! `Serialize`/`Deserialize` are hand-written against the shim's
//! [`serde::Value`] data model rather than derived, for two reasons:
//! optional fields get defaults (a minimal spec stays minimal), and
//! every shape error names the offending field and the accepted
//! values — malformed specs must produce actionable errors, not
//! panics. Unknown fields are rejected, so a typo fails loudly instead
//! of silently running the default.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};
use simkernel::SimDuration;

/// A campaign failure: spec validation, sweep expansion, or run
/// assembly. The payload is a human-actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError(pub String);

impl CampaignError {
    /// Creates an error from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        CampaignError(msg.into())
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign error: {}", self.0)
    }
}

impl std::error::Error for CampaignError {}

impl From<DeError> for CampaignError {
    fn from(e: DeError) -> Self {
        CampaignError(e.0)
    }
}

/// Default sweep-expansion cap (see [`CampaignSpec::max_runs`]).
pub const DEFAULT_MAX_RUNS: usize = 512;

/// Default seed base when the spec does not pin one.
pub const DEFAULT_SEED_BASE: u64 = 42;

// ---------------------------------------------------------------------------
// Small parse helpers over the shim's Value data model.
// ---------------------------------------------------------------------------

fn as_map<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], DeError> {
    v.as_map()
        .ok_or_else(|| DeError(format!("{what} must be a JSON object")))
}

fn get<'v>(m: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'v>(m: &'v [(String, Value)], key: &str, what: &str) -> Result<&'v Value, DeError> {
    get(m, key).ok_or_else(|| DeError(format!("{what}: missing required field `{key}`")))
}

fn str_of(v: &Value, what: &str) -> Result<String, DeError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| DeError(format!("{what} must be a string")))
}

fn num_of(v: &Value, what: &str) -> Result<f64, DeError> {
    v.as_num()
        .ok_or_else(|| DeError(format!("{what} must be a number")))
}

fn bool_of(v: &Value, what: &str) -> Result<bool, DeError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(DeError(format!("{what} must be a boolean"))),
    }
}

/// The single non-negative-integer check behind [`usize_of`],
/// [`u64_of`] and the sweep expander's count values.
pub(crate) fn checked_count(n: f64) -> Option<u64> {
    if n.fract() == 0.0 && n >= 0.0 && n <= 2f64.powi(53) {
        Some(n as u64)
    } else {
        None
    }
}

fn u64_of(v: &Value, what: &str) -> Result<u64, DeError> {
    let n = num_of(v, what)?;
    checked_count(n)
        .ok_or_else(|| DeError(format!("{what} must be a non-negative integer, got {n}")))
}

fn usize_of(v: &Value, what: &str) -> Result<usize, DeError> {
    u64_of(v, what).map(|n| n as usize)
}

/// Rejects map keys outside `allowed` with an error naming both the
/// stray key and the accepted set.
fn no_unknown_fields(m: &[(String, Value)], allowed: &[&str], what: &str) -> Result<(), DeError> {
    for (k, _) in m {
        if !allowed.contains(&k.as_str()) {
            return Err(DeError(format!(
                "{what}: unknown field `{k}`; expected one of: {}",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn entry(key: &str, v: Value) -> (String, Value) {
    (key.to_owned(), v)
}

// ---------------------------------------------------------------------------
// Closed vocabularies: machines, schedulers, governors, placement.
// ---------------------------------------------------------------------------

/// A machine preset from `cpumodel::machines`, by kebab-case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachinePreset {
    /// The paper's testbed: DELL Optiplex 755.
    Optiplex755,
    /// Intel Xeon X3440 (Grid'5000, Table 1).
    XeonX3440,
    /// Intel Xeon L5420 (Grid'5000, Table 1).
    XeonL5420,
    /// Intel Xeon E5-2620 (Grid'5000, Table 1).
    XeonE52620,
    /// AMD Opteron 6164 HE (Grid'5000, Table 1).
    Opteron6164He,
    /// Intel Core i7-3770 (Table 1).
    CoreI73770,
}

impl MachinePreset {
    /// Every accepted spelling, in declaration order.
    pub const NAMES: [&'static str; 6] = [
        "optiplex-755",
        "xeon-x3440",
        "xeon-l5420",
        "xeon-e5-2620",
        "opteron-6164-he",
        "core-i7-3770",
    ];

    /// The kebab-case spelling used in specs.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses a spec spelling.
    ///
    /// # Errors
    ///
    /// Returns an error naming the accepted machine names.
    pub fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "optiplex-755" => Ok(MachinePreset::Optiplex755),
            "xeon-x3440" => Ok(MachinePreset::XeonX3440),
            "xeon-l5420" => Ok(MachinePreset::XeonL5420),
            "xeon-e5-2620" => Ok(MachinePreset::XeonE52620),
            "opteron-6164-he" => Ok(MachinePreset::Opteron6164He),
            "core-i7-3770" => Ok(MachinePreset::CoreI73770),
            other => Err(DeError(format!(
                "unknown machine `{other}`; expected one of: {}",
                Self::NAMES.join(", ")
            ))),
        }
    }

    /// Builds the corresponding `cpumodel` machine spec.
    #[must_use]
    pub fn build(self) -> cpumodel::MachineSpec {
        use cpumodel::machines;
        match self {
            MachinePreset::Optiplex755 => machines::optiplex_755(),
            MachinePreset::XeonX3440 => machines::intel_xeon_x3440(),
            MachinePreset::XeonL5420 => machines::intel_xeon_l5420(),
            MachinePreset::XeonE52620 => machines::intel_xeon_e5_2620(),
            MachinePreset::Opteron6164He => machines::amd_opteron_6164_he(),
            MachinePreset::CoreI73770 => machines::intel_core_i7_3770(),
        }
    }
}

/// A hypervisor scheduler, by spec spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Xen Credit with caps.
    Credit,
    /// Xen Credit2 (no caps).
    Credit2,
    /// SEDF without extra time.
    Sedf,
    /// SEDF with extra time (the paper's variable-credit config).
    SedfExtra,
    /// The paper's PAS scheduler (owns DVFS; governor is ignored).
    Pas,
}

impl SchedulerSpec {
    /// Every accepted spelling.
    pub const NAMES: [&'static str; 5] = ["credit", "credit2", "sedf", "sedf-extra", "pas"];

    /// The spec spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses a spec spelling.
    ///
    /// # Errors
    ///
    /// Returns an error naming the accepted scheduler names.
    pub fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "credit" => Ok(SchedulerSpec::Credit),
            "credit2" => Ok(SchedulerSpec::Credit2),
            "sedf" => Ok(SchedulerSpec::Sedf),
            "sedf-extra" => Ok(SchedulerSpec::SedfExtra),
            "pas" => Ok(SchedulerSpec::Pas),
            other => Err(DeError(format!(
                "unknown scheduler `{other}`; expected one of: {}",
                Self::NAMES.join(", ")
            ))),
        }
    }

    /// The hypervisor's scheduler kind.
    #[must_use]
    pub fn kind(self) -> hypervisor::host::SchedulerKind {
        use hypervisor::host::SchedulerKind;
        match self {
            SchedulerSpec::Credit => SchedulerKind::Credit,
            SchedulerSpec::Credit2 => SchedulerKind::Credit2,
            SchedulerSpec::Sedf => SchedulerKind::Sedf { extra: false },
            SchedulerSpec::SedfExtra => SchedulerKind::Sedf { extra: true },
            SchedulerSpec::Pas => SchedulerKind::Pas,
        }
    }
}

/// A DVFS governor, by spec spelling. Under [`SchedulerSpec::Pas`] the
/// governor is ignored (PAS owns DVFS), mirroring how a declarative
/// sweep over `scheduler × governor` should behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorSpec {
    /// Always at maximum frequency.
    Performance,
    /// Always at minimum frequency.
    Powersave,
    /// Linux ondemand.
    Ondemand,
    /// Linux conservative.
    Conservative,
    /// The paper's stabilised ondemand.
    StableOndemand,
}

impl GovernorSpec {
    /// Every accepted spelling.
    pub const NAMES: [&'static str; 5] = [
        "performance",
        "powersave",
        "ondemand",
        "conservative",
        "stable-ondemand",
    ];

    /// The spec spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses a spec spelling.
    ///
    /// # Errors
    ///
    /// Returns an error naming the accepted governor names.
    pub fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "performance" => Ok(GovernorSpec::Performance),
            "powersave" => Ok(GovernorSpec::Powersave),
            "ondemand" => Ok(GovernorSpec::Ondemand),
            "conservative" => Ok(GovernorSpec::Conservative),
            "stable-ondemand" => Ok(GovernorSpec::StableOndemand),
            other => Err(DeError(format!(
                "unknown governor `{other}`; expected one of: {} (or null)",
                Self::NAMES.join(", ")
            ))),
        }
    }

    /// Builds a boxed governor for a single-host scenario.
    #[must_use]
    pub fn build(self) -> Box<dyn governors::Governor> {
        match self {
            GovernorSpec::Performance => Box::new(governors::Performance),
            GovernorSpec::Powersave => Box::new(governors::Powersave),
            GovernorSpec::Ondemand => Box::new(governors::Ondemand::default()),
            GovernorSpec::Conservative => Box::new(governors::Conservative::default()),
            GovernorSpec::StableOndemand => Box::new(governors::StableOndemand::new()),
        }
    }

    /// The fleet-config governor, if the fleet layer supports it.
    ///
    /// # Errors
    ///
    /// The fleet layer builds many hosts from one plain-enum config,
    /// so only `performance`, `ondemand` and `stable-ondemand` exist
    /// there; the others are a spec error.
    pub fn fleet(self) -> Result<cluster::FleetGovernor, CampaignError> {
        match self {
            GovernorSpec::Performance => Ok(cluster::FleetGovernor::Performance),
            GovernorSpec::Ondemand => Ok(cluster::FleetGovernor::Ondemand),
            GovernorSpec::StableOndemand => Ok(cluster::FleetGovernor::StableOndemand),
            other => Err(CampaignError(format!(
                "fleet scenarios support governors performance, ondemand, stable-ondemand; \
                 got `{}`",
                other.name()
            ))),
        }
    }
}

/// A placement policy, by spec spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// First-fit decreasing.
    FirstFit,
    /// Best-fit decreasing.
    BestFit,
}

impl PlacementSpec {
    /// Every accepted spelling.
    pub const NAMES: [&'static str; 2] = ["first-fit", "best-fit"];

    /// The spec spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Parses a spec spelling.
    ///
    /// # Errors
    ///
    /// Returns an error naming the accepted policies.
    pub fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "first-fit" => Ok(PlacementSpec::FirstFit),
            "best-fit" => Ok(PlacementSpec::BestFit),
            other => Err(DeError(format!(
                "unknown placement `{other}`; expected one of: {}",
                Self::NAMES.join(", ")
            ))),
        }
    }

    /// The cluster crate's policy.
    #[must_use]
    pub fn policy(self) -> cluster::PlacementPolicy {
        match self {
            PlacementSpec::FirstFit => cluster::PlacementPolicy::FirstFit,
            PlacementSpec::BestFit => cluster::PlacementPolicy::BestFit,
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads and VMs (host scenarios).
// ---------------------------------------------------------------------------

/// What runs inside one VM of a host scenario, tagged by `kind`.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A fixed-size CPU-bound batch (`"kind": "pi-app"`): sized to
    /// take `seconds` at the VM's booked capacity.
    PiApp {
        /// Batch size, in seconds of the VM's booked capacity.
        seconds: f64,
    },
    /// The httperf-driven open-loop web application
    /// (`"kind": "web-app"`).
    WebApp {
        /// Demand during the active window, percent of the VM's
        /// booked capacity (100 is the paper's *exact load*).
        intensity_pct: f64,
        /// Activation instant, seconds into the run.
        start_s: f64,
        /// Active-window length, seconds (`null` runs to the end).
        active_s: Option<f64>,
        /// Poisson arrivals (seeded per campaign run) instead of
        /// fluid demand.
        bursty: bool,
        /// Service demand per request under Poisson arrivals,
        /// mega-cycles.
        request_mcycles: f64,
    },
    /// Piecewise-constant demand playback (`"kind": "trace"`).
    Trace {
        /// `(duration_s, load_pct)` segments; load is percent of the
        /// VM's booked capacity.
        segments: Vec<(f64, f64)>,
    },
    /// A constant fluid demand (`"kind": "fluid"`).
    Fluid {
        /// Demand, percent of the VM's booked capacity.
        load_pct: f64,
    },
}

impl WorkloadSpec {
    fn parse(v: &Value, what: &str) -> Result<Self, DeError> {
        let m = as_map(v, what)?;
        let kind = str_of(req(m, "kind", what)?, &format!("{what}.kind"))?;
        match kind.as_str() {
            "pi-app" => {
                no_unknown_fields(m, &["kind", "seconds"], what)?;
                Ok(WorkloadSpec::PiApp {
                    seconds: num_of(req(m, "seconds", what)?, &format!("{what}.seconds"))?,
                })
            }
            "web-app" => {
                no_unknown_fields(
                    m,
                    &[
                        "kind",
                        "intensity_pct",
                        "start_s",
                        "active_s",
                        "bursty",
                        "request_mcycles",
                    ],
                    what,
                )?;
                Ok(WorkloadSpec::WebApp {
                    intensity_pct: num_of(
                        req(m, "intensity_pct", what)?,
                        &format!("{what}.intensity_pct"),
                    )?,
                    start_s: match get(m, "start_s") {
                        Some(v) => num_of(v, &format!("{what}.start_s"))?,
                        None => 0.0,
                    },
                    active_s: match get(m, "active_s") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(num_of(v, &format!("{what}.active_s"))?),
                    },
                    bursty: match get(m, "bursty") {
                        Some(v) => bool_of(v, &format!("{what}.bursty"))?,
                        None => false,
                    },
                    request_mcycles: match get(m, "request_mcycles") {
                        Some(v) => num_of(v, &format!("{what}.request_mcycles"))?,
                        None => 50.0,
                    },
                })
            }
            "trace" => {
                no_unknown_fields(m, &["kind", "segments"], what)?;
                let segs = req(m, "segments", what)?;
                let segments: Vec<(f64, f64)> = Deserialize::from_value(segs).map_err(|e| {
                    DeError(format!(
                        "{what}.segments must be a list of [duration_s, load_pct] pairs: {}",
                        e.0
                    ))
                })?;
                Ok(WorkloadSpec::Trace { segments })
            }
            "fluid" => {
                no_unknown_fields(m, &["kind", "load_pct"], what)?;
                Ok(WorkloadSpec::Fluid {
                    load_pct: num_of(req(m, "load_pct", what)?, &format!("{what}.load_pct"))?,
                })
            }
            other => Err(DeError(format!(
                "{what}.kind: unknown workload `{other}`; expected one of: \
                 pi-app, web-app, trace, fluid"
            ))),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            WorkloadSpec::PiApp { seconds } => Value::Map(vec![
                entry("kind", Value::Str("pi-app".to_owned())),
                entry("seconds", Value::Num(*seconds)),
            ]),
            WorkloadSpec::WebApp {
                intensity_pct,
                start_s,
                active_s,
                bursty,
                request_mcycles,
            } => Value::Map(vec![
                entry("kind", Value::Str("web-app".to_owned())),
                entry("intensity_pct", Value::Num(*intensity_pct)),
                entry("start_s", Value::Num(*start_s)),
                entry("active_s", active_s.map_or(Value::Null, Value::Num)),
                entry("bursty", Value::Bool(*bursty)),
                entry("request_mcycles", Value::Num(*request_mcycles)),
            ]),
            WorkloadSpec::Trace { segments } => Value::Map(vec![
                entry("kind", Value::Str("trace".to_owned())),
                entry("segments", segments.to_value()),
            ]),
            WorkloadSpec::Fluid { load_pct } => Value::Map(vec![
                entry("kind", Value::Str("fluid".to_owned())),
                entry("load_pct", Value::Num(*load_pct)),
            ]),
        }
    }

    /// Validates ranges; `what` names the VM for the error message.
    fn validate(&self, what: &str) -> Result<(), CampaignError> {
        let check = |ok: bool, msg: String| {
            if ok {
                Ok(())
            } else {
                Err(CampaignError(msg))
            }
        };
        match self {
            WorkloadSpec::PiApp { seconds } => check(
                seconds.is_finite() && *seconds > 0.0,
                format!("{what}: pi-app seconds must be positive, got {seconds}"),
            ),
            WorkloadSpec::WebApp {
                intensity_pct,
                start_s,
                active_s,
                request_mcycles,
                ..
            } => {
                check(
                    intensity_pct.is_finite() && *intensity_pct >= 0.0,
                    format!("{what}: web-app intensity_pct must be >= 0, got {intensity_pct}"),
                )?;
                check(
                    start_s.is_finite() && *start_s >= 0.0,
                    format!("{what}: web-app start_s must be >= 0, got {start_s}"),
                )?;
                if let Some(a) = active_s {
                    check(
                        a.is_finite() && *a > 0.0,
                        format!("{what}: web-app active_s must be positive, got {a}"),
                    )?;
                }
                check(
                    request_mcycles.is_finite() && *request_mcycles > 0.0,
                    format!(
                        "{what}: web-app request_mcycles must be positive, got {request_mcycles}"
                    ),
                )
            }
            WorkloadSpec::Trace { segments } => {
                check(
                    !segments.is_empty(),
                    format!("{what}: trace needs at least one segment"),
                )?;
                for &(dur, load) in segments {
                    check(
                        dur.is_finite() && dur > 0.0,
                        format!("{what}: trace segment duration must be positive, got {dur}"),
                    )?;
                    check(
                        load.is_finite() && load >= 0.0,
                        format!("{what}: trace segment load_pct must be >= 0, got {load}"),
                    )?;
                }
                Ok(())
            }
            WorkloadSpec::Fluid { load_pct } => check(
                load_pct.is_finite() && *load_pct >= 0.0,
                format!("{what}: fluid load_pct must be >= 0, got {load_pct}"),
            ),
        }
    }
}

/// One VM of a host scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// VM name (unique within the scenario; sweep axes refer to it).
    pub name: String,
    /// Booked credit, percent of the host at maximum frequency.
    pub credit_pct: f64,
    /// The workload running inside.
    pub workload: WorkloadSpec,
}

impl VmSpec {
    fn parse(v: &Value, what: &str) -> Result<Self, DeError> {
        let m = as_map(v, what)?;
        no_unknown_fields(m, &["name", "credit_pct", "workload"], what)?;
        Ok(VmSpec {
            name: str_of(req(m, "name", what)?, &format!("{what}.name"))?,
            credit_pct: num_of(req(m, "credit_pct", what)?, &format!("{what}.credit_pct"))?,
            workload: WorkloadSpec::parse(req(m, "workload", what)?, &format!("{what}.workload"))?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            entry("name", Value::Str(self.name.clone())),
            entry("credit_pct", Value::Num(self.credit_pct)),
            entry("workload", self.workload.to_value()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// A single-host scenario (`"kind": "host"`): one simulated machine,
/// a scheduler, an optional governor, and explicit VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct HostScenario {
    /// The simulated machine.
    pub machine: MachinePreset,
    /// The hypervisor scheduler.
    pub scheduler: SchedulerSpec,
    /// The DVFS governor; `None` keeps maximum frequency. Ignored
    /// under PAS (which owns DVFS).
    pub governor: Option<GovernorSpec>,
    /// Run length, seconds (full fidelity; `--quick` scales it down).
    pub duration_s: f64,
    /// The VMs.
    pub vms: Vec<VmSpec>,
}

/// A fleet scenario (`"kind": "fleet"`): `size` VMs generated from the
/// run's seed, packed onto Optiplex-shaped hosts by the placement
/// controller, optionally rebalanced by load-triggered migration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// The hypervisor scheduler on every host.
    pub scheduler: SchedulerSpec,
    /// The governor on every host (fleet supports `performance`,
    /// `ondemand`, `stable-ondemand`). Ignored under PAS.
    pub governor: Option<GovernorSpec>,
    /// Fleet run length, seconds (full fidelity).
    pub duration_s: f64,
    /// Number of VMs, generated deterministically from the run seed.
    pub size: usize,
    /// Memory footprints drawn uniformly from these choices, GiB.
    pub mem_gib_choices: Vec<f64>,
    /// Lower bound of the per-VM CPU demand, fraction of one host.
    pub cpu_frac_min: f64,
    /// Upper bound of the per-VM CPU demand, fraction of one host.
    pub cpu_frac_max: f64,
    /// Booked credit = demand × this factor (clamped to the
    /// enforceable `[0.01, 0.95]`); >1 models hosting headroom.
    pub credit_factor: f64,
    /// How VMs are packed onto hosts.
    pub placement: PlacementSpec,
    /// Load-triggered migration watermarks; `None` disables migration.
    pub migration: Option<MigrationSpec>,
    /// Control-epoch length, seconds.
    pub epoch_s: f64,
    /// Empty spare hosts provisioned for the migration controller.
    pub spare_hosts: usize,
    /// Sharded placement: the number of per-zone shard controllers
    /// (see `cluster::shard`). `None` keeps the global single-pass
    /// controller. The count is pure worker partitioning — results
    /// are identical at any value — which is why it is sweepable: the
    /// sweep pins the invariance, not a behaviour change.
    pub shards: Option<usize>,
}

/// Migration watermarks, percent of one host's fmax capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Shed load above this busy percentage.
    pub high_pct: f64,
    /// Destinations must stay under this after admission.
    pub target_pct: f64,
}

impl MigrationSpec {
    /// The cluster crate's trigger.
    #[must_use]
    pub fn trigger(self) -> cluster::MigrationTrigger {
        cluster::MigrationTrigger {
            cpu_high_watermark: self.high_pct / 100.0,
            cpu_target_watermark: self.target_pct / 100.0,
        }
    }
}

impl Default for MigrationSpec {
    /// The default watermarks: shed above 85% busy, admit under 70%
    /// — the single source both the spec parser and the sweep
    /// expander's `migration`/watermark axes fill from.
    fn default() -> Self {
        MigrationSpec {
            high_pct: 85.0,
            target_pct: 70.0,
        }
    }
}

/// The base scenario a campaign sweeps over.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// A single simulated host with explicit VMs.
    Host(HostScenario),
    /// A placed, optionally migrating fleet of hosts.
    Fleet(FleetScenario),
}

impl ScenarioSpec {
    fn parse(v: &Value) -> Result<Self, DeError> {
        let what = "scenario";
        let m = as_map(v, what)?;
        let kind = str_of(req(m, "kind", what)?, "scenario.kind")?;
        let governor = match get(m, "governor") {
            None | Some(Value::Null) => None,
            Some(v) => Some(GovernorSpec::parse(&str_of(v, "scenario.governor")?)?),
        };
        let scheduler = match get(m, "scheduler") {
            Some(v) => SchedulerSpec::parse(&str_of(v, "scenario.scheduler")?)?,
            None => SchedulerSpec::Pas,
        };
        let duration_s = match get(m, "duration_s") {
            Some(v) => num_of(v, "scenario.duration_s")?,
            None => 600.0,
        };
        match kind.as_str() {
            "host" => {
                no_unknown_fields(
                    m,
                    &[
                        "kind",
                        "machine",
                        "scheduler",
                        "governor",
                        "duration_s",
                        "vms",
                    ],
                    what,
                )?;
                let machine = match get(m, "machine") {
                    Some(v) => MachinePreset::parse(&str_of(v, "scenario.machine")?)?,
                    None => MachinePreset::Optiplex755,
                };
                let vms_v = req(m, "vms", what)?;
                let vms_seq = vms_v
                    .as_seq()
                    .ok_or_else(|| DeError("scenario.vms must be a list".to_owned()))?;
                let mut vms = Vec::with_capacity(vms_seq.len());
                for (i, v) in vms_seq.iter().enumerate() {
                    vms.push(VmSpec::parse(v, &format!("scenario.vms[{i}]"))?);
                }
                Ok(ScenarioSpec::Host(HostScenario {
                    machine,
                    scheduler,
                    governor,
                    duration_s,
                    vms,
                }))
            }
            "fleet" => {
                no_unknown_fields(
                    m,
                    &[
                        "kind",
                        "scheduler",
                        "governor",
                        "duration_s",
                        "size",
                        "mem_gib_choices",
                        "cpu_frac_min",
                        "cpu_frac_max",
                        "credit_factor",
                        "placement",
                        "migration",
                        "epoch_s",
                        "spare_hosts",
                        "shards",
                    ],
                    what,
                )?;
                let migration = match get(m, "migration") {
                    None | Some(Value::Null) => None,
                    Some(v) => {
                        let mm = as_map(v, "scenario.migration")?;
                        no_unknown_fields(mm, &["high_pct", "target_pct"], "scenario.migration")?;
                        let defaults = MigrationSpec::default();
                        Some(MigrationSpec {
                            high_pct: match get(mm, "high_pct") {
                                Some(v) => num_of(v, "scenario.migration.high_pct")?,
                                None => defaults.high_pct,
                            },
                            target_pct: match get(mm, "target_pct") {
                                Some(v) => num_of(v, "scenario.migration.target_pct")?,
                                None => defaults.target_pct,
                            },
                        })
                    }
                };
                Ok(ScenarioSpec::Fleet(FleetScenario {
                    scheduler,
                    governor,
                    duration_s,
                    size: usize_of(req(m, "size", what)?, "scenario.size")?,
                    mem_gib_choices: match get(m, "mem_gib_choices") {
                        Some(v) => Deserialize::from_value(v).map_err(|e| {
                            DeError(format!(
                                "scenario.mem_gib_choices must be a list of numbers: {}",
                                e.0
                            ))
                        })?,
                        None => vec![2.0, 4.0, 8.0],
                    },
                    cpu_frac_min: match get(m, "cpu_frac_min") {
                        Some(v) => num_of(v, "scenario.cpu_frac_min")?,
                        None => 0.03,
                    },
                    cpu_frac_max: match get(m, "cpu_frac_max") {
                        Some(v) => num_of(v, "scenario.cpu_frac_max")?,
                        None => 0.10,
                    },
                    credit_factor: match get(m, "credit_factor") {
                        Some(v) => num_of(v, "scenario.credit_factor")?,
                        None => 1.0,
                    },
                    placement: match get(m, "placement") {
                        Some(v) => PlacementSpec::parse(&str_of(v, "scenario.placement")?)?,
                        None => PlacementSpec::FirstFit,
                    },
                    migration,
                    epoch_s: match get(m, "epoch_s") {
                        Some(v) => num_of(v, "scenario.epoch_s")?,
                        None => 30.0,
                    },
                    spare_hosts: match get(m, "spare_hosts") {
                        Some(v) => usize_of(v, "scenario.spare_hosts")?,
                        None => 0,
                    },
                    shards: match get(m, "shards") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(usize_of(v, "scenario.shards")?),
                    },
                }))
            }
            other => Err(DeError(format!(
                "scenario.kind: unknown kind `{other}`; expected `host` or `fleet`"
            ))),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            ScenarioSpec::Host(h) => Value::Map(vec![
                entry("kind", Value::Str("host".to_owned())),
                entry("machine", Value::Str(h.machine.name().to_owned())),
                entry("scheduler", Value::Str(h.scheduler.name().to_owned())),
                entry(
                    "governor",
                    h.governor
                        .map_or(Value::Null, |g| Value::Str(g.name().to_owned())),
                ),
                entry("duration_s", Value::Num(h.duration_s)),
                entry(
                    "vms",
                    Value::Seq(h.vms.iter().map(VmSpec::to_value).collect()),
                ),
            ]),
            ScenarioSpec::Fleet(f) => Value::Map(vec![
                entry("kind", Value::Str("fleet".to_owned())),
                entry("scheduler", Value::Str(f.scheduler.name().to_owned())),
                entry(
                    "governor",
                    f.governor
                        .map_or(Value::Null, |g| Value::Str(g.name().to_owned())),
                ),
                entry("duration_s", Value::Num(f.duration_s)),
                entry("size", Value::Num(f.size as f64)),
                entry("mem_gib_choices", f.mem_gib_choices.to_value()),
                entry("cpu_frac_min", Value::Num(f.cpu_frac_min)),
                entry("cpu_frac_max", Value::Num(f.cpu_frac_max)),
                entry("credit_factor", Value::Num(f.credit_factor)),
                entry("placement", Value::Str(f.placement.name().to_owned())),
                entry(
                    "migration",
                    f.migration.map_or(Value::Null, |mi| {
                        Value::Map(vec![
                            entry("high_pct", Value::Num(mi.high_pct)),
                            entry("target_pct", Value::Num(mi.target_pct)),
                        ])
                    }),
                ),
                entry("epoch_s", Value::Num(f.epoch_s)),
                entry("spare_hosts", Value::Num(f.spare_hosts as f64)),
                entry(
                    "shards",
                    f.shards.map_or(Value::Null, |s| Value::Num(s as f64)),
                ),
            ]),
        }
    }

    /// Validates a *concrete* scenario (after sweep substitution).
    ///
    /// # Errors
    ///
    /// Returns an actionable error naming the offending field.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let check = |ok: bool, msg: String| {
            if ok {
                Ok(())
            } else {
                Err(CampaignError(msg))
            }
        };
        match self {
            ScenarioSpec::Host(h) => {
                check(
                    h.duration_s.is_finite() && h.duration_s > 0.0,
                    format!("scenario.duration_s must be positive, got {}", h.duration_s),
                )?;
                check(
                    !h.vms.is_empty(),
                    "a host scenario needs at least one VM".to_owned(),
                )?;
                for (i, vm) in h.vms.iter().enumerate() {
                    let what = format!("scenario.vms[{i}] ({})", vm.name);
                    check(!vm.name.is_empty(), format!("{what}: empty VM name"))?;
                    check(
                        vm.credit_pct.is_finite() && vm.credit_pct > 0.0 && vm.credit_pct <= 95.0,
                        format!(
                            "{what}: credit_pct must be in (0, 95], got {}",
                            vm.credit_pct
                        ),
                    )?;
                    vm.workload.validate(&what)?;
                }
                for i in 1..h.vms.len() {
                    check(
                        !h.vms[..i].iter().any(|v| v.name == h.vms[i].name),
                        format!("duplicate VM name `{}`", h.vms[i].name),
                    )?;
                }
                Ok(())
            }
            ScenarioSpec::Fleet(f) => {
                check(
                    f.duration_s.is_finite() && f.duration_s > 0.0,
                    format!("scenario.duration_s must be positive, got {}", f.duration_s),
                )?;
                check(
                    f.size >= 1,
                    "scenario.size: a fleet needs at least one VM".to_owned(),
                )?;
                check(
                    !f.mem_gib_choices.is_empty()
                        && f.mem_gib_choices.iter().all(|&g| g.is_finite() && g > 0.0),
                    "scenario.mem_gib_choices must be a non-empty list of positive GiB sizes"
                        .to_owned(),
                )?;
                check(
                    f.cpu_frac_min.is_finite()
                        && f.cpu_frac_max.is_finite()
                        && f.cpu_frac_min > 0.0
                        && f.cpu_frac_min <= f.cpu_frac_max
                        && f.cpu_frac_max <= 0.9,
                    format!(
                        "scenario CPU demand range must satisfy 0 < cpu_frac_min <= \
                         cpu_frac_max <= 0.9, got [{}, {}]",
                        f.cpu_frac_min, f.cpu_frac_max
                    ),
                )?;
                check(
                    f.credit_factor.is_finite() && f.credit_factor > 0.0,
                    format!(
                        "scenario.credit_factor must be positive, got {}",
                        f.credit_factor
                    ),
                )?;
                check(
                    f.epoch_s.is_finite() && f.epoch_s > 0.0,
                    format!("scenario.epoch_s must be positive, got {}", f.epoch_s),
                )?;
                // The fleet runs on a 1 µs clock: an epoch that rounds
                // to zero microseconds would never advance it.
                check(
                    !SimDuration::from_secs_f64(f.epoch_s).is_zero(),
                    format!(
                        "scenario.epoch_s must round to at least 1 µs on the simulated \
                         clock, got {}",
                        f.epoch_s
                    ),
                )?;
                if let Some(s) = f.shards {
                    check(
                        s >= 1,
                        "scenario.shards must be at least 1 (or null for the \
                         global controller)"
                            .to_owned(),
                    )?;
                }
                if let Some(g) = f.governor {
                    if f.scheduler != SchedulerSpec::Pas {
                        g.fleet().map(|_| ())?;
                    }
                }
                if let Some(mi) = f.migration {
                    check(
                        mi.high_pct.is_finite()
                            && mi.target_pct.is_finite()
                            && mi.target_pct > 0.0
                            && mi.target_pct < mi.high_pct
                            && mi.high_pct <= 100.0,
                        format!(
                            "scenario.migration watermarks must satisfy \
                             0 < target_pct < high_pct <= 100, got target {} / high {}",
                            mi.target_pct, mi.high_pct
                        ),
                    )?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep axes and seeds.
// ---------------------------------------------------------------------------

/// A value a sweep axis can take: a number or a name.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A numeric setting (credit, duration, size, watermark…).
    Num(f64),
    /// A named setting (scheduler, governor, machine, placement…).
    Str(String),
}

impl AxisValue {
    /// Renders the value as it appears in labels and CSV cells.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            AxisValue::Num(n) => metrics::export::exact_num(*n),
            AxisValue::Str(s) => s.clone(),
        }
    }
}

impl Serialize for AxisValue {
    fn to_value(&self) -> Value {
        match self {
            AxisValue::Num(n) => Value::Num(*n),
            AxisValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl Deserialize for AxisValue {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(n) => Ok(AxisValue::Num(*n)),
            Value::Str(s) => Ok(AxisValue::Str(s.clone())),
            _ => Err(DeError(
                "sweep values must be numbers or strings".to_owned(),
            )),
        }
    }
}

/// One sweep axis: a parameter name and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The swept parameter (see [`crate::sweep`] for the vocabulary).
    pub param: String,
    /// The values, in sweep order.
    pub values: Vec<AxisValue>,
}

impl SweepAxis {
    fn parse(v: &Value, what: &str) -> Result<Self, DeError> {
        let m = as_map(v, what)?;
        no_unknown_fields(m, &["param", "values"], what)?;
        let values_v = req(m, "values", what)?;
        let seq = values_v
            .as_seq()
            .ok_or_else(|| DeError(format!("{what}.values must be a list")))?;
        let mut values = Vec::with_capacity(seq.len());
        for v in seq {
            values.push(AxisValue::from_value(v)?);
        }
        Ok(SweepAxis {
            param: str_of(req(m, "param", what)?, &format!("{what}.param"))?,
            values,
        })
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            entry("param", Value::Str(self.param.clone())),
            entry("values", self.values.to_value()),
        ])
    }
}

/// The replication plan: each design point runs under
/// `base, base+1, …, base+replicates-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSpec {
    /// First seed.
    pub base: u64,
    /// Number of seeds (R); must be at least 1.
    pub replicates: usize,
}

// ---------------------------------------------------------------------------
// The campaign itself.
// ---------------------------------------------------------------------------

/// A whole campaign: base scenario × sweep axes × seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (artefacts are `<name>-summary.{csv,json}` …).
    pub name: String,
    /// The base scenario every design point starts from.
    pub scenario: ScenarioSpec,
    /// Sweep axes; the cross-product defines the design points. Empty
    /// means a single design point (the base scenario).
    pub sweep: Vec<SweepAxis>,
    /// The replication plan.
    pub seeds: SeedSpec,
    /// Hard cap on the expanded run count. Expansion past this is an
    /// error (explicit, never silent truncation).
    pub max_runs: usize,
}

impl CampaignSpec {
    /// Parses *and validates* a campaign from JSON text: the spec is
    /// expanded once (dry-run) so unknown sweep parameters, empty
    /// axes, out-of-range settings and over-cap cross-products are
    /// all reported here rather than mid-run.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] with an actionable message.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let spec: CampaignSpec =
            serde_json::from_str(text).map_err(|e| CampaignError(e.to_string()))?;
        crate::sweep::expand(&spec)?;
        Ok(spec)
    }
}

impl Serialize for CampaignSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            entry("name", Value::Str(self.name.clone())),
            entry("scenario", self.scenario.to_value()),
            entry(
                "sweep",
                Value::Seq(self.sweep.iter().map(SweepAxis::to_value).collect()),
            ),
            entry(
                "seeds",
                Value::Map(vec![
                    entry("base", Value::Num(self.seeds.base as f64)),
                    entry("replicates", Value::Num(self.seeds.replicates as f64)),
                ]),
            ),
            entry("max_runs", Value::Num(self.max_runs as f64)),
        ])
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let what = "campaign spec";
        let m = as_map(v, what)?;
        no_unknown_fields(m, &["name", "scenario", "sweep", "seeds", "max_runs"], what)?;
        let name = str_of(req(m, "name", what)?, "name")?;
        // The name prefixes artefact filenames under --out, so it must
        // not be able to escape the artefact directory.
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            || name.chars().all(|c| c == '.')
        {
            return Err(DeError(format!(
                "campaign name `{name}` must be non-empty and use only \
                 [A-Za-z0-9._-] (it names the artefact files)"
            )));
        }
        let scenario = ScenarioSpec::parse(req(m, "scenario", what)?)?;
        let sweep = match get(m, "sweep") {
            None | Some(Value::Null) => Vec::new(),
            Some(v) => {
                let seq = v
                    .as_seq()
                    .ok_or_else(|| DeError("sweep must be a list of axes".to_owned()))?;
                let mut axes = Vec::with_capacity(seq.len());
                for (i, a) in seq.iter().enumerate() {
                    axes.push(SweepAxis::parse(a, &format!("sweep[{i}]"))?);
                }
                axes
            }
        };
        let seeds = match get(m, "seeds") {
            None => SeedSpec {
                base: DEFAULT_SEED_BASE,
                replicates: 1,
            },
            Some(v) => {
                let sm = as_map(v, "seeds")?;
                no_unknown_fields(sm, &["base", "replicates"], "seeds")?;
                SeedSpec {
                    base: match get(sm, "base") {
                        Some(v) => u64_of(v, "seeds.base")?,
                        None => DEFAULT_SEED_BASE,
                    },
                    replicates: usize_of(req(sm, "replicates", "seeds")?, "seeds.replicates")?,
                }
            }
        };
        let max_runs = match get(m, "max_runs") {
            Some(v) => usize_of(v, "max_runs")?,
            None => DEFAULT_MAX_RUNS,
        };
        Ok(CampaignSpec {
            name,
            scenario,
            sweep,
            seeds,
            max_runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest valid host campaign.
    pub(crate) const MINIMAL_HOST: &str = r#"{
        "name": "mini",
        "scenario": {
            "kind": "host",
            "vms": [
                { "name": "v20", "credit_pct": 20,
                  "workload": { "kind": "fluid", "load_pct": 100 } }
            ]
        },
        "seeds": { "replicates": 1 }
    }"#;

    #[test]
    fn minimal_host_spec_parses_with_defaults() {
        let spec = CampaignSpec::from_json(MINIMAL_HOST).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.max_runs, DEFAULT_MAX_RUNS);
        assert_eq!(spec.seeds.base, DEFAULT_SEED_BASE);
        match &spec.scenario {
            ScenarioSpec::Host(h) => {
                assert_eq!(h.machine, MachinePreset::Optiplex755);
                assert_eq!(h.scheduler, SchedulerSpec::Pas);
                assert_eq!(h.governor, None);
                assert_eq!(h.duration_s, 600.0);
            }
            ScenarioSpec::Fleet(_) => panic!("expected host"),
        }
    }

    /// A small PAS fleet whose epoch length is substituted per test.
    fn pas_fleet_with_epoch(epoch_s: &str) -> String {
        format!(
            r#"{{
                "name": "tiny-epoch",
                "scenario": {{
                    "kind": "fleet",
                    "scheduler": "pas",
                    "duration_s": 600,
                    "size": 4,
                    "epoch_s": {epoch_s}
                }},
                "seeds": {{ "replicates": 1 }}
            }}"#
        )
    }

    #[test]
    fn sub_microsecond_epoch_is_rejected_instead_of_hanging() {
        // 1e-7 s rounds to a zero-length epoch on the 1 µs clock; the
        // run would spin through millions of empty epochs forever.
        let err = CampaignSpec::from_json(&pas_fleet_with_epoch("1e-7")).unwrap_err();
        assert!(err.0.contains("scenario.epoch_s"), "{err}");
        // A spec assembled in code is refused by the run itself.
        let mut spec = CampaignSpec::from_json(&pas_fleet_with_epoch("30")).unwrap();
        if let ScenarioSpec::Fleet(f) = &mut spec.scenario {
            f.epoch_s = 1e-7;
        }
        let err = crate::run(&spec, true, 1).unwrap_err();
        assert!(err.0.contains("scenario.epoch_s"), "{err}");
        // One microsecond is the shortest epoch the clock can step.
        assert!(CampaignSpec::from_json(&pas_fleet_with_epoch("1e-6")).is_ok());
    }

    #[test]
    fn unknown_scheduler_is_an_actionable_error() {
        let bad = MINIMAL_HOST.replace(
            "\"kind\": \"host\"",
            "\"kind\": \"host\", \"scheduler\": \"cfs\"",
        );
        let err = CampaignSpec::from_json(&bad).unwrap_err();
        assert!(err.0.contains("unknown scheduler `cfs`"), "{err}");
        assert!(err.0.contains("credit"), "lists alternatives: {err}");
    }

    #[test]
    fn unknown_field_is_rejected_with_candidates() {
        let bad = MINIMAL_HOST.replace("\"name\": \"mini\"", "\"name\": \"mini\", \"sweeps\": []");
        let err = CampaignSpec::from_json(&bad).unwrap_err();
        assert!(err.0.contains("unknown field `sweeps`"), "{err}");
        assert!(err.0.contains("sweep"), "suggests the real field: {err}");
    }

    #[test]
    fn path_escaping_campaign_names_are_rejected() {
        // The name prefixes artefact filenames; separators and
        // dot-only names must not escape the --out directory.
        for bad_name in ["../../tmp/evil", "a/b", "..", "with space"] {
            let bad =
                MINIMAL_HOST.replace("\"name\": \"mini\"", &format!("\"name\": \"{bad_name}\""));
            let err = CampaignSpec::from_json(&bad).unwrap_err();
            assert!(err.0.contains("A-Za-z0-9"), "{bad_name}: {err}");
        }
        // Ordinary names with dots/dashes stay fine.
        let ok = MINIMAL_HOST.replace("\"name\": \"mini\"", "\"name\": \"v1.2_sweep-a\"");
        assert!(CampaignSpec::from_json(&ok).is_ok());
    }

    #[test]
    fn zero_replicates_is_rejected() {
        let bad = MINIMAL_HOST.replace("\"replicates\": 1", "\"replicates\": 0");
        let err = CampaignSpec::from_json(&bad).unwrap_err();
        assert!(err.0.contains("replicates"), "{err}");
    }

    #[test]
    fn credit_out_of_range_is_rejected() {
        let bad = MINIMAL_HOST.replace("\"credit_pct\": 20", "\"credit_pct\": 120");
        let err = CampaignSpec::from_json(&bad).unwrap_err();
        assert!(err.0.contains("credit_pct must be in (0, 95]"), "{err}");
    }

    #[test]
    fn vocabulary_names_round_trip() {
        for name in MachinePreset::NAMES {
            assert_eq!(MachinePreset::parse(name).unwrap().name(), name);
        }
        for name in SchedulerSpec::NAMES {
            assert_eq!(SchedulerSpec::parse(name).unwrap().name(), name);
        }
        for name in GovernorSpec::NAMES {
            assert_eq!(GovernorSpec::parse(name).unwrap().name(), name);
        }
        for name in PlacementSpec::NAMES {
            assert_eq!(PlacementSpec::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn fleet_spec_parses_and_validates_watermarks() {
        let json = r#"{
            "name": "fleet",
            "scenario": {
                "kind": "fleet",
                "scheduler": "credit",
                "governor": "performance",
                "size": 8,
                "migration": { "high_pct": 50, "target_pct": 80 }
            },
            "seeds": { "replicates": 2 }
        }"#;
        let err = CampaignSpec::from_json(json).unwrap_err();
        assert!(err.0.contains("target_pct < high_pct"), "{err}");
    }

    #[test]
    fn fleet_rejects_unsupported_governor() {
        let json = r#"{
            "name": "fleet",
            "scenario": {
                "kind": "fleet",
                "scheduler": "credit",
                "governor": "conservative",
                "size": 4
            },
            "seeds": { "replicates": 1 }
        }"#;
        let err = CampaignSpec::from_json(json).unwrap_err();
        assert!(err.0.contains("fleet scenarios support governors"), "{err}");
    }
}
