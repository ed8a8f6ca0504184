//! The cluster layer: fleets of simulated hosts above the single-host
//! scheduler.
//!
//! The paper's Section 2.3 argues that consolidation is *memory-bound*
//! — VMs need physical memory even when CPU-idle, so a consolidator
//! fills hosts' memory long before their CPU, and DVFS/PAS still pays
//! off on every active host. This crate turns that argument into a
//! running system:
//!
//! * [`placement`] — a global placement controller: first-fit and
//!   best-fit decreasing over **two** dimensions (memory and CPU),
//!   generalising the ad-hoc memory packing of the consolidation
//!   experiment,
//! * [`migration`] — load-triggered VM live migration: an overload
//!   trigger plus a pre-copy cost model (copy time, blackout, energy),
//! * [`fleet`] — [`fleet::Fleet`] owns a set of [`hypervisor::host::Host`]s,
//!   advances them in lock-step control epochs, migrates VMs off
//!   overloaded hosts, and aggregates fleet-wide energy, SLA and
//!   migration accounting into [`metrics`] series,
//! * [`exec`] — the deterministic parallel executor: scoped worker
//!   threads with index-ordered results, so a fleet (or a batch of
//!   independent experiments) simulates concurrently yet produces
//!   byte-identical output to a serial run,
//! * [`shard`] — datacenter-scale placement: VMs hash onto a fixed
//!   virtual-zone universe, per-zone shard controllers pack locally
//!   and a coordinator re-places overflow between zones. The shard
//!   count is pure worker partitioning, so placements are identical
//!   at any shard count.
//!
//! Single-host simulations stay single-threaded (bit-for-bit
//! reproducibility); all parallelism lives *across* hosts and
//! experiment runs.
//!
//! # Example: pack a fleet, run it, read the bill
//!
//! ```
//! use cluster::fleet::{Fleet, FleetConfig};
//! use cluster::placement::{PlacementPolicy, VmSpec};
//!
//! // Twelve 4-GiB, ~5%-CPU VMs — the paper's underutilized tenants.
//! let specs: Vec<VmSpec> = (0..12)
//!     .map(|i| VmSpec::new(format!("vm{i}"), 4.0, 0.05))
//!     .collect();
//! let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
//! // Memory fills the 16-GiB hosts long before CPU does:
//! assert_eq!(fleet.host_count(), 3);
//! fleet.run_epochs(4, 2); // 4 control epochs on 2 worker threads
//! let totals = fleet.totals();
//! assert!(totals.energy_j > 0.0);
//! assert!(totals.sla_ratio > 0.9, "entitlements met: {}", totals.sla_ratio);
//! # let _ = PlacementPolicy::BestFit;
//! ```

#![deny(missing_docs)]

pub mod exec;
pub mod fleet;
pub mod migration;
pub mod placement;
pub mod shard;

pub use exec::parallel_map;
pub use fleet::{Fleet, FleetConfig, FleetGovernor, FleetTotals};
pub use migration::{MigrationCostModel, MigrationRecord, MigrationTrigger};
pub use placement::{HostCapacity, Placement, PlacementPolicy, VmSpec};
pub use shard::{fnv1a64, place_sharded, zone_of, ShardConfig, ShardedPlacement};
