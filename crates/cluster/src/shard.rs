//! Sharded placement: per-zone shard controllers under a coordinator.
//!
//! The global controller in [`crate::placement`] sorts and packs the
//! whole spec list at once — fine at tens of hosts, a scaling wall at
//! datacenter population. This module splits the work the way a real
//! datacenter does:
//!
//! 1. VMs hash deterministically (FNV-1a over the VM name) onto a
//!    **fixed universe of virtual zones** ([`ShardConfig::virtual_zones`]),
//! 2. each **shard controller** owns a contiguous range of zones and
//!    packs every zone *independently* with the configured first-fit /
//!    best-fit-decreasing policy,
//! 3. the **coordinator** concatenates the zones' hosts in zone order
//!    and serially re-places any overflow a zone could not hold (only
//!    possible under [`ShardConfig::max_hosts_per_zone`]) — the
//!    spill path between zones.
//!
//! Because the zone universe is fixed and zones are packed
//! independently, the shard count is *pure worker partitioning*: the
//! resulting [`Placement`] is identical for 1, 4 or 16 shards, which
//! is exactly the property `tests/determinism.rs` pins. The trade
//! against the global controller is the classic sharding one: each
//! zone packs only its own VMs, so a sharded placement may open more
//! hosts than a global pass (bounded by one partially-filled host per
//! zone), in exchange for packing work that parallelises and never
//! sorts more than one zone's specs at a time.

use crate::exec;
use crate::placement::{HostCapacity, Placement, PlacementPolicy, VmSpec};

/// Default size of the fixed virtual-zone universe.
///
/// Large enough that 16 shard controllers still own 4 zones each,
/// small enough that near-empty zones stay cheap at small populations.
pub const DEFAULT_VIRTUAL_ZONES: usize = 64;

/// How the placement layer is sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shard controllers packing zones concurrently. Affects
    /// wall-clock only — never the resulting placement.
    pub shards: usize,
    /// Size of the fixed virtual-zone universe VM names hash onto.
    /// Changing this changes the placement; changing
    /// [`ShardConfig::shards`] does not.
    pub virtual_zones: usize,
    /// Per-zone host budget. A zone that would need more hosts spills
    /// the VMs it cannot hold to the coordinator, which re-places them
    /// across all zones. `None` means every zone grows freely and
    /// nothing ever spills.
    pub max_hosts_per_zone: Option<usize>,
}

impl ShardConfig {
    /// `shards` shard controllers over the default zone universe, no
    /// per-zone host cap.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard controller is required");
        ShardConfig {
            shards,
            virtual_zones: DEFAULT_VIRTUAL_ZONES,
            max_hosts_per_zone: None,
        }
    }

    /// Overrides the virtual-zone universe size.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is zero.
    #[must_use]
    pub fn with_virtual_zones(mut self, zones: usize) -> Self {
        assert!(zones >= 1, "at least one virtual zone is required");
        self.virtual_zones = zones;
        self
    }

    /// Caps every zone at `cap` hosts; overflow spills to the
    /// coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_zone_host_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "a zone must be allowed at least one host");
        self.max_hosts_per_zone = Some(cap);
        self
    }
}

/// The 64-bit FNV-1a hash of `bytes`.
///
/// Pure and stable across processes and machines: zone hashing uses it
/// for reproducible placements, and the golden-digest test uses it to
/// fingerprint artefacts.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The virtual zone a VM name hashes to (FNV-1a 64 modulo `zones`).
///
/// Pure and stable: the same name maps to the same zone in every
/// process, so placements are reproducible across runs and machines.
///
/// # Panics
///
/// Panics if `zones` is zero.
#[must_use]
pub fn zone_of(name: &str, zones: usize) -> usize {
    assert!(zones >= 1, "at least one virtual zone is required");
    (fnv1a64(name.as_bytes()) % zones as u64) as usize
}

/// One zone's packing: open hosts (with booked totals) plus the spec
/// indices that did not fit under the zone's host cap.
struct ZonePacking {
    /// `(mem_used, cpu_used, spec indices)` per open host.
    hosts: Vec<(f64, f64, Vec<usize>)>,
    /// Spilled spec indices, in packing (decreasing-memory) order.
    overflow: Vec<usize>,
}

/// Packs one zone's members — the local half of a shard controller.
/// Identical fit/tie rules to [`PlacementPolicy::place`], restricted
/// to the zone and bounded by the optional host cap.
fn pack_zone(
    policy: PlacementPolicy,
    specs: &[VmSpec],
    members: &[usize],
    capacity: HostCapacity,
    host_cap: Option<usize>,
) -> ZonePacking {
    let mut order: Vec<usize> = members.to_vec();
    order.sort_by(|&a, &b| f64::total_cmp(&specs[b].mem_gib, &specs[a].mem_gib));

    let mut hosts: Vec<(f64, f64, Vec<usize>)> = Vec::new();
    let mut overflow = Vec::new();
    for idx in order {
        let need_mem = specs[idx].mem_gib;
        let need_cpu = specs[idx].cpu_frac;
        let may_open = host_cap.is_none_or(|cap| hosts.len() < cap);
        match find_target(policy, &mut hosts, capacity, need_mem, need_cpu) {
            Some(host) => {
                host.0 += need_mem;
                host.1 += need_cpu;
                host.2.push(idx);
            }
            None if may_open => hosts.push((need_mem, need_cpu, vec![idx])),
            None => overflow.push(idx),
        }
    }
    ZonePacking { hosts, overflow }
}

/// The open host `(mem, cpu, vms)` the policy would place into, if
/// any fits — the shared fit/tie kernel of zone packing and
/// coordinator spill.
fn find_target(
    policy: PlacementPolicy,
    hosts: &mut [(f64, f64, Vec<usize>)],
    capacity: HostCapacity,
    need_mem: f64,
    need_cpu: f64,
) -> Option<&mut (f64, f64, Vec<usize>)> {
    let fits = |mem: f64, cpu: f64| {
        mem + need_mem <= capacity.mem_gib + 1e-12 && cpu + need_cpu <= capacity.cpu_frac + 1e-12
    };
    match policy {
        PlacementPolicy::FirstFit => hosts.iter_mut().find(|h| fits(h.0, h.1)),
        PlacementPolicy::BestFit => hosts.iter_mut().filter(|h| fits(h.0, h.1)).min_by(|a, b| {
            let slack = |h: &(f64, f64, Vec<usize>)| {
                (capacity.mem_gib - h.0 - need_mem) / capacity.mem_gib
                    + (capacity.cpu_frac - h.1 - need_cpu) / capacity.cpu_frac
            };
            f64::total_cmp(&slack(a), &slack(b))
        }),
    }
}

/// A finished sharded placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedPlacement {
    /// The host bins, zone-major: every zone's hosts in zone order,
    /// then any hosts the coordinator opened for spilled VMs.
    pub placement: Placement,
    /// The zone each host belongs to; `None` for coordinator hosts.
    pub zone_of_host: Vec<Option<usize>>,
    /// Spec indices the coordinator re-placed after zone overflow, in
    /// spill order.
    pub spilled: Vec<usize>,
}

impl ShardedPlacement {
    /// `true` if spec index `idx` went through the coordinator's spill
    /// path instead of its home zone (the `spilled` flag on `placement`
    /// trace events).
    #[must_use]
    pub fn is_spilled(&self, idx: usize) -> bool {
        self.spilled.contains(&idx)
    }
}

/// Runs the sharded placement: hash to zones, pack each zone on its
/// shard controller, spill overflow through the coordinator.
///
/// Shard controllers run on `cfg.shards` worker threads via
/// [`exec::parallel_map`], whose index-ordered results make the
/// concatenation — and therefore the returned placement — independent
/// of both thread scheduling and the shard count itself.
#[must_use]
pub fn place_sharded(
    policy: PlacementPolicy,
    specs: &[VmSpec],
    capacity: HostCapacity,
    cfg: &ShardConfig,
) -> ShardedPlacement {
    let zones = cfg.virtual_zones;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); zones];
    for (i, spec) in specs.iter().enumerate() {
        members[zone_of(&spec.name, zones)].push(i);
    }

    // Shard s owns the contiguous zone range [s·Z/S, (s+1)·Z/S): a
    // fixed partition of the fixed universe. Each shard packs its
    // zones independently, so the per-zone results — and hence
    // everything below — cannot depend on which shard owned a zone.
    let shards = cfg.shards.min(zones).max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..shards)
        .map(|s| (s * zones / shards)..((s + 1) * zones / shards))
        .collect();
    let members_ref = &members;
    let packed: Vec<Vec<ZonePacking>> = exec::parallel_map(shards, ranges, |_, range| {
        range
            .map(|z| {
                pack_zone(
                    policy,
                    specs,
                    &members_ref[z],
                    capacity,
                    cfg.max_hosts_per_zone,
                )
            })
            .collect()
    });

    // Coordinator: concatenate zone-major, then serially re-place the
    // overflow (zone order, packing order within a zone) across every
    // open host, opening coordinator hosts when nothing fits.
    let mut hosts: Vec<(f64, f64, Vec<usize>)> = Vec::new();
    let mut zone_of_host: Vec<Option<usize>> = Vec::new();
    let mut spilled = Vec::new();
    let mut zone = 0usize;
    for shard in packed {
        for packing in shard {
            zone_of_host.extend(std::iter::repeat_n(Some(zone), packing.hosts.len()));
            hosts.extend(packing.hosts);
            spilled.extend(packing.overflow);
            zone += 1;
        }
    }
    for &idx in &spilled {
        let need_mem = specs[idx].mem_gib;
        let need_cpu = specs[idx].cpu_frac;
        match find_target(policy, &mut hosts, capacity, need_mem, need_cpu) {
            Some(host) => {
                host.0 += need_mem;
                host.1 += need_cpu;
                host.2.push(idx);
            }
            None => {
                hosts.push((need_mem, need_cpu, vec![idx]));
                zone_of_host.push(None);
            }
        }
    }

    ShardedPlacement {
        placement: Placement {
            hosts: hosts.into_iter().map(|(_, _, vms)| vms).collect(),
        },
        zone_of_host,
        spilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_fleet(n: usize) -> Vec<VmSpec> {
        (0..n)
            .map(|i| {
                let mem = [2.0, 4.0, 8.0][i % 3];
                VmSpec::new(format!("vm{i}"), mem, 0.03 + 0.01 * (i % 5) as f64)
            })
            .collect()
    }

    #[test]
    fn zone_hash_is_stable_and_in_range() {
        for zones in [1, 7, 64] {
            for i in 0..100 {
                let z = zone_of(&format!("vm{i}"), zones);
                assert!(z < zones);
                assert_eq!(z, zone_of(&format!("vm{i}"), zones), "stable");
            }
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_vm_is_placed_exactly_once() {
        let specs = mixed_fleet(200);
        let cfg = ShardConfig::new(4).with_zone_host_cap(2);
        let sp = place_sharded(
            PlacementPolicy::FirstFit,
            &specs,
            HostCapacity::optiplex_defaults(),
            &cfg,
        );
        let mut seen: Vec<usize> = sp.placement.hosts.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn shard_count_never_changes_the_placement() {
        let specs = mixed_fleet(300);
        let cap = HostCapacity::optiplex_defaults();
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::BestFit] {
            let base = place_sharded(policy, &specs, cap, &ShardConfig::new(1));
            for shards in [2, 4, 16, 64, 1000] {
                let other = place_sharded(policy, &specs, cap, &ShardConfig::new(shards));
                assert_eq!(base, other, "{policy:?} with {shards} shards");
            }
        }
    }

    #[test]
    fn single_zone_matches_the_global_controller() {
        let specs = mixed_fleet(60);
        let cap = HostCapacity::optiplex_defaults();
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::BestFit] {
            let global = policy.place(&specs, cap);
            let sharded = place_sharded(
                policy,
                &specs,
                cap,
                &ShardConfig::new(3).with_virtual_zones(1),
            );
            assert_eq!(sharded.placement, global, "{policy:?}");
            assert!(sharded.spilled.is_empty());
        }
    }

    #[test]
    fn capacity_is_respected_on_every_host() {
        let specs = mixed_fleet(500);
        let cap = HostCapacity::optiplex_defaults();
        let sp = place_sharded(
            PlacementPolicy::BestFit,
            &specs,
            cap,
            &ShardConfig::new(8).with_zone_host_cap(1),
        );
        for h in 0..sp.placement.host_count() {
            assert!(sp.placement.mem_used(&specs, h) <= cap.mem_gib + 1e-9);
            assert!(sp.placement.cpu_used(&specs, h) <= cap.cpu_frac + 1e-9);
        }
        assert!(!sp.spilled.is_empty(), "a 1-host cap must spill");
    }

    #[test]
    fn zone_host_cap_bounds_every_zone() {
        let specs = mixed_fleet(400);
        let cfg = ShardConfig::new(4).with_zone_host_cap(2);
        let sp = place_sharded(
            PlacementPolicy::FirstFit,
            &specs,
            HostCapacity::optiplex_defaults(),
            &cfg,
        );
        let mut per_zone = vec![0usize; cfg.virtual_zones];
        for z in sp.zone_of_host.iter().flatten() {
            per_zone[*z] += 1;
        }
        assert!(per_zone.iter().all(|&n| n <= 2), "{per_zone:?}");
    }

    #[test]
    fn no_cap_means_no_spill() {
        let specs = mixed_fleet(150);
        let sp = place_sharded(
            PlacementPolicy::FirstFit,
            &specs,
            HostCapacity::optiplex_defaults(),
            &ShardConfig::new(4),
        );
        assert!(sp.spilled.is_empty());
        assert!(sp.zone_of_host.iter().all(Option::is_some));
    }

    #[test]
    fn hosts_are_zone_major() {
        let specs = mixed_fleet(120);
        let sp = place_sharded(
            PlacementPolicy::FirstFit,
            &specs,
            HostCapacity::optiplex_defaults(),
            &ShardConfig::new(4),
        );
        let zones: Vec<usize> = sp.zone_of_host.iter().map(|z| z.unwrap()).collect();
        let mut sorted = zones.clone();
        sorted.sort_unstable();
        assert_eq!(zones, sorted, "zone indices are non-decreasing");
    }
}
