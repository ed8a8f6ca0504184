//! Fixtures shared by the root integration suites.

use pas_repro::cluster::VmSpec;

/// A mixed fleet population: saturating, trickle, stepped-surge and
/// fully idle VMs, so that some hosts stay busy while others go
/// quiescent during a run.
pub fn mixed_fleet_specs() -> Vec<VmSpec> {
    let mut specs: Vec<VmSpec> = (0..6)
        .map(|i| VmSpec::new(format!("busy{i}"), 4.0, 0.25))
        .collect();
    specs.extend(
        (0..6).map(|i| VmSpec::new(format!("trickle{i}"), 2.0, 0.002).with_credit_frac(0.2)),
    );
    specs.push(VmSpec::new("surge", 4.0, 0.05).with_steps(vec![(60.0, 0.40), (90.0, 0.05)]));
    specs.extend((0..5).map(|i| VmSpec::new(format!("idle{i}"), 2.0, 0.0).with_credit_frac(0.1)));
    specs
}
