//! Property-based tests of the scheduler guarantees, run on the full
//! host loop with randomized VM populations.

use hypervisor::host::{HostConfig, SchedulerKind};
use hypervisor::vm::{SedfParams, VmConfig, VmId};
use hypervisor::work::ConstantDemand;
use pas_core::Credit;
use proptest::prelude::*;
use simkernel::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SEDF's reservation guarantee: a thrashing VM with slice s and
    /// period p receives at least s/p of the CPU, whatever competes
    /// with it.
    #[test]
    fn sedf_guarantee_holds_under_competition(
        slice_ms in 5u64..40,
        competitors in 1usize..4,
    ) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Sedf { extra: false }).build();
        let thrash = host.fmax_mcps();
        let guaranteed = host.add_vm(
            VmConfig::new("reserved", Credit::percent(10.0)).with_sedf(SedfParams {
                slice: SimDuration::from_millis(slice_ms),
                period: SimDuration::from_millis(100),
                extra: false,
            }),
            Box::new(ConstantDemand::new(thrash)),
        );
        for i in 0..competitors {
            host.add_vm(
                VmConfig::new(format!("noise{i}"), Credit::percent(30.0)).with_sedf(SedfParams {
                    slice: SimDuration::from_millis(25),
                    period: SimDuration::from_millis(100),
                    extra: true,
                }),
                Box::new(ConstantDemand::new(thrash)),
            );
        }
        host.run_for(SimDuration::from_secs(30));
        let got = host.stats().vm_busy_fraction(guaranteed);
        let want = slice_ms as f64 / 100.0;
        prop_assert!(
            got >= want - 0.015,
            "reserved VM got {got}, guaranteed {want} with {competitors} competitors"
        );
    }

    /// Credit2 long-run shares are weight-proportional on a live host.
    #[test]
    fn credit2_shares_follow_weights(w0 in 10u32..90, w1 in 10u32..90) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit2).build();
        let thrash = host.fmax_mcps();
        host.add_vm(
            VmConfig::new("a", Credit::percent(f64::from(w0))).with_weight(w0),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.add_vm(
            VmConfig::new("b", Credit::percent(f64::from(w1))).with_weight(w1),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(30));
        let b0 = host.stats().vm_busy_fraction(VmId(0));
        let b1 = host.stats().vm_busy_fraction(VmId(1));
        let want0 = f64::from(w0) / f64::from(w0 + w1);
        prop_assert!((b0 / (b0 + b1) - want0).abs() < 0.08,
            "weights {w0}:{w1} gave shares {b0:.3}:{b1:.3}");
    }

    /// Work conservation: with at least one thrashing uncapped VM the
    /// processor never idles, under any scheduler.
    #[test]
    fn work_conservation_with_uncapped_vm(extra_vms in 0usize..3) {
        for kind in [
            SchedulerKind::Credit,
            SchedulerKind::Credit2,
            SchedulerKind::Sedf { extra: true },
        ] {
            let mut host = HostConfig::optiplex_defaults(kind).build();
            let thrash = host.fmax_mcps();
            host.add_vm(
                VmConfig::new("greedy", Credit::ZERO), // uncapped
                Box::new(ConstantDemand::new(thrash)),
            );
            for i in 0..extra_vms {
                host.add_vm(
                    VmConfig::new(format!("vm{i}"), Credit::percent(10.0)),
                    Box::new(ConstantDemand::new(0.05 * thrash)),
                );
            }
            // 30 s horizon: SEDF spends its first period (100 ms)
            // initialising deadlines, a startup transient that must
            // not count against steady-state work conservation.
            host.run_for(SimDuration::from_secs(30));
            let busy = host.stats().global_busy_fraction();
            prop_assert!(busy > 0.995, "{kind:?}: busy {busy} with an uncapped thrasher");
        }
    }

    /// SMT host conservation: for any booking mix on sibling threads,
    /// total delivered capacity never exceeds the SMT aggregate
    /// envelope, and an *aware* host never delivers less than a
    /// *naive* one to any VM (the compensation only adds capacity).
    #[test]
    fn smt_host_respects_aggregate_envelope(
        book0 in 5.0f64..95.0,
        book1 in 5.0f64..95.0,
    ) {
        use cpumodel::smt::SmtSpec;
        use hypervisor::smt::{SmtAwareness, SmtHost, ThreadId};

        let run = |awareness| {
            let mut host = SmtHost::new(
                &cpumodel::machines::optiplex_755(),
                SmtSpec::intel_typical(),
                awareness,
            );
            let thrash = host.fmax_mcps();
            let a = host.add_vm(
                VmConfig::new("a", Credit::percent(book0)),
                Box::new(ConstantDemand::new(thrash)),
                ThreadId(0),
            );
            let b = host.add_vm(
                VmConfig::new("b", Credit::percent(book1)),
                Box::new(ConstantDemand::new(thrash)),
                ThreadId(1),
            );
            host.run_for(SimDuration::from_secs(30));
            (host.vm_absolute_fraction(a), host.vm_absolute_fraction(b))
        };
        let (na, nb) = run(SmtAwareness::Naive);
        let (aa, ab) = run(SmtAwareness::Aware);
        prop_assert!(na + nb <= 1.25 + 0.02, "naive total {} over envelope", na + nb);
        prop_assert!(aa + ab <= 1.25 + 0.02, "aware total {} over envelope", aa + ab);
        // Awareness dominates per-VM only while the compensation fits
        // under the wall clock (booked / 0.625 ≤ 100%). Over-committed
        // bookings clamp at 100%, raising the overlap for everyone —
        // there the envelope bound above is the only guarantee.
        if book0 <= 60.0 && book1 <= 60.0 {
            prop_assert!(aa >= na - 0.02, "aware a {aa} below naive {na}");
            prop_assert!(ab >= nb - 0.02, "aware b {ab} below naive {nb}");
        }
    }

    /// VMs added mid-run are scheduled and respect their caps.
    #[test]
    fn vm_added_mid_run_respects_cap(cap_pct in 10.0f64..60.0) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let thrash = host.fmax_mcps();
        host.add_vm(
            VmConfig::new("first", Credit::percent(30.0)),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(10));
        let late = host.add_vm(
            VmConfig::new("late", Credit::percent(cap_pct)),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(20));
        // The late VM ran for 2/3 of the horizon at its cap.
        let busy = host.stats().vm_busy_fraction(late);
        let want = cap_pct / 100.0 * (20.0 / 30.0);
        prop_assert!((busy - want).abs() < 0.03, "late VM busy {busy} vs {want}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The idle-skip fast path, randomized: for any scheduler ×
    /// governor × workload-mix, a host that jumps quiescent windows
    /// must be bit-identical — completion instant, energy, busy
    /// fractions, P-state, final instant, snapshots — to one that runs
    /// every slice. Batch and idle VMs make hosts go quiescent during
    /// the run; a constant-demand VM keeps its host busy throughout.
    /// Both drivers of the window loop are covered: the run first
    /// waits for VM 0 to finish, then runs on to the horizon.
    #[test]
    fn idle_fast_path_matches_exact_loop_on_random_scenarios(
        sched_ix in 0usize..4,
        gov_ix in 0usize..3,
        vms in proptest::collection::vec((0usize..3, 0.05f64..1.0, 5.0f64..90.0), 1..5),
        secs in 30u64..90,
    ) {
        use governors::{Performance, StableOndemand};
        use hypervisor::work::{test_batch, ConstantDemand, Idle, WorkSource};

        let sched = [
            SchedulerKind::Credit,
            SchedulerKind::Credit2,
            SchedulerKind::Sedf { extra: true },
            SchedulerKind::Pas,
        ][sched_ix];
        let run = |fast: bool| {
            let mut cfg = HostConfig::optiplex_defaults(sched).with_idle_fast_path(fast);
            // PAS owns DVFS; other schedulers draw a governor.
            if sched_ix != 3 {
                cfg = match gov_ix {
                    0 => cfg,
                    1 => cfg.with_governor(Box::new(StableOndemand::new())),
                    _ => cfg.with_governor(Box::new(Performance)),
                };
            }
            let mut host = cfg.build();
            let fmax = host.fmax_mcps();
            for (i, &(kind, frac, credit)) in vms.iter().enumerate() {
                let work: Box<dyn WorkSource> = match kind {
                    0 => Box::new(ConstantDemand::new(frac * fmax)),
                    1 => Box::new(test_batch(frac * 10.0 * fmax)),
                    _ => Box::new(Idle),
                };
                host.add_vm(
                    VmConfig::new(format!("vm{i}"), Credit::percent(credit)),
                    work,
                );
            }
            let horizon = SimTime::from_secs(secs);
            let done = host.run_until_vm_finished(VmId(0), horizon);
            host.run_until(horizon);
            let per_vm: Vec<(u64, u64)> = (0..vms.len())
                .map(|i| {
                    (
                        host.stats().vm_busy_fraction(VmId(i)).to_bits(),
                        host.stats().vm_absolute_fraction(VmId(i)).to_bits(),
                    )
                })
                .collect();
            (
                done,
                host.cpu().energy().joules().to_bits(),
                host.stats().global_busy_fraction().to_bits(),
                host.cpu().pstate(),
                host.now(),
                per_vm,
                host.stats().snapshots().to_vec(),
            )
        };
        let fast = run(true);
        let exact = run(false);
        prop_assert_eq!(fast, exact);
    }
}
