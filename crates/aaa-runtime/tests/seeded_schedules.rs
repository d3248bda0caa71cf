//! Every seeded schedule is a pure function of its seed — and stays the
//! function it was: the digests below were taken before the draws
//! (`FaultPlan::seeded`, `ChaosPlan::fate`, `NetChaos::fate`) and the waits
//! (`Backoff::delay_ms`) were folded onto one generator, one cumulative
//! `pick` and one clamped-exponent schedule. A replayed seed must reproduce
//! the run it came from, so a change here is a change of every recorded
//! chaos experiment.

use aaa_runtime::net::{Backoff, NetChaos};
use aaa_runtime::{mix64, ChaosPlan, FaultPlan};

/// Order-sensitive digest of a stream of debug renderings.
fn digest(items: impl Iterator<Item = String>) -> u64 {
    items.fold(0, |h, s| s.bytes().fold(mix64(h, &[s.len() as u64]), |h, b| mix64(h, &[b.into()])))
}

#[test]
fn fault_plan_seeds_draw_the_same_coordinates() {
    let plans = (0..512u64).flat_map(|seed| {
        [(4, 10), (16, 1), (1, 1000), (7, u64::MAX)]
            .map(|(p, max)| format!("{:?}", FaultPlan::seeded(seed.wrapping_mul(0x9e37), p, max)))
    });
    assert_eq!(digest(plans), 14866839651628551033);
}

#[test]
fn chaos_plan_fates_and_stalls_are_the_same_schedule() {
    let mut plans = vec![ChaosPlan::seeded(42, 0.8, 6), ChaosPlan::seeded(7, 0.1, 6)];
    plans.push(ChaosPlan {
        drop_p: 0.3,
        delay_p: 0.4,
        max_delay: 5,
        ..ChaosPlan::seeded(9, 0.4, 6)
    });
    let fates = plans.into_iter().flat_map(|plan| {
        (0..7u64).flat_map(move |step| {
            (0..4usize).flat_map(move |src| {
                (0..4usize).flat_map(move |dst| {
                    (0..8u64).map(move |ord| {
                        format!("{:?}{}", plan.fate(step, src, dst, ord), plan.stalls(step, src))
                    })
                })
            })
        })
    });
    assert_eq!(digest(fates), 12642017001295373439);
}

#[test]
fn net_chaos_fates_and_backoff_waits_are_the_same_schedule() {
    let mut plans = vec![NetChaos::seeded(7, 0.9, 50), NetChaos::seeded(99, 0.2, 50)];
    plans.push(NetChaos { reset_p: 0.5, max_delay_ms: 9, ..NetChaos::seeded(3, 0.5, 50) });
    let fates = plans.into_iter().flat_map(|plan| {
        (0..8u64)
            .flat_map(move |lane| (0..52u64).map(move |ord| format!("{:?}", plan.fate(lane, ord))))
    });
    assert_eq!(digest(fates), 1525319753023636891);

    let schedules = [
        Backoff::default(),
        Backoff { base_ms: 1, factor: 2.0, cap_ms: 20, seed: 5 },
        Backoff { base_ms: 7, factor: 1.5, cap_ms: u64::MAX, seed: 11 },
    ];
    let waits = schedules.into_iter().flat_map(|b| {
        (0..40u32).flat_map(move |attempt| {
            (0..3u64).map(move |lane| b.delay_ms(attempt, lane).to_string())
        })
    });
    assert_eq!(digest(waits), 3531054430941662309);
}
