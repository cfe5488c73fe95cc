//! Integration: protocol-level replays that tie modules together the way
//! the paper's deployment story does.

use deep_healing::em::schedule::condition_matrix;
use deep_healing::experiments;
use deep_healing::prelude::*;
use deep_healing::sched::migration::{price_schedule, StateStrategy};

#[test]
fn em_condition_matrix_mirrors_table_one_structure() {
    let outs = condition_matrix(
        CurrentDensity::from_ma_per_cm2(7.96),
        Seconds::from_minutes(500.0),
        Seconds::from_minutes(100.0),
    );
    // Condition order and knob flags follow Fig. 2(b).
    assert_eq!(outs.map(|o| o.condition_no), [1, 2, 3, 4]);
    assert_eq!(outs.map(|o| o.reverse_current), [false, true, false, true]);
    // Deep (condition 4) wins decisively, like Table I's 72.4 %.
    let r: Vec<f64> = outs.iter().map(|o| o.recovered_fraction).collect();
    assert!(
        r[3] > 0.5 && r[3] > r[0] && r[3] > r[1] && r[3] > r[2],
        "{r:?}"
    );
}

#[test]
fn migration_cost_uses_the_actual_assist_switching_time() {
    // Close the loop between the Fig. 10 circuit model and the scheduler's
    // cost accounting: the electrical mode-switch time comes from the
    // solved sweep, not an assumed constant.
    let sweep = experiments::fig10();
    let electrical = sweep[0].switching_time;
    // The RC rail swap is tens of nanoseconds — the paper's "small
    // switching overhead".
    assert!(
        electrical < Seconds::new(1.0e-6),
        "switch {} s",
        electrical.value()
    );

    let report = price_schedule(
        StateStrategy::typical_migration(),
        4.0,
        Seconds::from_hours(0.9),
        electrical,
        10.0,
    );
    assert!(report.downtime_fraction.value() < 1.0e-6);

    // Retention with the same electrical switch: downtime is pure
    // electronics, thousands of times smaller again.
    let retention = price_schedule(
        StateStrategy::typical_retention(),
        4.0,
        Seconds::from_hours(0.9),
        electrical,
        10.0,
    );
    assert!(retention.total_downtime < report.total_downtime);
}

#[test]
fn one_hour_one_hour_keeps_a_device_fresh_through_the_rig() {
    // The Fig. 4 headline replayed on the virtual measurement rig: after a
    // day of 1 h : 1 h cycling, the device's permanent component is
    // practically zero and its frequency is near fresh.
    use deep_healing::rig::MeasurementRig;
    let mut rig = MeasurementRig::paper_setup(21);
    rig.set_chamber(Celsius::new(110.0));
    for _ in 0..12 {
        rig.run_stress(Volts::new(1.2), Seconds::from_hours(1.0));
        rig.run_recovery(Volts::new(-0.3), Seconds::from_hours(1.0));
    }
    let device = rig.device();
    assert!(
        device.permanent_mv() < 0.6,
        "permanent after balanced cycling: {} mV",
        device.permanent_mv()
    );
    // Frequency at the end of the last recovery is within a few percent of
    // fresh.
    let fresh = rig.trace().first().unwrap().value;
    let last = rig.trace().last().unwrap().value;
    assert!(last > 0.95 * fresh, "fresh {fresh} MHz vs final {last} MHz");
}

#[test]
fn guardbands_from_the_lifetime_sim_price_into_supply_boost() {
    // Margin currencies are interchangeable: the no-recovery lifetime's
    // guardband, expressed as a VDD boost, costs measurable power; the
    // healed lifetime's boost is negligible.
    use deep_healing::guardband::compensation_power_overhead;
    let outcomes = experiments::fig12(0.1).unwrap();
    let worst_mv = |name: &str| {
        let o = outcomes.policies.iter().find(|o| o.policy == name).unwrap();
        // Invert the frequency guardband into mV via the reference RO.
        let ro = RingOscillator::paper_75_stage();
        let f = ro.frequency(0.0) * (1.0 - o.required_guardband);
        ro.infer_delta_vth_mv(f).unwrap_or(0.0)
    };
    let device = deep_healing::circuit::Mosfet::n28();
    let none = compensation_power_overhead(&device, Volts::new(0.9), worst_mv("no-recovery"));
    let deep = compensation_power_overhead(&device, Volts::new(0.9), worst_mv("periodic-deep"));
    assert!(none > 5.0 * deep, "none {none} vs deep {deep}");
}
