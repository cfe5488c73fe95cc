//! Integration: multi-month lifetime runs across the whole stack
//! (workloads → thermal → BTI/EM → sensors → policy).

use deep_healing::experiments;
use deep_healing::prelude::*;

#[test]
fn policy_ladder_is_ordered_end_to_end() {
    let outcomes = experiments::fig12(0.2).unwrap();
    let g = |name: &str| {
        outcomes
            .policies
            .iter()
            .find(|o| o.policy == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .required_guardband
    };
    assert!(
        g("no-recovery") > g("passive-idle"),
        "passive must beat none"
    );
    assert!(
        g("passive-idle") > g("periodic-deep"),
        "deep must beat passive"
    );
    // Periodic deep healing wins big (the Fig. 12(b) story).
    assert!(g("no-recovery") > 5.0 * g("periodic-deep"));
    // Adaptive matches passive's worst case: its sensor lags one epoch, so
    // the first-epoch transient (which sets the max) is identical; thermal
    // coupling adds at most a few percent of noise around that.
    assert!(g("adaptive") <= g("passive-idle") * 1.05);
}

#[test]
fn degradation_series_stays_bounded_and_starts_fresh() {
    let config = LifetimeConfig {
        years: 0.1,
        ..LifetimeConfig::default()
    };
    let out = run_lifetime(&config, Policy::periodic_deep_default(), 9).unwrap();
    let first = out.degradation_series.first().unwrap();
    assert!(first.value < 0.05, "first sample {first:?}");
    assert!(out.degradation_series.max_value().unwrap() <= out.required_guardband + 1e-12);
    assert!(out.required_guardband < 0.15);
}

#[test]
fn deep_policy_prevents_permanent_accumulation_at_system_level() {
    let config = LifetimeConfig {
        years: 0.3,
        ..LifetimeConfig::default()
    };
    let none = run_lifetime(&config, Policy::NoRecovery, 2).unwrap();
    let deep = run_lifetime(&config, Policy::periodic_deep_default(), 2).unwrap();
    assert!(
        deep.final_permanent_mv < none.final_permanent_mv,
        "deep {:.3} mV vs none {:.3} mV permanent",
        deep.final_permanent_mv,
        none.final_permanent_mv
    );
}

#[test]
fn longer_lifetimes_never_shrink_the_required_guardband() {
    let mk = |years: f64| {
        let config = LifetimeConfig {
            years,
            ..LifetimeConfig::default()
        };
        run_lifetime(&config, Policy::PassiveIdle, 4)
            .unwrap()
            .required_guardband
    };
    let short = mk(0.05);
    let long = mk(0.15);
    assert!(long >= short, "guardband shrank: {short} → {long}");
}

#[test]
fn em_duty_reduces_system_level_damage() {
    let config = LifetimeConfig {
        years: 0.2,
        ..LifetimeConfig::default()
    };
    let passive = run_lifetime(&config, Policy::PassiveIdle, 6).unwrap();
    let deep = run_lifetime(&config, Policy::periodic_deep_default(), 6).unwrap();
    assert!(deep.final_em_damage < passive.final_em_damage);
    let (p, d) = (
        passive.projected_em_ttf.expect("wear accumulated"),
        deep.projected_em_ttf.expect("wear accumulated"),
    );
    assert!(
        d > p,
        "projected TTF: deep {} y vs passive {} y",
        d.as_years(),
        p.as_years()
    );
}
