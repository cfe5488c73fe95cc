//! The reproduction certificate: every claim `deep-healing` prints about
//! the paper's evaluation, asserted at the CLI's own inputs, and the
//! CLI's whole output pinned to `docs/sample_repro_output.txt`.
//!
//! The claims live with the experiments (`experiments::SECTIONS`); each
//! test below asserts one section's list, so a regression in any model
//! shows up as a failed claim, not a silently drifted table.

use std::process::{Command, Output};

use deep_healing::experiments::{DEFAULT_YEARS, SECTIONS};

const SAMPLE: &str = include_str!("../docs/sample_repro_output.txt");

const REGENERATE: &str =
    "cargo run --release --bin deep-healing all > docs/sample_repro_output.txt";

fn assert_claims_hold(name: &str) {
    let section = SECTIONS
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no section {name}"));
    let result = (section.run)(DEFAULT_YEARS).expect("the section runs at the CLI's inputs");
    let claims = result.claims();
    assert!(!claims.is_empty(), "{name} checks no claim");
    let failed: Vec<String> = claims
        .iter()
        .filter(|c| !c.holds)
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{name}:\n{}", failed.join("\n"));
}

macro_rules! claim_tests {
    ($($test:ident => $section:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_claims_hold($section);
            }
        )*

        #[test]
        fn every_section_has_a_claim_test() {
            assert_eq!([$($section),*], SECTIONS.map(|s| s.name));
        }
    };
}

claim_tests! {
    claim_table1_recovery_is_activated_and_accelerated => "table1",
    claim_fig4_in_time_recovery_eliminates_the_permanent_component => "fig4",
    claim_fig5_active_recovery_beats_passive_by_an_order_of_magnitude => "fig5",
    claim_fig6_early_recovery_is_full_and_over_recovery_reverses_the_damage => "fig6",
    claim_fig7_scheduled_recovery_delays_nucleation_and_extends_ttf => "fig7",
    claim_fig9_assist_circuit_implements_all_three_modes => "fig9",
    claim_fig10_load_size_tradeoff => "fig10",
    claim_fig11_local_grids_are_most_em_sensitive_and_protectable => "fig11",
    claim_fig12_scheduling_reduces_the_guardband => "fig12",
}

fn deep_healing(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deep-healing"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("deep-healing runs")
}

#[test]
fn deep_healing_all_matches_the_sample_at_any_thread_count_and_backend() {
    for env in [
        &[][..],
        &[("DH_NUM_THREADS", "1")],
        &[("DH_NUM_THREADS", "8")],
        &[("DH_SIMD", "scalar")],
    ] {
        let command: String = env.iter().map(|(k, v)| format!("{k}={v} ")).collect();
        let command = command + "deep-healing all";
        let out = deep_healing(&["all"], env);
        assert!(out.status.success(), "{command}: {}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let sample: Vec<&str> = SAMPLE.lines().collect();
        let ours: Vec<&str> = stdout.lines().collect();
        let differs = |i: &usize| sample.get(*i) != ours.get(*i);
        if let Some(i) = (0..sample.len().max(ours.len())).find(differs) {
            panic!(
                "{command} differs from docs/sample_repro_output.txt at line {}:\n  \
                 sample: {}\n  output: {}\nif the change is intended, regenerate the sample with\n  {REGENERATE}",
                i + 1,
                sample.get(i).unwrap_or(&"<end of file>"),
                ours.get(i).unwrap_or(&"<end of output>"),
            );
        }
        assert!(
            stdout == SAMPLE,
            "{command}: line endings differ; regenerate the sample with {REGENERATE}"
        );
    }
}

#[test]
fn deep_healing_exits_2_on_usage_errors_and_0_on_help() {
    for (args, code) in [
        (&[][..], 2),
        (&["fig13"], 2),
        (&["fig12", "0"], 2),
        (&["fig12", "abc"], 2),
        (&["table1", "junk"], 2),
        (&["fig12", "0.01", "extra"], 2),
        (&["all", "1", "extra"], 2),
        (&["--help"], 0),
        (&["-h"], 0),
    ] {
        let out = deep_healing(args, &[]);
        assert_eq!(out.status.code(), Some(code), "deep-healing {args:?}");
        assert!(
            out.stdout.is_empty(),
            "deep-healing {args:?} printed to stdout"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: deep-healing"),
            "deep-healing {args:?}: {stderr}"
        );
    }
}
