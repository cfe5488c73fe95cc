//! `docs/sample_ablation_output.txt` is the seven ablation studies'
//! output, in the order below, each preceded by a blank line.

use std::process::Command;

const SAMPLE: &str = include_str!("../../../docs/sample_ablation_output.txt");

const STUDIES: [&str; 7] = [
    env!("CARGO_BIN_EXE_ablate-duty"),
    env!("CARGO_BIN_EXE_ablate-knobs"),
    env!("CARGO_BIN_EXE_ablate-early-late"),
    env!("CARGO_BIN_EXE_ablate-sensor-noise"),
    env!("CARGO_BIN_EXE_ablate-compensation"),
    env!("CARGO_BIN_EXE_ablate-ac-frequency"),
    env!("CARGO_BIN_EXE_ablate-em-knobs"),
];

const REGENERATE: &str = "for s in duty knobs early-late sensor-noise compensation \
     ac-frequency em-knobs; do echo; cargo run -q --release --bin ablate-$s; done \
     > docs/sample_ablation_output.txt";

#[test]
fn ablation_studies_match_the_sample() {
    let mut joined = String::new();
    for exe in STUDIES {
        let out = Command::new(exe).output().expect("the study runs");
        assert!(out.status.success(), "{exe}: {}", out.status);
        joined.push('\n');
        joined.push_str(&String::from_utf8(out.stdout).expect("UTF-8 output"));
    }
    let sample: Vec<&str> = SAMPLE.lines().collect();
    let ours: Vec<&str> = joined.lines().collect();
    let differs = |i: &usize| sample.get(*i) != ours.get(*i);
    if let Some(i) = (0..sample.len().max(ours.len())).find(differs) {
        panic!(
            "the ablation studies differ from docs/sample_ablation_output.txt at line {}:\n  \
             sample: {}\n  output: {}\nif the change is intended, regenerate the sample with\n  {REGENERATE}",
            i + 1,
            sample.get(i).unwrap_or(&"<end of file>"),
            ours.get(i).unwrap_or(&"<end of output>"),
        );
    }
    assert!(
        joined == SAMPLE,
        "line endings differ; regenerate the sample with {REGENERATE}"
    );
}
