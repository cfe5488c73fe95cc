//! Fig. 12(b) live: a 4×4 many-core system runs for a year under each
//! recovery policy, and the example prints the guardband each policy would
//! require plus the projected EM lifetime of the local power grids — and
//! then, for the winning policy, what the scheduler actually did (its
//! [`deep_healing::sched::MetricsReport`]).
//!
//! ```sh
//! cargo run --release --example manycore_scheduler
//! ```

use deep_healing::experiments::{self, Reproduction};
use deep_healing::prelude::*;

fn main() {
    // The deep-recovery bias comes from solving the paper's assist
    // circuitry; a malformed design is a recoverable error, not a panic.
    match SystemConfig::with_assist_circuit(&AssistCircuit::paper_28nm().with_header_width(0.0)) {
        Err(e) => println!("(a zero-width header is rejected: {e})\n"),
        Ok(_) => unreachable!("zero-width headers cannot be solved"),
    }
    let config = SystemConfig::with_assist_circuit(&AssistCircuit::paper_28nm())
        .expect("the paper's 28 nm assist circuitry solves");
    println!(
        "Assist circuitry rail swap applies {:.3} to the idle load.\n",
        config.bti_recovery_bias
    );

    let years = 1.0;
    println!("Running {years:.1}-year lifetimes under four policies (4x4 cores)...\n");
    let outcomes = experiments::fig12(years).expect("lifetime config is valid");
    println!("{}", outcomes.render());

    let [none, _, deep, ..] = &outcomes.policies;
    println!(
        "Scheduled deep healing cuts the required frequency guardband {:.1}× \n\
         (from {:.2}% to {:.2}%) at {:.1}% core-time overhead.",
        none.required_guardband / deep.required_guardband.max(1e-9),
        none.required_guardband * 100.0,
        deep.required_guardband * 100.0,
        deep.recovery_overhead.as_percent(),
    );

    let m = &deep.metrics;
    println!(
        "\nWhat the periodic-deep scheduler did over {} epochs:\n\
         \x20 core-epochs in BTI-AR mode : {} of {} ({} mode transitions)\n\
         \x20 deep recovery scheduled    : {:.1} core-days\n\
         \x20 BTI wearout healed         : {:.2} mV of dVth removed\n\
         \x20 EM damage healed           : {:.4} Miner's-rule units",
        m.epochs,
        m.epochs_bti_ar,
        m.core_epochs,
        m.mode_transitions(),
        m.bti_recovery_seconds / 86_400.0,
        m.bti_healed_mv,
        m.em_damage_healed,
    );
}
