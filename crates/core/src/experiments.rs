//! The paper's evaluation: one reproduction per table and figure, each
//! with the claims it checks.
//!
//! Each function runs one experiment on the calibrated models and returns a
//! result implementing [`Reproduction`]: [`Reproduction::render`] gives the
//! plain-text table or series, and [`Reproduction::claims`] lists the
//! paper's claims next to this reproduction's values, each with the
//! predicate that decides whether it holds. [`SECTIONS`] lists the
//! experiments in paper order. The `deep-healing` binary prints each
//! section's rendering followed by its claims, and the integration tests
//! assert every claim at the same inputs.

use std::fmt;

use dh_bti::analytic::AnalyticBtiModel;
use dh_bti::calibration::TableOneTargets;
use dh_bti::schedule::{permanent_series, CyclicSchedule};
use dh_bti::{RecoveryCondition, TrapEnsemble};
use dh_circuit::assist::{AssistCircuit, Device, Mode, ModeSolution};
use dh_circuit::sweep::{load_size_sweep, LoadSweepPoint, SweepConfig};
use dh_em::black::BlackModel;
use dh_em::schedule::{
    early_recovery_experiment, periodic_recovery_experiment, stress_recovery_experiment,
    EarlyRecoveryOutcome, PeriodicRecoveryOutcome, StressRecoveryOutcome,
};
use dh_em::EmWire;
use dh_pdn::grid::{LayerClass, PdnConfig, PdnMesh, PdnSolution};
use dh_pdn::hazard::HazardReport;
use dh_sched::lifetime::{compare_policies, run_lifetime, LifetimeConfig, LifetimeOutcome};
use dh_sched::policy::Policy;
use dh_sched::{SchedError, SystemConfig};
use dh_units::{Celsius, CurrentDensity, Seconds, TimeSeries, Volts};

/// Number of traps used for the Table I ensemble (large enough that the
/// stratified ensemble is smooth; small enough to run in milliseconds).
const TABLE1_TRAPS: usize = 2000;

/// The simulated lifetime Fig. 12(b) runs for when no other is given.
pub const DEFAULT_YEARS: f64 = 1.0;

/// One of the paper's claims next to this reproduction's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is compared.
    pub what: &'static str,
    /// The paper's value or statement.
    pub paper: &'static str,
    /// This reproduction's value, as printed.
    pub ours: String,
    /// Whether this reproduction bears the claim out.
    pub holds: bool,
}

impl Claim {
    /// A claim: what is compared, the paper's value, ours, and whether ours
    /// bears the paper's out.
    pub fn new(what: &'static str, paper: &'static str, ours: String, holds: bool) -> Self {
        Self {
            what,
            paper,
            ours,
            holds,
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<4} {:<40} paper: {:<30} ours: {}",
            if self.holds { "ok" } else { "FAIL" },
            self.what,
            self.paper,
            self.ours
        )
    }
}

/// A reproduced table or figure.
pub trait Reproduction {
    /// The table or figure as plain text.
    fn render(&self) -> String;
    /// The paper's claims about it, each checked against this result.
    fn claims(&self) -> Vec<Claim>;
}

/// One table or figure of the evaluation: the `deep-healing` command that
/// prints it and the experiment behind it.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The command name (`table1`, `fig4`, …).
    pub name: &'static str,
    /// What the section shows, for the usage text.
    pub title: &'static str,
    /// Whether the section takes the simulated lifetime in years.
    pub takes_years: bool,
    /// Runs the experiment; only sections that take years read `years`.
    pub run: fn(years: f64) -> Result<Box<dyn Reproduction>, SchedError>,
}

/// The evaluation in paper order.
pub const SECTIONS: [Section; 9] = [
    Section {
        name: "table1",
        title: "BTI recovery under the four Table I conditions",
        takes_years: false,
        run: |_| Ok(Box::new(table1())),
    },
    Section {
        name: "fig4",
        title: "permanent BTI component vs stress:recovery schedule",
        takes_years: false,
        run: |_| Ok(Box::new(fig4())),
    },
    Section {
        name: "fig5",
        title: "EM stress + active/passive recovery",
        takes_years: false,
        run: |_| Ok(Box::new(fig5())),
    },
    Section {
        name: "fig6",
        title: "early EM recovery and reverse-current EM",
        takes_years: false,
        run: |_| Ok(Box::new(fig6())),
    },
    Section {
        name: "fig7",
        title: "periodic EM recovery during nucleation",
        takes_years: false,
        run: |_| Ok(Box::new(fig7())),
    },
    Section {
        name: "fig9",
        title: "assist circuitry truth table and operating points",
        takes_years: false,
        run: |_| Ok(Box::new(fig9())),
    },
    Section {
        name: "fig10",
        title: "load size vs delay and switching time",
        takes_years: false,
        run: |_| Ok(Box::new(fig10())),
    },
    Section {
        name: "fig11",
        title: "PDN EM hazard by layer",
        takes_years: false,
        run: |_| Ok(Box::new(fig11())),
    },
    Section {
        name: "fig12",
        title: "lifetime policy comparison",
        takes_years: true,
        run: |years| Ok(Box::new(fig12(years)?)),
    },
];

/// One row of the Table I comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Condition number (1–4).
    pub condition_no: usize,
    /// Condition description.
    pub condition: String,
    /// The paper's measured recovery percentage.
    pub paper_measurement: f64,
    /// The paper's model-column percentage.
    pub paper_model: f64,
    /// This reproduction's trap-ensemble ("measurement") percentage.
    pub simulated_measurement: f64,
    /// This reproduction's analytic-model percentage.
    pub simulated_model: f64,
}

impl Table1Row {
    /// Both models' recovery, trap ensemble / analytic.
    fn ours(&self) -> String {
        format!(
            "{:.2}% / {:.2}%",
            self.simulated_measurement, self.simulated_model
        )
    }

    /// Whether the trap ensemble lands within 1.5 points of the paper's
    /// measurement and the analytic model within 0.5 points of the paper's
    /// model.
    fn within_tolerance(&self) -> bool {
        (self.simulated_measurement - self.paper_measurement).abs() < 1.5
            && (self.simulated_model - self.paper_model).abs() < 0.5
    }
}

/// The Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// Rows in condition order 1–4.
    pub rows: [Table1Row; 4],
}

impl Reproduction for Table1Result {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table I: BTI recovery after 24 h accelerated stress + 6 h recovery\n");
        out.push_str(&format!(
            "{:>3}  {:<22} {:>12} {:>12} {:>12} {:>12}\n",
            "#", "condition", "paper meas", "ours (CET)", "paper model", "ours (anl)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>3}  {:<22} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%\n",
                r.condition_no,
                r.condition,
                r.paper_measurement,
                r.simulated_measurement,
                r.paper_model,
                r.simulated_model,
            ));
        }
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let [passive, voltage, heat, deep] = &self.rows;
        let gain = deep.simulated_measurement / passive.simulated_measurement;
        vec![
            Claim::new(
                "condition 4 (deep healing) recovery",
                "72.4% / 72.7%, ≈110× passive",
                format!("{}, {gain:.0}× passive", deep.ours()),
                deep.within_tolerance() && gain > 50.0,
            ),
            Claim::new(
                "passive baseline recovery",
                "0.66% / 1%",
                passive.ours(),
                passive.within_tolerance(),
            ),
            Claim::new(
                "one knob: −0.3 V alone / 110 °C alone",
                "16.7% / 14.4%, 28.7% / 29.2%",
                format!("{}, {}", voltage.ours(), heat.ours()),
                voltage.within_tolerance() && heat.within_tolerance(),
            ),
        ]
    }
}

/// Reproduces Table I: the four-condition recovery comparison, with the
/// trap ensemble playing the measurement column and the analytic model the
/// model column.
///
/// # Panics
///
/// Never panics with the built-in calibration (covered by tests).
pub fn table1() -> Table1Result {
    let analytic = AnalyticBtiModel::paper_calibrated();
    let ensemble =
        TrapEnsemble::paper_calibrated(TABLE1_TRAPS).expect("paper ensemble calibration converges");
    let targets = TableOneTargets::measurement_column();
    let model_targets = TableOneTargets::model_column();
    let cet = ensemble.table_one_percentages();

    let labels = [
        "20 °C and 0 V",
        "20 °C and −0.3 V",
        "110 °C and 0 V",
        "110 °C and −0.3 V",
    ];
    let rows: Vec<Table1Row> = RecoveryCondition::table_one()
        .iter()
        .enumerate()
        .map(|(i, &cond)| Table1Row {
            condition_no: i + 1,
            condition: labels[i].to_string(),
            paper_measurement: targets.fractions[i].as_percent(),
            paper_model: model_targets.fractions[i].as_percent(),
            simulated_measurement: cet[i],
            simulated_model: analytic
                .recovery_fraction(targets.stress_time, targets.recovery_time, cond)
                .as_percent(),
        })
        .collect();
    Table1Result {
        rows: rows.try_into().expect("exactly four rows"),
    }
}

/// The Fig. 4 reproduction: permanent-component accumulation under cyclic
/// stress/recovery schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// One permanent-ΔVth series per schedule (4:1, 2:1, 1:1).
    pub series: Vec<TimeSeries>,
    /// Final permanent component (mV) per schedule, same order.
    pub final_permanent_mv: Vec<f64>,
    /// Permanent component after the same total stress applied
    /// continuously (the no-schedule reference).
    pub continuous_permanent_mv: f64,
}

impl Reproduction for Fig4Result {
    fn render(&self) -> String {
        let refs: Vec<&TimeSeries> = self.series.iter().collect();
        let mut out =
            String::from("Fig. 4: permanent BTI component under stress:recovery schedules\n");
        out.push_str(&TimeSeries::render_plot(&refs, 80, 16));
        out.push('\n');
        out.push_str(&TimeSeries::render_table(&refs));
        out.push_str(&format!(
            "\ncontinuous 24 h stress reference: {:.2} mV permanent\n",
            self.continuous_permanent_mv
        ));
        for (s, p) in self.series.iter().zip(&self.final_permanent_mv) {
            out.push_str(&format!(
                "{:<28} final permanent: {:>6.3} mV ({:>5.1}% of continuous)\n",
                s.label(),
                p,
                p / self.continuous_permanent_mv * 100.0
            ));
        }
        out
    }

    fn claims(&self) -> Vec<Claim> {
        let finals = &self.final_permanent_mv;
        let balanced = finals.last().copied().unwrap_or(f64::NAN);
        let share = balanced / self.continuous_permanent_mv * 100.0;
        let ladder: Vec<String> = finals.iter().map(|p| format!("{p:.3}")).collect();
        vec![
            Claim::new(
                "1h:1h permanent component",
                "practically 0",
                format!("{balanced:.3} mV ({share:.1}% of continuous-stress permanent)"),
                share < 10.0,
            ),
            Claim::new(
                "permanent component, 4:1 > 2:1 > 1:1",
                "grows with the stress ratio",
                format!("{} mV", ladder.join(" > ")),
                finals.len() == 3 && finals.windows(2).all(|w| w[0] > w[1]),
            ),
        ]
    }
}

/// Reproduces Fig. 4: 24 h of total accelerated stress delivered as 4:1,
/// 2:1 and 1:1 stress:recovery cycles (condition-4 recovery); the balanced
/// schedule keeps the permanent component at ≈0.
pub fn fig4() -> Fig4Result {
    let model = AnalyticBtiModel::paper_calibrated();
    let ratios = [4.0, 2.0, 1.0];
    let mut series = Vec::new();
    let mut finals = Vec::new();
    for ratio in ratios {
        let schedule = CyclicSchedule::fig4(ratio, 1.0, 24.0);
        let s = permanent_series(model, &schedule);
        finals.push(s.last().map(|x| x.value).unwrap_or(0.0));
        series.push(s);
    }
    let mut continuous = dh_bti::BtiDevice::new(model);
    continuous.stress(
        Seconds::from_hours(24.0),
        dh_bti::StressCondition::ACCELERATED,
    );
    Fig4Result {
        series,
        final_permanent_mv: finals,
        continuous_permanent_mv: continuous.permanent_mv(),
    }
}

/// The paper's accelerated EM stress current density (±7.96 MA/cm²).
pub fn paper_em_stress() -> CurrentDensity {
    CurrentDensity::from_ma_per_cm2(7.96)
}

/// Reproduces Fig. 5: accelerated stress through nucleation and void
/// growth, then active vs passive recovery, exposing the permanent
/// component.
pub fn fig5() -> StressRecoveryOutcome {
    stress_recovery_experiment(
        EmWire::paper_wire(),
        paper_em_stress(),
        Seconds::from_minutes(550.0),
        Seconds::from_minutes(110.0),
    )
}

impl Reproduction for StressRecoveryOutcome {
    fn render(&self) -> String {
        let mut s = String::from("Fig. 5: EM stress + recovery at 230 °C, ±7.96 MA/cm²\n");
        s.push_str(&TimeSeries::render_plot(
            &[&self.active, &self.passive],
            96,
            20,
        ));
        s.push('\n');
        s.push_str(&TimeSeries::render_table(&[&self.active, &self.passive]));
        s.push_str(&format!(
            "\nnucleation at {:.0} min; ΔR peak {:.2} Ω\n",
            self.nucleation_time
                .map(|t| t.as_minutes())
                .unwrap_or(f64::NAN),
            self.delta_r_peak,
        ));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let active = self.active_recovered_fraction * 100.0;
        let passive = self.passive_recovered_fraction * 100.0;
        let nucleation = self.nucleation_time.map_or(f64::NAN, |t| t.as_minutes());
        vec![
            Claim::new(
                "active recovery within 1/5 stress time",
                ">75% recovered; passive slow",
                format!("{active:.1}% recovered; passive {passive:.1}%"),
                active > 70.0 && passive.abs() < 10.0,
            ),
            Claim::new(
                "permanent component after late recovery",
                "present (non-zero)",
                format!("{:.2} Ω residual", self.permanent_delta_r),
                self.permanent_delta_r > 0.1,
            ),
            Claim::new(
                "nucleation phase duration",
                "~200 min (flat R)",
                format!("{nucleation:.0} min"),
                (140.0..=280.0).contains(&nucleation),
            ),
        ]
    }
}

/// Reproduces Fig. 6: recovery scheduled early in void growth (full
/// recovery), followed by reverse-current-induced EM.
pub fn fig6() -> EarlyRecoveryOutcome {
    early_recovery_experiment(
        EmWire::paper_wire(),
        paper_em_stress(),
        Seconds::from_minutes(40.0),
        Seconds::from_minutes(600.0),
    )
}

impl Reproduction for EarlyRecoveryOutcome {
    fn render(&self) -> String {
        let mut s = String::from("Fig. 6: early EM recovery then sustained reverse current\n");
        s.push_str(&TimeSeries::render_plot(&[&self.trace], 96, 20));
        s.push('\n');
        s.push_str(&TimeSeries::render_table(&[&self.trace]));
        s.push_str(&format!(
            "\nΔR at recovery start {:.3} Ω; after recovery {:.3} Ω\n",
            self.delta_r_at_recovery_start, self.delta_r_after_recovery
        ));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let removed = 1.0 - self.delta_r_after_recovery / self.delta_r_at_recovery_start.max(1e-12);
        vec![
            Claim::new(
                "early recovery completeness",
                "full recovery",
                format!("{:.1}% of ΔR removed", removed * 100.0),
                removed > 0.9,
            ),
            Claim::new(
                "sustained reverse current",
                "reverse current-induced EM",
                format!("observed: {}", self.reverse_em_observed),
                self.reverse_em_observed,
            ),
        ]
    }
}

/// Reproduces Fig. 7: periodic recovery intervals during the nucleation
/// phase delay nucleation (paper: almost 3×) and extend TTF.
pub fn fig7() -> PeriodicRecoveryOutcome {
    periodic_recovery_experiment(
        EmWire::paper_wire(),
        paper_em_stress(),
        Seconds::from_minutes(60.0),
        Seconds::from_minutes(20.0),
        Seconds::from_hours(60.0),
    )
}

impl Reproduction for PeriodicRecoveryOutcome {
    fn render(&self) -> String {
        let mut s = String::from("Fig. 7: periodic scheduled recovery during void nucleation\n");
        s.push_str(&TimeSeries::render_plot(
            &[&self.scheduled, &self.continuous],
            96,
            20,
        ));
        s.push('\n');
        s.push_str(&TimeSeries::render_table(&[
            &self.scheduled,
            &self.continuous,
        ]));
        s.push_str(&format!(
            "\nnucleation: scheduled {:.0} min vs continuous {:.0} min\nTTF: scheduled {:.0} min vs continuous {:.0} min\n",
            self.scheduled_nucleation.map(|t| t.as_minutes()).unwrap_or(f64::NAN),
            self.continuous_nucleation.map(|t| t.as_minutes()).unwrap_or(f64::NAN),
            self.scheduled_ttf.map(|t| t.as_minutes()).unwrap_or(f64::NAN),
            self.continuous_ttf.map(|t| t.as_minutes()).unwrap_or(f64::NAN),
        ));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let delay = self.nucleation_delay_factor().unwrap_or(f64::NAN);
        let ttf = self.ttf_extension_factor().unwrap_or(f64::NAN);
        vec![
            Claim::new(
                "void-nucleation delay",
                "almost 3× slower",
                format!("{delay:.2}× slower"),
                (1.8..=8.0).contains(&delay),
            ),
            Claim::new(
                "overall TTF",
                "significantly extended",
                format!("{ttf:.2}× longer"),
                ttf > 1.3,
            ),
        ]
    }
}

/// The Fig. 9 reproduction: the assist circuit's three operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// Normal operation.
    pub normal: ModeSolution,
    /// EM active recovery.
    pub em: ModeSolution,
    /// BTI active recovery.
    pub bti: ModeSolution,
}

impl Reproduction for Fig9Result {
    /// The Fig. 8(b) truth table and the Fig. 9 operating points.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 8(b): assist-circuit truth table\n");
        s.push_str(&format!("{:<10}", "device"));
        for mode in Mode::ALL {
            s.push_str(&format!("{:>22}", mode.to_string()));
        }
        s.push('\n');
        for device in Device::ALL {
            s.push_str(&format!("{:<10}", device.to_string()));
            for mode in Mode::ALL {
                s.push_str(&format!(
                    "{:>22}",
                    if mode.is_on(device) { "ON" } else { "OFF" }
                ));
            }
            s.push('\n');
        }
        s.push_str("\nFig. 9: functional simulation (28 nm-class, 1 V)\n");
        for sol in [&self.normal, &self.em, &self.bti] {
            s.push_str(&format!(
                "{:<22} grid I = {:>8.1} µA   load VDD = {:.3} V   load VSS = {:.3} V\n",
                sol.mode.to_string(),
                sol.grid_current.value() * 1.0e6,
                sol.load_vdd.value(),
                sol.load_vss.value(),
            ));
        }
        s.push_str(&format!(
            "\nBTI-mode bias across load: {:.3} V (deeper than the −0.3 V used in Table I)\n",
            self.bti.bti_recovery_bias().value()
        ));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let normal = self.normal.grid_current.value() * 1e6;
        let em = self.em.grid_current.value() * 1e6;
        let (vss, vdd) = (self.bti.load_vss.value(), self.bti.load_vdd.value());
        let droop = self.normal.droop(Volts::new(1.0)).value();
        let bias = self.bti.bti_recovery_bias().value();
        vec![
            Claim::new(
                "EM-mode grid current",
                "reversed, same |I|",
                format!("{normal:.1} µA vs {em:.1} µA"),
                normal > 0.0 && (-em / normal - 1.0).abs() < 1e-6,
            ),
            Claim::new(
                "BTI-mode load VSS / VDD nodes",
                "≈0.816 V / ≈0.223 V",
                format!("{vss:.3} V / {vdd:.3} V (bias {bias:.3} V)"),
                vss > 0.7 && vdd < 0.3 && bias < -0.5,
            ),
            Claim::new(
                "pass-device droop",
                "0.2–0.3 V",
                format!("{droop:.3} V"),
                (0.2..=0.3).contains(&droop),
            ),
        ]
    }
}

/// Reproduces Figs. 8–9: the truth table and the three DC operating points.
///
/// # Panics
///
/// Never panics with the built-in circuit (covered by tests).
pub fn fig9() -> Fig9Result {
    let c = AssistCircuit::paper_28nm();
    Fig9Result {
        normal: c.solve(Mode::Normal).expect("paper circuit solves"),
        em: c
            .solve(Mode::EmActiveRecovery)
            .expect("paper circuit solves"),
        bti: c
            .solve(Mode::BtiActiveRecovery)
            .expect("paper circuit solves"),
    }
}

/// Reproduces Fig. 10: the load-size vs delay / switching-time sweep.
///
/// # Panics
///
/// Never panics with the built-in configuration (covered by tests).
pub fn fig10() -> Vec<LoadSweepPoint> {
    load_size_sweep(AssistCircuit::paper_28nm(), SweepConfig::default(), 1..=5)
        .expect("paper sweep solves")
}

impl Reproduction for Vec<LoadSweepPoint> {
    fn render(&self) -> String {
        let mut s = String::from("Fig. 10: load size vs performance and switching time\n");
        s.push_str(&format!(
            "{:>5} {:>14} {:>18} {:>18}\n",
            "size", "load V (V)", "normalized delay", "norm. switch time"
        ));
        for p in self {
            s.push_str(&format!(
                "{:>5} {:>14.3} {:>18.3} {:>18.3}\n",
                p.size,
                p.load_voltage.value(),
                p.normalized_delay,
                p.normalized_switching_time
            ));
        }
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let delay = self.last().map_or(f64::NAN, |p| p.normalized_delay);
        let switching = self
            .last()
            .map_or(f64::NAN, |p| p.normalized_switching_time);
        let falling =
            |w: &[LoadSweepPoint]| w[1].normalized_switching_time < w[0].normalized_switching_time;
        vec![
            Claim::new(
                "normalized delay at 5× load",
                "≈1.8×",
                format!("{delay:.2}×"),
                self.len() == 5 && (1.5..=2.2).contains(&delay),
            ),
            Claim::new(
                "switching time trend",
                "decreases, slower rate",
                format!("{switching:.2}× at 5× load"),
                switching < 0.7 && self.windows(2).all(falling),
            ),
        ]
    }
}

/// The Fig. 11 reproduction: PDN solve + EM hazard map.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// The solved PDN.
    pub solution: PdnSolution,
    /// The hazard report at 85 °C.
    pub hazard: HazardReport,
    /// TTF-extension factor for the local grid with a 20 % EM-recovery
    /// duty.
    pub protected_extension: f64,
}

impl Reproduction for Fig11Result {
    /// The per-layer hazard summary.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 11: PDN EM hazard by layer (uniform load)\n");
        s.push_str(&format!(
            "worst IR drop: {:.1} mV\n",
            self.solution.worst_ir_drop_v * 1000.0
        ));
        for layer in [
            LayerClass::Local,
            LayerClass::Via,
            LayerClass::Global,
            LayerClass::Bump,
        ] {
            if let Some(e) = self.hazard.worst_in(layer) {
                s.push_str(&format!(
                    "{:<8} peak j = {:>7.3} MA/cm²   worst median TTF = {:>10.1} years\n",
                    layer.to_string(),
                    e.branch.density.as_ma_per_cm2(),
                    e.median_ttf.as_years(),
                ));
            }
        }
        s.push_str(&format!(
            "\nwith 20% EM active-recovery duty on the local grid: TTF × {:.2}\n",
            self.protected_extension
        ));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let ttf = |layer| {
            self.hazard
                .worst_in(layer)
                .map_or(f64::NAN, |e| e.median_ttf.as_years())
        };
        let (local, global) = (ttf(LayerClass::Local), ttf(LayerClass::Global));
        let worst = self.hazard.worst().map(|e| e.branch.layer);
        vec![
            Claim::new(
                "local vs global EM sensitivity",
                "local grids most sensitive",
                format!("local TTF {local:.0} y ≪ global {global:.0} y"),
                worst == Some(LayerClass::Local) && local * 100.0 < global,
            ),
            Claim::new(
                "assist protection (20% duty)",
                "local grids protected",
                format!("TTF × {:.2}", self.protected_extension),
                self.protected_extension > 1.3,
            ),
        ]
    }
}

/// Reproduces Fig. 11: the layered PDN with its local grids as the EM
/// hazard, and the assist circuitry's duty-cycled protection.
///
/// # Panics
///
/// Never panics with the built-in configuration (covered by tests).
pub fn fig11() -> Fig11Result {
    let mesh = PdnMesh::new(PdnConfig::default_chip()).expect("default chip is valid");
    let solution = mesh
        .solve_uniform_load(0.25e-3)
        .expect("default chip solves");
    let hazard = HazardReport::analyze(
        &solution,
        &BlackModel::calibrated_to_paper(),
        Celsius::new(85.0).to_kelvin(),
    );
    let protected_extension = dh_pdn::hazard::ttf_extension(
        dh_units::Fraction::clamped(0.2),
        dh_units::Fraction::clamped(0.9),
    )
    .expect("20% duty is not immortal");
    Fig11Result {
        solution,
        hazard,
        protected_extension,
    }
}

/// The Fig. 12(b) reproduction: lifetime runs under the policy ladder.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// The paper's five policies — no-recovery, passive-idle,
    /// periodic-deep, adaptive, rotation — each trusting its sensors as the
    /// paper's loop does (`sensor_window: 1`).
    pub policies: [LifetimeOutcome; 5],
    /// The adaptive policy behind the default 5-reading
    /// [`dh_sched::SensorGuard`] median filter, labelled
    /// `guarded-adaptive`: a deployment extension, not one of the paper's
    /// rows.
    pub guarded: LifetimeOutcome,
}

/// Reproduces Fig. 12(b): `years`-long lifetime runs under the paper's five
/// policies with trusted sensors, plus the guarded adaptive row.
///
/// # Errors
///
/// Propagates scheduler errors (cannot occur for positive `years`).
pub fn fig12(years: f64) -> Result<Fig12Result, SchedError> {
    let trusted = LifetimeConfig {
        years,
        system: SystemConfig {
            sensor_window: 1,
            ..SystemConfig::default()
        },
        ..LifetimeConfig::default()
    };
    let policies = compare_policies(
        &trusted,
        &[
            Policy::NoRecovery,
            Policy::PassiveIdle,
            Policy::periodic_deep_default(),
            Policy::adaptive_default(),
            Policy::rotation_default(),
        ],
        42,
    )?
    .try_into()
    .expect("one outcome per policy");
    let guarded_config = LifetimeConfig {
        years,
        ..LifetimeConfig::default()
    };
    let mut guarded = run_lifetime(&guarded_config, Policy::adaptive_default(), 42)?;
    guarded.policy = "guarded-adaptive";
    Ok(Fig12Result { policies, guarded })
}

impl Reproduction for Fig12Result {
    /// The policy table (the guarded row last) and the paper policies'
    /// degradation series.
    fn render(&self) -> String {
        let mut s = String::from("Fig. 12(b): lifetime policy comparison\n");
        s.push_str(&format!(
            "{:<16} {:>18} {:>16} {:>18} {:>16} {:>16}\n",
            "policy",
            "guardband (freq%)",
            "EM damage",
            "proj. EM TTF (y)",
            "sched ovh (%)",
            "thru loss (%)"
        ));
        for o in self.policies.iter().chain([&self.guarded]) {
            s.push_str(&format!(
                "{:<16} {:>17.2}% {:>16.4} {:>18.1} {:>15.1}% {:>15.2}%\n",
                o.policy,
                o.required_guardband * 100.0,
                o.final_em_damage.value(),
                o.projected_em_ttf.map(|t| t.as_years()).unwrap_or(f64::NAN),
                o.recovery_overhead.as_percent(),
                o.throughput_loss.as_percent(),
            ));
        }
        let series: Vec<&TimeSeries> = self
            .policies
            .iter()
            .map(|o| &o.degradation_series)
            .collect();
        s.push('\n');
        s.push_str(&TimeSeries::render_plot(&series, 96, 18));
        s.push('\n');
        s.push_str(&TimeSeries::render_table(&series));
        s
    }

    fn claims(&self) -> Vec<Claim> {
        let [none, passive, deep, ..] = &self.policies;
        let (gb_none, gb_deep) = (none.required_guardband, deep.required_guardband);
        let em_ttf = |o: &LifetimeOutcome| o.projected_em_ttf.map_or(f64::NAN, |t| t.as_years());
        let (ttf_passive, ttf_deep) = (em_ttf(passive), em_ttf(deep));
        let (perm_none, perm_deep) = (none.final_permanent_mv, deep.final_permanent_mv);
        vec![
            Claim::new(
                "guardband with scheduled deep healing",
                "significantly reduced",
                format!(
                    "{:.2}% → {:.2}% ({:.1}× smaller)",
                    gb_none * 100.0,
                    gb_deep * 100.0,
                    gb_none / gb_deep.max(1e-12)
                ),
                gb_none > 10.0 * gb_deep,
            ),
            Claim::new(
                "permanent component at end of life",
                "eliminated by in-time recovery",
                format!("{perm_none:.2} mV → {perm_deep:.2} mV"),
                perm_deep < 0.3 * perm_none,
            ),
            Claim::new(
                "projected EM lifetime of local grids",
                "extended",
                format!("{ttf_passive:.0} y → {ttf_deep:.0} y"),
                ttf_deep > 1.2 * ttf_passive,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_within_tolerance() {
        let t = table1();
        for r in &t.rows {
            assert!(
                (r.simulated_measurement - r.paper_measurement).abs() < 1.5,
                "row {}: CET {} vs paper {}",
                r.condition_no,
                r.simulated_measurement,
                r.paper_measurement
            );
            assert!(
                (r.simulated_model - r.paper_model).abs() < 0.5,
                "row {}: analytic {} vs paper {}",
                r.condition_no,
                r.simulated_model,
                r.paper_model
            );
        }
        let text = t.render();
        assert!(text.contains("110 °C and −0.3 V"));
    }

    #[test]
    fn fig4_balanced_schedule_is_practically_zero() {
        let f = fig4();
        assert_eq!(f.series.len(), 3);
        // 1:1 is the last ratio; its permanent component is a small
        // fraction of the continuous reference.
        let balanced = *f.final_permanent_mv.last().unwrap();
        assert!(balanced < 0.15 * f.continuous_permanent_mv);
        // Monotone in stress ratio: 4:1 > 2:1 > 1:1.
        assert!(f.final_permanent_mv[0] > f.final_permanent_mv[1]);
        assert!(f.final_permanent_mv[1] > f.final_permanent_mv[2]);
        assert!(f.render().contains("continuous 24 h stress"));
    }

    #[test]
    fn fig9_operating_points_match_paper() {
        let f = fig9();
        assert!(f.normal.grid_current.value() > 0.0);
        assert!(f.em.grid_current.value() < 0.0);
        assert!(f.bti.load_vss > f.bti.load_vdd);
        let text = f.render();
        assert!(text.contains("truth table"));
        assert!(text.contains("BTI-mode bias"));
    }

    #[test]
    fn fig10_shapes() {
        let points = fig10();
        assert_eq!(points.len(), 5);
        assert!(points[4].normalized_delay > 1.5);
        assert!(points[4].normalized_switching_time < 0.8);
        assert!(points.render().contains("size"));
    }

    #[test]
    fn fig11_local_grid_is_the_hazard() {
        let f = fig11();
        assert_eq!(f.hazard.worst().unwrap().branch.layer, LayerClass::Local);
        assert!(f.protected_extension > 1.3);
        assert!(f.render().contains("local"));
    }

    #[test]
    fn fig12_policy_ladder_reduces_guardband() {
        let f = fig12(0.15).unwrap();
        assert_eq!(f.policies.len(), 5);
        assert_eq!(f.guarded.policy, "guarded-adaptive");
        let by_name = |n: &str| f.policies.iter().find(|o| o.policy == n).unwrap();
        assert!(
            by_name("no-recovery").required_guardband > by_name("periodic-deep").required_guardband
        );
        assert!(f.render().contains("guardband"));
    }
}
