//! The many-core system: BTI devices, EM damage, thermal grid, sensors,
//! and a policy-driven epoch loop.
//!
//! Each core tile carries:
//!
//! * a [`BtiDevice`] stressed at the core's supply and temperature while
//!   running, passively recovering while idle, and deeply recovering (at
//!   the assist circuitry's swap bias) when the policy schedules it;
//! * an **EM damage** accumulator for its local power grid: Miner's-rule
//!   integration of `1/TTF(j, T)` from the Black model, healed by the EM
//!   active-recovery duty (with a pinned floor — the permanent component);
//! * a noisy BTI sensor (replica RO) and EM sensor feeding the policy.
//!
//! Temperatures come from the RC thermal grid: busy cores heat up, and a
//! recovering (dark) core is heated by its neighbours — which *helps*,
//! because recovery accelerates with temperature (the paper's Fig. 12(a)
//! dark-silicon argument).

use dh_bti::{BtiDevice, RecoveryCondition, StressCondition, TrapEnsemble};
use dh_circuit::assist::{AssistCircuit, Mode};
use dh_em::black::BlackModel;
use dh_fault::{FaultPlan, SensorFaultKind, SensorIncident};
use dh_obs::{Counter, Histogram};
use dh_thermal::{GridConfig, ThermalGrid};
use dh_units::{CurrentDensity, Fraction, Kelvin, Seconds, Volts};

use crate::error::SchedError;
use crate::guard::SensorGuard;
use crate::metrics::{CoreMode, MetricsReport};
use crate::policy::Policy;
use crate::sensor::{BtiSensor, EmSensor};
use crate::workload::WorkloadGenerator;

/// Configuration of the many-core system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core-grid rows (also the thermal-tile rows).
    pub rows: usize,
    /// Core-grid columns.
    pub cols: usize,
    /// Core supply voltage.
    pub vdd: Volts,
    /// Epoch length (scheduling granularity).
    pub epoch: Seconds,
    /// Peak per-core power at full utilization, watts.
    pub peak_power_w: f64,
    /// Idle per-core power, watts.
    pub idle_power_w: f64,
    /// Local-grid current density at full utilization.
    pub j_local: CurrentDensity,
    /// Gate bias applied during deep BTI recovery (from the assist
    /// circuitry's rail swap; negative).
    pub bti_recovery_bias: Volts,
    /// Healing efficiency of EM current reversal.
    pub em_heal_efficiency: Fraction,
    /// Pinned (permanent) EM damage floor, as a fraction of the peak
    /// damage reached.
    pub em_pinned_floor: Fraction,
    /// Relative noise of the BTI sensors.
    pub bti_sensor_noise: f64,
    /// Relative noise of the EM sensors.
    pub em_sensor_noise: f64,
    /// Median-filter window over each core's BTI sensor readings (the
    /// [`SensorGuard`]); 1 disables smoothing.
    pub sensor_window: usize,
    /// Consecutive suspicious sensor epochs before a core's sensor is
    /// distrusted and the core degrades to the conservative policy.
    pub sensor_stale_epochs: u32,
    /// Root seed for workloads and sensors.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        // The deep-recovery bias comes from the assist circuitry itself:
        // the rail swap of Fig. 9(b) applies ≈−0.6 V to the idle load. The
        // paper circuit always solves; the published Fig. 9(b) value keeps
        // `default()` total if a future model change ever breaks that.
        let bias = AssistCircuit::paper_28nm()
            .solve(Mode::BtiActiveRecovery)
            .map(|s| s.bti_recovery_bias())
            .unwrap_or(Volts::new(-0.593));
        Self {
            rows: 4,
            cols: 4,
            vdd: Volts::new(0.9),
            epoch: Seconds::from_hours(6.0),
            peak_power_w: 1.5,
            idle_power_w: 0.2,
            j_local: CurrentDensity::from_ma_per_cm2(2.5),
            bti_recovery_bias: bias,
            em_heal_efficiency: Fraction::clamped(0.9),
            em_pinned_floor: Fraction::clamped(0.05),
            bti_sensor_noise: 0.002,
            em_sensor_noise: 0.05,
            sensor_window: 5,
            sensor_stale_epochs: 4,
            seed: 42,
        }
    }
}

impl SystemConfig {
    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.rows * self.cols
    }

    /// A default configuration whose deep-recovery bias is derived by
    /// solving `circuit` in BTI-Active-Recovery mode — the explicit,
    /// fallible form of what [`Default::default`] does with the paper's
    /// 28 nm circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::AssistCircuit`] when the circuit has
    /// non-physical parameters or its network is singular, so a malformed
    /// assist design fails recoverably instead of panicking.
    pub fn with_assist_circuit(circuit: &AssistCircuit) -> Result<Self, SchedError> {
        let bias = circuit.solve(Mode::BtiActiveRecovery)?.bti_recovery_bias();
        Ok(Self {
            bti_recovery_bias: bias,
            ..Self::default()
        })
    }
}

/// Per-core wearout and sensing state.
#[derive(Debug, Clone)]
struct Core {
    bti: BtiDevice,
    em_damage: f64,
    em_peak: f64,
    bti_sensor: BtiSensor,
    em_sensor: EmSensor,
    /// Last sensed values (fed to the policy at the next epoch).
    sensed_dvth_mv: f64,
    sensed_em: Fraction,
    /// Mode of the previous epoch (None before the first step), for
    /// transition accounting.
    last_mode: Option<CoreMode>,
    /// Median filter + staleness detector over the BTI sensor channel.
    guard: SensorGuard,
    /// Injected sensor fault (None = healthy hardware).
    fault: Option<SensorFaultKind>,
    /// For a stuck sensor: the reading it latched at (NaN until the first
    /// post-injection reading fixes it).
    stuck_latch: f64,
}

/// Per-epoch, per-core record of what the scheduler did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreStatus {
    /// True |ΔVth|, millivolts.
    pub delta_vth_mv: f64,
    /// True EM damage fraction.
    pub em_damage: Fraction,
    /// Tile temperature this epoch.
    pub temperature: Kelvin,
    /// Fraction of this epoch spent in deep BTI recovery.
    pub bti_recovery: Fraction,
    /// Work demanded by the workload but displaced by recovery this epoch
    /// (fraction of the epoch). Zero when recovery fits in the idle budget.
    pub displaced_work: Fraction,
    /// Work demanded by the workload this epoch (fraction of the epoch).
    pub demanded_work: Fraction,
}

/// The policy-driven many-core system.
#[derive(Debug, Clone)]
pub struct ManyCoreSystem {
    config: SystemConfig,
    cores: Vec<Core>,
    thermal: ThermalGrid,
    workload: WorkloadGenerator,
    black: BlackModel,
    epoch_index: usize,
    time: Seconds,
    /// Optional CET trap ensemble shadowing core 0's stress/recovery
    /// schedule — the Monte-Carlo cross-check of the analytic fleet.
    trap_monitor: Option<TrapEnsemble>,
    /// Always-on scheduling metrics (mode transitions, recovery time
    /// scheduled, wearout healed).
    metrics: MetricsReport,
    /// Sensors flagged as bad by staleness detection, in flag order.
    sensor_incidents: Vec<SensorIncident>,
    /// Registry handles for the last stepped policy's metric names.
    mirror: Option<RegistryMirror>,
}

/// The registry handles one policy's per-epoch [`MetricsReport`] deltas
/// are mirrored into, under `sched.{policy}.…` names so one process can
/// compare policies. Resolving a name formats it and takes the registry
/// lock, so the system resolves these when the policy changes, not every
/// epoch.
#[derive(Debug, Clone, Copy)]
struct RegistryMirror {
    policy: &'static str,
    epochs: Counter,
    transitions_to_normal: Counter,
    transitions_to_em_ar: Counter,
    transitions_to_bti_ar: Counter,
    core_epochs_normal: Counter,
    core_epochs_em_ar: Counter,
    core_epochs_bti_ar: Counter,
    bti_recovery_seconds: Histogram,
    bti_healed_mv: Histogram,
    sensor_faults_detected: Counter,
    conservative_core_epochs: Counter,
}

impl RegistryMirror {
    fn resolve(policy: &'static str) -> Self {
        let counter = |leaf: &str| dh_obs::counter(&format!("sched.{policy}.{leaf}"));
        let histogram = |leaf: &str| dh_obs::histogram(&format!("sched.{policy}.{leaf}"));
        Self {
            policy,
            epochs: counter("epochs"),
            transitions_to_normal: counter("transitions_to_normal"),
            transitions_to_em_ar: counter("transitions_to_em_ar"),
            transitions_to_bti_ar: counter("transitions_to_bti_ar"),
            core_epochs_normal: counter("core_epochs_normal"),
            core_epochs_em_ar: counter("core_epochs_em_ar"),
            core_epochs_bti_ar: counter("core_epochs_bti_ar"),
            bti_recovery_seconds: histogram("bti_recovery_seconds_per_epoch"),
            bti_healed_mv: histogram("bti_healed_mv_per_epoch"),
            sensor_faults_detected: counter("sensor_faults_detected"),
            conservative_core_epochs: counter("conservative_core_epochs"),
        }
    }

    /// Adds one epoch: the deltas from `before` to `now`.
    fn record(&self, now: &MetricsReport, before: &MetricsReport) {
        self.epochs.incr();
        self.transitions_to_normal
            .add(now.transitions_to_normal - before.transitions_to_normal);
        self.transitions_to_em_ar
            .add(now.transitions_to_em_ar - before.transitions_to_em_ar);
        self.transitions_to_bti_ar
            .add(now.transitions_to_bti_ar - before.transitions_to_bti_ar);
        self.core_epochs_normal
            .add(now.epochs_normal - before.epochs_normal);
        self.core_epochs_em_ar
            .add(now.epochs_em_ar - before.epochs_em_ar);
        self.core_epochs_bti_ar
            .add(now.epochs_bti_ar - before.epochs_bti_ar);
        self.bti_recovery_seconds
            .record(now.bti_recovery_seconds - before.bti_recovery_seconds);
        self.bti_healed_mv
            .record(now.bti_healed_mv - before.bti_healed_mv);
        self.sensor_faults_detected
            .add(now.sensor_faults_detected - before.sensor_faults_detected);
        self.conservative_core_epochs
            .add(now.conservative_core_epochs - before.conservative_core_epochs);
    }
}

impl ManyCoreSystem {
    /// Builds a fresh system.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for degenerate dimensions or
    /// epoch, or a thermal error for inconsistent grid parameters.
    pub fn new(config: SystemConfig) -> Result<Self, SchedError> {
        if config.rows == 0 || config.cols == 0 {
            return Err(SchedError::InvalidConfig(
                "core grid must be non-empty".into(),
            ));
        }
        if !(config.epoch.value() > 0.0) {
            return Err(SchedError::InvalidConfig("epoch must be positive".into()));
        }
        if config.sensor_window == 0 {
            return Err(SchedError::InvalidConfig(
                "sensor window must hold at least one reading".into(),
            ));
        }
        if config.bti_recovery_bias >= Volts::ZERO {
            return Err(SchedError::InvalidConfig(
                "BTI recovery bias must be negative (it reverses the stress)".into(),
            ));
        }
        let thermal = ThermalGrid::new(GridConfig {
            rows: config.rows,
            cols: config.cols,
            ..GridConfig::manycore_4x4()
        })?;
        let cores = (0..config.cores())
            .map(|i| Core {
                bti: BtiDevice::paper_calibrated(),
                em_damage: 0.0,
                em_peak: 0.0,
                bti_sensor: BtiSensor::new(
                    dh_circuit::RingOscillator::paper_75_stage(),
                    config.bti_sensor_noise,
                    config.seed ^ (i as u64) << 8 | 1,
                ),
                em_sensor: EmSensor::new(config.em_sensor_noise, config.seed ^ (i as u64) << 8 | 2),
                sensed_dvth_mv: 0.0,
                sensed_em: Fraction::ZERO,
                last_mode: None,
                guard: SensorGuard::new(config.sensor_window, config.sensor_stale_epochs),
                fault: None,
                stuck_latch: f64::NAN,
            })
            .collect();
        let workload = WorkloadGenerator::heterogeneous(config.cores(), config.seed);
        Ok(Self {
            config,
            cores,
            thermal,
            workload,
            black: BlackModel::calibrated_to_paper(),
            epoch_index: 0,
            time: Seconds::ZERO,
            trap_monitor: None,
            metrics: MetricsReport::default(),
            sensor_incidents: Vec::new(),
            mirror: None,
        })
    }

    /// Attaches a CET trap-ensemble monitor that shadows core 0's full
    /// stress/idle/deep-recovery schedule. The Monte-Carlo ensemble is the
    /// paper's "Measurement" column, so the monitor cross-validates the
    /// analytic per-core devices at fleet scale.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] when the ensemble cannot be
    /// calibrated (e.g. zero traps).
    pub fn with_trap_monitor(mut self, traps: usize) -> Result<Self, SchedError> {
        let ensemble = TrapEnsemble::paper_calibrated(traps)
            .map_err(|e| SchedError::InvalidConfig(format!("trap monitor: {e}")))?;
        self.trap_monitor = Some(ensemble);
        Ok(self)
    }

    /// The monitor's |ΔVth| in millivolts, or `None` when no monitor is
    /// attached.
    pub fn trap_monitor_dvth_mv(&self) -> Option<f64> {
        self.trap_monitor.as_ref().map(|m| m.delta_vth_mv())
    }

    /// The monitor's consolidated (permanent) component in millivolts.
    pub fn trap_monitor_permanent_mv(&self) -> Option<f64> {
        self.trap_monitor.as_ref().map(|m| m.permanent_mv())
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Elapsed simulated time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Epochs simulated so far.
    pub fn epochs(&self) -> usize {
        self.epoch_index
    }

    /// The scheduling metrics accumulated so far (always on; see
    /// [`MetricsReport`]).
    pub fn metrics(&self) -> &MetricsReport {
        &self.metrics
    }

    /// Injects a hardware fault into one core's BTI wear sensor, effective
    /// from the next sensing epoch. The simulation keeps running: the
    /// [`SensorGuard`] is expected to notice (stuck/dropped) or absorb
    /// (noisy) the fault, and a noticed sensor degrades its core to the
    /// conservative recovery schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::CoreOutOfRange`] when `core` does not exist.
    pub fn inject_sensor_fault(
        &mut self,
        core: usize,
        kind: SensorFaultKind,
    ) -> Result<(), SchedError> {
        let cores = self.cores.len();
        let slot = self
            .cores
            .get_mut(core)
            .ok_or(SchedError::CoreOutOfRange { core, cores })?;
        slot.fault = Some(kind);
        slot.stuck_latch = f64::NAN;
        Ok(())
    }

    /// Applies every sensor fault a [`FaultPlan`] directs at this system's
    /// cores (both the probabilistic `stuck=` draws and the directed
    /// `stuck-chip=` target), treating core indices as the plan's chip
    /// indices.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(kind) = plan.sensor_fault(i as u64) {
                core.fault = Some(kind);
                core.stuck_latch = f64::NAN;
            }
        }
    }

    /// Sensors flagged as bad so far, in the order staleness detection
    /// latched them.
    pub fn sensor_incidents(&self) -> &[SensorIncident] {
        &self.sensor_incidents
    }

    /// How many cores are currently scheduled by the conservative fallback
    /// policy because their sensor is distrusted.
    pub fn degraded_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.guard.faulted()).count()
    }

    /// Advances one epoch under `policy`, returning per-core status.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors (cannot occur with validated
    /// configurations).
    pub fn step(&mut self, policy: Policy) -> Result<Vec<CoreStatus>, SchedError> {
        let mut utils = self.workload.sample(self.time);
        let n = self.cores.len();

        // The rotation policy migrates the dark cores' work onto the rest.
        if let Policy::DarkSiliconRotation { spares, .. } = policy {
            let dark: Vec<bool> = (0..n)
                .map(|i| Policy::is_dark(self.epoch_index, i, n, spares))
                .collect();
            let displaced: f64 = utils
                .iter()
                .zip(&dark)
                .filter(|(_, &d)| d)
                .map(|(u, _)| u.value())
                .sum();
            let active = dark.iter().filter(|&&d| !d).count().max(1);
            let extra = displaced / active as f64;
            for (u, &d) in utils.iter_mut().zip(&dark) {
                *u = if d {
                    Fraction::ZERO
                } else {
                    Fraction::clamped(u.value() + extra)
                };
            }
        }

        // Plans come from last epoch's sensor readings. A core whose
        // sensor the guard has distrusted cannot be planned from those
        // readings: it falls back to the conservative periodic-deep
        // schedule, which heals every epoch without consulting sensors —
        // degraded, never silently skipping recovery.
        let mut conservative = 0u64;
        let plans: Vec<_> = self
            .cores
            .iter()
            .enumerate()
            .zip(&utils)
            .map(|((i, core), &util)| {
                let effective = if policy.uses_sensors() && core.guard.faulted() {
                    conservative += 1;
                    Policy::periodic_deep_default()
                } else {
                    policy
                };
                effective.plan(
                    self.epoch_index,
                    i,
                    n,
                    util,
                    core.sensed_dvth_mv,
                    core.sensed_em,
                )
            })
            .collect();

        // Thermal: power follows the executed work (deep recovery = dark).
        let powers: Vec<f64> = plans
            .iter()
            .zip(&utils)
            .map(|(plan, &util)| {
                let executed = util.value().min(plan.run.value());
                self.config.idle_power_w
                    + executed * (self.config.peak_power_w - self.config.idle_power_w)
            })
            .collect();
        self.thermal.settle(&powers)?;

        let epoch = self.config.epoch;
        let metrics_before = self.metrics.clone();
        self.metrics.conservative_core_epochs += conservative;
        let mut out = Vec::with_capacity(self.cores.len());
        for (i, core) in self.cores.iter_mut().enumerate() {
            let temp = self
                .thermal
                .temperature(i / self.config.cols, i % self.config.cols);
            let plan = plans[i];
            let util = utils[i];
            let executed = util.value().min(plan.run.value());

            // --- Mode accounting (always on; the arithmetic is free) ---
            let mode = CoreMode::classify(&plan);
            self.metrics
                .observe_core_epoch(mode, core.last_mode != Some(mode));
            core.last_mode = Some(mode);

            // --- BTI ---
            let stress_cond = StressCondition {
                gate_voltage: self.config.vdd,
                temperature: temp,
            };
            core.bti.stress(epoch * plan.run.value(), stress_cond);
            if plan.idle().value() > 0.0 {
                // Powered-but-idle: gates sit at 0 bias — passive recovery
                // at the tile temperature.
                core.bti.recover(
                    epoch * plan.idle().value(),
                    RecoveryCondition {
                        gate_voltage: Volts::ZERO,
                        temperature: temp,
                    },
                );
            }
            if plan.bti_recovery.value() > 0.0 {
                // Deep recovery at the assist circuitry's swap bias; the
                // dark core is kept warm by its neighbours (temp is the
                // settled tile temperature).
                let dvth_before = core.bti.delta_vth_mv();
                core.bti.recover(
                    epoch * plan.bti_recovery.value(),
                    RecoveryCondition {
                        gate_voltage: self.config.bti_recovery_bias,
                        temperature: temp,
                    },
                );
                self.metrics.bti_recovery_seconds += epoch.value() * plan.bti_recovery.value();
                self.metrics.bti_healed_mv += (dvth_before - core.bti.delta_vth_mv()).max(0.0);
            }

            // The trap monitor shadows core 0's schedule exactly.
            if i == 0 {
                if let Some(monitor) = self.trap_monitor.as_mut() {
                    monitor.stress(epoch * plan.run.value(), stress_cond);
                    if plan.idle().value() > 0.0 {
                        monitor.recover(
                            epoch * plan.idle().value(),
                            RecoveryCondition {
                                gate_voltage: Volts::ZERO,
                                temperature: temp,
                            },
                        );
                    }
                    if plan.bti_recovery.value() > 0.0 {
                        monitor.recover(
                            epoch * plan.bti_recovery.value(),
                            RecoveryCondition {
                                gate_voltage: self.config.bti_recovery_bias,
                                temperature: temp,
                            },
                        );
                    }
                }
            }

            // --- EM (Miner's rule over the local grid) ---
            let j = CurrentDensity::new(self.config.j_local.value() * executed.max(0.0));
            if j.value() > 0.0 {
                let ttf = self.black.median_ttf(j, temp);
                let stress_time = epoch.value() * executed;
                let d = plan.em_recovery_duty.value();
                let eta = self.config.em_heal_efficiency.value();
                let wear_factor = (1.0 - d) - eta * d;
                self.metrics.em_damage_healed += stress_time / ttf.value() * eta * d;
                self.metrics.em_recovery_core_seconds += stress_time * d;
                core.em_damage += stress_time / ttf.value() * wear_factor;
                core.em_peak = core.em_peak.max(core.em_damage);
                // Healing cannot undo the pinned component.
                let floor = self.config.em_pinned_floor.value() * core.em_peak;
                core.em_damage = core.em_damage.clamp(floor, 1.0);
            }

            // --- Sensing for the next epoch ---
            // Open-loop policies never read the measurements, so only the
            // adaptive policy pays for them.
            if policy.uses_sensors() {
                let raw = core.bti_sensor.measure(core.bti.delta_vth_mv());
                // Hardware fault model: a stuck sensor latches whatever it
                // read first after the fault hit; a dropped sensor returns
                // nothing (NaN); a noisy one glitches every third epoch
                // (isolated spikes — a minority of any filter window).
                let reading = match core.fault {
                    None => raw,
                    Some(SensorFaultKind::Stuck) => {
                        if core.stuck_latch.is_nan() {
                            core.stuck_latch = raw;
                        }
                        core.stuck_latch
                    }
                    Some(SensorFaultKind::Dropped) => f64::NAN,
                    Some(SensorFaultKind::Noisy(factor)) => {
                        if self.epoch_index % 3 == 1 {
                            raw * factor
                        } else {
                            raw
                        }
                    }
                };
                let trusted = !core.guard.faulted();
                core.sensed_dvth_mv = core.guard.filter(reading);
                if trusted && core.guard.faulted() {
                    self.metrics.sensor_faults_detected += 1;
                    self.sensor_incidents.push(SensorIncident {
                        chip: i as u64,
                        kind: core.fault.unwrap_or(SensorFaultKind::Stuck),
                        epoch: self.epoch_index as u64,
                    });
                }
                core.sensed_em = core.em_sensor.measure(Fraction::clamped(core.em_damage));
            }

            out.push(CoreStatus {
                delta_vth_mv: core.bti.delta_vth_mv(),
                em_damage: Fraction::clamped(core.em_damage),
                temperature: temp,
                bti_recovery: plan.bti_recovery,
                displaced_work: Fraction::clamped(util.value() - executed),
                demanded_work: util,
            });
        }

        self.metrics.epochs += 1;
        let name = policy.name();
        let mirror = match self.mirror {
            Some(mirror) if mirror.policy == name => mirror,
            _ => *self.mirror.insert(RegistryMirror::resolve(name)),
        };
        mirror.record(&self.metrics, &metrics_before);

        self.epoch_index += 1;
        self.time += epoch;
        Ok(out)
    }

    /// The worst (largest) true ΔVth across cores, millivolts.
    pub fn worst_delta_vth_mv(&self) -> f64 {
        self.cores
            .iter()
            .map(|c| c.bti.delta_vth_mv())
            .fold(0.0, f64::max)
    }

    /// The worst true EM damage fraction across cores.
    pub fn worst_em_damage(&self) -> Fraction {
        Fraction::clamped(self.cores.iter().map(|c| c.em_damage).fold(0.0, f64::max))
    }

    /// The worst permanent BTI component across cores, millivolts.
    pub fn worst_permanent_mv(&self) -> f64 {
        self.cores
            .iter()
            .map(|c| c.bti.permanent_mv())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: Policy, epochs: usize, seed: u64) -> Result<ManyCoreSystem, SchedError> {
        let config = SystemConfig {
            seed,
            ..SystemConfig::default()
        };
        let mut sys = ManyCoreSystem::new(config)?;
        for _ in 0..epochs {
            sys.step(policy)?;
        }
        Ok(sys)
    }

    #[test]
    fn the_registry_mirror_follows_the_stepped_policy() {
        let mut sys = ManyCoreSystem::new(SystemConfig::default()).unwrap();
        sys.step(Policy::NoRecovery).unwrap();
        sys.step(Policy::NoRecovery).unwrap();
        assert_eq!(sys.mirror.map(|m| m.policy), Some("no-recovery"));
        let deep = dh_obs::counter("sched.periodic-deep.epochs");
        let before = deep.get();
        sys.step(Policy::periodic_deep_default()).unwrap();
        assert_eq!(sys.mirror.map(|m| m.policy), Some("periodic-deep"));
        assert!(deep.get() > before);
    }

    #[test]
    fn default_config_derives_bias_from_the_assist_circuit() {
        let c = SystemConfig::default();
        assert!(
            c.bti_recovery_bias < Volts::new(-0.5),
            "bias {}",
            c.bti_recovery_bias
        );
    }

    #[test]
    fn unsolvable_assist_circuit_is_a_typed_error_not_a_panic() {
        let broken = AssistCircuit::paper_28nm().with_header_width(0.0);
        let err = SystemConfig::with_assist_circuit(&broken).unwrap_err();
        assert!(
            matches!(err, SchedError::AssistCircuit(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("header_width"), "{err}");
    }

    #[test]
    fn config_from_assist_circuit_matches_default() -> Result<(), SchedError> {
        let from_circuit = SystemConfig::with_assist_circuit(&AssistCircuit::paper_28nm())?;
        assert_eq!(
            from_circuit.bti_recovery_bias,
            SystemConfig::default().bti_recovery_bias
        );
        Ok(())
    }

    #[test]
    fn metrics_track_modes_transitions_and_healing() -> Result<(), SchedError> {
        // Periodic deep recovery (period 1): every core is in BTI-AR every
        // epoch — one power-on transition per core, recovery scheduled and
        // ΔVth healed every epoch.
        let deep = run(Policy::periodic_deep_default(), 40, 1)?;
        let m = deep.metrics();
        assert_eq!(m.epochs, 40);
        assert_eq!(m.core_epochs, 40 * 16);
        assert_eq!(m.epochs_bti_ar, 40 * 16);
        assert_eq!(m.epochs_normal, 0);
        assert_eq!(m.transitions_to_bti_ar, 16);
        assert_eq!(m.mode_transitions(), 16);
        // periodic_deep_default schedules 15 % of each 6 h epoch.
        let expected = 40.0 * 16.0 * 0.15 * Seconds::from_hours(6.0).value();
        assert!(
            (m.bti_recovery_seconds - expected).abs() < 1e-6,
            "scheduled {} vs expected {expected}",
            m.bti_recovery_seconds
        );
        assert!(m.bti_healed_mv > 0.0, "deep recovery must heal ΔVth");
        assert!(m.em_damage_healed > 0.0, "EM duty must heal damage");
        assert!(m.em_recovery_core_seconds > 0.0);

        // No recovery: everything is Normal and nothing heals.
        let none = run(Policy::NoRecovery, 40, 1)?;
        let m = none.metrics();
        assert_eq!(m.epochs_normal, 40 * 16);
        assert_eq!(m.transitions_to_normal, 16);
        assert_eq!(m.bti_recovery_seconds, 0.0);
        assert_eq!(m.bti_healed_mv, 0.0);
        assert_eq!(m.em_damage_healed, 0.0);

        // Rotation flips each core between dark (BTI-AR) and lit (EM duty)
        // epochs, so transitions keep accumulating past power-on.
        let rotation = run(Policy::rotation_default(), 40, 1)?;
        let m = rotation.metrics();
        assert!(m.epochs_bti_ar > 0 && m.epochs_em_ar > 0);
        assert!(
            m.mode_transitions() > 16,
            "rotation must keep transitioning: {}",
            m.mode_transitions()
        );
        Ok(())
    }

    #[test]
    fn wearout_accumulates_without_recovery() -> Result<(), SchedError> {
        let sys = run(Policy::NoRecovery, 120, 1)?;
        assert!(
            sys.worst_delta_vth_mv() > 1.0,
            "ΔVth {}",
            sys.worst_delta_vth_mv()
        );
        assert!(sys.worst_em_damage().value() > 0.0);
        assert_eq!(sys.epochs(), 120);
        assert_eq!(sys.time(), Seconds::from_hours(720.0));
        Ok(())
    }

    #[test]
    fn passive_idle_is_better_than_no_recovery() -> Result<(), SchedError> {
        let none = run(Policy::NoRecovery, 120, 1)?;
        let passive = run(Policy::PassiveIdle, 120, 1)?;
        assert!(
            passive.worst_delta_vth_mv() < none.worst_delta_vth_mv(),
            "passive {} vs none {}",
            passive.worst_delta_vth_mv(),
            none.worst_delta_vth_mv()
        );
        Ok(())
    }

    #[test]
    fn periodic_deep_recovery_beats_passive_idle() -> Result<(), SchedError> {
        let passive = run(Policy::PassiveIdle, 120, 1)?;
        let deep = run(Policy::periodic_deep_default(), 120, 1)?;
        assert!(
            deep.worst_delta_vth_mv() < passive.worst_delta_vth_mv(),
            "deep {} vs passive {}",
            deep.worst_delta_vth_mv(),
            passive.worst_delta_vth_mv()
        );
        // EM duty also reduces grid damage.
        assert!(deep.worst_em_damage() < passive.worst_em_damage());
        Ok(())
    }

    #[test]
    fn em_damage_respects_the_pinned_floor() -> Result<(), SchedError> {
        let sys = run(Policy::periodic_deep_default(), 200, 2)?;
        for core in &sys.cores {
            assert!(core.em_damage >= sys.config.em_pinned_floor.value() * core.em_peak - 1e-12);
            assert!(core.em_damage <= 1.0);
        }
        Ok(())
    }

    #[test]
    fn same_seed_is_bit_reproducible() -> Result<(), SchedError> {
        let a = run(Policy::adaptive_default(), 60, 5)?;
        let b = run(Policy::adaptive_default(), 60, 5)?;
        assert_eq!(a.worst_delta_vth_mv(), b.worst_delta_vth_mv());
        assert_eq!(a.worst_em_damage(), b.worst_em_damage());
        Ok(())
    }

    #[test]
    fn different_seeds_differ() -> Result<(), SchedError> {
        let a = run(Policy::adaptive_default(), 60, 5)?;
        let b = run(Policy::adaptive_default(), 60, 6)?;
        assert_ne!(a.worst_delta_vth_mv(), b.worst_delta_vth_mv());
        Ok(())
    }

    #[test]
    fn busy_cores_run_hotter_than_ambient() -> Result<(), SchedError> {
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        let status = sys.step(Policy::PassiveIdle)?;
        for s in &status {
            assert!(s.temperature.to_celsius().value() > 45.0);
        }
        Ok(())
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // mutating one field is the point
    fn invalid_configs_are_rejected() {
        let mut c = SystemConfig::default();
        c.rows = 0;
        assert!(ManyCoreSystem::new(c).is_err());
        let mut c = SystemConfig::default();
        c.epoch = Seconds::ZERO;
        assert!(ManyCoreSystem::new(c).is_err());
        let mut c = SystemConfig::default();
        c.bti_recovery_bias = Volts::new(0.3);
        assert!(ManyCoreSystem::new(c).is_err());
        let mut c = SystemConfig::default();
        c.sensor_window = 0;
        assert!(ManyCoreSystem::new(c).is_err());
    }

    #[test]
    fn rotation_at_epoch_granularity_cannot_prevent_permanent_damage() -> Result<(), SchedError> {
        // An honest negative result that *confirms* the paper's in-time
        // requirement: with 2 of 16 cores dark per 6 h epoch, each core is
        // deep-healed only every 48 h — far beyond the ~2 h consolidation
        // window — so the permanent component is NOT meaningfully reduced
        // versus passive idling (and the displaced work even raises the
        // recoverable ripple on the lit cores). Effective rotation must
        // cycle faster than consolidation, which is what the per-epoch
        // `periodic_deep_default` schedule achieves.
        let passive = run(Policy::PassiveIdle, 160, 7)?;
        let rotation = run(Policy::rotation_default(), 160, 7)?;
        let periodic = run(Policy::periodic_deep_default(), 160, 7)?;
        assert!(
            rotation.worst_permanent_mv() > 0.7 * passive.worst_permanent_mv(),
            "48 h rotation should not beat passive on permanent damage: {} vs {}",
            rotation.worst_permanent_mv(),
            passive.worst_permanent_mv()
        );
        assert!(
            periodic.worst_permanent_mv() < 0.3 * rotation.worst_permanent_mv(),
            "in-time per-epoch healing must crush 48 h rotation: {} vs {}",
            periodic.worst_permanent_mv(),
            rotation.worst_permanent_mv()
        );
        Ok(())
    }

    #[test]
    fn rotation_periodically_refreshes_each_core() -> Result<(), SchedError> {
        // What rotation *does* deliver: right after its dark epoch a core
        // is near-fresh, far below the fleet's worst.
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        for _ in 0..32 {
            sys.step(Policy::rotation_default())?;
        }
        // Core darkened in the previous epoch: epoch 31 darkens cores
        // (31·2)%16 = 14 and 15.
        let fresh = sys.cores[14].bti.delta_vth_mv();
        let worst = sys.worst_delta_vth_mv();
        // The residue is mostly the (consolidated) permanent component.
        assert!(
            fresh < 0.5 * worst,
            "just-healed core {fresh} vs worst {worst}"
        );
        Ok(())
    }

    #[test]
    fn rotation_darkens_cores_in_turn() -> Result<(), SchedError> {
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        let mut dark_seen = vec![false; 16];
        for _ in 0..8 {
            let status = sys.step(Policy::rotation_default())?;
            let dark: Vec<usize> = status
                .iter()
                .enumerate()
                .filter(|(_, s)| s.bti_recovery == Fraction::ONE)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(dark.len(), 2, "two spares per epoch");
            for d in dark {
                dark_seen[d] = true;
            }
        }
        assert!(
            dark_seen.iter().all(|&d| d),
            "every core rotates dark: {dark_seen:?}"
        );
        Ok(())
    }

    #[test]
    fn trap_monitor_shadows_core_zero() -> Result<(), SchedError> {
        let missing = || SchedError::InvalidConfig("monitor not attached".into());
        let mut with_monitor =
            ManyCoreSystem::new(SystemConfig::default())?.with_trap_monitor(800)?;
        let mut without = ManyCoreSystem::new(SystemConfig::default())?;
        assert!(without.trap_monitor_dvth_mv().is_none());
        for _ in 0..20 {
            with_monitor.step(Policy::periodic_deep_default())?;
            without.step(Policy::periodic_deep_default())?;
        }
        let monitor = with_monitor.trap_monitor_dvth_mv().ok_or_else(missing)?;
        let analytic = with_monitor.cores[0].bti.delta_vth_mv();
        assert!(monitor > 0.0, "monitor must age: {monitor}");
        assert!(
            (monitor - analytic).abs() / analytic < 0.6,
            "Monte-Carlo monitor {monitor} should track the analytic core {analytic}"
        );
        assert!(
            with_monitor
                .trap_monitor_permanent_mv()
                .ok_or_else(missing)?
                >= 0.0
        );
        // The monitor is an observer: the fleet itself is unchanged.
        assert_eq!(
            with_monitor.worst_delta_vth_mv(),
            without.worst_delta_vth_mv()
        );
        Ok(())
    }

    #[test]
    fn trap_monitor_rejects_empty_ensembles() -> Result<(), SchedError> {
        let sys = ManyCoreSystem::new(SystemConfig::default())?;
        assert!(sys.with_trap_monitor(0).is_err());
        Ok(())
    }

    #[test]
    fn adaptive_policy_reacts_to_accumulating_wearout() -> Result<(), SchedError> {
        // Early on, no recovery is scheduled; once the sensed shift
        // crosses the threshold, recovery epochs appear.
        let config = SystemConfig::default();
        let mut sys = ManyCoreSystem::new(config)?;
        let policy = Policy::adaptive_default();
        let mut early_recovery = 0.0;
        let mut late_recovery = 0.0;
        for epoch in 0..400 {
            let status = sys.step(policy)?;
            let total: f64 = status.iter().map(|s| s.bti_recovery.value()).sum();
            if epoch < 20 {
                early_recovery += total;
            } else {
                late_recovery += total;
            }
        }
        assert!(
            late_recovery > early_recovery,
            "late {late_recovery} vs early {early_recovery}"
        );
        Ok(())
    }

    #[test]
    fn healthy_sensors_are_never_flagged() -> Result<(), SchedError> {
        // The BTI sensor clamps sub-floor inferences to exactly 0.0, so a
        // young fleet emits long runs of repeated zeros — the staleness
        // detector must not mistake those for a latched sensor.
        let sys = run(Policy::adaptive_default(), 400, 5)?;
        assert!(
            sys.sensor_incidents().is_empty(),
            "false positives: {:?}",
            sys.sensor_incidents()
        );
        assert_eq!(sys.metrics().sensor_faults_detected, 0);
        assert_eq!(sys.metrics().conservative_core_epochs, 0);
        assert_eq!(sys.degraded_cores(), 0);
        Ok(())
    }

    #[test]
    fn stuck_sensor_degrades_its_core_to_conservative_healing() -> Result<(), SchedError> {
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        let policy = Policy::adaptive_default();
        // Age the fleet first so the latched reading is nonzero (a sensor
        // stuck at a fresh device's legitimate 0.0 is indistinguishable
        // from health until wear appears).
        for _ in 0..120 {
            sys.step(policy)?;
        }
        sys.inject_sensor_fault(3, SensorFaultKind::Stuck)?;
        let mut healed_after_flag = false;
        for _ in 0..40 {
            let status = sys.step(policy)?;
            if sys.cores[3].guard.faulted() && status[3].bti_recovery.value() > 0.0 {
                healed_after_flag = true;
            }
        }
        let incidents = sys.sensor_incidents();
        assert_eq!(incidents.len(), 1, "exactly one flagged sensor");
        assert_eq!(incidents[0].chip, 3);
        assert_eq!(incidents[0].kind, SensorFaultKind::Stuck);
        assert_eq!(sys.metrics().sensor_faults_detected, 1);
        assert!(
            sys.metrics().conservative_core_epochs > 0,
            "the distrusted core must fall back to the conservative policy"
        );
        assert_eq!(sys.degraded_cores(), 1);
        assert!(
            healed_after_flag,
            "degradation must still schedule recovery, never skip it"
        );
        Ok(())
    }

    #[test]
    fn dropped_sensor_is_flagged_within_the_staleness_window() -> Result<(), SchedError> {
        let config = SystemConfig::default();
        let stale_after = config.sensor_stale_epochs as usize;
        let mut sys = ManyCoreSystem::new(config)?;
        sys.inject_sensor_fault(0, SensorFaultKind::Dropped)?;
        for _ in 0..(stale_after + 2) {
            sys.step(Policy::adaptive_default())?;
        }
        // A dead sensor returns NaN from its very first reading, so the
        // flag lands as soon as the window fills — wear level irrelevant.
        assert_eq!(sys.sensor_incidents().len(), 1);
        assert_eq!(sys.sensor_incidents()[0].kind, SensorFaultKind::Dropped);
        assert_eq!(
            sys.sensor_incidents()[0].epoch,
            stale_after as u64 - 1,
            "flagged on the last epoch of the staleness window"
        );
        Ok(())
    }

    #[test]
    fn noisy_sensor_is_absorbed_by_the_median_filter() -> Result<(), SchedError> {
        // Periodic 50x spikes on one core's sensor: the median filter
        // rejects them, so the adaptive trajectory stays close to the
        // clean run and the sensor is never flagged (it is live, just
        // noisy — staleness is the wrong verdict).
        let clean = run(Policy::adaptive_default(), 200, 5)?;
        let mut noisy = ManyCoreSystem::new(SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        })?;
        noisy.inject_sensor_fault(7, SensorFaultKind::Noisy(50.0))?;
        for _ in 0..200 {
            noisy.step(Policy::adaptive_default())?;
        }
        assert!(noisy.sensor_incidents().is_empty());
        let a = clean.worst_delta_vth_mv();
        let b = noisy.worst_delta_vth_mv();
        assert!(
            (a - b).abs() / a < 0.25,
            "noisy run {b} must stay close to clean run {a}"
        );
        Ok(())
    }

    #[test]
    fn fault_plans_map_onto_cores() -> Result<(), SchedError> {
        let plan = FaultPlan::parse("stuck-chip=6", 9)
            .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        sys.apply_fault_plan(&plan);
        assert_eq!(sys.cores[6].fault, Some(SensorFaultKind::Stuck));
        assert!(sys.cores.iter().filter(|c| c.fault.is_some()).count() == 1);
        Ok(())
    }

    #[test]
    fn sensor_fault_injection_rejects_missing_cores() -> Result<(), SchedError> {
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        let err = sys
            .inject_sensor_fault(99, SensorFaultKind::Dropped)
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::CoreOutOfRange {
                core: 99,
                cores: 16
            }
        );
        Ok(())
    }

    #[test]
    fn open_loop_policies_ignore_sensor_faults() -> Result<(), SchedError> {
        // Periodic deep recovery never reads sensors, so even a dead
        // sensor changes nothing — no incidents, no degraded cores.
        let mut sys = ManyCoreSystem::new(SystemConfig::default())?;
        sys.inject_sensor_fault(2, SensorFaultKind::Dropped)?;
        for _ in 0..20 {
            sys.step(Policy::periodic_deep_default())?;
        }
        assert!(sys.sensor_incidents().is_empty());
        assert_eq!(sys.degraded_cores(), 0);
        Ok(())
    }
}
