//! The EM wire simulator: Korhonen stress evolution coupled to void
//! nucleation, growth, healing, and pinning.
//!
//! # Model
//!
//! Hydrostatic stress σ(x, t) in the line follows the Korhonen equation in
//! conservative form,
//!
//! ```text
//! ∂σ/∂t = −∂F/∂x,       F = −κ(T) · (∂σ/∂x + G)
//! ```
//!
//! with `G = Z* e ρ(T) j / Ω` the electron-wind drive (signed with the
//! current) and `κ = D_a B Ω / (k_B T)`. Both wire ends are blocked
//! (dual-damascene barriers): `F = 0` until a void exists.
//!
//! For forward current (`j > 0`) tension builds at the *cathode* end
//! (`x = 0`); a void nucleates there when the tension reaches the critical
//! stress. A voided end switches to a free-surface boundary (`σ = 0`) and
//! the void exchanges length with the line at the boundary drift velocity
//!
//! ```text
//! v = (D_a / k_B T) · Ω · (G + ∂σ/∂x)|boundary
//! ```
//!
//! Healing (`v < 0` at the cathode) is boosted by the material's
//! `recovery_mobility_boost`, reproducing the measured asymmetry (>75 % of
//! the damage heals within 1/5 of the stress time, Fig. 5). Mobile void
//! volume *pins* (consolidates) with time constant `pinning_tau_s`; pinned
//! volume contributes resistance but cannot heal — the EM permanent
//! component. Reverse current applied past full healing drives tension at
//! the opposite end and can nucleate a *reverse* void (Fig. 6's
//! "reverse-current-induced EM").

use core::fmt;

use dh_units::{Celsius, CurrentDensity, Kelvin, Ohms, Pascals, Seconds};

use crate::error::EmError;
use crate::material::EmMaterial;
use crate::mesh::Mesh;
use crate::stencil;
use crate::wire::WireGeometry;

/// The two ends of the wire. Names refer to the role under *forward*
/// current: electrons enter at the cathode (`x = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireEnd {
    /// The `x = 0` end (tensile under forward current).
    Cathode,
    /// The `x = L` end (tensile under reverse current).
    Anode,
}

impl WireEnd {
    /// Both ends, cathode first.
    pub const BOTH: [Self; 2] = [Self::Cathode, Self::Anode];
}

impl fmt::Display for WireEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cathode => write!(f, "cathode"),
            Self::Anode => write!(f, "anode"),
        }
    }
}

/// Void state at one wire end, in metres of equivalent void length.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct VoidState {
    mobile_m: f64,
    pinned_m: f64,
}

impl VoidState {
    fn total_m(&self) -> f64 {
        self.mobile_m + self.pinned_m
    }

    fn exists(&self) -> bool {
        self.total_m() > 0.0
    }
}

/// Default node count for the paper wire (resolves the ~10 µm diffusion
/// length at the ends).
const DEFAULT_NODES: usize = 181;
/// Default end clustering of the mesh.
const DEFAULT_CLUSTERING: f64 = 0.95;
/// Explicit-integration safety factor on the stability limit.
const STABILITY_SAFETY: f64 = 0.4;
/// Seed length of a freshly nucleated void, metres.
const VOID_SEED_M: f64 = 1.0e-10;

/// A simulated EM test wire.
#[derive(Debug, Clone, PartialEq)]
pub struct EmWire {
    geometry: WireGeometry,
    material: EmMaterial,
    mesh: Mesh,
    sigma: Vec<f64>,
    temperature: Kelvin,
    voids: [VoidState; 2],
    time: Seconds,
    failed: bool,
}

impl EmWire {
    /// Builds a wire simulator.
    ///
    /// # Errors
    ///
    /// Returns [`EmError`] if the geometry, material, or mesh parameters are
    /// invalid.
    pub fn new(
        geometry: WireGeometry,
        material: EmMaterial,
        temperature: Kelvin,
        nodes: usize,
    ) -> Result<Self, EmError> {
        Self::with_clustering(geometry, material, temperature, nodes, DEFAULT_CLUSTERING)
    }

    /// Like [`EmWire::new`] with explicit mesh end-clustering. Millimetre
    /// test wires want strong clustering (the default 0.95); short local
    /// segments want mild clustering so the explicit stability limit stays
    /// practical.
    ///
    /// # Errors
    ///
    /// As for [`EmWire::new`].
    pub fn with_clustering(
        geometry: WireGeometry,
        material: EmMaterial,
        temperature: Kelvin,
        nodes: usize,
        clustering: f64,
    ) -> Result<Self, EmError> {
        let geometry = geometry.validated()?;
        let material = material.validated()?;
        let mesh = Mesh::end_refined(nodes, geometry.length_m, clustering)?;
        temperature.validated()?;
        Ok(Self {
            geometry,
            material,
            mesh,
            sigma: vec![0.0; nodes],
            temperature,
            voids: [VoidState::default(); 2],
            time: Seconds::ZERO,
            failed: false,
        })
    }

    /// The paper's Fig. 3 wire in damascene copper at the 230 °C oven
    /// temperature used in Figs. 5–7.
    pub fn paper_wire() -> Self {
        Self::new(
            WireGeometry::paper(),
            EmMaterial::damascene_copper(),
            Celsius::new(230.0).to_kelvin(),
            DEFAULT_NODES,
        )
        .expect("paper wire parameters are valid by construction")
    }

    /// The wire geometry.
    pub fn geometry(&self) -> &WireGeometry {
        &self.geometry
    }

    /// The material parameters.
    pub fn material(&self) -> &EmMaterial {
        &self.material
    }

    /// Current simulation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Current wire temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Changes the wire temperature (e.g. oven programs).
    pub fn set_temperature(&mut self, t: Kelvin) {
        self.temperature = t;
    }

    /// Whether the wire has failed open (void reached the break length).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether any void exists at either end.
    pub fn has_void(&self) -> bool {
        self.voids.iter().any(VoidState::exists)
    }

    /// Whether a void exists at the given end.
    pub fn has_void_at(&self, end: WireEnd) -> bool {
        self.void(end).exists()
    }

    /// Total void length at an end (mobile + pinned), metres.
    pub fn void_length_m(&self, end: WireEnd) -> f64 {
        self.void(end).total_m()
    }

    /// Pinned (unrecoverable) void length at an end, metres.
    pub fn pinned_length_m(&self, end: WireEnd) -> f64 {
        self.void(end).pinned_m
    }

    /// The boundary stress at an end.
    pub fn end_stress(&self, end: WireEnd) -> Pascals {
        match end {
            WireEnd::Cathode => Pascals::new(self.sigma[0]),
            WireEnd::Anode => Pascals::new(*self.sigma.last().expect("non-empty mesh")),
        }
    }

    /// The full stress profile as `(position m, stress Pa)` pairs.
    pub fn stress_profile(&self) -> Vec<(f64, f64)> {
        self.mesh
            .nodes()
            .iter()
            .copied()
            .zip(self.sigma.iter().copied())
            .collect()
    }

    /// Electrical resistance at the current temperature, including void
    /// contributions. Returns `Ohms::new(f64::INFINITY)` once failed open.
    pub fn resistance(&self) -> Ohms {
        if self.failed {
            return Ohms::new(f64::INFINITY);
        }
        let dr: f64 = self
            .voids
            .iter()
            .map(|v| v.total_m() * self.material.void_resistance_per_m)
            .sum();
        self.geometry.resistance_at(self.temperature) + Ohms::new(dr)
    }

    /// The resistance increase over the fresh wire at this temperature.
    pub fn delta_resistance(&self) -> Ohms {
        if self.failed {
            return Ohms::new(f64::INFINITY);
        }
        self.resistance() - self.geometry.resistance_at(self.temperature)
    }

    fn void(&self, end: WireEnd) -> &VoidState {
        match end {
            WireEnd::Cathode => &self.voids[0],
            WireEnd::Anode => &self.voids[1],
        }
    }

    /// Advances the simulation by `dt` under current density `j` (signed:
    /// positive is the forward stress direction, negative is the paper's
    /// *EM active recovery* direction; zero is passive recovery).
    ///
    /// The call internally sub-steps at the explicit stability limit. After
    /// hard failure the wire state is frozen and calls are no-ops.
    pub fn advance(&mut self, dt: Seconds, j: CurrentDensity) {
        let t = self.temperature;
        self.advance_with_profile(dt, j, |_| t);
    }

    /// Like [`EmWire::advance`], but with a spatial temperature profile
    /// `temp_at(x_m)` along the wire — the paper's Fig. 12(a) situation
    /// where neighbouring logic heats one end of a grid segment. Both the
    /// stress diffusivity κ and the wind drive G become fields; the hot
    /// regions both stress and heal faster. (Thermomigration — atom flux
    /// driven by the temperature gradient itself — is outside the model;
    /// see DESIGN.md.)
    pub fn advance_with_profile(
        &mut self,
        dt: Seconds,
        j: CurrentDensity,
        temp_at: impl Fn(f64) -> Kelvin,
    ) {
        if !(dt.value() > 0.0) || self.failed || !j.value().is_finite() {
            return;
        }
        let n = self.sigma.len();
        // Per-face transport coefficients from the midpoint temperature.
        let mut kappa = vec![0.0; n - 1];
        let mut g = vec![0.0; n - 1];
        let mut kappa_max: f64 = 0.0;
        for i in 0..n - 1 {
            let x_mid = 0.5 * (self.mesh.nodes()[i] + self.mesh.nodes()[i + 1]);
            let t = temp_at(x_mid);
            kappa[i] = self.material.kappa(t);
            g[i] = self.material.wind_drive(&self.geometry, j, t);
            kappa_max = kappa_max.max(kappa[i]);
        }
        let t_cathode = temp_at(0.0);
        let t_anode = temp_at(self.geometry.length_m);
        let drift = (
            self.material.drift_mobility(t_cathode),
            self.material.drift_mobility(t_anode),
        );
        let omega = self.material.atomic_volume_m3;
        let dx_min = self.mesh.min_spacing();
        let dt_stable = STABILITY_SAFETY * dx_min * dx_min / (2.0 * kappa_max.max(1e-300));

        // Everything loop-invariant is hoisted out of the substep: the
        // flux scratch buffer, the *reciprocal* face spacings and
        // control-volume widths (the vectorized stencil multiplies instead
        // of dividing — `vdivpd` would dominate it), and the pinning
        // factor (every substep but the final partial one uses dt_stable).
        // The substep arithmetic is shared with `advance_reference`, so
        // the two stay bit-identical.
        let mut flux = vec![0.0; n - 1];
        let inv_face_dx: Vec<f64> = (0..n - 1)
            .map(|i| 1.0 / self.mesh.face_spacing(i))
            .collect();
        let inv_widths: Vec<f64> = self.mesh.widths().iter().map(|&w| 1.0 / w).collect();
        let tau_pin = self.material.pinning_tau_s;
        let pin_stable = 1.0 - (-dt_stable / tau_pin).exp();

        let mut remaining = dt.value();
        while remaining > 0.0 && !self.failed {
            let step = remaining.min(dt_stable);
            let pin_factor = if step == dt_stable {
                pin_stable
            } else {
                1.0 - (-step / tau_pin).exp()
            };
            self.substep(
                step,
                &kappa,
                &g,
                drift,
                omega,
                &inv_face_dx,
                &inv_widths,
                &mut flux,
                pin_factor,
            );
            remaining -= step;
        }
    }

    /// The pre-optimization `advance` (one allocation-heavy substep loop):
    /// kept as the equivalence oracle for the hoisted fast path — it runs
    /// the same vectorized substep, so `advance` must match it bit for
    /// bit. Not part of the API.
    #[doc(hidden)]
    pub fn advance_reference(&mut self, dt: Seconds, j: CurrentDensity) {
        if !(dt.value() > 0.0) || self.failed || !j.value().is_finite() {
            return;
        }
        let n = self.sigma.len();
        let mut kappa = vec![0.0; n - 1];
        let mut g = vec![0.0; n - 1];
        let mut kappa_max: f64 = 0.0;
        for i in 0..n - 1 {
            kappa[i] = self.material.kappa(self.temperature);
            g[i] = self
                .material
                .wind_drive(&self.geometry, j, self.temperature);
            kappa_max = kappa_max.max(kappa[i]);
        }
        let mobility = self.material.drift_mobility(self.temperature);
        let drift = (mobility, mobility);
        let omega = self.material.atomic_volume_m3;
        let dx_min = self.mesh.min_spacing();
        let dt_stable = STABILITY_SAFETY * dx_min * dx_min / (2.0 * kappa_max.max(1e-300));

        let mut remaining = dt.value();
        while remaining > 0.0 && !self.failed {
            let step = remaining.min(dt_stable);
            // Per-substep allocations and transcendentals, as the original
            // hot loop had them.
            let mut flux = vec![0.0; n - 1];
            let inv_face_dx: Vec<f64> = (0..n - 1)
                .map(|i| 1.0 / self.mesh.face_spacing(i))
                .collect();
            let inv_widths: Vec<f64> = self.mesh.widths().iter().map(|&w| 1.0 / w).collect();
            let pin_factor = 1.0 - (-step / self.material.pinning_tau_s).exp();
            self.substep(
                step,
                &kappa,
                &g,
                drift,
                omega,
                &inv_face_dx,
                &inv_widths,
                &mut flux,
                pin_factor,
            );
            remaining -= step;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn substep(
        &mut self,
        dt: f64,
        kappa: &[f64],
        g: &[f64],
        drift: (f64, f64),
        omega: f64,
        inv_face_dx: &[f64],
        inv_widths: &[f64],
        flux: &mut [f64],
        pin_factor: f64,
    ) {
        let n = self.sigma.len();
        let sigma_crit = self.material.critical_stress.value();

        // Face fluxes F[i] between nodes i and i+1: F = −κ(∂σ/∂x + G) —
        // the vectorized stencil kernel.
        stencil::face_fluxes(flux, &self.sigma, kappa, g, inv_face_dx);

        // Void length rates at each end (m/s, positive = growing).
        let cathode_grad = (self.sigma[1] - self.sigma[0]) * inv_face_dx[0];
        let anode_grad = (self.sigma[n - 1] - self.sigma[n - 2]) * inv_face_dx[n - 2];
        let mut v_cathode = drift.0 * omega * (g[0] + cathode_grad);
        let mut v_anode = -drift.1 * omega * (g[n - 2] + anode_grad);
        if v_cathode < 0.0 {
            v_cathode *= self.material.recovery_mobility_boost;
        }
        if v_anode < 0.0 {
            v_anode *= self.material.recovery_mobility_boost;
        }

        // Interior update: σ' = −∂F/∂x over each control volume — the
        // vectorized stencil kernel.
        stencil::interior_update(&mut self.sigma, flux, inv_widths, dt);
        // Boundary nodes: blocked (zero boundary flux) without a void,
        // free surface (σ = 0) with one.
        if self.voids[0].exists() {
            self.sigma[0] = 0.0;
        } else {
            self.sigma[0] += -dt * flux[0] * inv_widths[0];
        }
        if self.voids[1].exists() {
            self.sigma[n - 1] = 0.0;
        } else {
            self.sigma[n - 1] += -dt * -flux[n - 2] * inv_widths[n - 1];
        }

        // Void volume exchange, pinning, nucleation, failure.
        for (idx, v_rate) in [(0, v_cathode), (1, v_anode)] {
            let void = &mut self.voids[idx];
            if void.exists() {
                void.mobile_m = (void.mobile_m + v_rate * dt).max(0.0);
                let pin = void.mobile_m * pin_factor;
                void.mobile_m -= pin;
                void.pinned_m += pin;
            }
        }
        if !self.voids[0].exists() && self.sigma[0] >= sigma_crit {
            self.voids[0].mobile_m = VOID_SEED_M;
            self.sigma[0] = 0.0;
        }
        if !self.voids[1].exists() && self.sigma[n - 1] >= sigma_crit {
            self.voids[1].mobile_m = VOID_SEED_M;
            self.sigma[n - 1] = 0.0;
        }
        if self
            .voids
            .iter()
            .any(|v| v.total_m() >= self.material.break_length_m)
        {
            self.failed = true;
        }

        self.time += Seconds::new(dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const J_STRESS: CurrentDensity = CurrentDensity::new(7.96e10);
    const J_RECOVER: CurrentDensity = CurrentDensity::new(-7.96e10);

    #[test]
    fn fresh_wire_is_unstressed_and_at_oven_resistance() {
        let w = EmWire::paper_wire();
        assert!(!w.has_void());
        assert!(!w.is_failed());
        assert_eq!(w.end_stress(WireEnd::Cathode), Pascals::ZERO);
        assert!((w.resistance().value() - 72.9).abs() < 0.3);
    }

    #[test]
    fn tension_builds_at_the_cathode_under_forward_current() {
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(60.0), J_STRESS);
        let cathode = w.end_stress(WireEnd::Cathode).value();
        let anode = w.end_stress(WireEnd::Anode).value();
        assert!(cathode > 0.0, "cathode stress {cathode}");
        assert!(anode < 0.0, "anode stress {anode}");
        // Antisymmetric evolution.
        assert!((cathode + anode).abs() < 0.05 * cathode);
    }

    #[test]
    fn early_cathode_stress_matches_semi_infinite_solution() {
        // σ(0, t) = 2G√(κt/π) while the diffusion length ≪ wire length.
        let mut w = EmWire::paper_wire();
        let t = Seconds::from_minutes(30.0);
        w.advance(t, J_STRESS);
        let kappa = w.material().kappa(w.temperature());
        let g = w
            .material()
            .wind_drive(w.geometry(), J_STRESS, w.temperature());
        let analytic = 2.0 * g * (kappa * t.value() / std::f64::consts::PI).sqrt();
        let got = w.end_stress(WireEnd::Cathode).value();
        assert!(
            (got - analytic).abs() / analytic < 0.08,
            "got {got:.3e}, analytic {analytic:.3e}"
        );
    }

    #[test]
    fn nucleation_happens_near_200_minutes() {
        // Fig. 5 calibration: the void nucleation phase lasts ≈200 min at
        // 230 °C and 7.96 MA/cm².
        let mut w = EmWire::paper_wire();
        let mut nucleated_at = None;
        for minute in 1..=400 {
            w.advance(Seconds::from_minutes(1.0), J_STRESS);
            if w.has_void() {
                nucleated_at = Some(minute);
                break;
            }
        }
        let t = nucleated_at.expect("void must nucleate under accelerated stress");
        assert!((140..=260).contains(&t), "nucleated at {t} min");
    }

    #[test]
    fn resistance_is_flat_during_nucleation_then_rises() {
        let mut w = EmWire::paper_wire();
        let r0 = w.resistance().value();
        w.advance(Seconds::from_minutes(100.0), J_STRESS);
        assert!(
            (w.resistance().value() - r0).abs() < 1e-6,
            "flat during incubation"
        );
        w.advance(Seconds::from_minutes(400.0), J_STRESS);
        assert!(w.has_void());
        assert!(w.resistance().value() > r0 + 0.3, "rises during growth");
    }

    #[test]
    fn void_growth_rate_produces_paper_scale_resistance_rise() {
        // Fig. 5: ≈1.5–2 Ω of rise over ≈400 min of growth.
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(550.0), J_STRESS);
        let dr = w.delta_resistance().value();
        assert!(dr > 0.8 && dr < 2.5, "ΔR after 550 min = {dr}");
    }

    #[test]
    fn active_recovery_heals_most_damage_within_a_fifth_of_stress_time() {
        // Fig. 5: >75 % of the EM wearout recovers within 1/5 of the stress
        // time under reverse current at temperature.
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(550.0), J_STRESS);
        let dr0 = w.delta_resistance().value();
        w.advance(Seconds::from_minutes(110.0), J_RECOVER);
        let dr1 = w.delta_resistance().value();
        let recovered = (dr0 - dr1) / dr0;
        assert!(recovered > 0.7, "recovered {recovered:.2} of {dr0:.2} Ω");
        // ... but a permanent (pinned) component remains.
        assert!(dr1 > 0.02 * dr0, "permanent residue {dr1:.3}");
    }

    #[test]
    fn passive_recovery_is_much_slower_than_active() {
        let mut stressed = EmWire::paper_wire();
        stressed.advance(Seconds::from_minutes(550.0), J_STRESS);
        let dr0 = stressed.delta_resistance().value();

        let mut passive = stressed.clone();
        passive.advance(Seconds::from_minutes(110.0), CurrentDensity::ZERO);
        let passive_rec = (dr0 - passive.delta_resistance().value()) / dr0;

        let mut active = stressed;
        active.advance(Seconds::from_minutes(110.0), J_RECOVER);
        let active_rec = (dr0 - active.delta_resistance().value()) / dr0;

        assert!(
            active_rec > 3.0 * passive_rec.max(0.0) && active_rec > 0.7,
            "active {active_rec:.2} vs passive {passive_rec:.2}"
        );
    }

    #[test]
    fn early_recovery_is_nearly_full() {
        // Fig. 6: recovery scheduled in the early void-growth phase heals
        // the wire completely (pinning has not consolidated yet).
        let mut w = EmWire::paper_wire();
        // Stress just past nucleation.
        while !w.has_void() && w.time() < Seconds::from_minutes(400.0) {
            w.advance(Seconds::from_minutes(5.0), J_STRESS);
        }
        w.advance(Seconds::from_minutes(30.0), J_STRESS);
        let dr0 = w.delta_resistance().value();
        assert!(dr0 > 0.0);
        w.advance(Seconds::from_minutes(60.0), J_RECOVER);
        let dr1 = w.delta_resistance().value();
        assert!(
            dr1 < 0.1 * dr0,
            "early recovery residue {dr1:.4} of {dr0:.4}"
        );
    }

    #[test]
    fn over_recovery_causes_reverse_em_at_the_anode() {
        // Fig. 6: holding the reverse current past full recovery stresses
        // the line in the opposite direction.
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(300.0), J_STRESS);
        // Long reverse stress: heal, then build tension at the anode.
        w.advance(Seconds::from_minutes(500.0), J_RECOVER);
        assert!(
            w.has_void_at(WireEnd::Anode) || w.end_stress(WireEnd::Anode).value() > 0.0,
            "anode should be tensile or voided under sustained reverse current"
        );
    }

    #[test]
    fn continuous_stress_eventually_breaks_the_wire() {
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_hours(24.0), J_STRESS);
        assert!(w.is_failed());
        assert!(w.resistance().value().is_infinite());
        // Frozen after failure.
        let t = w.time();
        w.advance(Seconds::from_hours(1.0), J_STRESS);
        assert_eq!(w.time(), t);
    }

    #[test]
    #[ignore = "diagnostic probe for calibration; run with --ignored"]
    fn probe_trajectory() {
        let mut w = EmWire::paper_wire();
        for i in 0..60 {
            w.advance(Seconds::from_minutes(10.0), J_STRESS);
            println!(
                "t={:4} min  dR={:8.4}  void={:9.2} nm  pinned={:7.2} nm  sig0={:8.2} MPa failed={}",
                (i + 1) * 10,
                w.delta_resistance().value(),
                w.void_length_m(WireEnd::Cathode) * 1e9,
                w.pinned_length_m(WireEnd::Cathode) * 1e9,
                w.end_stress(WireEnd::Cathode).as_mpa(),
                w.is_failed(),
            );
            if w.is_failed() {
                break;
            }
        }
    }

    #[test]
    fn optimized_advance_is_bit_identical_to_reference() {
        // The hoisted fast path must replay the reference implementation's
        // exact arithmetic through stress, recovery, idle, and failure.
        let mut fast = EmWire::paper_wire();
        let mut reference = EmWire::paper_wire();
        let schedule = [
            (180.0, J_STRESS),
            (60.0, J_RECOVER),
            (45.0, CurrentDensity::ZERO),
            (400.0, J_STRESS),
        ];
        for (minutes, j) in schedule {
            fast.advance(Seconds::from_minutes(minutes), j);
            reference.advance_reference(Seconds::from_minutes(minutes), j);
            assert_eq!(fast, reference, "diverged after {minutes} min at {j:?}");
        }
        assert!(fast.has_void());
    }

    #[test]
    fn uniform_profile_matches_plain_advance() {
        let mut plain = EmWire::paper_wire();
        plain.advance(Seconds::from_minutes(240.0), J_STRESS);
        let mut profiled = EmWire::paper_wire();
        let t = profiled.temperature();
        profiled.advance_with_profile(Seconds::from_minutes(240.0), J_STRESS, |_| t);
        assert_eq!(plain.stress_profile(), profiled.stress_profile());
        assert_eq!(plain.has_void(), profiled.has_void());
    }

    #[test]
    fn hot_cathode_nucleates_sooner_than_cold_cathode() {
        // Fig. 12(a)'s thermal coupling, applied to a wire: the end sitting
        // next to hot logic both stresses and heals faster. A gradient with
        // the hot side at the cathode accelerates nucleation relative to
        // the same gradient reversed.
        let length = WireGeometry::paper().length_m;
        let gradient = |hot_at_cathode: bool| {
            move |x: f64| {
                let frac = x / length;
                let c = if hot_at_cathode {
                    230.0 - 60.0 * frac
                } else {
                    170.0 + 60.0 * frac
                };
                Celsius::new(c).to_kelvin()
            }
        };
        let nucleation_time = |hot_at_cathode: bool| {
            let mut w = EmWire::paper_wire();
            let profile = gradient(hot_at_cathode);
            for minute in 1..=900 {
                w.advance_with_profile(Seconds::from_minutes(1.0), J_STRESS, profile);
                if w.has_void() {
                    return Some(minute);
                }
            }
            None
        };
        let hot = nucleation_time(true).expect("hot cathode nucleates");
        let cold = nucleation_time(false).unwrap_or(901);
        assert!(
            hot < cold,
            "hot-cathode {hot} min vs cold-cathode {cold} min"
        );
    }

    #[test]
    fn neighbour_heat_accelerates_wire_healing() {
        // Heal the same void with the cathode end warm vs cool: the warm
        // end refills faster — heat is a healing resource for EM too.
        let mut stressed = EmWire::paper_wire();
        stressed.advance(Seconds::from_minutes(400.0), J_STRESS);
        let dr0 = stressed.delta_resistance().value();
        assert!(dr0 > 0.0);
        let length = stressed.geometry().length_m;

        let heal = |warm: f64| {
            let mut w = stressed.clone();
            w.advance_with_profile(Seconds::from_minutes(40.0), J_RECOVER, |x| {
                let frac = x / length;
                Celsius::new(warm - (warm - 170.0) * frac).to_kelvin()
            });
            (dr0 - w.delta_resistance().value()) / dr0
        };
        let warm = heal(230.0);
        let cool = heal(190.0);
        assert!(warm > cool, "warm-end healing {warm} vs cool-end {cool}");
    }

    #[test]
    fn stress_integral_is_conserved_with_blocked_boundaries() {
        // With no void, the Korhonen equation only redistributes stress:
        // the control-volume-weighted integral of σ must stay at 0 (atoms
        // are neither created nor destroyed).
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(150.0), J_STRESS);
        assert!(!w.has_void(), "test requires the pre-nucleation phase");
        let integral: f64 = w
            .stress_profile()
            .iter()
            .zip(w.mesh.widths())
            .map(|((_, sigma), width)| sigma * width)
            .sum();
        // Compare against the scale of the stress actually present.
        let scale: f64 = w
            .stress_profile()
            .iter()
            .zip(w.mesh.widths())
            .map(|((_, sigma), width)| sigma.abs() * width)
            .sum();
        assert!(
            integral.abs() < 1e-9 * scale.max(1e-300),
            "conservation violated: ∫σ = {integral:.3e} vs scale {scale:.3e}"
        );
    }

    #[test]
    fn zero_duration_advance_is_a_no_op() {
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::ZERO, J_STRESS);
        assert_eq!(w.time(), Seconds::ZERO);
        assert!(!w.has_void());
    }

    #[test]
    fn stress_profile_is_monotone_between_ends_early_on() {
        let mut w = EmWire::paper_wire();
        w.advance(Seconds::from_minutes(60.0), J_STRESS);
        let profile = w.stress_profile();
        assert_eq!(profile.len(), 181);
        // Tension at x=0 decays toward the quiet middle.
        let first = profile[0].1;
        let mid = profile[90].1;
        assert!(first > 0.0 && mid.abs() < 0.05 * first);
    }

    #[test]
    fn blech_short_wire_is_immortal() {
        // A wire short enough that G·L/2 < σ_crit never nucleates.
        let mut geometry = WireGeometry::paper();
        geometry.length_m = 10.0e-6; // 10 µm
        geometry.resistance_at_room = Ohms::new(35.76 * 10.0e-6 / 2.673e-3);
        let mut w = EmWire::new(
            geometry,
            EmMaterial::damascene_copper(),
            Celsius::new(230.0).to_kelvin(),
            31,
        )
        .unwrap();
        let peak = w
            .material()
            .steady_state_peak(w.geometry(), J_STRESS, w.temperature());
        assert!(peak < w.material().critical_stress);
        // L²/κ ≈ 3.6 h: four hours reaches the (immortal) steady state.
        w.advance(Seconds::from_hours(4.0), J_STRESS);
        assert!(!w.has_void(), "Blech-immortal wire must not nucleate");
    }

    #[test]
    fn temperature_slows_everything_down() {
        // At 105 °C the same stress should not even nucleate in the time
        // that nucleates at 230 °C.
        let mut cold = EmWire::new(
            WireGeometry::paper(),
            EmMaterial::damascene_copper(),
            Celsius::new(105.0).to_kelvin(),
            DEFAULT_NODES,
        )
        .unwrap();
        cold.advance(Seconds::from_minutes(300.0), J_STRESS);
        assert!(!cold.has_void());
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_the_kernel_boundary() {
        let mut w = EmWire::new(
            WireGeometry::paper(),
            EmMaterial::damascene_copper(),
            Celsius::new(230.0).to_kelvin(),
            DEFAULT_NODES,
        )
        .unwrap();
        w.advance(Seconds::from_hours(2.0), J_STRESS);
        let before = w.delta_resistance();
        let t_before = w.time();

        w.advance(Seconds::new(f64::NAN), J_STRESS);
        w.advance(Seconds::from_hours(1.0), CurrentDensity::new(f64::INFINITY));
        assert_eq!(
            w.delta_resistance(),
            before,
            "poisoned inputs must be no-ops, not NaN propagation"
        );
        assert_eq!(w.time(), t_before);
    }
}
