//! RC thermal grid over a floorplan of tiles.
//!
//! Each tile (core or block) has a heat capacity, a vertical thermal
//! resistance to ambient (package/heatsink path), and lateral resistances to
//! its four neighbours (silicon spreading). This is the standard compact
//! thermal model (a coarse HotSpot-style network) — enough to study the
//! paper's Fig. 12(a) proposal of healing dark cores with neighbour heat.

use dh_units::{Celsius, Kelvin, Seconds};

use crate::error::ThermalError;

/// Configuration of a rectangular tile grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Number of tile rows.
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
    /// Ambient (heatsink) temperature.
    pub ambient: Celsius,
    /// Vertical thermal resistance tile→ambient, K/W.
    pub r_vertical_k_per_w: f64,
    /// Lateral thermal resistance tile→tile, K/W.
    pub r_lateral_k_per_w: f64,
    /// Tile heat capacity, J/K.
    pub capacity_j_per_k: f64,
}

impl GridConfig {
    /// A 4×4 many-core floorplan with laptop-class packaging: ~20 K/W to
    /// ambient per tile, strong lateral spreading, 45 °C ambient (inside the
    /// case).
    pub fn manycore_4x4() -> Self {
        Self {
            rows: 4,
            cols: 4,
            ambient: Celsius::new(45.0),
            r_vertical_k_per_w: 20.0,
            r_lateral_k_per_w: 8.0,
            capacity_j_per_k: 0.15,
        }
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }
}

/// Largest tile count for which the steady-state conductance matrix is
/// LU-factored at construction (O(n³) once). Bigger grids fall back to
/// Gauss–Seidel per settle.
const MAX_DIRECT_TILES: usize = 256;

/// Dense LU factors (partial pivoting) of the steady-state conductance
/// matrix. The matrix depends only on the grid topology and resistances,
/// so it is factored once per grid and every [`ThermalGrid::settle`]
/// reduces to two triangular solves.
#[derive(Debug, Clone, PartialEq)]
struct LuFactors {
    n: usize,
    /// Combined `L\U` storage, row-major (unit lower diagonal implied).
    lu: Vec<f64>,
    /// Row swapped with row `k` at elimination step `k`.
    piv: Vec<usize>,
}

impl LuFactors {
    /// Factors a dense row-major `n × n` matrix. The conductance matrix is
    /// strictly diagonally dominant, so pivots never vanish.
    fn new(mut a: Vec<f64>, n: usize) -> Self {
        let mut piv = Vec::with_capacity(n);
        for k in 0..n {
            let mut p = k;
            for r in k + 1..n {
                if a[r * n + k].abs() > a[p * n + k].abs() {
                    p = r;
                }
            }
            piv.push(p);
            if p != k {
                for c in 0..n {
                    a.swap(k * n + c, p * n + c);
                }
            }
            let pivot = a[k * n + k];
            for r in k + 1..n {
                let m = a[r * n + k] / pivot;
                a[r * n + k] = m;
                for c in k + 1..n {
                    a[r * n + c] -= m * a[k * n + c];
                }
            }
        }
        Self { n, lu: a, piv }
    }

    /// Solves `A x = b` in place.
    #[allow(clippy::needless_range_loop)] // strided matrix access reads clearest indexed
    fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        for k in 0..n {
            b.swap(k, self.piv[k]);
            let bk = b[k];
            for r in k + 1..n {
                b[r] -= self.lu[r * n + k] * bk;
            }
        }
        for k in (0..n).rev() {
            let mut x = b[k];
            for c in k + 1..n {
                x -= self.lu[k * n + c] * b[c];
            }
            b[k] = x / self.lu[k * n + k];
        }
    }
}

/// An RC thermal network over a rectangular grid of tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalGrid {
    config: GridConfig,
    /// Tile temperatures, kelvin, row-major.
    temp: Vec<f64>,
    /// Pre-factored steady-state matrix (`None` for very large grids).
    factors: Option<LuFactors>,
}

impl ThermalGrid {
    /// Creates a grid with every tile at ambient.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidGrid`] for zero dimensions or
    /// non-positive resistances/capacity.
    pub fn new(config: GridConfig) -> Result<Self, ThermalError> {
        if config.rows == 0 || config.cols == 0 {
            return Err(ThermalError::InvalidGrid(format!(
                "grid must be non-empty, got {}x{}",
                config.rows, config.cols
            )));
        }
        for (name, v) in [
            ("vertical resistance", config.r_vertical_k_per_w),
            ("lateral resistance", config.r_lateral_k_per_w),
            ("capacity", config.capacity_j_per_k),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(ThermalError::InvalidGrid(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        let ambient_k = config.ambient.to_kelvin().value();
        let factors = (config.tiles() <= MAX_DIRECT_TILES)
            .then(|| LuFactors::new(Self::conductance_matrix(&config), config.tiles()));
        Ok(Self {
            config,
            temp: vec![ambient_k; config.tiles()],
            factors,
        })
    }

    /// The steady-state conductance matrix: `A T = P + g_v · T_ambient`,
    /// with `A[i][i]` the total conductance out of tile `i` and
    /// `A[i][j] = −g_l` for each lateral neighbour `j`.
    fn conductance_matrix(c: &GridConfig) -> Vec<f64> {
        let n = c.tiles();
        let gv = 1.0 / c.r_vertical_k_per_w;
        let gl = 1.0 / c.r_lateral_k_per_w;
        let mut a = vec![0.0; n * n];
        for r in 0..c.rows {
            for col in 0..c.cols {
                let i = r * c.cols + col;
                let mut g_sum = gv;
                let mut neighbour = |rr: isize, cc: isize| {
                    if rr >= 0 && cc >= 0 && (rr as usize) < c.rows && (cc as usize) < c.cols {
                        let ni = rr as usize * c.cols + cc as usize;
                        a[i * n + ni] = -gl;
                        g_sum += gl;
                    }
                };
                neighbour(r as isize - 1, col as isize);
                neighbour(r as isize + 1, col as isize);
                neighbour(r as isize, col as isize - 1);
                neighbour(r as isize, col as isize + 1);
                a[i * n + i] = g_sum;
            }
        }
        a
    }

    /// The grid configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Temperature of tile (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn temperature(&self, row: usize, col: usize) -> Kelvin {
        assert!(
            row < self.config.rows && col < self.config.cols,
            "tile out of range"
        );
        Kelvin::new(self.temp[row * self.config.cols + col])
    }

    /// All tile temperatures, row-major.
    pub fn temperatures(&self) -> Vec<Kelvin> {
        self.temp.iter().map(|&t| Kelvin::new(t)).collect()
    }

    /// The hottest tile temperature.
    pub fn peak(&self) -> Kelvin {
        Kelvin::new(self.temp.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    fn validate_power(&self, power_w: &[f64]) -> Result<(), ThermalError> {
        if power_w.len() != self.temp.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.temp.len(),
                got: power_w.len(),
            });
        }
        if let Some(&bad) = power_w.iter().find(|p| !p.is_finite() || **p < 0.0) {
            return Err(ThermalError::InvalidPower(bad));
        }
        Ok(())
    }

    /// Advances the network by `dt` with per-tile power dissipation
    /// `power_w` (watts, row-major).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError`] if the power vector has the wrong length or
    /// contains negative/non-finite entries.
    pub fn step(&mut self, dt: Seconds, power_w: &[f64]) -> Result<(), ThermalError> {
        self.validate_power(power_w)?;
        if dt.value() <= 0.0 {
            return Ok(());
        }
        let c = &self.config;
        let ambient = c.ambient.to_kelvin().value();
        // Explicit integration, sub-stepped well below the smallest RC
        // product for stability.
        let g_total_max = 1.0 / c.r_vertical_k_per_w + 4.0 / c.r_lateral_k_per_w;
        let dt_stable = 0.2 * c.capacity_j_per_k / g_total_max;
        let mut remaining = dt.value();
        while remaining > 0.0 {
            let h = remaining.min(dt_stable);
            let prev = self.temp.clone();
            for r in 0..c.rows {
                for col in 0..c.cols {
                    let i = r * c.cols + col;
                    let mut q = power_w[i] + (ambient - prev[i]) / c.r_vertical_k_per_w;
                    let mut neighbours = |rr: isize, cc: isize| {
                        if rr >= 0 && cc >= 0 && (rr as usize) < c.rows && (cc as usize) < c.cols {
                            let ni = rr as usize * c.cols + cc as usize;
                            q += (prev[ni] - prev[i]) / c.r_lateral_k_per_w;
                        }
                    };
                    neighbours(r as isize - 1, col as isize);
                    neighbours(r as isize + 1, col as isize);
                    neighbours(r as isize, col as isize - 1);
                    neighbours(r as isize, col as isize + 1);
                    self.temp[i] = prev[i] + h * q / c.capacity_j_per_k;
                }
            }
            remaining -= h;
        }
        Ok(())
    }

    /// Runs the network to steady state under a constant power map.
    ///
    /// The steady state is the solution of a fixed linear system, so for
    /// grids up to 256 tiles this is an exact direct solve against the
    /// conductance matrix factored at construction — no iteration.
    ///
    /// # Errors
    ///
    /// Same as [`ThermalGrid::step`].
    pub fn settle(&mut self, power_w: &[f64]) -> Result<(), ThermalError> {
        self.validate_power(power_w)?;
        let Some(factors) = self.factors.as_ref() else {
            return self.settle_reference(power_w);
        };
        dh_obs::counter!("thermal.settle.lu_solves").incr();
        let c = self.config;
        let ambient = c.ambient.to_kelvin().value();
        let gv = 1.0 / c.r_vertical_k_per_w;
        for (t, &p) in self.temp.iter_mut().zip(power_w) {
            *t = p + gv * ambient;
        }
        factors.solve(&mut self.temp);
        Ok(())
    }

    /// The Gauss–Seidel settle (iterated to 1 nK): the fallback for grids
    /// too large to factor, and the oracle the direct solve is tested
    /// against.
    fn settle_reference(&mut self, power_w: &[f64]) -> Result<(), ThermalError> {
        self.validate_power(power_w)?;
        dh_obs::counter!("thermal.settle.gauss_seidel_solves").incr();
        // Gauss–Seidel on the steady-state balance equations.
        let c = self.config;
        let ambient = c.ambient.to_kelvin().value();
        let gv = 1.0 / c.r_vertical_k_per_w;
        let gl = 1.0 / c.r_lateral_k_per_w;
        let mut sweeps: u64 = 0;
        for _ in 0..10_000 {
            sweeps += 1;
            let mut max_delta: f64 = 0.0;
            for r in 0..c.rows {
                for col in 0..c.cols {
                    let i = r * c.cols + col;
                    let mut g_sum = gv;
                    let mut flow = power_w[i] + gv * ambient;
                    let neighbours = |rr: isize, cc: isize, flow: &mut f64, g: &mut f64| {
                        if rr >= 0 && cc >= 0 && (rr as usize) < c.rows && (cc as usize) < c.cols {
                            let ni = rr as usize * c.cols + cc as usize;
                            *flow += gl * self.temp[ni];
                            *g += gl;
                        }
                    };
                    neighbours(r as isize - 1, col as isize, &mut flow, &mut g_sum);
                    neighbours(r as isize + 1, col as isize, &mut flow, &mut g_sum);
                    neighbours(r as isize, col as isize - 1, &mut flow, &mut g_sum);
                    neighbours(r as isize, col as isize + 1, &mut flow, &mut g_sum);
                    let new = flow / g_sum;
                    max_delta = max_delta.max((new - self.temp[i]).abs());
                    self.temp[i] = new;
                }
            }
            if max_delta < 1e-9 {
                break;
            }
        }
        dh_obs::counter!("thermal.settle.gauss_seidel_iterations").add(sweeps);
        dh_obs::histogram!("thermal.settle.iterations_per_solve").record(sweeps as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ThermalGrid {
        ThermalGrid::new(GridConfig::manycore_4x4()).unwrap()
    }

    #[test]
    fn direct_solve_matches_gauss_seidel_reference() {
        let mut direct = grid();
        let mut reference = grid();
        for pattern in 0..5_u32 {
            let powers: Vec<f64> = (0..16)
                .map(|i| 0.2 + 1.3 * f64::from((i as u32 ^ pattern) % 4) / 3.0)
                .collect();
            direct.settle(&powers).unwrap();
            reference.settle_reference(&powers).unwrap();
            for (d, r) in direct.temp.iter().zip(&reference.temp) {
                assert!((d - r).abs() < 1e-6, "direct {d} vs Gauss-Seidel {r}");
            }
        }
    }

    #[test]
    fn idle_grid_sits_at_ambient() {
        let mut g = grid();
        g.settle(&[0.0; 16]).unwrap();
        for t in g.temperatures() {
            assert!((t.to_celsius().value() - 45.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_power_gives_uniform_rise() {
        let mut g = grid();
        g.settle(&[1.0; 16]).unwrap();
        // Uniform power: no lateral flow; rise = P · R_vertical = 20 K.
        for t in g.temperatures() {
            assert!((t.to_celsius().value() - 65.0).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn dark_tile_is_heated_by_neighbours() {
        // The paper's Fig. 12(a) dark-silicon healing scenario.
        let mut g = grid();
        let mut power = vec![1.5; 16];
        power[5] = 0.0; // tile (1,1) is dark
        g.settle(&power).unwrap();
        let dark = g.temperature(1, 1).to_celsius().value();
        assert!(
            dark > 58.0,
            "dark tile at {dark} °C should be well above 45 °C ambient"
        );
        // But cooler than its active neighbours.
        let hot = g.temperature(1, 2).to_celsius().value();
        assert!(dark < hot);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let mut transient = grid();
        let mut steady = grid();
        let power = vec![2.0; 16];
        steady.settle(&power).unwrap();
        // RC ≈ 0.15 J/K × ~4.4 K/W effective: a couple of seconds settles.
        transient.step(Seconds::new(30.0), &power).unwrap();
        for (a, b) in transient.temperatures().iter().zip(steady.temperatures()) {
            assert!((a.value() - b.value()).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_is_monotone_towards_steady_state() {
        let mut g = grid();
        let power = vec![2.0; 16];
        let mut prev = g.temperature(0, 0).value();
        for _ in 0..10 {
            g.step(Seconds::new(0.2), &power).unwrap();
            let now = g.temperature(0, 0).value();
            assert!(now >= prev - 1e-9);
            prev = now;
        }
    }

    #[test]
    fn corner_tiles_run_hotter_than_uniform_only_with_non_uniform_power() {
        let mut g = grid();
        // Only the corner is powered: it is the hottest.
        let mut power = vec![0.0; 16];
        power[0] = 3.0;
        g.settle(&power).unwrap();
        let corner = g.temperature(0, 0).value();
        assert_eq!(g.peak().value(), corner);
    }

    #[test]
    fn power_validation() {
        let mut g = grid();
        assert!(matches!(
            g.step(Seconds::new(1.0), &[0.0; 4]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 16,
                got: 4
            })
        ));
        let mut bad = vec![0.0; 16];
        bad[3] = -1.0;
        assert!(matches!(g.settle(&bad), Err(ThermalError::InvalidPower(_))));
        bad[3] = f64::NAN;
        assert!(g.settle(&bad).is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = GridConfig::manycore_4x4();
        c.rows = 0;
        assert!(ThermalGrid::new(c).is_err());
        let mut c = GridConfig::manycore_4x4();
        c.r_vertical_k_per_w = 0.0;
        assert!(ThermalGrid::new(c).is_err());
        let mut c = GridConfig::manycore_4x4();
        c.capacity_j_per_k = f64::NAN;
        assert!(ThermalGrid::new(c).is_err());
    }

    #[test]
    fn zero_dt_step_is_a_no_op() {
        let mut g = grid();
        let before = g.temperatures();
        g.step(Seconds::ZERO, &[5.0; 16]).unwrap();
        assert_eq!(
            before.iter().map(|t| t.value()).collect::<Vec<_>>(),
            g.temperatures()
                .iter()
                .map(|t| t.value())
                .collect::<Vec<_>>()
        );
    }
}
