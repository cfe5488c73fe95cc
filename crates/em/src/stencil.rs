//! Vectorized Korhonen PDE stencil kernels.
//!
//! The two hot loops of [`crate::sim::EmWire`]'s explicit substep — the
//! face-flux gather and the interior control-volume update — compiled for
//! AVX-512, AVX2 and plain scalar through [`dh_simd::dispatch!`].
//! Divisions by the (loop-invariant) mesh spacings are replaced by
//! multiplications with reciprocal tables hoisted once per `advance`
//! call: `vdivpd` is an order of magnitude slower than `vmulpd` and would
//! dominate the vectorized stencil. Every backend executes the identical
//! per-element IEEE sequence, so trajectories are bit-identical under
//! each; the unit test pins both kernels to the division form within
//! rounding.

/// Face fluxes `F[i] = −κ[i]·((σ[i+1] − σ[i])·inv_dx[i] + g[i])` between
/// nodes `i` and `i+1`.
pub(crate) use self::kernels::{face_fluxes, interior_update};

mod kernels {
    dh_simd::dispatch! {
        /// Gathers the face fluxes for one substep.
        pub(crate) fn face_fluxes(
            flux: &mut [f64],
            sigma: &[f64],
            kappa: &[f64],
            g: &[f64],
            inv_face_dx: &[f64],
        ) {
            let n_faces = flux.len();
            assert_eq!(sigma.len(), n_faces + 1);
            assert_eq!(kappa.len(), n_faces);
            assert_eq!(g.len(), n_faces);
            assert_eq!(inv_face_dx.len(), n_faces);
            for i in 0..n_faces {
                flux[i] = -kappa[i] * ((sigma[i + 1] - sigma[i]) * inv_face_dx[i] + g[i]);
            }
        }
    }

    dh_simd::dispatch! {
        /// Applies the interior control-volume update
        /// `σ[i] += −dt·(F[i] − F[i−1])·inv_w[i]` (boundary nodes are
        /// handled separately by the caller).
        pub(crate) fn interior_update(
            sigma: &mut [f64],
            flux: &[f64],
            inv_widths: &[f64],
            dt: f64,
        ) {
            let n = sigma.len();
            assert_eq!(flux.len(), n - 1);
            assert_eq!(inv_widths.len(), n);
            for i in 1..n - 1 {
                sigma[i] += -dt * (flux[i] - flux[i - 1]) * inv_widths[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_bit_identical() {
        let n = 181;
        let sigma: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e8).collect();
        let kappa: Vec<f64> = (0..n - 1).map(|i| 1e-11 + i as f64 * 1e-14).collect();
        let g: Vec<f64> = (0..n - 1).map(|i| 1e13 + i as f64 * 1e10).collect();
        let dx: Vec<f64> = (0..n - 1).map(|i| 1e-5 + i as f64 * 1e-8).collect();
        let w: Vec<f64> = (0..n).map(|i| 1e-5 + i as f64 * 1e-8).collect();
        let inv_dx: Vec<f64> = dx.iter().map(|d| 1.0 / d).collect();
        let inv_w: Vec<f64> = w.iter().map(|w| 1.0 / w).collect();
        // A wind drive that cancels the stress gradient to 1e-9: the flux
        // is then ill-conditioned, so a plain relative bound would not hold.
        let g_balanced: Vec<f64> = (0..n - 1)
            .map(|i| -(sigma[i + 1] - sigma[i]) / dx[i] * (1.0 + 1e-9))
            .collect();
        let dt = 1e-3;

        for g in [&g, &g_balanced] {
            let runs = dh_simd::each_backend(|_| {
                let mut s = sigma.clone();
                let mut flux = vec![0.0; n - 1];
                face_fluxes(&mut flux, &s, &kappa, g, &inv_dx);
                interior_update(&mut s, &flux, &inv_w, dt);
                (s, flux)
            });
            let (s_scalar, f_scalar) = &runs[0].1;
            for (backend, (s, f)) in &runs[1..] {
                for (a, b) in s.iter().zip(s_scalar) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{backend} sigma");
                }
                for (a, b) in f.iter().zip(f_scalar) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{backend} flux");
                }
            }

            // Multiplying by the reciprocal tables differs from dividing by
            // the spacings only in rounding.
            for i in 0..n - 1 {
                let grad = (sigma[i + 1] - sigma[i]) / dx[i];
                let want = -kappa[i] * (grad + g[i]);
                let tol = 1e-14 * kappa[i] * (grad.abs() + g[i].abs());
                assert!(
                    (f_scalar[i] - want).abs() <= tol,
                    "face {i}: {} vs {want}",
                    f_scalar[i]
                );
            }
            for i in 1..n - 1 {
                let increment = -dt * (f_scalar[i] - f_scalar[i - 1]) / w[i];
                let want = sigma[i] + increment;
                let tol = 1e-14 * (sigma[i].abs() + increment.abs());
                assert!(
                    (s_scalar[i] - want).abs() <= tol,
                    "node {i}: {} vs {want}",
                    s_scalar[i]
                );
            }
        }
    }
}
