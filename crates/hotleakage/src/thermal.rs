//! A lumped thermal-RC model coupling power to temperature.
//!
//! Leakage depends exponentially on temperature, and temperature depends on
//! total power — a positive feedback loop that the paper's authors study in
//! their temperature-aware work (Skadron et al., cited as \[28\]/\[29\]). This
//! module provides the minimal closed-loop companion to the leakage model:
//! a single thermal RC node
//!
//! ```text
//! C_th · dT/dt = P(T) − (T − T_ambient) / R_th
//! ```
//!
//! integrated explicitly, where `P(T)` may include the leakage model's own
//! temperature dependence. It exposes both transient stepping and the
//! steady-state fixed point (or detection of thermal runaway, when the
//! leakage feedback beats the package's ability to remove heat).

use serde::{Deserialize, Serialize};
use units::{Kelvin, Seconds, Watts};

use crate::error::ModelError;

/// Package/die thermal parameters (lumped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Thermal resistance junction→ambient, K/W.
    pub r_th: f64,
    /// Thermal capacitance of the die + spreader, J/K.
    pub c_th: f64,
    /// Ambient temperature.
    pub t_ambient: Kelvin,
}

impl ThermalParams {
    /// A typical early-2000s desktop package: 0.8 K/W to a 45 °C internal
    /// ambient, ~120 J/K.
    pub fn desktop() -> Self {
        ThermalParams {
            r_th: 0.8,
            c_th: 120.0,
            t_ambient: Kelvin::new(318.15),
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidGeometry`] on non-positive R/C or a
    /// non-physical ambient.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.r_th.is_finite() && self.r_th > 0.0) {
            return Err(ModelError::InvalidGeometry(format!(
                "r_th {} must be positive",
                self.r_th
            )));
        }
        if !(self.c_th.is_finite() && self.c_th > 0.0) {
            return Err(ModelError::InvalidGeometry(format!(
                "c_th {} must be positive",
                self.c_th
            )));
        }
        if !(200.0..=400.0).contains(&self.t_ambient.get()) {
            return Err(ModelError::InvalidTemperature(self.t_ambient.get()));
        }
        Ok(())
    }
}

/// Outcome of a steady-state solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SteadyState {
    /// Converged to a stable junction temperature.
    Stable(Kelvin),
    /// The leakage feedback outruns heat removal: thermal runaway (the
    /// temperature at which the search gave up is attached).
    Runaway(Kelvin),
}

/// A lumped thermal node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalNode {
    params: ThermalParams,
    temperature: Kelvin,
}

impl ThermalNode {
    /// A node starting at ambient temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the parameters are invalid.
    pub fn new(params: ThermalParams) -> Result<Self, ModelError> {
        params.validate()?;
        Ok(ThermalNode {
            params,
            temperature: params.t_ambient,
        })
    }

    /// Current junction temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// The thermal parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Advances the node by `dt` while dissipating `power(T)` (the closure
    /// is evaluated at the current temperature so leakage feedback is
    /// captured). Returns the new temperature.
    pub fn step<P: FnMut(Kelvin) -> Watts>(&mut self, dt: Seconds, mut power: P) -> Kelvin {
        let p = power(self.temperature);
        let cooling = Watts::new((self.temperature - self.params.t_ambient) / self.params.r_th);
        self.temperature = self.temperature + ((p - cooling) * dt).get() / self.params.c_th;
        // The die cannot cool below ambient without active cooling.
        if self.temperature < self.params.t_ambient {
            self.temperature = self.params.t_ambient;
        }
        self.temperature
    }

    /// Finds the steady-state temperature for a temperature-dependent power
    /// curve by damped fixed-point iteration of `T = T_amb + R·P(T)`.
    ///
    /// Declares [`SteadyState::Runaway`] if the fixed point exceeds
    /// `t_limit` (e.g. 500 K, the validity edge of the leakage fits).
    pub fn steady_state<P: FnMut(Kelvin) -> Watts>(
        &self,
        mut power: P,
        t_limit: Kelvin,
    ) -> SteadyState {
        let mut t = self.params.t_ambient;
        for _ in 0..500 {
            let target = self.params.t_ambient + self.params.r_th * power(t).get();
            let next = t + 0.3 * (target - t);
            if next > t_limit {
                return SteadyState::Runaway(next);
            }
            if (next - t).abs() < 1e-6 {
                return SteadyState::Stable(next);
            }
            t = next;
        }
        SteadyState::Stable(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::SramArray;
    use crate::{Environment, TechNode};

    #[test]
    fn constant_power_reaches_rc_fixed_point() {
        let node = ThermalNode::new(ThermalParams::desktop()).expect("valid");
        match node.steady_state(|_| Watts::new(50.0), Kelvin::new(500.0)) {
            SteadyState::Stable(t) => {
                // T = T_amb + R*P = 318.15 + 0.8*50 = 358.15
                assert!((t - Kelvin::new(358.15)).abs() < 1e-3, "t={t}");
            }
            SteadyState::Runaway(t) => panic!("50 W must be stable, ran away at {t}"),
        }
    }

    #[test]
    fn transient_approaches_steady_state_monotonically() {
        let mut node = ThermalNode::new(ThermalParams::desktop()).expect("valid");
        let mut prev = node.temperature();
        for _ in 0..60_000 {
            // 600 s ≈ 6 RC time constants
            let t = node.step(Seconds::new(0.01), |_| Watts::new(50.0));
            assert!(
                t.get() >= prev.get() - 1e-9,
                "heating transient must be monotone"
            );
            prev = t;
        }
        assert!(
            (prev - Kelvin::new(358.15)).abs() < 0.5,
            "converged to {prev}"
        );
    }

    #[test]
    fn leakage_feedback_raises_steady_state_above_open_loop() {
        // Power = 40 W of dynamic + the L1D-array leakage at temperature T:
        // the closed loop must settle hotter than ignoring the feedback.
        let array = SramArray::cache_data_array(1024, 512);
        let base = Environment::nominal(TechNode::N70);
        let node = ThermalNode::new(ThermalParams::desktop()).expect("valid");
        // 64x the L1D stands in for all on-chip SRAM at the same Vt.
        let leak = |t: Kelvin| -> Watts {
            let env = base
                .with_temperature(t.get().clamp(250.0, 450.0))
                .expect("valid");
            64.0 * array.leakage_power(&env)
        };
        let open_loop = 318.15 + 0.8 * (40.0 + leak(Kelvin::new(318.15)).get());
        match node.steady_state(|t| Watts::new(40.0) + leak(t), Kelvin::new(500.0)) {
            SteadyState::Stable(t) => {
                assert!(
                    t.get() > open_loop + 0.5,
                    "feedback must add heat: {t} vs {open_loop}"
                );
            }
            SteadyState::Runaway(t) => panic!("this load must be stable, ran away at {t}"),
        }
    }

    #[test]
    fn weak_package_runs_away() {
        // A 12 K/W package with strong exponential leakage: runaway.
        let array = SramArray::cache_data_array(1024, 512);
        let base = Environment::nominal(TechNode::N70);
        let node = ThermalNode::new(ThermalParams {
            r_th: 12.0,
            c_th: 20.0,
            t_ambient: Kelvin::new(318.15),
        })
        .expect("valid");
        let result = node.steady_state(
            |t| {
                let env = base
                    .with_temperature(t.get().clamp(250.0, 449.0))
                    .expect("valid");
                Watts::new(30.0) + 512.0 * array.leakage_power(&env)
            },
            Kelvin::new(450.0),
        );
        assert!(matches!(result, SteadyState::Runaway(_)), "got {result:?}");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ThermalNode::new(ThermalParams {
            r_th: 0.0,
            c_th: 1.0,
            t_ambient: Kelvin::new(300.0)
        })
        .is_err());
        assert!(ThermalNode::new(ThermalParams {
            r_th: 1.0,
            c_th: -1.0,
            t_ambient: Kelvin::new(300.0)
        })
        .is_err());
        assert!(ThermalNode::new(ThermalParams {
            r_th: 1.0,
            c_th: 1.0,
            t_ambient: Kelvin::new(500.0)
        })
        .is_err());
    }
}
