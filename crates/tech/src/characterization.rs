//! Delay / area / power figures for one resource type.

/// The characterization of a resource type in a technology library.
///
/// Values carry the same units the paper uses: delays in picoseconds, area in
/// library area units (the paper's Table 3 reports areas like 16094 for the
/// whole sequential design), leakage in microwatts and switching energy in
/// femtojoules per activation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Characterization {
    /// Worst-case combinational propagation delay, in picoseconds.
    pub delay_ps: f64,
    /// Cell area, in library area units.
    pub area: f64,
    /// Static (leakage) power, in microwatts.
    pub leakage_uw: f64,
    /// Dynamic switching energy per activation, in femtojoules.
    pub energy_fj: f64,
}

impl Characterization {
    /// A zero-cost characterization (used for free / wiring-only resources).
    pub fn zero() -> Self {
        Characterization {
            delay_ps: 0.0,
            area: 0.0,
            leakage_uw: 0.0,
            energy_fj: 0.0,
        }
    }

    /// Returns a copy scaled by per-field factors. Used by the analytical
    /// library to derive width-scaled figures from 32-bit reference cells.
    pub fn scaled(&self, delay: f64, area: f64, power: f64) -> Self {
        Characterization {
            delay_ps: self.delay_ps * delay,
            area: self.area * area,
            leakage_uw: self.leakage_uw * power,
            energy_fj: self.energy_fj * power,
        }
    }

    /// Component-wise sum (e.g. for aggregating a datapath).
    pub fn add(&self, other: &Characterization) -> Self {
        Characterization {
            delay_ps: self.delay_ps + other.delay_ps,
            area: self.area + other.area,
            leakage_uw: self.leakage_uw + other.leakage_uw,
            energy_fj: self.energy_fj + other.energy_fj,
        }
    }
}

impl Default for Characterization {
    fn default() -> Self {
        Characterization::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_all_zero() {
        let z = Characterization::zero();
        assert_eq!(z.delay_ps, 0.0);
        assert_eq!(z.area, 0.0);
        assert_eq!(z.leakage_uw, 0.0);
        assert_eq!(z.energy_fj, 0.0);
    }

    #[test]
    fn scaling_is_per_field() {
        let c = Characterization {
            delay_ps: 100.0,
            area: 50.0,
            leakage_uw: 2.0,
            energy_fj: 10.0,
        };
        let s = c.scaled(2.0, 3.0, 0.5);
        assert_eq!(s.delay_ps, 200.0);
        assert_eq!(s.area, 150.0);
        assert_eq!(s.leakage_uw, 1.0);
        assert_eq!(s.energy_fj, 5.0);
    }

    #[test]
    fn addition_aggregates() {
        let a = Characterization {
            delay_ps: 1.0,
            area: 2.0,
            leakage_uw: 3.0,
            energy_fj: 4.0,
        };
        let b = Characterization {
            delay_ps: 10.0,
            area: 20.0,
            leakage_uw: 30.0,
            energy_fj: 40.0,
        };
        let s = a.add(&b);
        assert_eq!(s.delay_ps, 11.0);
        assert_eq!(s.area, 22.0);
        assert_eq!(s.leakage_uw, 33.0);
        assert_eq!(s.energy_fj, 44.0);
    }
}
