//! Clock period constraint.

/// The target clock of a synthesis run.
///
/// The paper's examples use `Tclk = 1600 ps` with the `artisan_90nm_typical`
/// library; the experimental section explores clocks up to 2 GHz (500 ps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockConstraint {
    period_ps: f64,
    /// Clock uncertainty (jitter/skew margin) subtracted from the usable
    /// period, in picoseconds.
    uncertainty_ps: f64,
}

impl ClockConstraint {
    /// Creates a constraint from a period in picoseconds.
    ///
    /// # Panics
    /// Panics if the period is not strictly positive.
    pub fn from_period_ps(period_ps: f64) -> Self {
        assert!(period_ps > 0.0, "clock period must be positive");
        ClockConstraint {
            period_ps,
            uncertainty_ps: 0.0,
        }
    }

    /// Creates a constraint from a frequency in MHz.
    ///
    /// # Panics
    /// Panics if the frequency is not strictly positive.
    pub fn from_frequency_mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        Self::from_period_ps(1.0e6 / mhz)
    }

    /// Adds a clock uncertainty margin.
    pub fn with_uncertainty_ps(mut self, uncertainty_ps: f64) -> Self {
        self.uncertainty_ps = uncertainty_ps.max(0.0);
        self
    }

    /// The raw clock period in picoseconds.
    pub fn period_ps(&self) -> f64 {
        self.period_ps
    }

    /// The usable period (period minus uncertainty) that combinational paths
    /// must fit in.
    pub fn usable_period_ps(&self) -> f64 {
        (self.period_ps - self.uncertainty_ps).max(0.0)
    }

    /// Clock frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        1.0e6 / self.period_ps
    }

    /// Slack of a path with the given delay: positive means the path fits.
    pub fn slack_ps(&self, path_delay_ps: f64) -> f64 {
        self.usable_period_ps() - path_delay_ps
    }

    /// Whether a path of the given delay meets the constraint.
    pub fn meets(&self, path_delay_ps: f64) -> bool {
        self.slack_ps(path_delay_ps) >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_frequency_roundtrip() {
        let clk = ClockConstraint::from_frequency_mhz(625.0);
        assert!((clk.period_ps() - 1600.0).abs() < 1e-9);
        assert!((clk.frequency_mhz() - 625.0).abs() < 1e-9);
    }

    #[test]
    fn paper_example_slack() {
        // Figure 8(a): path of 1230 ps under a 1600 ps clock → +370 slack.
        let clk = ClockConstraint::from_period_ps(1600.0);
        assert!((clk.slack_ps(1230.0) - 370.0).abs() < 1e-9);
        assert!(clk.meets(1230.0));
        // Figure 8(c): 1800 ps path → -200 ps slack, rejected.
        assert!((clk.slack_ps(1800.0) + 200.0).abs() < 1e-9);
        assert!(!clk.meets(1800.0));
    }

    #[test]
    fn uncertainty_reduces_usable_period() {
        let clk = ClockConstraint::from_period_ps(1000.0).with_uncertainty_ps(100.0);
        assert_eq!(clk.usable_period_ps(), 900.0);
        assert!(clk.meets(900.0));
        assert!(!clk.meets(901.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = ClockConstraint::from_period_ps(0.0);
    }

    #[test]
    fn two_ghz_clock() {
        let clk = ClockConstraint::from_frequency_mhz(2000.0);
        assert!((clk.period_ps() - 500.0).abs() < 1e-9);
    }
}
