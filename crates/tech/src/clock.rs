//! Clock period constraint.

/// The target clock of a synthesis run.
///
/// The paper's examples use `Tclk = 1600 ps` with the `artisan_90nm_typical`
/// library; the experimental section explores clocks up to 2 GHz (500 ps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockConstraint {
    period_ps: f64,
}

impl ClockConstraint {
    /// Creates a constraint from a period in picoseconds.
    ///
    /// # Panics
    /// Panics if the period is not strictly positive.
    pub fn from_period_ps(period_ps: f64) -> Self {
        assert!(period_ps > 0.0, "clock period must be positive");
        ClockConstraint { period_ps }
    }

    /// The clock period in picoseconds, which combinational paths must fit
    /// in.
    pub fn period_ps(&self) -> f64 {
        self.period_ps
    }

    /// Slack of a path with the given delay: positive means the path fits.
    pub fn slack_ps(&self, path_delay_ps: f64) -> f64 {
        self.period_ps - path_delay_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_slack() {
        // Figure 8(a): path of 1230 ps under a 1600 ps clock → +370 slack.
        let clk = ClockConstraint::from_period_ps(1600.0);
        assert!((clk.slack_ps(1230.0) - 370.0).abs() < 1e-9);
        assert!(clk.slack_ps(1230.0) >= 0.0);
        // Figure 8(c): 1800 ps path → -200 ps slack, rejected.
        assert!((clk.slack_ps(1800.0) + 200.0).abs() < 1e-9);
        assert!(clk.slack_ps(1800.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = ClockConstraint::from_period_ps(0.0);
    }
}
