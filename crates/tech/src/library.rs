//! The analytical technology library.
//!
//! The paper characterizes resources with a commercial 90 nm standard-cell
//! library (`artisan_90nm_typical`); its Table 1 lists the fastest
//! implementations used by the running example. This module provides an
//! analytical stand-in: per-class reference cells at 32 bits calibrated to
//! Table 1, scaled over bit width with monotone, physically plausible curves
//! (logarithmic for carry/compare structures, linear/quadratic for array
//! multipliers), and with *fast* vs *small* implementation variants so the
//! downstream area estimator can trade slack for area exactly the way the
//! paper's Figure 10 discussion describes.

use crate::characterization::Characterization;
use crate::resource::{ResourceClass, ResourceType};

/// Implementation variant of a resource.
///
/// `Fast` is the timing-optimal implementation (what Table 1 reports);
/// `Small` trades roughly 60 % more delay for roughly 40 % less area, which
/// is how relaxing the clock lets logic synthesis shrink the design.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImplVariant {
    /// Fastest implementation (delay-optimal).
    Fast,
    /// Area-optimized implementation (smaller, slower).
    Small,
}

/// An analytical technology library.
#[derive(Clone, Debug, PartialEq)]
pub struct TechLibrary {
    name: String,
    /// Flip-flop clock-to-output delay, ps.
    ff_clk_to_q_ps: f64,
    /// Flip-flop setup time, ps.
    ff_setup_ps: f64,
    /// Clock-to-output delay of an enable (muxed-feedback) register, ps.
    ff_enable_clk_to_q_ps: f64,
    /// Area of one register bit.
    ff_area_per_bit: f64,
}

impl TechLibrary {
    /// The library used throughout the paper's examples, calibrated so the
    /// 32-bit fast cells match Table 1 exactly.
    pub fn artisan_90nm_typical() -> Self {
        TechLibrary {
            name: "artisan_90nm_typical".to_string(),
            ff_clk_to_q_ps: 40.0,
            ff_setup_ps: 40.0,
            ff_enable_clk_to_q_ps: 70.0,
            ff_area_per_bit: 18.0,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Flip-flop clock-to-Q delay (the "launch" delay of the paper's timing
    /// equation in Section IV.B).
    pub fn register_clk_to_q_ps(&self) -> f64 {
        self.ff_clk_to_q_ps
    }

    /// Flip-flop setup time (the "capture" cost of the timing equation).
    pub fn register_setup_ps(&self) -> f64 {
        self.ff_setup_ps
    }

    /// Clock-to-Q delay of an enable register (Table 1 reports the register
    /// pair as "40/70": plain and enable-feedback variants).
    pub fn register_enable_clk_to_q_ps(&self) -> f64 {
        self.ff_enable_clk_to_q_ps
    }

    /// Area of a register of the given width.
    pub fn register_area(&self, width: u16) -> f64 {
        self.ff_area_per_bit * f64::from(width)
    }

    /// Delay of an `inputs`-way multiplexer of the given data width: the
    /// fast characterization of `ResourceType::mux(inputs, width)`, without
    /// building the type.
    pub fn mux_delay_ps(&self, inputs: u8, width: u16) -> f64 {
        mux_reference(inputs, width).delay_ps
    }

    /// Area of an `inputs`-way multiplexer of the given data width.
    pub fn mux_area(&self, inputs: u8, width: u16) -> f64 {
        mux_reference(inputs, width).area
    }

    /// Characterization of the *fast* implementation of a resource type.
    pub fn characterize(&self, rt: &ResourceType) -> Characterization {
        self.characterize_variant(rt, ImplVariant::Fast)
    }

    /// Characterization of a specific implementation variant.
    pub fn characterize_variant(
        &self,
        rt: &ResourceType,
        variant: ImplVariant,
    ) -> Characterization {
        let base = self.reference(rt);
        match variant {
            ImplVariant::Fast => base,
            ImplVariant::Small => base.scaled(1.6, 0.62, 0.8),
        }
    }

    /// Worst-case combinational delay of the fast implementation, ps.
    pub fn delay_ps(&self, rt: &ResourceType) -> f64 {
        self.characterize(rt).delay_ps
    }

    /// Area of the fast implementation, in library units.
    pub fn area(&self, rt: &ResourceType) -> f64 {
        self.characterize(rt).area
    }

    /// Switching energy per activation of the fast implementation, fJ.
    pub fn energy_fj(&self, rt: &ResourceType) -> f64 {
        self.characterize(rt).energy_fj
    }

    /// The analytical reference characterization (typical corner, fast cell).
    fn reference(&self, rt: &ResourceType) -> Characterization {
        let w = f64::from(rt.max_width().max(1));
        // Width-scaling helpers. `log_scale(w)` is 1.0 at w = 32 and grows
        // slowly (carry/compare trees); `lin_scale(w)` is linear in width.
        let log_scale = |w: f64| (w.log2() + 1.0) / 6.0;
        let lin_scale = |w: f64| w / 32.0;

        match &rt.class {
            ResourceClass::Adder => Characterization {
                delay_ps: 350.0 * log_scale(w),
                area: 400.0 * lin_scale(w),
                leakage_uw: 0.8 * lin_scale(w),
                energy_fj: 480.0 * lin_scale(w),
            },
            ResourceClass::Multiplier => {
                // Array multiplier: delay roughly linear in operand width,
                // area roughly quadratic in (wa, wb).
                let wa = f64::from(*rt.in_widths.first().unwrap_or(&rt.out_width).max(&1));
                let wb = f64::from(*rt.in_widths.get(1).unwrap_or(&rt.out_width).max(&1));
                Characterization {
                    delay_ps: 930.0 * (0.30 + 0.70 * lin_scale(wa.max(wb))),
                    area: 7200.0 * (wa * wb) / (32.0 * 32.0),
                    leakage_uw: 14.0 * (wa * wb) / (32.0 * 32.0),
                    energy_fj: 8600.0 * (wa * wb) / (32.0 * 32.0),
                }
            }
            ResourceClass::Divider => Characterization {
                delay_ps: 2600.0 * lin_scale(w),
                area: 11000.0 * lin_scale(w) * lin_scale(w),
                leakage_uw: 22.0 * lin_scale(w),
                energy_fj: 12500.0 * lin_scale(w),
            },
            ResourceClass::Shifter => Characterization {
                delay_ps: 260.0 * log_scale(w),
                area: 520.0 * lin_scale(w),
                leakage_uw: 1.0 * lin_scale(w),
                energy_fj: 420.0 * lin_scale(w),
            },
            ResourceClass::Logic => Characterization {
                delay_ps: 90.0,
                area: 64.0 * lin_scale(w),
                leakage_uw: 0.15 * lin_scale(w),
                energy_fj: 60.0 * lin_scale(w),
            },
            ResourceClass::Comparator => Characterization {
                delay_ps: 220.0 * log_scale(w),
                area: 210.0 * lin_scale(w),
                leakage_uw: 0.4 * lin_scale(w),
                energy_fj: 180.0 * lin_scale(w),
            },
            ResourceClass::EqualityComparator => Characterization {
                delay_ps: 60.0 * log_scale(w),
                area: 110.0 * lin_scale(w),
                leakage_uw: 0.2 * lin_scale(w),
                energy_fj: 90.0 * lin_scale(w),
            },
            ResourceClass::Mux { inputs } => mux_reference(*inputs, rt.out_width),
            ResourceClass::Register => Characterization {
                delay_ps: self.ff_clk_to_q_ps + self.ff_setup_ps,
                area: self.ff_area_per_bit * f64::from(rt.out_width.max(1)),
                leakage_uw: 0.05 * f64::from(rt.out_width.max(1)),
                energy_fj: 20.0 * f64::from(rt.out_width.max(1)),
            },
            ResourceClass::IoPort => Characterization::zero(),
        }
    }

    /// Formats the paper's **Table 1** (initial set of resources with delays)
    /// for the running example: the fastest 32-bit implementations of
    /// multiplier, adder, comparators, register and sharing multiplexers.
    pub fn table1_rows(&self) -> Vec<(String, f64)> {
        vec![
            (
                "mul".into(),
                self.delay_ps(&ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32)),
            ),
            (
                "add".into(),
                self.delay_ps(&ResourceType::binary(ResourceClass::Adder, 32, 32, 32)),
            ),
            (
                "gt".into(),
                self.delay_ps(&ResourceType::binary(ResourceClass::Comparator, 32, 32, 1)),
            ),
            (
                "neq".into(),
                self.delay_ps(&ResourceType::binary(
                    ResourceClass::EqualityComparator,
                    32,
                    32,
                    1,
                )),
            ),
            ("ff".into(), self.register_clk_to_q_ps()),
            ("ff_en".into(), self.register_enable_clk_to_q_ps()),
            ("mux2".into(), self.mux_delay_ps(2, 32)),
            ("mux3".into(), self.mux_delay_ps(3, 32)),
        ]
    }
}

/// The reference characterization of an `inputs`-way multiplexer of the
/// given data width (only the output width matters).
fn mux_reference(inputs: u8, width: u16) -> Characterization {
    let n = f64::from(inputs.max(2));
    let w = f64::from(width.max(1));
    // Table 1: mux2 = 110 ps, mux3 = 115 ps. A tree of 2-input muxes adds
    // ~5 ps per level beyond the first; it has ceil(log2(n)) levels, the
    // bit length of n - 1.
    let levels = u8::BITS - (inputs.max(2) - 1).leading_zeros();
    Characterization {
        delay_ps: 105.0 + 5.0 * f64::from(levels),
        area: 6.0 * w * (n - 1.0),
        leakage_uw: 0.02 * w * (n - 1.0),
        energy_fj: 9.0 * w * (n - 1.0),
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        TechLibrary::artisan_90nm_typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TechLibrary {
        TechLibrary::artisan_90nm_typical()
    }

    #[test]
    fn table1_calibration_is_exact_at_32_bits() {
        let lib = lib();
        let rows = lib.table1_rows();
        let get = |name: &str| rows.iter().find(|(n, _)| n == name).unwrap().1;
        assert!((get("mul") - 930.0).abs() < 1.0, "mul = {}", get("mul"));
        assert!((get("add") - 350.0).abs() < 1.0, "add = {}", get("add"));
        assert!((get("gt") - 220.0).abs() < 1.0, "gt = {}", get("gt"));
        assert!((get("neq") - 60.0).abs() < 1.0, "neq = {}", get("neq"));
        assert!((get("ff") - 40.0).abs() < 1e-9);
        assert!((get("ff_en") - 70.0).abs() < 1e-9);
        assert!((get("mux2") - 110.0).abs() < 1e-9);
        assert!((get("mux3") - 115.0).abs() < 1e-9);
    }

    #[test]
    fn paper_figure8a_path_delay() {
        // del = ff_launch + mux2 + mul + mux2 + ff_setup = 40+110+930+110+40 = 1230
        let lib = lib();
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        let del = lib.register_clk_to_q_ps()
            + lib.mux_delay_ps(2, 32)
            + lib.delay_ps(&mul)
            + lib.mux_delay_ps(2, 32)
            + lib.register_setup_ps();
        assert!((del - 1230.0).abs() < 1.0, "got {del}");
    }

    #[test]
    fn delay_is_monotone_in_width() {
        let lib = lib();
        for class in [
            ResourceClass::Adder,
            ResourceClass::Multiplier,
            ResourceClass::Comparator,
        ] {
            let mut prev = 0.0;
            for w in [4u16, 8, 16, 32, 64] {
                let d = lib.delay_ps(&ResourceType::binary(class.clone(), w, w, w));
                assert!(d >= prev, "{class:?} delay not monotone at width {w}");
                prev = d;
            }
        }
    }

    #[test]
    fn area_is_monotone_in_width() {
        let lib = lib();
        for class in [
            ResourceClass::Adder,
            ResourceClass::Multiplier,
            ResourceClass::EqualityComparator,
        ] {
            let mut prev = 0.0;
            for w in [4u16, 8, 16, 32, 64] {
                let a = lib.area(&ResourceType::binary(class.clone(), w, w, w));
                assert!(a >= prev, "{class:?} area not monotone at width {w}");
                prev = a;
            }
        }
    }

    #[test]
    fn small_variant_trades_delay_for_area() {
        let lib = lib();
        let add = ResourceType::binary(ResourceClass::Adder, 32, 32, 32);
        let fast = lib.characterize_variant(&add, ImplVariant::Fast);
        let small = lib.characterize_variant(&add, ImplVariant::Small);
        assert!(small.delay_ps > fast.delay_ps);
        assert!(small.area < fast.area);
        assert!(small.energy_fj < fast.energy_fj);
    }

    #[test]
    fn mux_delay_grows_with_inputs() {
        let lib = lib();
        assert!(lib.mux_delay_ps(2, 32) < lib.mux_delay_ps(3, 32));
        assert!(lib.mux_delay_ps(3, 32) <= lib.mux_delay_ps(4, 32));
        assert!(lib.mux_delay_ps(4, 32) < lib.mux_delay_ps(8, 32));
        assert!(lib.mux_area(2, 32) < lib.mux_area(4, 32));
    }

    #[test]
    fn mux_shortcuts_match_the_characterized_mux_bit_for_bit() {
        let lib = lib();
        for n in 0..=u8::MAX {
            for w in 1..=64u16 {
                let c = lib.characterize(&ResourceType::mux(n, w));
                assert_eq!(
                    lib.mux_delay_ps(n, w).to_bits(),
                    c.delay_ps.to_bits(),
                    "delay of mux({n}, {w})"
                );
                assert_eq!(
                    lib.mux_area(n, w).to_bits(),
                    c.area.to_bits(),
                    "area of mux({n}, {w})"
                );
            }
        }
    }

    #[test]
    fn mux_levels_equal_the_log2_formula_bit_for_bit() {
        for n in 0..=u8::MAX {
            let levels = f64::from(n.max(2)).log2().ceil().max(1.0);
            assert_eq!(
                mux_reference(n, 32).delay_ps.to_bits(),
                (105.0 + 5.0 * levels).to_bits(),
                "delay of mux({n}, 32)"
            );
        }
    }

    #[test]
    fn io_ports_are_free() {
        let lib = lib();
        let io = ResourceType {
            class: ResourceClass::IoPort,
            in_widths: vec![32],
            out_width: 32,
        };
        assert_eq!(lib.delay_ps(&io), 0.0);
        assert_eq!(lib.area(&io), 0.0);
    }

    #[test]
    fn register_area_scales_with_width() {
        let lib = lib();
        assert!((lib.register_area(32) - 576.0).abs() < 1e-9);
        assert!((lib.register_area(8) - 144.0).abs() < 1e-9);
    }

    #[test]
    fn narrow_multiplier_is_faster_and_smaller() {
        let lib = lib();
        let m16 = ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16);
        let m32 = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        assert!(lib.delay_ps(&m16) < lib.delay_ps(&m32));
        assert!(
            lib.area(&m16) < lib.area(&m32) / 3.0,
            "area should scale ~quadratically"
        );
    }

    #[test]
    fn default_is_artisan() {
        assert_eq!(TechLibrary::default().name(), "artisan_90nm_typical");
    }
}
