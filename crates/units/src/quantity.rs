//! Newtypes for the physical quantities used by the wearout models.
//!
//! Every quantity wraps an `f64` and is `Copy`; arithmetic that preserves the
//! unit (addition, subtraction, scaling by a dimensionless factor) is
//! provided via operator impls, while unit-changing operations are explicit
//! named methods so that dimensional errors cannot type-check.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::constants::ABSOLUTE_ZERO_CELSIUS;
use crate::error::QuantityError;

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the underlying value in the base unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two values.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two values.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(v: $name) -> f64 {
                v.0
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    ///
    /// Negative values are meaningful: the paper's BTI *active recovery*
    /// applies a negative gate-source voltage (e.g. −0.3 V).
    Volts,
    "V"
);

quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);

quantity!(
    /// Temperature in degrees Celsius (the unit the paper reports).
    Celsius,
    "°C"
);

quantity!(
    /// Time duration in seconds.
    Seconds,
    "s"
);

quantity!(
    /// Electrical resistance in ohms.
    Ohms,
    "Ω"
);

quantity!(
    /// Electric current in amperes. Sign encodes direction: negative current
    /// is the paper's *EM active recovery* (reverse) direction.
    Amperes,
    "A"
);

quantity!(
    /// Current density in amperes per square metre. Sign encodes direction.
    CurrentDensity,
    "A/m²"
);

quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);

quantity!(
    /// Mechanical (hydrostatic) stress in pascals, used by the EM model.
    Pascals,
    "Pa"
);

impl Kelvin {
    /// Converts to degrees Celsius.
    #[inline]
    pub fn to_celsius(self) -> Celsius {
        Celsius::new(self.value() + ABSOLUTE_ZERO_CELSIUS)
    }

    /// Validates that the temperature is physical (strictly above 0 K and
    /// finite).
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError::NonPhysicalTemperature`] for values at or
    /// below absolute zero, NaN, or infinity.
    pub fn validated(self) -> Result<Self, QuantityError> {
        if self.value().is_finite() && self.value() > 0.0 {
            Ok(self)
        } else {
            Err(QuantityError::NonPhysicalTemperature(self.value()))
        }
    }
}

impl Celsius {
    /// Converts to kelvin.
    #[inline]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.value() - ABSOLUTE_ZERO_CELSIUS)
    }
}

impl From<Celsius> for Kelvin {
    #[inline]
    fn from(c: Celsius) -> Kelvin {
        c.to_kelvin()
    }
}

impl From<Kelvin> for Celsius {
    #[inline]
    fn from(k: Kelvin) -> Celsius {
        k.to_celsius()
    }
}

impl Seconds {
    /// Creates a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::new(minutes * 60.0)
    }

    /// Creates a duration from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::new(hours * 3600.0)
    }

    /// Creates a duration from days.
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::new(days * 86_400.0)
    }

    /// Creates a duration from (365-day) years.
    #[inline]
    pub fn from_years(years: f64) -> Self {
        Self::new(years * 365.0 * 86_400.0)
    }

    /// The duration expressed in minutes.
    #[inline]
    pub fn as_minutes(self) -> f64 {
        self.value() / 60.0
    }

    /// The duration expressed in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.value() / 3600.0
    }

    /// The duration expressed in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.value() / 86_400.0
    }

    /// The duration expressed in (365-day) years.
    #[inline]
    pub fn as_years(self) -> f64 {
        self.value() / (365.0 * 86_400.0)
    }

    /// Validates that the duration is non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError::NegativeDuration`] for negative, NaN, or
    /// infinite values.
    pub fn validated(self) -> Result<Self, QuantityError> {
        if self.value().is_finite() && self.value() >= 0.0 {
            Ok(self)
        } else {
            Err(QuantityError::NegativeDuration(self.value()))
        }
    }
}

impl CurrentDensity {
    /// Creates a current density from MA/cm² (the unit used in the paper,
    /// e.g. `±7.96 MA/cm²` for the accelerated EM stress).
    #[inline]
    pub fn from_ma_per_cm2(ma_per_cm2: f64) -> Self {
        // 1 MA/cm² = 1e6 A / 1e-4 m² = 1e10 A/m²
        Self::new(ma_per_cm2 * 1.0e10)
    }

    /// The current density expressed in MA/cm².
    #[inline]
    pub fn as_ma_per_cm2(self) -> f64 {
        self.value() / 1.0e10
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Self::new(mhz * 1.0e6)
    }

    /// The frequency expressed in megahertz.
    #[inline]
    pub fn as_mhz(self) -> f64 {
        self.value() / 1.0e6
    }

    /// The corresponding period. Returns `None` for zero or negative
    /// frequencies.
    #[inline]
    pub fn period(self) -> Option<Seconds> {
        (self.value() > 0.0).then(|| Seconds::new(1.0 / self.value()))
    }
}

impl Pascals {
    /// Creates a stress value from megapascals.
    #[inline]
    pub fn from_mpa(mpa: f64) -> Self {
        Self::new(mpa * 1.0e6)
    }

    /// The stress expressed in megapascals.
    #[inline]
    pub fn as_mpa(self) -> f64 {
        self.value() / 1.0e6
    }
}

/// Ohm's law: voltage across a resistance carrying a current.
impl Mul<Ohms> for Amperes {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts::new(self.value() * rhs.value())
    }
}

/// Ohm's law: current through a resistance from a voltage.
impl Div<Ohms> for Volts {
    type Output = Amperes;
    #[inline]
    fn div(self, rhs: Ohms) -> Amperes {
        Amperes::new(self.value() / rhs.value())
    }
}

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Used for recovery percentages, trap occupancies, duty cycles and wearout
/// fractions. Construction clamps or validates, so downstream arithmetic can
/// rely on the invariant.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fraction(f64);

impl Fraction {
    /// The fraction 0.
    pub const ZERO: Self = Self(0.0);
    /// The fraction 1.
    pub const ONE: Self = Self(1.0);

    /// Creates a fraction, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantityError::FractionOutOfRange`] if `value` is NaN or
    /// outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, QuantityError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Self(value))
        } else {
            Err(QuantityError::FractionOutOfRange(value))
        }
    }

    /// Creates a fraction, clamping finite values into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "fraction must not be NaN");
        Self(value.clamp(0.0, 1.0))
    }

    /// Returns the underlying value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The complement `1 − f`.
    #[inline]
    pub fn complement(self) -> Self {
        Self(1.0 - self.0)
    }

    /// Expresses the fraction as a percentage in `[0, 100]`.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*}%", precision, self.as_percent())
        } else {
            write!(f, "{}%", self.as_percent())
        }
    }
}

impl From<Fraction> for f64 {
    #[inline]
    fn from(f: Fraction) -> f64 {
        f.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius::new(110.0);
        let back = t.to_kelvin().to_celsius();
        assert!((back.value() - 110.0).abs() < 1e-12);
        assert!((Celsius::new(20.0).to_kelvin().value() - 293.15).abs() < 1e-12);
    }

    #[test]
    fn seconds_constructors_agree() {
        assert_eq!(Seconds::from_hours(24.0).value(), 86_400.0);
        assert_eq!(Seconds::from_days(1.0), Seconds::from_hours(24.0));
        assert_eq!(Seconds::from_minutes(60.0), Seconds::from_hours(1.0));
        assert!((Seconds::from_years(1.0).as_days() - 365.0).abs() < 1e-9);
    }

    #[test]
    fn current_density_paper_unit_round_trip() {
        let j = CurrentDensity::from_ma_per_cm2(7.96);
        assert!((j.value() - 7.96e10).abs() < 1.0);
        assert!((j.as_ma_per_cm2() - 7.96).abs() < 1e-12);
    }

    #[test]
    fn ohms_law_impls() {
        let v = Amperes::new(2.0) * Ohms::new(3.0);
        assert_eq!(v, Volts::new(6.0));
        let i = Volts::new(6.0) / Ohms::new(3.0);
        assert_eq!(i, Amperes::new(2.0));
    }

    #[test]
    fn like_quantity_division_is_dimensionless() {
        let ratio = Seconds::from_hours(6.0) / Seconds::from_hours(24.0);
        assert!((ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fraction_validates_and_clamps() {
        assert!(Fraction::new(0.5).is_ok());
        assert!(Fraction::new(-0.1).is_err());
        assert!(Fraction::new(1.1).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
        assert_eq!(Fraction::clamped(2.0), Fraction::ONE);
        assert_eq!(Fraction::clamped(-2.0), Fraction::ZERO);
        assert!((Fraction::clamped(0.724).as_percent() - 72.4).abs() < 1e-9);
    }

    #[test]
    fn fraction_complement() {
        let f = Fraction::new(0.25).unwrap();
        assert!((f.complement().value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_voltage_is_representable() {
        // The paper's BTI active recovery condition.
        let v = Volts::new(-0.3);
        assert!(v < Volts::ZERO);
        assert_eq!(-v, Volts::new(0.3));
        assert_eq!(v.abs(), Volts::new(0.3));
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{:.2}", Volts::new(-0.3)), "-0.30 V");
        assert_eq!(format!("{:.1}", Celsius::new(110.0)), "110.0 °C");
        assert_eq!(format!("{:.1}", Fraction::clamped(0.724)), "72.4%");
    }

    #[test]
    fn kelvin_validation_rejects_non_physical() {
        assert!(Kelvin::new(293.15).validated().is_ok());
        assert!(Kelvin::new(0.0).validated().is_err());
        assert!(Kelvin::new(-1.0).validated().is_err());
        assert!(Kelvin::new(f64::NAN).validated().is_err());
    }

    #[test]
    fn seconds_validation_rejects_negative() {
        assert!(Seconds::new(0.0).validated().is_ok());
        assert!(Seconds::new(-1.0).validated().is_err());
        assert!(Seconds::new(f64::INFINITY).validated().is_err());
    }

    #[test]
    fn sum_of_quantities() {
        let total: Seconds = [1.0, 2.0, 3.0].iter().map(|&s| Seconds::new(s)).sum();
        assert_eq!(total, Seconds::new(6.0));
    }
}
