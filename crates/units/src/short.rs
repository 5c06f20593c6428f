//! A short `Display` for raw `f64`s quoted back in error messages.

/// Shows an `f64` exactly as `{}` does where that is short — zero,
/// non-finite values and magnitudes in `[1e-5, 1e16)` — and in
/// exponent form (`{:e}`) otherwise, where `{}` would print every
/// digit: `1e308` instead of 309 digits, `5e-324` instead of over 320.
///
/// ```
/// use tdc_units::ShortFloat;
///
/// assert_eq!(ShortFloat(0.25).to_string(), "0.25");
/// assert_eq!(ShortFloat(1e308).to_string(), "1e308");
/// assert_eq!(ShortFloat(5e-324).to_string(), "5e-324");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShortFloat(pub f64);

impl core::fmt::Display for ShortFloat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let v = self.0;
        if v == 0.0 || !v.is_finite() || (1e-5..1e16).contains(&v.abs()) {
            write!(f, "{v}")
        } else {
            write!(f, "{v:e}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_magnitudes_print_as_display_does() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-5,
            -0.5,
            2021.0,
            17e9,
            9.999_999_999_999_998e15,
        ] {
            assert_eq!(ShortFloat(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn long_magnitudes_print_in_exponent_form() {
        for (v, text) in [
            (1e16, "1e16"),
            (1e308, "1e308"),
            (-1.5e300, "-1.5e300"),
            (5e-324, "5e-324"),
            (9.9e-6, "9.9e-6"),
        ] {
            assert_eq!(ShortFloat(v).to_string(), text);
        }
    }
}
