//! Bit-exact configuration fingerprints ([`Fingerprint`]).
//!
//! Caches namespace derived artifacts by the exact configuration they
//! were computed from. Hashing that configuration's raw bits costs a
//! few hashed words per field, where rendering it as text first costs
//! kilobytes of formatting per configuration.

use core::hash::Hasher;

/// Feeds a value's exact configuration into a [`Hasher`], field by
/// field, as raw bit patterns.
///
/// Two values must write the same bytes only when they are
/// bit-for-bit equal, so every implementation follows one encoding:
///
/// * an `f64` is written as its [`f64::to_bits`], so `-0.0` and `0.0`
///   (and distinct NaN payloads) write distinct bytes;
/// * an [`Option`] writes a presence byte before its value;
/// * a slice writes its length before its elements;
/// * an enum with fields writes a variant byte before them (a
///   field-less enum may use its derived [`Hash`](core::hash::Hash));
/// * a struct writes every field, and destructures `self` exhaustively
///   to do it, so adding a field is a compile error until the field is
///   fingerprinted too.
///
/// ```
/// use std::collections::hash_map::DefaultHasher;
/// use std::hash::Hasher;
/// use tdc_units::{Fingerprint, Length};
///
/// let bits = |v: Length| {
///     let mut h = DefaultHasher::new();
///     v.fingerprint(&mut h);
///     h.finish()
/// };
/// assert_eq!(bits(Length::from_mm(1.0)), bits(Length::from_mm(1.0)));
/// assert_ne!(bits(Length::from_mm(0.0)), bits(Length::from_mm(-0.0)));
/// ```
pub trait Fingerprint {
    /// Writes this value's fingerprint into `state`.
    fn fingerprint<H: Hasher>(&self, state: &mut H);
}

impl Fingerprint for f64 {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.to_bits());
    }
}

impl Fingerprint for u32 {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        state.write_u32(*self);
    }
}

impl Fingerprint for bool {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        state.write_u8(u8::from(*self));
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        match self {
            None => state.write_u8(0),
            Some(value) => {
                state.write_u8(1);
                value.fingerprint(state);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for value in self {
            value.fingerprint(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash<T: Fingerprint + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn options_and_slices_are_self_delimiting() {
        assert_ne!(hash(&None::<f64>), hash(&Some(0.0f64)));
        let one: &[f64] = &[1.0];
        let two: &[f64] = &[1.0, 1.0];
        assert_ne!(hash(one), hash(two));
        assert_ne!(
            hash(&[Some(1.0f64), None][..]),
            hash(&[None, Some(1.0f64)][..])
        );
    }
}
