//! Dimensioned quantity newtypes for IC carbon modeling.
//!
//! Every physically meaningful number that flows through the 3D-Carbon
//! model is wrapped in a dedicated newtype so that, e.g., an energy per
//! unit area can never be accidentally added to a carbon mass. The types
//! follow the newtype guidance of the Rust API guidelines (C-NEWTYPE):
//! each quantity stores one `f64` in a fixed canonical unit and exposes
//! explicit, named constructors and accessors for every supported unit.
//!
//! Cross-dimension arithmetic is implemented only where the model needs
//! it and always produces the correct result dimension:
//!
//! ```
//! use tdc_units::{Power, TimeSpan, CarbonIntensity};
//!
//! let power = Power::from_watts(30.0);
//! let lifetime = TimeSpan::from_years(10.0);
//! let grid = CarbonIntensity::from_g_per_kwh(475.0);
//!
//! let energy = power * lifetime;           // -> Energy
//! let carbon = grid * energy;              // -> Co2Mass
//! assert!((carbon.kg() - 1_249.155).abs() < 1e-6);
//! ```
//!
//! # Canonical units
//!
//! | Quantity | Canonical unit |
//! |----------|----------------|
//! | [`Length`] | millimetre |
//! | [`Area`] | square millimetre |
//! | [`Energy`] | kilowatt-hour |
//! | [`Power`] | watt |
//! | [`TimeSpan`] | hour |
//! | [`Co2Mass`] | kilogram CO₂e |
//! | [`CarbonIntensity`] | kg CO₂e per kWh |
//! | [`EnergyPerArea`] | kWh per cm² |
//! | [`CarbonPerArea`] | kg CO₂e per cm² |
//! | [`Co2Rate`] | kg CO₂e per hour |
//! | [`EnergyPerBit`] | joule per bit |
//! | [`Throughput`] | tera-operations per second (TOPS) |
//! | [`Efficiency`] | TOPS per watt |
//! | [`Bandwidth`] | gigabit per second |
//! | [`Ratio`] | dimensionless fraction |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

mod carbon;
mod compute;
mod energy;
mod fingerprint;
mod geometry;
mod ratio;
mod short;
mod time;

pub use carbon::{CarbonIntensity, CarbonPerArea, Co2Mass, Co2Rate};
pub use compute::{Bandwidth, Efficiency, Throughput};
pub use energy::{Energy, EnergyPerArea, EnergyPerBit, Power};
pub use fingerprint::Fingerprint;
pub use geometry::{Area, Length};
pub use ratio::{PercentDisplay, Ratio};
pub use short::ShortFloat;
pub use time::TimeSpan;
