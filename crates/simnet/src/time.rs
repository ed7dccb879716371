//! Virtual time primitives for the discrete-event substrate.
//!
//! The simulator measures time in integer **nanoseconds** wrapped in the
//! [`SimTime`] (absolute instant) and [`SimDur`] (duration) newtypes. Using a
//! fixed-point integer representation keeps the event queue totally ordered
//! and the simulation bit-for-bit deterministic across platforms, which the
//! floating-point `f64` seconds used by many ad-hoc simulators cannot
//! guarantee.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_MICRO: u64 = 1_000;

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative absolute time");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// This instant expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    pub const ZERO: SimDur = SimDur(0);
    pub const MAX: SimDur = SimDur(u64::MAX);

    pub const fn from_secs(s: u64) -> Self {
        SimDur(s * NANOS_PER_SEC)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * NANOS_PER_MILLI)
    }

    pub const fn from_micros(us: u64) -> Self {
        SimDur(us * NANOS_PER_MICRO)
    }

    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    /// Negative inputs clamp to zero, which is the only sane interpretation
    /// for a duration produced by a cost model.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDur(0);
        }
        SimDur((s * NANOS_PER_SEC as f64).round() as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(other.0))
    }

    /// Duration needed to move `bytes` through a channel of `bytes_per_sec`
    /// capacity. Zero-capacity channels yield `SimDur::MAX` ("never").
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> SimDur {
        if bytes == 0 {
            return SimDur::ZERO;
        }
        if bytes_per_sec <= 0.0 {
            return SimDur::MAX;
        }
        SimDur::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    /// Saturating: stepping back past the origin clamps to zero.
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, rhs: SimTime) -> SimDur {
        assert!(self >= rhs, "time went backwards: {self} - {rhs}");
        SimDur(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        *self = *self + rhs;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: f64) -> SimDur {
        SimDur::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.0 as f64 / NANOS_PER_MILLI as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimDur::from_millis(1500), SimDur::from_secs_f64(1.5));
        assert_eq!(SimDur::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(2.25);
        assert!((t.as_secs_f64() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDur::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDur::from_secs(12));
        assert_eq!(d / 2, SimDur::from_secs(2));
        assert_eq!(d - SimDur::from_secs(10), SimDur::ZERO, "saturating sub");
    }

    #[test]
    fn time_minus_duration() {
        let t = SimTime::from_secs(5);
        assert_eq!(t - SimDur::from_secs(2), SimTime::from_secs(3));
        assert_eq!(t - SimDur::from_secs(9), SimTime::ZERO, "saturates");
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.saturating_since(a), SimDur::from_secs(3));
        assert_eq!(a.saturating_since(b), SimDur::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sub_panics_backwards() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn transfer_duration() {
        // 1000 bytes over 1000 B/s takes one second.
        assert_eq!(SimDur::for_transfer(1000, 1000.0), SimDur::from_secs(1));
        assert_eq!(SimDur::for_transfer(0, 1000.0), SimDur::ZERO);
        assert_eq!(SimDur::for_transfer(10, 0.0), SimDur::MAX);
    }

    #[test]
    fn negative_and_nan_durations_clamp() {
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDur::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDur::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDur::from_nanos(42)), "42ns");
    }
}
