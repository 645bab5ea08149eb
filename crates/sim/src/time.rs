//! Virtual time: nanosecond-resolution simulation clock.
//!
//! All timing in the simulator is expressed as [`SimTime`] (an absolute
//! instant) and [`Dur`] (a span). Both are plain `u64` nanosecond counts so
//! arithmetic is exact, ordering is total, and traces are reproducible
//! bit-for-bit across runs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the virtual clock, in nanoseconds since
/// simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in microseconds (lossy, for reporting).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in milliseconds (lossy, for reporting).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This instant expressed in seconds (lossy, for reporting).
    #[inline]
    fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Span from `earlier` to `self`. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.checked_sub(earlier.0).expect("SimTime::since: negative span"))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Dur {
    /// A zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    /// Construct from (possibly fractional) microseconds, rounding to the
    /// nearest nanosecond.
    #[inline]
    pub fn micros(us: f64) -> Dur {
        debug_assert!(us >= 0.0, "negative duration");
        Dur((us * 1_000.0).round() as u64)
    }

    /// Construct from (possibly fractional) milliseconds.
    #[inline]
    pub fn millis(ms: f64) -> Dur {
        debug_assert!(ms >= 0.0, "negative duration");
        Dur((ms * 1_000_000.0).round() as u64)
    }

    /// Construct from (possibly fractional) seconds.
    #[inline]
    pub fn secs(s: f64) -> Dur {
        debug_assert!(s >= 0.0, "negative duration");
        Dur((s * 1_000_000_000.0).round() as u64)
    }

    /// Span in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Span in microseconds (lossy, for reporting).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Span in milliseconds (lossy, for reporting).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction of spans.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, other: SimTime) -> Dur {
        self.since(other)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, d: Dur) -> Dur {
        Dur(self.0 + d.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        SimTime(self.0).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + Dur::micros(5.0);
        assert_eq!(t.nanos(), 5_000);
        assert_eq!((t + Dur::nanos(500)).since(t), Dur::nanos(500));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Dur::micros(1.5).as_nanos(), 1_500);
        assert_eq!(Dur::millis(2.0).as_nanos(), 2_000_000);
        assert_eq!(Dur::secs(1.0).as_nanos(), 1_000_000_000);
        assert!((Dur::nanos(2_500).as_us() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime(12)), "12ns");
        assert_eq!(format!("{}", SimTime(12_000)), "12.000us");
        assert_eq!(format!("{}", SimTime(12_000_000)), "12.000ms");
        assert_eq!(format!("{}", SimTime(12_000_000_000)), "12.000s");
    }

    #[test]
    #[should_panic(expected = "negative span")]
    fn since_panics_on_negative() {
        let _ = SimTime(5).since(SimTime(10));
    }

    #[test]
    fn max_and_ordering() {
        assert_eq!(SimTime(3).max(SimTime(7)), SimTime(7));
        assert!(SimTime(3) < SimTime(7));
        assert!(Dur(3) < Dur(7));
    }

    #[test]
    fn saturating_sub() {
        assert_eq!(Dur(5).saturating_sub(Dur(9)), Dur::ZERO);
        assert_eq!(Dur(9).saturating_sub(Dur(5)), Dur(4));
    }
}
