//! Simulated time.
//!
//! All Cackle components run against a discrete simulated clock with
//! millisecond resolution. Nothing in the simulated path ever reads the
//! wall clock, which keeps every experiment deterministic and lets a
//! 12-hour workload simulate in milliseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in milliseconds since the start of
/// the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Build a time from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Build a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the simulation origin.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the simulation origin (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds since the simulation origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    /// A pure function of `(self, d)`.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Build a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Build a duration from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Build a duration from whole hours.
    pub fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Build a duration from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1000.0).round() as u64)
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration in whole seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration in fractional hours; useful for $/hour price math.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / 1000;
        let ms = self.0 % 1000;
        write!(
            f,
            "{}:{:02}:{:02}.{:03}",
            secs / 3600,
            (secs / 60) % 60,
            secs % 60,
            ms
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!(t.as_secs(), 10);
        assert_eq!((t - SimTime::from_secs(4)).as_millis(), 6_500);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!((early - late).as_millis(), 0);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(3_723) + SimDuration::from_millis(45);
        assert_eq!(t.to_string(), "1:02:03.045");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn hours_fraction() {
        assert!((SimDuration::from_mins(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }
}
