//! Integer money: what every [`CostLedger`](crate::CostLedger) adds up.
//!
//! A [`Money`] counts whole nano-dollars in a `u64`. Nano, not micro:
//! one S3 GET costs $0.0000004, which is 0.4 micro-dollars. The count is
//! unsigned, so a refund cannot be represented, and integer sums are
//! associative, so ledgers merged in any order are equal.
//!
//! Only this crate can mint money. Product code gets it from
//! [`Pricing`](crate::Pricing), whose billing methods snap an `f64` rate
//! to nano-dollars once, work in integers and round once; the ledger's
//! `f64` adapters, which clippy disallows outside tests and the
//! benchmark, are the only other way in. A `Money` is never scaled at a
//! call site:
//!
//! ```compile_fail,E0369
//! let twice = cackle_cloud::Money::ZERO * 2.0; // no Mul
//! ```
//!
//! ```compile_fail,E0308
//! let m = cackle_cloud::Money::from(1u64); // no From<u64>
//! ```
//!
//! ```compile_fail,E0624
//! let m = cackle_cloud::Money::from_nanos(1); // minting is crate-private
//! ```
//!
//! ```compile_fail,E0423
//! let m = cackle_cloud::Money(1); // and so is the field
//! ```
//!
//! What it is *for* is adding up and reporting:
//!
//! ```
//! use cackle_cloud::{Money, Pricing, SimDuration};
//! let p = Pricing::default();
//! let hour = p.pool_cost(SimDuration::from_hours(1));
//! assert_eq!(hour.dollars(), 0.18);
//! assert_eq!([hour, hour].into_iter().sum::<Money>().micros(), 360_000);
//! ```

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A non-negative amount of money in whole nano-dollars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Money(u64);

impl Money {
    /// No money.
    pub const ZERO: Money = Money(0);

    pub(crate) const fn from_nanos(nanos: u64) -> Money {
        Money(nanos)
    }

    /// `num / den` nano-dollars, rounded to nearest with ties up: the one
    /// rounding of a charge. Saturates far above any simulated bill.
    pub(crate) fn from_ratio(num: u128, den: u128) -> Money {
        Money(u64::try_from((num + den / 2) / den).unwrap_or(u64::MAX))
    }

    /// The amount in dollars, for output only.
    pub fn dollars(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The amount in whole micro-dollars, rounded to nearest (ties up):
    /// the grid per-tenant attribution splits on.
    pub fn micros(self) -> i64 {
        ((self.0 + 500) / 1000) as i64 // u64::MAX / 1000 < i64::MAX
    }
}

impl Add for Money {
    type Output = Money;

    fn add(self, other: Money) -> Money {
        Money(self.0.saturating_add(other.0))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, other: Money) {
        *self = *self + other;
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_is_to_nearest_with_ties_up() {
        assert_eq!(Money::from_ratio(14, 10), Money(1));
        assert_eq!(Money::from_ratio(15, 10), Money(2));
        assert_eq!(Money::from_nanos(1_499).micros(), 1);
        assert_eq!(Money::from_nanos(1_500).micros(), 2);
        assert_eq!(Money::from_nanos(2_500_000_000).dollars(), 2.5);
        assert_eq!(Money::from_ratio(u128::MAX / 2, 1), Money(u64::MAX));
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        let big = Money(u64::MAX - 1);
        assert_eq!(big + Money(5), Money(u64::MAX));
        let total: Money = [Money(1), Money(2), Money(3)].into_iter().sum();
        assert_eq!(total, Money(6));
    }
}
