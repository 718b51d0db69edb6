//! Itemized cost accounting.
//!
//! Every billable action in the simulated cloud lands in a [`CostLedger`],
//! broken down by [`CostCategory`] so experiments can report the VM / pool /
//! shuffle / S3 split exactly as the paper's Figure 13 does. A ledger
//! adds up [`Money`], which only [`Pricing`](crate::Pricing) mints, and
//! [`CostLedger::bill`] is how product code charges it.

use crate::money::Money;
use cackle_telemetry::Telemetry;
use std::fmt;

/// Convert dollars to exact integer micro-dollars (round-to-nearest,
/// ties away from zero — `f64::round` semantics). Integer micro-dollars
/// are the currency of per-tenant cost attribution: integer sums are
/// associative, so "tenant shares sum to the aggregate" can be asserted
/// with `==` rather than a float tolerance.
pub fn micro_dollars(dollars: f64) -> i64 {
    if !dollars.is_finite() {
        return 0;
    }
    (dollars * 1e6).round() as i64 // micro-dollar totals sit far below 2^63
}

/// Split a non-negative micro-dollar `total` across weighted recipients
/// so the shares sum to *exactly* `total` (largest-remainder method).
///
/// Each recipient's ideal share is `total * weight / weight_sum`; floors
/// are handed out first, then the remaining micro-dollars go one each to
/// the largest fractional remainders (ties broken toward the lower
/// index). All-zero weights fall back to an even split. This is the
/// ledger-side hook `cackle-serve` uses for per-tenant attribution: the
/// arithmetic lives here, next to the ledger, so call sites never touch
/// raw money math.
pub fn split_micro_dollars(total: i64, weights: &[u64]) -> Vec<i64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let t = total.max(0) as u128;
    let even = vec![1u64; weights.len()];
    let weight_sum: u128 = weights.iter().map(|&w| w as u128).sum();
    let (weights, weight_sum) = if weight_sum == 0 {
        (&even[..], even.len() as u128)
    } else {
        (weights, weight_sum)
    };
    let mut shares = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u128 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = t * w as u128;
        let floor = exact / weight_sum;
        assigned += floor;
        shares.push(floor as i64);
        remainders.push((exact % weight_sum, i));
    }
    // Hand the leftover micro-dollars to the largest remainders;
    // `(remainder DESC, index ASC)` keeps the distribution canonical.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = t - assigned;
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Where a charge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// Provisioned execution-layer VMs.
    VmCompute,
    /// Elastic-pool (cloud function) compute.
    ElasticPool,
    /// Object-store PUT requests.
    S3Put,
    /// Object-store GET requests.
    S3Get,
    /// Provisioned shuffle nodes.
    ShuffleNode,
    /// Cross-region shuffle egress (bytes produced on remote-region
    /// VMs and shipped home; the environment model's second region).
    Egress,
}

impl CostCategory {
    /// All categories, in report order.
    pub const ALL: [CostCategory; 6] = [
        CostCategory::VmCompute,
        CostCategory::ElasticPool,
        CostCategory::S3Put,
        CostCategory::S3Get,
        CostCategory::ShuffleNode,
        CostCategory::Egress,
    ];

    /// Stable snake_case name, used as the telemetry cost-attribution key.
    pub fn as_str(&self) -> &'static str {
        match self {
            CostCategory::VmCompute => "vm_compute",
            CostCategory::ElasticPool => "elastic_pool",
            CostCategory::S3Put => "s3_put",
            CostCategory::S3Get => "s3_get",
            CostCategory::ShuffleNode => "shuffle_node",
            CostCategory::Egress => "egress",
        }
    }
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejected `f64` charge (see [`CostLedger::try_charge`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChargeError {
    /// The amount was NaN or infinite.
    NotFinite {
        /// Category the charge targeted.
        category: CostCategory,
        /// The offending amount.
        dollars: f64,
    },
    /// The amount was negative (refunds are not a thing the simulated
    /// providers offer).
    Negative {
        /// Category the charge targeted.
        category: CostCategory,
        /// The offending amount.
        dollars: f64,
    },
}

impl fmt::Display for ChargeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChargeError::NotFinite { category, dollars } => {
                write!(f, "non-finite charge {dollars} on {category}")
            }
            ChargeError::Negative { category, dollars } => {
                write!(f, "negative charge {dollars} on {category}")
            }
        }
    }
}

impl std::error::Error for ChargeError {}

/// Accumulated money and usage counters for one simulation run.
///
/// A plain accumulator: runners write its totals into telemetry once,
/// when the run ends, with [`CostLedger::record`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    money: [Money; 6],
    /// Billed VM-seconds on the execution layer.
    pub vm_seconds: f64,
    /// Billed elastic-pool slot-seconds.
    pub pool_seconds: f64,
    /// Billed shuffle-node seconds.
    pub shuffle_seconds: f64,
    /// Object-store PUT request count.
    pub put_requests: u64,
    /// Object-store GET request count.
    pub get_requests: u64,
    /// Bytes written to the object store.
    pub bytes_put: u64,
    /// Bytes read from the object store.
    pub bytes_get: u64,
}

fn idx(c: CostCategory) -> usize {
    match c {
        CostCategory::VmCompute => 0,
        CostCategory::ElasticPool => 1,
        CostCategory::S3Put => 2,
        CostCategory::S3Get => 3,
        CostCategory::ShuffleNode => 4,
        CostCategory::Egress => 5,
    }
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `amount` against `category`: the one way product code
    /// bills. The amount comes from a [`Pricing`](crate::Pricing)
    /// method.
    pub fn bill(&mut self, category: CostCategory, amount: Money) {
        self.money[idx(category)] += amount;
    }

    /// Write this ledger's totals into `telemetry`'s cost-attribution
    /// table under `component`: one cell per category that holds money,
    /// each the category's exact total in dollars. Runners call it once
    /// per ledger, so a dump's cost rows are the figures the run reports.
    pub fn record(&self, component: &'static str, telemetry: &Telemetry) {
        for c in CostCategory::ALL {
            let m = self.category(c);
            if m > Money::ZERO {
                telemetry.add_cost(component, c.as_str(), m.dollars());
            }
        }
    }

    /// The `f64` adapters' one conversion: `dollars` rounded to the
    /// nearest nano-dollar and billed, unless it is NaN, infinite or
    /// negative, which would corrupt every downstream cost figure.
    fn bill_dollars(&mut self, category: CostCategory, dollars: f64) -> Result<(), ChargeError> {
        if !dollars.is_finite() {
            return Err(ChargeError::NotFinite { category, dollars });
        }
        if dollars < 0.0 {
            return Err(ChargeError::Negative { category, dollars });
        }
        self.bill(category, Money::from_nanos((dollars * 1e9).round() as u64));
        Ok(())
    }

    /// Record a charge of `dollars` against `category`, rejecting invalid
    /// amounts. A cold adapter for callers that hold `f64` dollars
    /// (clippy disallows it in the workspace's product code).
    pub fn try_charge(&mut self, category: CostCategory, dollars: f64) -> Result<(), ChargeError> {
        self.bill_dollars(category, dollars)
    }

    /// Record a charge of `dollars` against `category`; an invalid amount
    /// is dropped (and trips a debug assertion). A cold adapter, like
    /// [`CostLedger::try_charge`].
    pub fn charge(&mut self, category: CostCategory, dollars: f64) {
        let outcome = self.bill_dollars(category, dollars);
        debug_assert!(outcome.is_ok(), "invalid charge: {outcome:?}");
    }

    /// Record `count` charges of `unit_dollars` each. A cold adapter,
    /// like [`CostLedger::try_charge`].
    pub fn charge_requests(&mut self, category: CostCategory, count: u64, unit_dollars: f64) {
        let outcome = self.bill_dollars(category, count as f64 * unit_dollars);
        debug_assert!(outcome.is_ok(), "invalid charge: {outcome:?}");
    }

    /// Record a charge of `micros` micro-dollars; a negative amount bills
    /// nothing. A cold adapter, like [`CostLedger::try_charge`].
    pub fn charge_micros(&mut self, category: CostCategory, micros: i64) {
        let nanos = u64::try_from(micros).unwrap_or(0).saturating_mul(1000);
        self.bill(category, Money::from_nanos(nanos));
    }

    /// Money accumulated against one category.
    pub fn category(&self, category: CostCategory) -> Money {
        self.money[idx(category)]
    }

    /// Total money across all categories.
    pub fn total(&self) -> Money {
        self.money.iter().copied().sum()
    }

    /// Total compute money (VM + elastic pool), the quantity most of the
    /// paper's strategy figures report.
    pub fn compute_total(&self) -> Money {
        self.category(CostCategory::VmCompute) + self.category(CostCategory::ElasticPool)
    }

    /// Total shuffle-layer money (shuffle nodes + S3 requests).
    pub fn shuffle_total(&self) -> Money {
        self.category(CostCategory::ShuffleNode)
            + self.category(CostCategory::S3Put)
            + self.category(CostCategory::S3Get)
    }

    /// Total as whole micro-dollars ([`Money::micros`]): the aggregate
    /// side of per-tenant attribution.
    pub fn total_micros(&self) -> i64 {
        self.total().micros()
    }
}

impl fmt::Display for CostLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in CostCategory::ALL {
            let m = self.category(c);
            if m > Money::ZERO {
                writeln!(f, "  {:<14} ${:>10.4}", c.to_string(), m.dollars())?;
            }
        }
        write!(f, "  {:<14} ${:>10.4}", "total", self.total().dollars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(n: u64) -> Money {
        Money::from_nanos(n)
    }

    #[test]
    fn charges_accumulate_per_category() {
        let mut l = CostLedger::new();
        l.bill(CostCategory::VmCompute, nanos(1_500));
        l.bill(CostCategory::VmCompute, nanos(500));
        l.bill(CostCategory::ElasticPool, nanos(3_000));
        assert_eq!(l.category(CostCategory::VmCompute), nanos(2_000));
        assert_eq!(l.compute_total(), nanos(5_000));
        assert_eq!(l.total(), nanos(5_000));
        assert_eq!(l.total_micros(), 5);
    }

    #[test]
    fn shuffle_total_covers_nodes_and_requests() {
        let mut l = CostLedger::new();
        l.bill(CostCategory::ShuffleNode, nanos(8));
        l.bill(CostCategory::S3Put, nanos(2));
        l.bill(CostCategory::S3Get, nanos(1));
        assert_eq!(l.shuffle_total(), nanos(11));
        assert_eq!(l.compute_total(), Money::ZERO);
    }

    #[test]
    fn record_writes_each_category_total_once() {
        let telemetry = Telemetry::new();
        let mut l = CostLedger::new();
        // Three charges whose f64 running sum drifts off the exact total.
        for _ in 0..3 {
            l.bill(CostCategory::VmCompute, nanos(100_000_000));
        }
        l.charge_requests(CostCategory::S3Put, 4, 0.25);
        let _ = l.try_charge(CostCategory::VmCompute, f64::NAN); // rejected
        l.bill(CostCategory::S3Get, Money::ZERO);
        l.record("fleet", &telemetry);
        assert_eq!(
            telemetry.cost("fleet", "vm_compute").to_bits(),
            0.3f64.to_bits()
        );
        assert_eq!(telemetry.cost("fleet", "s3_put"), 1.0);
        // A category without money writes no row.
        let rows: Vec<_> = telemetry
            .snapshot()
            .unwrap()
            .costs()
            .map(|(_, c, _)| c.to_string())
            .collect();
        assert_eq!(rows, ["s3_put", "vm_compute"]);
    }

    #[test]
    fn micro_dollars_rounds_to_nearest() {
        assert_eq!(micro_dollars(0.0), 0);
        assert_eq!(micro_dollars(1.0), 1_000_000);
        assert_eq!(micro_dollars(0.123_456_4), 123_456);
        assert_eq!(micro_dollars(0.123_456_6), 123_457);
        assert_eq!(micro_dollars(f64::NAN), 0);
        assert_eq!(micro_dollars(f64::INFINITY), 0);
    }

    #[test]
    fn split_micro_dollars_conserves_every_total() {
        // Exactness under awkward weights, including zero weights and a
        // total smaller than the recipient count.
        let cases: [(i64, &[u64]); 6] = [
            (1_000_000, &[1, 1, 1]),
            (10, &[3, 3, 3, 3]),
            (2, &[5, 1, 1, 1, 1]),
            (999_999_999_999, &[7, 0, 13, 1_000_000]),
            (5, &[0, 0, 0]),
            (0, &[2, 3]),
        ];
        for (total, weights) in cases {
            let shares = split_micro_dollars(total, weights);
            assert_eq!(shares.len(), weights.len());
            assert_eq!(
                shares.iter().sum::<i64>(),
                total,
                "total {total} weights {weights:?} shares {shares:?}"
            );
            assert!(shares.iter().all(|&s| s >= 0));
        }
        assert!(split_micro_dollars(7, &[]).is_empty());
    }

    #[test]
    fn split_micro_dollars_is_proportional_and_canonical() {
        let shares = split_micro_dollars(100, &[3, 1]);
        assert_eq!(shares, vec![75, 25]);
        // Remainder goes to the largest fractional part; ties to the
        // lower index.
        assert_eq!(split_micro_dollars(10, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(split_micro_dollars(11, &[1, 1, 1]), vec![4, 4, 3]);
        // Zero-weight recipients get nothing when others carry weight.
        assert_eq!(split_micro_dollars(9, &[0, 3]), vec![0, 9]);
        // All-zero weights fall back to an even split.
        assert_eq!(split_micro_dollars(9, &[0, 0, 0]), vec![3, 3, 3]);
    }

    #[test]
    fn adapters_round_to_the_nano_grid_and_guard_negatives() {
        let mut l = CostLedger::new();
        l.charge_micros(CostCategory::Egress, 123_456);
        l.charge_micros(CostCategory::Egress, 1);
        l.charge(CostCategory::S3Get, 4e-7);
        l.charge_requests(CostCategory::S3Get, 3, 4e-7);
        assert_eq!(l.category(CostCategory::Egress), nanos(123_457_000));
        assert_eq!(l.category(CostCategory::S3Get), nanos(1_600));
        // Egress participates in the grand total but not the
        // compute/shuffle layer subtotals (it bills through its own
        // component ledger).
        assert_eq!(l.total_micros(), 123_459);
        assert_eq!(l.compute_total(), Money::ZERO);
        assert_eq!(l.shuffle_total(), nanos(1_600));
        // Negative micro amounts bill nothing.
        let mut neg = CostLedger::new();
        neg.charge_micros(CostCategory::VmCompute, -5);
        assert_eq!(neg.total(), Money::ZERO);
    }

    #[test]
    fn display_includes_total() {
        let mut l = CostLedger::new();
        l.bill(CostCategory::S3Get, nanos(200_000_000));
        let s = l.to_string();
        assert!(s.contains("s3_get"));
        assert!(s.contains("total"));
    }
}
