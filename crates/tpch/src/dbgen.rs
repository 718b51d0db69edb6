//! TPC-H data generator.
//!
//! A from-scratch `dbgen`: correct cardinalities and key relationships at
//! any scale factor, the standard value domains (brands, types, segments,
//! priorities, nation/region names, spec retail-price formula, spec
//! part→supplier assignment), and the date logic every TPC-H predicate
//! depends on. Text fields use compact word pools rather than the spec's
//! full grammar — comments only need to support the LIKE predicates of
//! Q9/Q13/Q16/Q20, which seed phrases guarantee.
//!
//! Generation is deterministic per (table, scale factor, seed).

use crate::schema;
use cackle_engine::batch::Batch;
use cackle_engine::column::{Column, ColumnData, StrColumn, StrDict};
use cackle_engine::schema::{Field, Schema, SchemaRef};
use cackle_engine::table::{Catalog, Table};
use cackle_engine::types::{date, DataType};
use cackle_prng::{Pcg32, Seed};
use std::fmt::Write as _;
use std::sync::Arc;

/// Configuration for one generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbGenConfig {
    /// TPC-H scale factor (1.0 ≈ 1 GB; fractional factors supported).
    pub scale_factor: f64,
    /// Rows per table partition (the scan-parallelism unit; stands in for
    /// the paper's 100 MB ORC chunks).
    pub rows_per_partition: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbGenConfig {
    fn default() -> Self {
        DbGenConfig {
            scale_factor: 0.01,
            rows_per_partition: 16384,
            seed: 7,
        }
    }
}

impl DbGenConfig {
    /// A config at the given scale factor with defaults otherwise.
    pub fn at_scale(scale_factor: f64) -> Self {
        DbGenConfig {
            scale_factor,
            ..Default::default()
        }
    }

    /// The stream of one table: the config's seed salted by the table.
    #[expect(
        clippy::disallowed_methods,
        reason = "mint: the TPC-H generator receives the DbGenConfig seed"
    )]
    fn stream(&self, table_salt: u64) -> Pcg32 {
        Pcg32::new(Seed::root(self.seed).salted(table_salt))
    }

    fn scaled(&self, base: u64) -> usize {
        ((base as f64 * self.scale_factor).round() as usize).max(1)
    }

    /// Row counts per table at this scale factor.
    pub fn row_counts(&self) -> TableCounts {
        TableCounts {
            region: 5,
            nation: 25,
            supplier: self.scaled(10_000),
            customer: self.scaled(150_000),
            part: self.scaled(200_000),
            partsupp: self.scaled(200_000) * 4.min(self.scaled(10_000)),
            orders: self.scaled(1_500_000),
        }
    }
}

/// Fixed cardinalities at a scale factor (lineitem is stochastic, 1–7 rows
/// per order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCounts {
    /// Rows in `region` (always 5).
    pub region: usize,
    /// Rows in `nation` (always 25).
    pub nation: usize,
    /// Rows in `supplier`.
    pub supplier: usize,
    /// Rows in `customer`.
    pub customer: usize,
    /// Rows in `part`.
    pub part: usize,
    /// Rows in `partsupp`.
    pub partsupp: usize,
    /// Rows in `orders`.
    pub orders: usize,
}

/// The 25 standard nations with their region assignments.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
    ("VIETNAM", 2),
    ("CHINA", 2),
    ("SAUDI ARABIA", 4),
];

/// The 5 standard regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
const LINE_STATUSES: [&str; 2] = ["F", "O"];
const ORDER_STATUSES: [&str; 3] = ["F", "O", "P"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_S1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_S2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 16] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "chartreuse",
    "forest",
    "green",
    "ivory",
];
const WORDS: [&str; 20] = [
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "deposits",
    "packages",
    "requests",
    "accounts",
    "instructions",
    "foxes",
    "theodolites",
    "pinto",
    "beans",
    "ideas",
    "platelets",
    "sleep",
    "haggle",
    "nag",
    "dolphins",
];

const START_DATE: &str = "1992-01-01";
/// Latest order date (spec: 1998-12-31 minus 151 days).
pub const LAST_ORDER_DATE: &str = "1998-08-02";
/// The spec's "current date" used by return-flag logic.
pub const CURRENT_DATE: &str = "1995-06-17";

fn money(rng: &mut Pcg32, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo..hi) * 100.0).round() / 100.0
}

/// Append `words` random words, space-separated, to `s`.
fn comment(s: &mut String, rng: &mut Pcg32, words: usize) {
    for i in 0..words {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
}

/// Append `s` again behind `phrase`: `"{s}{phrase}{s}"`, the shape of a
/// comment that carries a seed phrase.
fn wrap_around(s: &mut String, phrase: &str) {
    let end = s.len();
    s.push_str(phrase);
    s.extend_from_within(..end);
}

/// Cuts a table into partitions while its rows are generated. Values are
/// pushed one at a time in schema order; every `rows_per_partition`
/// complete rows become one [`Batch`]. A string picked from a fixed list
/// is its index into one dictionary of the list, which every partition
/// of the column shares; any other string goes straight into the open
/// partition's column (composed ones by way of one reused scratch
/// buffer), so the table never exists as one piece, nor any of its
/// strings as a `String` of its own.
struct TableWriter {
    name: &'static str,
    schema: SchemaRef,
    rows_per_partition: usize,
    /// The open partition, one builder per schema field.
    open: Vec<ColumnData>,
    /// Per schema field, the list dictionary of a list-picked column,
    /// made at its first pick.
    dicts: Vec<Option<Arc<StrDict>>>,
    /// The column the next value belongs to.
    next: usize,
    partitions: Vec<Batch>,
    scratch: String,
}

/// Empty builders for one partition of `schema`: fixed-width columns
/// sized to the partition, a list-picked column coded against its
/// dictionary, other string data left to grow.
fn builders(schema: &Schema, dicts: &[Option<Arc<StrDict>>], rows: usize) -> Vec<ColumnData> {
    let builder = |(f, dict): (&Field, &Option<Arc<StrDict>>)| match (f.dtype, dict) {
        (DataType::I64, _) => ColumnData::I64(Vec::with_capacity(rows)),
        (DataType::F64, _) => ColumnData::F64(Vec::with_capacity(rows)),
        (DataType::Str, Some(dict)) => ColumnData::Str(StrColumn::with_dict(dict.clone(), rows)),
        (DataType::Str, None) => ColumnData::Str(StrColumn::with_capacity(rows, 0)),
        (DataType::Date, _) => ColumnData::Date(Vec::with_capacity(rows)),
        (DataType::Bool, _) => ColumnData::Bool(Vec::with_capacity(rows)),
    };
    schema.fields.iter().zip(dicts).map(builder).collect()
}

impl TableWriter {
    fn new(name: &'static str, schema: SchemaRef, cfg: &DbGenConfig) -> Self {
        let dicts = vec![None; schema.len()];
        TableWriter {
            name,
            rows_per_partition: cfg.rows_per_partition,
            open: builders(&schema, &dicts, cfg.rows_per_partition),
            dicts,
            next: 0,
            partitions: Vec::new(),
            scratch: String::new(),
            schema,
        }
    }

    /// Hand the next column's builder to `push`, which panics on a value
    /// of the wrong type; cut a partition once its last row is complete.
    fn value(&mut self, push: impl FnOnce(&mut ColumnData)) {
        push(&mut self.open[self.next]);
        self.next += 1;
        if self.next == self.open.len() {
            self.next = 0;
            if self.open[0].len() == self.rows_per_partition {
                self.cut();
            }
        }
    }

    fn cut(&mut self) {
        let fresh = builders(&self.schema, &self.dicts, self.rows_per_partition);
        let columns = std::mem::replace(&mut self.open, fresh)
            .into_iter()
            .map(|mut data| {
                // A partition keeps no builder slack: string data grew by
                // doubling, and a table's last partition is short.
                match &mut data {
                    ColumnData::I64(v) => v.shrink_to_fit(),
                    ColumnData::F64(v) => v.shrink_to_fit(),
                    ColumnData::Str(v) => v.shrink_to_fit(),
                    ColumnData::Date(v) => v.shrink_to_fit(),
                    ColumnData::Bool(v) => v.shrink_to_fit(),
                }
                Column::new(data)
            })
            .collect();
        self.partitions
            .push(Batch::new(self.schema.clone(), columns));
    }

    fn i64(&mut self, v: i64) {
        self.value(|c| match c {
            ColumnData::I64(c) => c.push(v),
            other => panic!("i64 pushed to a {} column", other.data_type()),
        });
    }

    fn f64(&mut self, v: f64) {
        self.value(|c| match c {
            ColumnData::F64(c) => c.push(v),
            other => panic!("f64 pushed to a {} column", other.data_type()),
        });
    }

    fn date(&mut self, v: i32) {
        self.value(|c| match c {
            ColumnData::Date(c) => c.push(v),
            other => panic!("date pushed to a {} column", other.data_type()),
        });
    }

    fn str(&mut self, v: &str) {
        self.value(|c| match c {
            ColumnData::Str(c) => c.push(v),
            other => panic!("string pushed to a {} column", other.data_type()),
        });
    }

    /// Entry `i` of `list`, a column's fixed list of values: its code
    /// into the column's dictionary of the list.
    fn pick<'l>(&mut self, list: impl IntoIterator<Item = &'l str>, i: usize) {
        let col = self.next;
        if self.dicts[col].is_none() {
            // The column's first value: its open builder is still empty.
            let dict = Arc::new(list.into_iter().collect::<StrDict>());
            self.open[col] =
                ColumnData::Str(StrColumn::with_dict(dict.clone(), self.rows_per_partition));
            self.dicts[col] = Some(dict);
        }
        let code = u32::try_from(i).expect("a list index fits a code");
        self.value(|c| match c {
            ColumnData::Str(c) => c.push_code(code),
            other => panic!("string pushed to a {} column", other.data_type()),
        });
    }

    /// A string `compose` writes into the scratch buffer it is handed
    /// empty.
    fn text(&mut self, compose: impl FnOnce(&mut String)) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        compose(&mut scratch);
        self.str(&scratch);
        self.scratch = scratch;
    }

    /// A formatted string.
    fn fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.text(|s| s.write_fmt(args).expect("writing to a String cannot fail"));
    }

    /// The table: the partitions cut so far plus the rows left over — or
    /// one empty partition for a table with no rows at all.
    fn finish(mut self) -> Table {
        assert_eq!(self.next, 0, "{}: incomplete last row", self.name);
        if !self.open[0].is_empty() || self.partitions.is_empty() {
            self.cut();
        }
        Table::new(self.name, self.schema, self.partitions)
    }
}

/// Generate the `region` table.
pub fn gen_region(cfg: &DbGenConfig) -> Table {
    let mut rng = cfg.stream(0x7265_6769);
    let mut w = TableWriter::new("region", schema::region(), cfg);
    for key in 0..REGIONS.len() {
        w.i64(key as i64);
        w.pick(REGIONS, key);
        w.text(|s| comment(s, &mut rng, 6));
    }
    w.finish()
}

/// Generate the `nation` table.
pub fn gen_nation(cfg: &DbGenConfig) -> Table {
    let mut rng = cfg.stream(0x6e61_7469);
    let mut w = TableWriter::new("nation", schema::nation(), cfg);
    for (key, (_, region)) in NATIONS.into_iter().enumerate() {
        w.i64(key as i64);
        w.pick(NATIONS.map(|(name, _)| name), key);
        w.i64(region);
        w.text(|s| comment(s, &mut rng, 8));
    }
    w.finish()
}

fn phone(s: &mut String, rng: &mut Pcg32, nationkey: i64) {
    let _ = write!(
        s,
        "{}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    );
}

/// Generate the `supplier` table. About 5 per 10 000 suppliers carry the
/// "Customer Complaints" phrase Q16 filters on.
pub fn gen_supplier(cfg: &DbGenConfig) -> Table {
    let n = cfg.row_counts().supplier;
    let mut rng = cfg.stream(0x7375_7070);
    let mut w = TableWriter::new("supplier", schema::supplier(), cfg);
    for i in 1..=n as i64 {
        let nk = rng.gen_range(0..25);
        w.i64(i);
        w.fmt(format_args!("Supplier#{i:09}"));
        w.text(|s| comment(s, &mut rng, 3));
        w.i64(nk);
        w.text(|s| phone(s, &mut rng, nk));
        w.f64(money(&mut rng, -999.99, 9999.99));
        w.text(|s| {
            comment(s, &mut rng, 7);
            // Spec rate: ~5 per 10 000 suppliers carry the complaint phrase;
            // clamp the denominator so tiny scale factors still generate a
            // few (Q16's anti join needs a non-empty complaint set to bite).
            if rng.gen_ratio(5, (n as u32).clamp(50, 10_000)) {
                wrap_around(s, " Customer sly Complaints ");
            }
        });
    }
    w.finish()
}

/// Generate the `customer` table. Roughly 1 % of comments contain the
/// "special … requests" phrase Q13 excludes.
pub fn gen_customer(cfg: &DbGenConfig) -> Table {
    let n = cfg.row_counts().customer;
    let mut rng = cfg.stream(0x6375_7374);
    let mut w = TableWriter::new("customer", schema::customer(), cfg);
    for i in 1..=n as i64 {
        let nk = rng.gen_range(0..25);
        w.i64(i);
        w.fmt(format_args!("Customer#{i:09}"));
        w.text(|s| comment(s, &mut rng, 3));
        w.i64(nk);
        w.text(|s| phone(s, &mut rng, nk));
        w.f64(money(&mut rng, -999.99, 9999.99));
        w.pick(SEGMENTS, rng.gen_range(0..SEGMENTS.len()));
        w.text(|s| {
            comment(s, &mut rng, 8);
            if rng.gen_ratio(1, 100) {
                wrap_around(s, " special packages requests ");
            }
        });
    }
    w.finish()
}

/// Generate the `part` table (spec retail-price formula).
pub fn gen_part(cfg: &DbGenConfig) -> Table {
    let n = cfg.row_counts().part;
    let mut rng = cfg.stream(0x7061_7274);
    let mut w = TableWriter::new("part", schema::part(), cfg);
    for i in 1..=n as i64 {
        w.i64(i);
        w.text(|s| {
            for k in 0..5 {
                if k > 0 {
                    s.push(' ');
                }
                s.push_str(COLORS[rng.gen_range(0..COLORS.len())]);
            }
        });
        let m = rng.gen_range(1..=5);
        w.fmt(format_args!("Manufacturer#{m}"));
        w.fmt(format_args!("Brand#{m}{}", rng.gen_range(1..=5)));
        w.fmt(format_args!(
            "{} {} {}",
            TYPE_S1[rng.gen_range(0..TYPE_S1.len())],
            TYPE_S2[rng.gen_range(0..TYPE_S2.len())],
            TYPE_S3[rng.gen_range(0..TYPE_S3.len())]
        ));
        w.i64(rng.gen_range(1..=50));
        w.fmt(format_args!(
            "{} {}",
            CONTAINER_S1[rng.gen_range(0..CONTAINER_S1.len())],
            CONTAINER_S2[rng.gen_range(0..CONTAINER_S2.len())]
        ));
        // Spec 4.2.3: (90000 + ((partkey/10) mod 20001) + 100*(partkey mod 1000)) / 100
        w.f64((90_000 + (i / 10) % 20_001 + 100 * (i % 1000)) as f64 / 100.0);
        w.text(|s| comment(s, &mut rng, 5));
    }
    w.finish()
}

/// The spec's part→supplier assignment: supplier `j` (0–3) of part `p`
/// given `s` suppliers total.
pub fn supplier_for_part(p: i64, j: i64, s: i64) -> i64 {
    (p + j * (s / 4 + (p - 1) / s)) % s + 1
}

/// The distinct suppliers of part `p` — min(4, s) of them.
///
/// At full scale the spec formula yields four distinct suppliers, but at
/// the tiny scale factors tests use, `s/4 + (p-1)/s` can be a multiple of
/// `s` and the formula degenerates to the same supplier four times —
/// which would turn the (partkey, suppkey) join into a row multiplier and
/// corrupt Q9/Q20. Collisions are resolved by linear probing, preserving
/// the spec assignment wherever it is already distinct.
pub fn suppliers_of_part(p: i64, s: i64) -> Vec<i64> {
    let want = 4.min(s as usize);
    let mut out: Vec<i64> = Vec::with_capacity(want);
    for j in 0..4 {
        if out.len() == want {
            break;
        }
        let mut candidate = supplier_for_part(p, j, s);
        while out.contains(&candidate) {
            candidate = candidate % s + 1;
        }
        out.push(candidate);
    }
    out
}

/// Generate the `partsupp` table (4 suppliers per part, spec assignment).
pub fn gen_partsupp(cfg: &DbGenConfig) -> Table {
    let counts = cfg.row_counts();
    let nparts = counts.part as i64;
    let nsupp = counts.supplier as i64;
    let mut rng = cfg.stream(0x7073_7570);
    let mut w = TableWriter::new("partsupp", schema::partsupp(), cfg);
    for p in 1..=nparts {
        for sk in suppliers_of_part(p, nsupp) {
            w.i64(p);
            w.i64(sk);
            w.i64(rng.gen_range(1..=9999));
            w.f64(money(&mut rng, 1.0, 1000.0));
            w.text(|s| comment(s, &mut rng, 5));
        }
    }
    w.finish()
}

/// Generated `orders` and `lineitem` together (lineitem derives from each
/// order).
pub struct OrdersAndLineitem {
    /// The `orders` table.
    pub orders: Table,
    /// The `lineitem` table.
    pub lineitem: Table,
}

/// Generate `orders` + `lineitem` with spec date logic and 1–7 lineitems
/// per order.
pub fn gen_orders_lineitem(cfg: &DbGenConfig) -> OrdersAndLineitem {
    let counts = cfg.row_counts();
    let norders = counts.orders;
    let ncust = counts.customer as i64;
    let nparts = counts.part as i64;
    let nsupp = counts.supplier as i64;
    let mut rng = cfg.stream(0x6f72_6465);

    let start = date::parse(START_DATE);
    let last = date::parse(LAST_ORDER_DATE);
    let current = date::parse(CURRENT_DATE);

    let mut orders = TableWriter::new("orders", schema::orders(), cfg);
    let mut lineitem = TableWriter::new("lineitem", schema::lineitem(), cfg);

    for okey in 1..=norders as i64 {
        let odate = rng.gen_range(start..=last);
        let nlines = rng.gen_range(1..=7);
        let mut total = 0.0;
        let mut any_open = false;
        let mut all_open = true;
        for line in 1..=nlines {
            let pkey = rng.gen_range(1..=nparts);
            let skey = {
                let options = suppliers_of_part(pkey, nsupp);
                options[rng.gen_range(0..options.len())]
            };
            let qty = rng.gen_range(1..=50) as f64;
            // Spec: extendedprice = qty * retailprice of the part.
            let retail = (90_000 + (pkey / 10) % 20_001 + 100 * (pkey % 1000)) as f64 / 100.0;
            let ext = (qty * retail * 100.0).round() / 100.0;
            let disc = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = odate + rng.gen_range(1..=121);
            let commitdate = odate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            // Indices into RETURN_FLAGS and LINE_STATUSES.
            let (rflag, lstatus) = if receiptdate <= current {
                (if rng.gen_bool(0.5) { 0 } else { 1 }, 0)
            } else {
                (2, 1)
            };
            if LINE_STATUSES[lstatus] == "O" {
                any_open = true;
            } else {
                all_open = false;
            }
            total += ext * (1.0 + tax) * (1.0 - disc);
            lineitem.i64(okey);
            lineitem.i64(pkey);
            lineitem.i64(skey);
            lineitem.i64(line);
            lineitem.f64(qty);
            lineitem.f64(ext);
            lineitem.f64(disc);
            lineitem.f64(tax);
            lineitem.pick(RETURN_FLAGS, rflag);
            lineitem.pick(LINE_STATUSES, lstatus);
            lineitem.date(shipdate);
            lineitem.date(commitdate);
            lineitem.date(receiptdate);
            lineitem.pick(INSTRUCTIONS, rng.gen_range(0..INSTRUCTIONS.len()));
            lineitem.pick(SHIPMODES, rng.gen_range(0..SHIPMODES.len()));
            lineitem.text(|s| comment(s, &mut rng, 4));
        }
        orders.i64(okey);
        // Spec 4.2.3: o_custkey is never divisible by 3, so a third of
        // customers place no orders (exercised by Q13/Q22).
        orders.i64(loop {
            let c = rng.gen_range(1..=ncust);
            if c % 3 != 0 {
                break c;
            }
        });
        // An index into ORDER_STATUSES: all lines open, some, none.
        let status = if any_open && all_open {
            1
        } else if any_open {
            2
        } else {
            0
        };
        orders.pick(ORDER_STATUSES, status);
        orders.f64((total * 100.0).round() / 100.0);
        orders.date(odate);
        orders.pick(PRIORITIES, rng.gen_range(0..PRIORITIES.len()));
        orders.fmt(format_args!("Clerk#{:09}", rng.gen_range(1..=1000)));
        orders.i64(0);
        orders.text(|s| comment(s, &mut rng, 6));
    }

    OrdersAndLineitem {
        orders: orders.finish(),
        lineitem: lineitem.finish(),
    }
}

/// Generate all eight tables into a fresh catalog.
pub fn generate_catalog(cfg: &DbGenConfig) -> Catalog {
    let catalog = Catalog::new();
    catalog.register(gen_region(cfg));
    catalog.register(gen_nation(cfg));
    catalog.register(gen_supplier(cfg));
    catalog.register(gen_customer(cfg));
    catalog.register(gen_part(cfg));
    catalog.register(gen_partsupp(cfg));
    let ol = gen_orders_lineitem(cfg);
    catalog.register(ol.orders);
    catalog.register(ol.lineitem);
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DbGenConfig {
        DbGenConfig {
            scale_factor: 0.001,
            rows_per_partition: 1000,
            seed: 7,
        }
    }

    #[test]
    fn cardinalities_scale() {
        let c = tiny().row_counts();
        assert_eq!(c.region, 5);
        assert_eq!(c.nation, 25);
        assert_eq!(c.supplier, 10);
        assert_eq!(c.customer, 150);
        assert_eq!(c.part, 200);
        assert_eq!(c.partsupp, 800);
        assert_eq!(c.orders, 1500);
    }

    #[test]
    fn catalog_contains_all_tables_with_valid_keys() {
        let cfg = tiny();
        let cat = generate_catalog(&cfg);
        for t in schema::TABLE_NAMES {
            assert!(cat.contains(t), "missing {t}");
        }
        let li = cat.get("lineitem");
        let counts = cfg.row_counts();
        // 1-7 lineitems per order.
        let rows = li.num_rows();
        assert!(rows >= counts.orders && rows <= counts.orders * 7);
        // Foreign keys in range.
        for p in &li.partitions {
            for &pk in p.column_by_name("l_partkey").i64s() {
                assert!(pk >= 1 && pk <= counts.part as i64);
            }
            for &sk in p.column_by_name("l_suppkey").i64s() {
                assert!(sk >= 1 && sk <= counts.supplier as i64);
            }
        }
    }

    #[test]
    fn lineitem_suppliers_come_from_partsupp() {
        // The join (l_partkey, l_suppkey) -> partsupp must always hit:
        // Q9/Q20 depend on it.
        let cfg = tiny();
        let cat = generate_catalog(&cfg);
        let ps = cat.get("partsupp");
        let mut pairs = std::collections::HashSet::new();
        for p in &ps.partitions {
            let pk = p.column_by_name("ps_partkey").i64s();
            let sk = p.column_by_name("ps_suppkey").i64s();
            for i in 0..p.num_rows() {
                pairs.insert((pk[i], sk[i]));
            }
        }
        let li = cat.get("lineitem");
        for p in &li.partitions {
            let pk = p.column_by_name("l_partkey").i64s();
            let sk = p.column_by_name("l_suppkey").i64s();
            for i in 0..p.num_rows() {
                assert!(
                    pairs.contains(&(pk[i], sk[i])),
                    "dangling ({}, {})",
                    pk[i],
                    sk[i]
                );
            }
        }
    }

    #[test]
    fn date_invariants_hold() {
        let cfg = tiny();
        let ol = gen_orders_lineitem(&cfg);
        let last = date::parse(LAST_ORDER_DATE);
        let start = date::parse(START_DATE);
        for p in &ol.lineitem.partitions {
            let ship = p.column_by_name("l_shipdate").dates();
            let receipt = p.column_by_name("l_receiptdate").dates();
            for i in 0..p.num_rows() {
                assert!(receipt[i] > ship[i]);
            }
        }
        for p in &ol.orders.partitions {
            for &d in p.column_by_name("o_orderdate").dates() {
                assert!(d >= start && d <= last);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = tiny();
        let a = gen_part(&cfg);
        let b = gen_part(&cfg);
        assert_eq!(a.partitions[0], b.partitions[0]);
        let other = DbGenConfig { seed: 9, ..cfg };
        assert_ne!(gen_part(&other).partitions[0], a.partitions[0]);
    }

    #[test]
    fn suppliers_of_part_distinct_even_at_tiny_scale() {
        for s in [4i64, 5, 10, 20, 100, 10_000] {
            for p in 1..=400i64 {
                let sup = suppliers_of_part(p, s);
                assert_eq!(sup.len(), 4.min(s as usize), "s={s} p={p}");
                let set: std::collections::HashSet<i64> = sup.iter().copied().collect();
                assert_eq!(set.len(), sup.len(), "duplicates for s={s} p={p}: {sup:?}");
                assert!(sup.iter().all(|&k| k >= 1 && k <= s));
            }
        }
    }

    #[test]
    fn spec_supplier_assignment_in_range() {
        for s in [10i64, 100, 1000] {
            for p in 1..=50i64 {
                for j in 0..4 {
                    let sk = supplier_for_part(p, j, s);
                    assert!(sk >= 1 && sk <= s, "s={s} p={p} j={j} -> {sk}");
                }
            }
        }
    }

    #[test]
    fn value_domains() {
        let cfg = tiny();
        let part = gen_part(&cfg);
        for p in &part.partitions {
            for b in p.column_by_name("p_brand").strs() {
                assert!(b.starts_with("Brand#") && b.len() == 8, "{b}");
            }
            for s in p.column_by_name("p_size").i64s() {
                assert!((1..=50).contains(s));
            }
        }
        let cust = gen_customer(&cfg);
        for p in &cust.partitions {
            for s in p.column_by_name("c_mktsegment").strs() {
                assert!(SEGMENTS.contains(&s));
            }
            for (i, ph) in p.column_by_name("c_phone").strs().iter().enumerate() {
                let nk = p.column_by_name("c_nationkey").i64s()[i];
                assert!(ph.starts_with(&format!("{}-", 10 + nk)), "{ph} vs {nk}");
            }
        }
    }

    #[test]
    fn retailprice_formula_spec() {
        let cfg = tiny();
        let part = gen_part(&cfg);
        let p0 = &part.partitions[0];
        let keys = p0.column_by_name("p_partkey").i64s();
        let prices = p0.column_by_name("p_retailprice").f64s();
        for i in 0..p0.num_rows() {
            let k = keys[i];
            let expect = (90_000 + (k / 10) % 20_001 + 100 * (k % 1000)) as f64 / 100.0;
            assert!((prices[i] - expect).abs() < 1e-9);
        }
    }
}
