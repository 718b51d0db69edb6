//! String columns, pinned and checked from outside the crate.
//!
//! Two halves. The *wire-and-placement pin* hashes what the rest of the
//! system bills on — `encode_batch` bytes, `Batch::byte_size` and
//! `partition_of` — over seeded batches with string columns. The
//! constants were recorded while strings were a `Vec<String>`; every
//! later layout must reproduce them exactly, because shuffle bytes, partition
//! placement and therefore every simulated duration and dollar hang on
//! them. The *oracle tests* run every column operation on string columns
//! against the same operation done on a plain `Vec<String>` plus a
//! `Vec<bool>`, in `proptests.rs`' seeded-loop style.

use cackle_engine::codec::{decode_batch, encode_batch};
use cackle_engine::kernel_prelude::{sort_permutation, SortKeyCol};
use cackle_engine::prelude::*;
use cackle_engine::rowkey::{encode_value, fnv1a, partition_of};
use cackle_prng::{Pcg32, Seed};

/// Short, long, empty and multi-byte strings.
const VOCAB: [&str; 12] = [
    "",
    "R",
    "F",
    "MAIL",
    "DELIVER IN PERSON",
    "héllo",
    "日本語",
    "naïve ☕ café",
    "𝄞 clef",
    "carefully final deposits haggle slyly",
    "a",
    "",
];

fn gen_string(rng: &mut Pcg32) -> String {
    if rng.gen_bool(0.25) {
        let n = rng.gen_range(0usize..24);
        (0..n)
            .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
            .collect()
    } else {
        VOCAB[rng.gen_range(0usize..VOCAB.len())].to_string()
    }
}

fn gen_strings(rng: &mut Pcg32, n: usize) -> Vec<String> {
    (0..n).map(|_| gen_string(rng)).collect()
}

/// A mask whose row 0 is always invalid (so even a one-row column
/// carries one) and whose other rows are valid 70 % of the time.
fn gen_mask(rng: &mut Pcg32, n: usize) -> Vec<bool> {
    (0..n).map(|i| i != 0 && rng.gen_bool(0.7)).collect()
}

fn str_column(strings: Vec<String>, mask: Option<Vec<bool>>) -> Column {
    let data = ColumnData::Str(strings.into());
    match mask {
        Some(m) => Column::with_validity(data, m),
        None => Column::new(data),
    }
}

/// `[s: Str, k: I64, t: Str]` with `n` rows. With `masked`, `s` carries
/// a validity mask whose invalid rows hold whatever was drawn — row 0 a
/// fixed non-empty multi-byte placeholder — and `t` a second mask.
fn pin_batch(rng: &mut Pcg32, n: usize, masked: bool) -> Batch {
    let schema = Schema::shared(&[
        ("s", DataType::Str),
        ("k", DataType::I64),
        ("t", DataType::Str),
    ]);
    let mut s = gen_strings(rng, n);
    let k: Vec<i64> = (0..n).map(|_| rng.gen_range(-3i64..40)).collect();
    let t = gen_strings(rng, n);
    let (s_mask, t_mask) = if masked {
        if let Some(first) = s.first_mut() {
            *first = "plâceholder".to_string();
        }
        (Some(gen_mask(rng, n)), Some(gen_mask(rng, n)))
    } else {
        (None, None)
    };
    Batch::new(
        schema,
        vec![
            str_column(s, s_mask),
            Column::from_i64(k),
            str_column(t, t_mask),
        ],
    )
}

const PIN_ROWS: [usize; 4] = [0, 1, 17, 4097];

fn pin_batches() -> Vec<(usize, bool, Batch)> {
    let mut rng = Pcg32::new(Seed::root(0x57_1206));
    let mut out = Vec::new();
    for &n in &PIN_ROWS {
        for masked in [false, true] {
            out.push((n, masked, pin_batch(&mut rng, n, masked)));
        }
    }
    out
}

/// FNV-1a of the partition every row lands in, for one key set.
fn placement_hash(keys: &[&Column], rows: usize) -> u64 {
    let placed: Vec<u8> = (0..rows).map(|i| partition_of(keys, i, 7) as u8).collect();
    fnv1a(&placed)
}

/// Per pinned batch: FNV-1a of the encoded bytes, `byte_size`, FNV-1a of
/// the placement by `[s]` and by `[s, k]` over 7 partitions. Recorded at
/// the commit before strings went flat; must never change.
const PINNED: [(usize, bool, u64, u64, u64, u64); 8] = [
    (
        0,
        false,
        0x3c0e637be1c5a2b6,
        0,
        0xcbf29ce484222325,
        0xcbf29ce484222325,
    ),
    (
        0,
        true,
        0x3c0e637be1c5a2b6,
        0,
        0xcbf29ce484222325,
        0xcbf29ce484222325,
    ),
    (
        1,
        false,
        0x958811311d061b04,
        19,
        0xaf72a84c8601b113,
        0xaf72f84c8601b992,
    ),
    (
        1,
        true,
        0xfe218c603cab0f54,
        67,
        0xaf72c84c8601b479,
        0xaf72e84c8601b7df,
    ),
    (
        17,
        false,
        0x75c29e14a449f301,
        624,
        0xe027f8a13c29b497,
        0xaf239bf8d0bc1c73,
    ),
    (
        17,
        true,
        0xa27b6b4689a38ab2,
        588,
        0xd809da37989b0206,
        0x1237230cdbe7133e,
    ),
    (
        4097,
        false,
        0xc5503af20c664dda,
        140_499,
        0x11578d5546d9e2d4,
        0xfa037691a0a0a927,
    ),
    (
        4097,
        true,
        0x0a00c6cd1af194c8,
        142_879,
        0xe2cc797f13de7457,
        0xa2412758ed9d2c91,
    ),
];

#[test]
fn wire_bytes_sizes_and_placement_are_pinned() {
    let got: Vec<(usize, bool, u64, u64, u64, u64)> = pin_batches()
        .iter()
        .map(|(n, masked, b)| {
            let (s, k) = (&b.columns[0], &b.columns[1]);
            (
                *n,
                *masked,
                fnv1a(&encode_batch(b)),
                b.byte_size(),
                placement_hash(&[s], *n),
                placement_hash(&[s, k], *n),
            )
        })
        .collect();
    assert_eq!(got, PINNED, "recomputed table:\n{got:#x?}");
}

#[test]
fn pinned_batches_carry_what_the_pin_is_about() {
    for (n, masked, b) in pin_batches() {
        let s = &b.columns[0];
        assert_eq!(s.len(), n);
        if masked && n > 0 {
            // An invalid row with a non-empty placeholder behind it.
            assert!(!s.is_valid(0) && !s.strs()[0].is_empty());
        }
        if n >= 17 {
            let strs = s.strs();
            assert!((0..n).any(|i| strs[i].is_empty()), "no empty string");
            assert!((0..n).any(|i| !strs[i].is_ascii()), "no multi-byte");
        }
    }
}

#[test]
fn pinned_batches_round_trip_through_the_codec() {
    for (n, masked, b) in pin_batches() {
        let back = decode_batch(&encode_batch(&b), b.schema.clone());
        assert_eq!(back, b, "{n} rows, masked {masked}");
    }
}

/// A string column and the plain vectors it was built from.
struct Case {
    col: Column,
    strings: Vec<String>,
    valid: Vec<bool>,
}

fn gen_case(rng: &mut Pcg32, n: usize) -> Case {
    let strings = gen_strings(rng, n);
    let valid = if rng.gen_bool(0.5) {
        gen_mask(rng, n)
    } else {
        vec![true; n]
    };
    Case {
        col: str_column(strings.clone(), Some(valid.clone())),
        strings,
        valid,
    }
}

impl Case {
    /// The oracle's answer to an operation that picks rows `idx`.
    fn pick(&self, idx: &[usize]) -> Column {
        str_column(
            idx.iter().map(|&i| self.strings[i].clone()).collect(),
            Some(idx.iter().map(|&i| self.valid[i]).collect()),
        )
    }
}

#[test]
fn take_slice_and_filter_match_the_vec_oracle() {
    let mut rng = Pcg32::new(Seed::root(0x57_1201));
    for round in 0..64 {
        let n = rng.gen_range(0usize..60);
        let case = gen_case(&mut rng, n);

        let idx: Vec<usize> = (0..rng.gen_range(0usize..80))
            .filter(|_| n > 0)
            .map(|_| rng.gen_range(0usize..n))
            .collect();
        assert_eq!(case.col.take(&idx), case.pick(&idx), "round {round} take");

        let start = rng.gen_range(0usize..=n);
        let end = rng.gen_range(start..=n);
        let window: Vec<usize> = (start..end).collect();
        let sliced = case.col.slice(start, end);
        assert_eq!(sliced, case.pick(&window), "round {round} slice");
        assert_eq!(
            case.col.borrowed_slice(start, end).to_column(),
            sliced,
            "round {round} borrowed slice"
        );

        // A slice of a slice equals the direct slice: equality is by
        // content, whatever buffer the rows were cut from.
        let len = end - start;
        let inner_start = rng.gen_range(0usize..=len);
        let inner_end = rng.gen_range(inner_start..=len);
        assert_eq!(
            sliced.slice(inner_start, inner_end),
            case.col.slice(start + inner_start, start + inner_end),
            "round {round} slice of slice"
        );

        let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let kept: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
        assert_eq!(
            case.col.filter(&mask),
            case.pick(&kept),
            "round {round} filter"
        );
    }
}

#[test]
fn concat_matches_the_vec_oracle() {
    let mut rng = Pcg32::new(Seed::root(0x57_1202));
    for round in 0..64 {
        let cases: Vec<Case> = (0..rng.gen_range(1usize..5))
            .map(|_| {
                let n = rng.gen_range(0usize..20);
                gen_case(&mut rng, n)
            })
            .collect();
        let schema = Schema::shared(&[("s", DataType::Str)]);
        let parts: Vec<Batch> = cases
            .iter()
            .map(|c| Batch::new(schema.clone(), vec![c.col.clone()]))
            .collect();
        let whole = Batch::concat(schema, &parts);
        let want = str_column(
            cases.iter().flat_map(|c| c.strings.clone()).collect(),
            Some(cases.iter().flat_map(|c| c.valid.clone()).collect()),
        );
        assert_eq!(whole.columns[0], want, "round {round}");
    }
}

#[test]
fn values_rendering_and_row_keys_match_the_vec_oracle() {
    let mut rng = Pcg32::new(Seed::root(0x57_1203));
    for round in 0..64 {
        let n = rng.gen_range(0usize..40);
        let case = gen_case(&mut rng, n);
        let view = case.col.borrowed_slice(0, n);
        for i in 0..n {
            let (s, valid) = (&case.strings[i], case.valid[i]);
            let want = if valid {
                Value::Str(s.clone())
            } else {
                Value::Null
            };
            assert_eq!(case.col.value(i), want, "round {round} row {i}");
            assert_eq!(view.value(i), want, "round {round} row {i}");
            assert_eq!(&case.col.strs()[i], s.as_str(), "round {round} row {i}");

            let mut rendered = String::new();
            view.write_value(&mut rendered, i);
            assert_eq!(rendered, if valid { s.as_str() } else { "NULL" });

            let mut key = Vec::new();
            encode_value(&mut key, &case.col, i);
            let mut want_key = vec![valid as u8];
            if valid {
                want_key.extend_from_slice(&(s.len() as u32).to_le_bytes());
                want_key.extend_from_slice(s.as_bytes());
            }
            assert_eq!(key, want_key, "round {round} row {i}");
        }
    }
}

#[test]
fn sort_order_matches_the_vec_oracle() {
    let mut rng = Pcg32::new(Seed::root(0x57_1204));
    for round in 0..64 {
        let n = rng.gen_range(0usize..60);
        let case = gen_case(&mut rng, n);
        let descending = rng.gen_bool(0.5);
        let got = sort_permutation(&[SortKeyCol::new(&case.col, descending)], n, None);
        let mut want: Vec<usize> = (0..n).collect();
        want.sort_by(|&a, &b| {
            // Nulls last ascending; the whole order flips descending;
            // ties keep row order.
            let key = |i: usize| (!case.valid[i], case.valid[i].then(|| &case.strings[i]));
            let ord = key(a).cmp(&key(b));
            let ord = if descending { ord.reverse() } else { ord };
            ord.then(a.cmp(&b))
        });
        assert_eq!(got, want, "round {round}");
    }
}
