//! Batch serialization for shuffle exchange.
//!
//! Every byte that crosses a stage boundary goes through this codec, so the
//! shuffle-volume accounting that drives the shuffle provisioner (§5.6)
//! reflects real serialized sizes. The format is a simple column-major
//! little-endian layout:
//!
//! ```text
//! u32 num_columns | u32 num_rows | columns...
//! column: u8 type_tag | u8 has_validity | [validity bitmap] | payload
//! ```
//!
//! A string column's payload is `u32 total | u32 length × rows | blob`:
//! each row's length and then each row's bytes, looked up through its
//! dictionary code, so the wire never sees the dictionary and a column
//! writes the same bytes however it is coded. Encoding is one pass over
//! the codes for the lengths (whose sum is patched in as `total`) and
//! one copy per run of consecutive codes for the bytes (one for a
//! decoded column); decoding is one prefix sum, one copy and one UTF-8
//! validation, into a column coded against a dictionary of its rows.
//!
//! The decoder trusts nothing it reads. Tags are checked against the
//! expected schema, every count against the bytes that remain *before*
//! anything is allocated for it, a string column's `total` against the
//! sum of its lengths, and its blob for UTF-8 validity with every row
//! boundary on a character boundary. Any failure panics with
//! `corrupt shuffle payload: <what>` — payloads are engine-internal, so
//! a bad one is a bug or a broken transport, not an input to recover
//! from.

use crate::batch::Batch;
use crate::column::{Column, ColumnData, StrColumn};
use crate::schema::SchemaRef;
use crate::types::DataType;

/// Little-endian append helpers over a plain byte vector.
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_i32_le(&mut self, v: i32);
    fn put_i64_le(&mut self, v: i64);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, v: &[u8]);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i32_le(&mut self, v: i32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// The decoder's one failure mode.
fn corrupt(what: impl std::fmt::Display) -> ! {
    panic!("corrupt shuffle payload: {what}")
}

/// A bounds-checked little-endian reader over a byte slice. Panics on
/// truncated input, matching the decoder's corrupt-payload contract.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        if n > self.data.len() {
            corrupt("truncated");
        }
        let (out, rest) = self.data.split_at(n);
        self.data = rest;
        out
    }
    /// `rows` fixed-width values of `N` bytes each, checked against the
    /// remaining payload before the caller allocates for them.
    fn take_values<const N: usize>(
        &mut self,
        rows: usize,
    ) -> impl ExactSizeIterator<Item = [u8; N]> + 'a {
        let Some(bytes) = rows.checked_mul(N) else {
            corrupt("truncated");
        };
        self.take(bytes)
            .chunks_exact(N)
            .map(|c| c.try_into().expect("chunks_exact yields N bytes"))
    }
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("take yields 4 bytes"))
    }
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::I64 => 0,
        DataType::F64 => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::Bool => 4,
    }
}

/// Serialize a batch (schema names are not encoded; the receiving stage
/// knows its input schema from the plan).
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    // Headroom beyond the payload estimate for the batch header and
    // per-column tag/validity/length framing.
    const FRAMING_SLACK_BYTES: usize = 64;
    let mut buf = Vec::with_capacity(batch.byte_size() as usize + FRAMING_SLACK_BYTES);
    buf.put_u32_le(batch.num_columns() as u32);
    // The wire format stores row counts as u32; batches are chunked
    // far below 2^32 rows.
    let rows = u32::try_from(batch.num_rows()).expect("row counts are u32");
    buf.put_u32_le(rows);
    for col in &batch.columns {
        buf.put_u8(type_tag(col.data_type()));
        match &col.validity {
            Some(mask) => {
                buf.put_u8(1);
                // Bit-packed validity.
                let mut byte = 0u8;
                for (i, &v) in mask.iter().enumerate() {
                    if v {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        buf.put_u8(byte);
                        byte = 0;
                    }
                }
                if mask.len() % 8 != 0 {
                    buf.put_u8(byte);
                }
            }
            None => buf.put_u8(0),
        }
        match &col.data {
            ColumnData::I64(v) => {
                for &x in v {
                    buf.put_i64_le(x);
                }
            }
            ColumnData::F64(v) => {
                for &x in v {
                    buf.put_f64_le(x);
                }
            }
            ColumnData::Date(v) => {
                for &x in v {
                    buf.put_i32_le(x);
                }
            }
            ColumnData::Bool(v) => {
                for &x in v {
                    buf.put_u8(x as u8);
                }
            }
            ColumnData::Str(v) => {
                let at = buf.len();
                buf.put_u32_le(0);
                let mut total = 0u64;
                for len in v.lengths() {
                    total += u64::from(len);
                    buf.put_u32_le(len);
                }
                let total = u32::try_from(total).expect("string offsets are u32");
                buf[at..at + 4].copy_from_slice(&total.to_le_bytes());
                for run in v.byte_runs() {
                    buf.put_slice(run);
                }
            }
        }
    }
    buf
}

/// Unpack one column's validity bitmap.
fn decode_validity(buf: &mut Reader<'_>, nrows: usize) -> Vec<bool> {
    let bits = buf.take(nrows.div_ceil(8));
    (0..nrows)
        .map(|i| bits[i / 8] & (1 << (i % 8)) != 0)
        .collect()
}

/// Decode one column's value buffer. `take_values` has checked the row
/// count against the payload by the time a `collect` pre-sizes from it;
/// that is the column's one-time output allocation, not a per-row
/// temporary.
fn decode_column_data(buf: &mut Reader<'_>, expected: DataType, nrows: usize) -> ColumnData {
    match expected {
        DataType::I64 => ColumnData::I64(buf.take_values(nrows).map(i64::from_le_bytes).collect()),
        DataType::F64 => ColumnData::F64(buf.take_values(nrows).map(f64::from_le_bytes).collect()),
        DataType::Date => {
            ColumnData::Date(buf.take_values(nrows).map(i32::from_le_bytes).collect())
        }
        DataType::Bool => ColumnData::Bool(buf.take(nrows).iter().map(|&b| b != 0).collect()),
        DataType::Str => {
            let total = buf.get_u32_le() as usize;
            let lengths = buf.take_values(nrows).map(u32::from_le_bytes);
            let strs = StrColumn::from_lengths(lengths, buf.take(total));
            ColumnData::Str(strs.unwrap_or_else(|what| corrupt(what)))
        }
    }
}

/// Deserialize a batch against its known schema. Panics on corrupt input or
/// schema mismatch (shuffle payloads are engine-internal).
pub fn decode_batch(data: &[u8], schema: SchemaRef) -> Batch {
    let mut buf = Reader { data };
    let ncols = buf.get_u32_le() as usize;
    let nrows = buf.get_u32_le() as usize;
    if ncols != schema.len() {
        corrupt("width != schema");
    }
    let mut columns = Vec::with_capacity(ncols);
    for ci in 0..ncols {
        let tag = buf.get_u8();
        let expected = schema.field(ci).dtype;
        if tag != type_tag(expected) {
            corrupt(format_args!("column {ci} type tag mismatch"));
        }
        let validity = (buf.get_u8() == 1).then(|| decode_validity(&mut buf, nrows));
        let data = decode_column_data(&mut buf, expected, nrows);
        columns.push(match validity {
            Some(m) => Column::with_validity(data, m),
            None => Column::new(data),
        });
    }
    Batch::new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::Value;

    fn roundtrip(batch: &Batch) -> Batch {
        decode_batch(&encode_batch(batch), batch.schema.clone())
    }

    #[test]
    fn all_types_roundtrip() {
        let schema = Schema::shared(&[
            ("a", DataType::I64),
            ("b", DataType::F64),
            ("c", DataType::Str),
            ("d", DataType::Date),
            ("e", DataType::Bool),
        ]);
        let b = Batch::new(
            schema,
            vec![
                Column::from_i64(vec![i64::MIN, 0, i64::MAX]),
                Column::from_f64(vec![-1.5, 0.0, f64::MAX]),
                Column::from_str_vec(vec!["".into(), "héllo".into(), "x".repeat(1000)]),
                Column::from_date(vec![-1, 0, 20000]),
                Column::from_bool(vec![true, false, true]),
            ],
        );
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn validity_roundtrips_bit_packed() {
        let schema = Schema::shared(&[("a", DataType::I64)]);
        // 17 rows forces a partial final validity byte.
        let mask: Vec<bool> = (0..17).map(|i| i % 3 != 0).collect();
        let b = Batch::new(
            schema,
            vec![Column::with_validity(
                ColumnData::I64((0..17).collect()),
                mask.clone(),
            )],
        );
        let d = roundtrip(&b);
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(d.columns[0].is_valid(i), m, "row {i}");
            if m {
                assert_eq!(d.columns[0].value(i), Value::I64(i as i64));
            }
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let schema = Schema::shared(&[("a", DataType::Str)]);
        let b = Batch::empty(schema);
        assert_eq!(roundtrip(&b).num_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "type tag mismatch")]
    fn schema_mismatch_detected() {
        let schema = Schema::shared(&[("a", DataType::I64)]);
        let b = Batch::new(schema, vec![Column::from_i64(vec![1])]);
        let wrong = Schema::shared(&[("a", DataType::Str)]);
        decode_batch(&encode_batch(&b), wrong);
    }

    /// One string column of "é" and "ab", encoded: the bytes the corrupt
    /// payload tests below damage. Layout: 8 header bytes, tag, validity
    /// flag, `total` at 10..14, the two lengths at 14..22, the blob at 22.
    fn str_payload() -> (Vec<u8>, SchemaRef) {
        let schema = Schema::shared(&[("s", DataType::Str)]);
        let column = Column::from_str_vec(vec!["é".into(), "ab".into()]);
        let payload = encode_batch(&Batch::new(schema.clone(), vec![column]));
        assert_eq!(payload[10..22], [4, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(&payload[22..], "éab".as_bytes());
        (payload, schema)
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: truncated")]
    fn truncated_payload_detected() {
        let (payload, schema) = str_payload();
        decode_batch(&payload[..payload.len() - 1], schema);
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: string lengths fall short of their total")]
    fn wrong_string_total_detected() {
        let (mut payload, schema) = str_payload();
        payload[10] = 5;
        payload.push(b'c');
        decode_batch(&payload, schema);
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: string lengths exceed their total")]
    fn string_lengths_past_the_total_detected() {
        let (mut payload, schema) = str_payload();
        payload[18] = 3;
        decode_batch(&payload, schema);
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: string data is not UTF-8")]
    fn invalid_utf8_detected() {
        let (mut payload, schema) = str_payload();
        payload[23] = 0xff; // second byte of "é"
        decode_batch(&payload, schema);
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: string length ends inside a character")]
    fn length_ending_inside_a_character_detected() {
        let (mut payload, schema) = str_payload();
        // 1 + 3 still sums to the total, but splits "é" down the middle.
        payload[14] = 1;
        payload[18] = 3;
        decode_batch(&payload, schema);
    }

    #[test]
    #[should_panic(expected = "corrupt shuffle payload: truncated")]
    fn row_count_beyond_the_payload_detected() {
        // A header claiming u32::MAX rows must fail on the bytes that are
        // not there, not on an allocation sized from the claim.
        for dtype in [DataType::I64, DataType::Bool, DataType::Str] {
            let schema = Schema::shared(&[("c", dtype)]);
            let mut payload = encode_batch(&Batch::empty(schema.clone()));
            payload[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
            let caught = std::panic::catch_unwind(|| decode_batch(&payload, schema));
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(message, "corrupt shuffle payload: truncated", "{dtype}");
        }
        // With a validity bitmap the claim is checked there first.
        let schema = Schema::shared(&[("c", DataType::I64)]);
        let mut payload = encode_batch(&Batch::empty(schema.clone()));
        payload[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        payload[9] = 1;
        decode_batch(&payload, schema);
    }

    #[test]
    fn encoded_size_tracks_payload() {
        let schema = Schema::shared(&[("a", DataType::I64)]);
        let small = encode_batch(&Batch::new(schema.clone(), vec![Column::from_i64(vec![1])]));
        let big = encode_batch(&Batch::new(
            schema,
            vec![Column::from_i64((0..1000).collect())],
        ));
        assert!(big.len() > small.len() * 100);
        assert_eq!(big.len(), 8 + 2 + 1000 * 8);
    }
}
