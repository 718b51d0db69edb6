//! Engine kernel probes: each vectorized kernel against its preserved
//! row-at-a-time reference on identical seeded batches (ROADMAP item
//! 3's "2x or delete" table). 64 batches of 4096 rows = 262 144 rows
//! per operator, median of `reps` (five in a full run).

use crate::metrics::{Rows, KERNELS};
use crate::probes::{time_s, Rng};
use cackle_engine::kernel_prelude::{filter_batch, filter_project, ScratchArena};
use cackle_engine::ops::aggregate::{hash_aggregate, AggExpr, AggFunc};
use cackle_engine::ops::join::{hash_join, JoinType};
use cackle_engine::ops::sort::{sort, SortKey};
use cackle_engine::predicate_mask_into;
use cackle_engine::prelude::*;
use cackle_engine::reference;
use std::hint::black_box;

pub const BATCHES: usize = 64;
pub const ROWS: usize = 4096;

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "alpine", "albedo",
];

/// Seeded `[i64 key, f64 value, string, date]` batches.
pub fn make_batches(rng: &mut Rng, n_batches: usize, rows: usize, prefix: &str) -> Vec<Batch> {
    let names: Vec<String> = ["k", "v", "s", "d"]
        .iter()
        .map(|s| format!("{prefix}{s}"))
        .collect();
    let dtypes = [DataType::I64, DataType::F64, DataType::Str, DataType::Date];
    let fields: Vec<(&str, DataType)> = names
        .iter()
        .zip(dtypes)
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    let schema = Schema::shared(&fields);
    (0..n_batches)
        .map(|_| {
            let keys: Vec<i64> = (0..rows).map(|_| rng.below(1000) as i64).collect();
            let vals: Vec<f64> = (0..rows)
                .map(|_| rng.below(10_000) as f64 / 100.0)
                .collect();
            let strs: Vec<String> = (0..rows)
                .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
                .collect();
            let dates: Vec<i32> = (0..rows).map(|_| 9_000 + rng.below(1_500) as i32).collect();
            Batch::new(
                schema.clone(),
                vec![
                    Column::from_i64(keys),
                    Column::from_f64(vals),
                    Column::from_str_vec(strs),
                    Column::new(ColumnData::Date(dates)),
                ],
            )
        })
        .collect()
}

/// Mrows/s of `f` over `total_rows` rows: one warm-up (a single-sample
/// smoke run has no use for one), then `reps` samples.
fn mrows_per_s(reps: usize, total_rows: usize, mut f: impl FnMut()) -> Vec<f64> {
    if reps > 1 {
        f();
    }
    (0..reps)
        .map(|_| total_rows as f64 / time_s(&mut f) / 1e6)
        .collect()
}

/// Time every kernel and its reference; pushes
/// `engine.kernel.<op>.mrows_per_s` and `.x_reference` (ratio of the two
/// medians) for each op in [`KERNELS`].
///
/// Not named `probe`: cackle-lint resolves calls by name, the join
/// kernel calls a `probe`, and everything reachable from this function —
/// the row-at-a-time references — would be linted as an engine hot path.
pub fn kernel_rows(seed: u64, reps: usize, rows: &mut Rows) {
    let mut rng = Rng::new(seed);
    let batches = make_batches(&mut rng, BATCHES, ROWS, "");
    let total: usize = batches.iter().map(|b| b.num_rows()).sum();
    let mut record = |op: &str, kernel: Vec<f64>, reference: Vec<f64>| {
        debug_assert!(KERNELS.contains(&op));
        let name = format!("engine.kernel.{op}.mrows_per_s");
        rows.median_of(&name, "Mrows/s", &kernel);
        let k = rows.0.last().map_or(0.0, |r| r.value);
        let r = crate::stats::Summary::of(&reference).median;
        rows.single(&format!("engine.kernel.{op}.x_reference"), "ratio", k / r);
    };

    // scan_filter: predicate evaluation + selection-bitmap filter.
    let pred = Expr::col(0)
        .lt(Expr::lit_i64(500))
        .and(Expr::col(1).gt(Expr::lit_f64(10.0)));
    let mut arena = ScratchArena::new();
    let kernel = mrows_per_s(reps, total, || {
        let mut mask = arena.checkout_mask(ROWS);
        for b in &batches {
            predicate_mask_into(&pred, b, &mut mask);
            black_box(filter_batch(b, &mask, &mut arena));
        }
        arena.recycle_mask(mask);
    });
    let slow = mrows_per_s(reps, total, || {
        for b in &batches {
            let mask = reference::row_predicate_mask(&pred, b);
            black_box(b.filter(&mask));
        }
    });
    record("scan_filter", kernel, slow);

    // project_arith: two arithmetic projections per row.
    let exprs = [
        Expr::col(0).mul(Expr::lit_i64(3)).add(Expr::lit_i64(1)),
        Expr::col(1).mul(Expr::lit_f64(0.9)).sub(Expr::col(1)),
    ];
    let kernel = mrows_per_s(reps, total, || {
        for b in &batches {
            for e in &exprs {
                black_box(e.eval(b));
            }
        }
    });
    let slow = mrows_per_s(reps, total, || {
        for b in &batches {
            for e in &exprs {
                black_box(reference::row_eval(e, b));
            }
        }
    });
    record("project_arith", kernel, slow);

    // like: prefix LIKE over the string column.
    let like = Expr::Like {
        input: Box::new(Expr::col(2)),
        pattern: LikePattern::Prefix("al".into()),
        negated: false,
    };
    let kernel = mrows_per_s(reps, total, || {
        for b in &batches {
            black_box(like.eval(b));
        }
    });
    let slow = mrows_per_s(reps, total, || {
        for b in &batches {
            black_box(reference::row_eval(&like, b));
        }
    });
    record("like", kernel, slow);

    // hash_group_by: SUM/COUNT/MIN grouped by the i64 key.
    let group_by = vec![Expr::col(0)];
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, Expr::col(1)),
        AggExpr::new(AggFunc::CountStar, Expr::col(0)),
        AggExpr::new(AggFunc::Min, Expr::col(1)),
    ];
    let agg_out = Schema::shared(&[
        ("k", DataType::I64),
        ("sum_v", DataType::F64),
        ("cnt", DataType::I64),
        ("min_v", DataType::F64),
    ]);
    let kernel = mrows_per_s(reps, total, || {
        black_box(hash_aggregate(&batches, &group_by, &aggs, agg_out.clone()));
    });
    let slow = mrows_per_s(reps, total, || {
        black_box(reference::row_hash_aggregate(
            &batches,
            &group_by,
            &aggs,
            agg_out.clone(),
        ));
    });
    record("hash_group_by", kernel, slow);

    // hash_join_probe: probe-heavy inner join against a small build side.
    let build = make_batches(&mut rng, 1, 1000, "b_");
    let build_schema = build[0].schema.clone();
    let join_out = Schema::shared(&[
        ("k", DataType::I64),
        ("v", DataType::F64),
        ("s", DataType::Str),
        ("d", DataType::Date),
        ("b_k", DataType::I64),
        ("b_v", DataType::F64),
        ("b_s", DataType::Str),
        ("b_d", DataType::Date),
    ]);
    let keys = vec![Expr::col(0)];
    let kernel = mrows_per_s(reps, total, || {
        black_box(hash_join(
            build_schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            JoinType::Inner,
            join_out.clone(),
        ));
    });
    let slow = mrows_per_s(reps, total, || {
        black_box(reference::row_hash_join(
            build_schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            JoinType::Inner,
            join_out.clone(),
        ));
    });
    record("hash_join_probe", kernel, slow);

    // sort: two keys, mixed direction.
    let schema = batches[0].schema.clone();
    let sort_keys = vec![SortKey::desc(Expr::col(1)), SortKey::asc(Expr::col(0))];
    let kernel = mrows_per_s(reps, total, || {
        black_box(sort(schema.clone(), &batches, &sort_keys, None));
    });
    let slow = mrows_per_s(reps, total, || {
        black_box(reference::row_sort(
            schema.clone(),
            &batches,
            &sort_keys,
            None,
        ));
    });
    record("sort", kernel, slow);

    // scan_filter_aggregate: scan with a filter and a [key, value]
    // projection, then group-aggregate the survivors. The kernel side
    // runs the fused filter+project the Scan node uses; the reference
    // side filters every column, then clones out the projected ones.
    let proj = [0usize, 1];
    let proj_schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let kernel = mrows_per_s(reps, total, || {
        let mut mask = arena.checkout_mask(ROWS);
        let mut kept: Vec<Batch> = Vec::with_capacity(batches.len());
        for b in &batches {
            predicate_mask_into(&pred, b, &mut mask);
            kept.push(filter_project(
                b,
                &mask,
                &proj,
                proj_schema.clone(),
                &mut arena,
            ));
        }
        arena.recycle_mask(mask);
        black_box(hash_aggregate(&kept, &group_by, &aggs, agg_out.clone()));
    });
    let slow = mrows_per_s(reps, total, || {
        let kept: Vec<Batch> = batches
            .iter()
            .map(|b| {
                let mask = reference::row_predicate_mask(&pred, b);
                let f = b.filter(&mask);
                let cols = proj.iter().map(|&i| f.columns[i].clone()).collect();
                Batch::new(proj_schema.clone(), cols)
            })
            .collect();
        black_box(reference::row_hash_aggregate(
            &kept,
            &group_by,
            &aggs,
            agg_out.clone(),
        ));
    });
    record("scan_filter_aggregate", kernel, slow);
}
