//! Run real TPC-H queries on the cackle-engine: generate data, execute
//! distributed stage-DAG plans through an in-memory shuffle, print results.
//!
//! ```sh
//! cargo run --release --example tpch_engine [scale_factor] [query ...]
//! EXPLAIN=1 cargo run --release --example tpch_engine 0.01 q05
//! ```

use cackle_engine::prelude::*;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.01);
    let queries: Vec<String> = {
        let rest: Vec<String> = args.collect();
        if rest.is_empty() {
            vec![
                "q01".into(),
                "q03".into(),
                "q06".into(),
                "q13".into(),
                "ds81".into(),
            ]
        } else {
            rest
        }
    };

    println!("generating TPC-H data at SF {sf}...");
    let cfg = DbGenConfig {
        scale_factor: sf,
        rows_per_partition: 8192,
        seed: 7,
    };
    let catalog = generate_catalog(&cfg);
    let mut total_rows = 0usize;
    let mut total_bytes = 0u64;
    for name in cackle_tpch::schema::TABLE_NAMES {
        let t = catalog.get(name);
        total_rows += t.num_rows();
        total_bytes += t.byte_size();
        println!(
            "  {name:<10} {:>9} rows  {:>8} KiB",
            t.num_rows(),
            t.byte_size() / 1024
        );
    }
    // No wall-clock timing here: the example's output is byte-identical
    // across runs (clippy.toml disallows `Instant::now`); use
    // `bench/run.sh` to measure.
    println!("generated {total_rows} rows ({} KiB)\n", total_bytes / 1024);

    // Execute with real multi-task parallelism and a shared shuffle.
    let par = Par {
        fact: 4,
        mid: 2,
        join: 3,
    };
    let explain = std::env::var("EXPLAIN").is_ok();
    for name in &queries {
        let dag = plans::plan(name, par);
        if explain {
            print!("{}", cackle_engine::explain::explain(&dag));
        }
        let shuffle = MemoryShuffle::new();
        let result = Executor::new(1).execute_query(&dag, 1, &catalog, &shuffle);
        let stats = shuffle.stats();
        println!(
            "-- {name}: {} stages, {} tasks, {} result rows ({} shuffle chunks, {} KiB exchanged)",
            dag.stages.len(),
            dag.total_tasks(),
            result.num_rows(),
            stats.writes,
            stats.bytes_written / 1024
        );
        print!("{}", format_batch(&result, 10));
        println!();
    }
}
