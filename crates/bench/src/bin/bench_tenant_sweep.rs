//! Tenant sweep: fixed aggregate demand spread over 1 → 10,000 tenants.
//!
//! The serving front-end must make multi-tenancy free in two senses:
//! the per-tenant cost ledger has to sum back to the aggregate bill to
//! the exact integer micro-dollar at every fan-out, and the end-to-end
//! p99 latency must stay within 10% of the single-tenant baseline —
//! admission and fair scheduling may reorder work but not slow it down
//! when nobody is throttled. Both properties are asserted per row, so a
//! regression fails the bench rather than quietly skewing the CSV.
//!
//! Pass `--smoke` for the reduced sweep used by CI; it writes under
//! `target/smoke/` instead of `results/`.

use cackle::RunSpec;
use cackle_bench::*;
use cackle_serve::{run_serve, ServeSpec, TenantRegistry};
use cackle_workload::arrivals::WorkloadSpec;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (queries, sweep): (usize, &[usize]) = if smoke {
        (300, &[1, 10, 100])
    } else {
        (4000, &[1, 10, 100, 1000, 10000])
    };
    let aggregate = WorkloadSpec::hour_long(queries, 47);
    let mix = evaluation_mix();
    let mut t = ResultTable::new(
        "Tenant sweep: fixed aggregate demand, 1 \u{2192} 10,000 tenants",
        &[
            "tenants",
            "admitted",
            "rejected",
            "deferrals",
            "p50_latency_s",
            "p99_latency_s",
            "aggregate_micros",
            "attributed_micros",
            "exact",
            "p99_vs_single",
        ],
    );
    let mut single_p99 = 0.0f64;
    for &n in sweep {
        let spec =
            ServeSpec::new(TenantRegistry::homogeneous(n, &aggregate)).with_run(RunSpec::new());
        let r = run_serve(&spec, &mix).expect("sweep spec is valid");
        let aggregate_micros = r.run.total_cost_micros();
        let attributed_micros = r.attributed_total_micros();
        assert_eq!(
            attributed_micros, aggregate_micros,
            "attribution must be exact at {n} tenants"
        );
        let p99 = r.latency_percentile(99.0);
        if n == 1 {
            single_p99 = p99;
        }
        let ratio = p99 / single_p99;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "p99 at {n} tenants drifted {ratio:.3}x from the single-tenant baseline"
        );
        t.row_strings(vec![
            n.to_string(),
            r.admitted().to_string(),
            r.rejected().to_string(),
            r.deferrals().to_string(),
            secs(r.latency_percentile(50.0)),
            secs(p99),
            aggregate_micros.to_string(),
            attributed_micros.to_string(),
            "yes".to_string(),
            format!("{ratio:.4}"),
        ]);
        eprintln!("  done tenants={n}");
    }
    t.emit_in(&out_dir(smoke), "tenant_sweep");
    println!("per-tenant shares summed to the aggregate bill exactly at every");
    println!("sweep point, and p99 stayed within 10% of the single-tenant run.");
}
