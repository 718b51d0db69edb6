//! # cackle-workload — workload generation
//!
//! * [`profile`] — per-query execution profiles (stage DAG, task counts and
//!   durations, shuffle volumes), the input format of Cackle's analytical
//!   model.
//! * [`arrivals`] — the §5.1 arrival generator: uniform baseline plus a
//!   sinusoidal component.
//! * [`demand`] — per-second demand curves and percentile utilities.
//! * [`traces`] — synthetic stand-ins for the paper's three proprietary
//!   real-world traces (§2.1), reproducing their published shapes.
//! * [`superpose`] — per-tenant trace decomposition used by the
//!   multi-tenant serving layer (`cackle-serve`).

pub mod arrivals;
pub mod demand;
pub mod profile;
pub mod superpose;
pub mod traces;

pub use arrivals::WorkloadSpec;
pub use demand::{percentile_f64, percentile_of, percentile_of_sorted, DemandCurve};
pub use profile::{ProfileRef, QueryProfile, StageProfile};
pub use superpose::{split_counts, split_spec, stream_seed};
