//! # cackle-comparators — baseline system models
//!
//! Models of the commercial systems the paper compares against (§7.1.7,
//! §7.1.8), built on the same workload/profile representation as the
//! Cackle model so all systems run identical workloads:
//!
//! * [`databricks`] — warehouse of clusters with bounded admission,
//!   queue-triggered add-a-cluster autoscaling, slow release, DBU billing.
//! * [`redshift`] — RPU-based serverless endpoint billed only while active
//!   (60 s minimum), with queue-triggered capacity scaling.
//!
//! The work-delaying fixed-provisioning baseline lives in
//! [`cackle::delaying`], and so does what all three share: each model
//! here is its capacity and billing rules around one
//! [`cackle::delaying::QueuedRun`], which validates the workload and
//! advances its stage graphs.

pub mod databricks;
pub mod redshift;

pub use databricks::{run_databricks, try_run_databricks, DatabricksConfig, WarehouseSize};
pub use redshift::{run_redshift, try_run_redshift, RedshiftConfig};
