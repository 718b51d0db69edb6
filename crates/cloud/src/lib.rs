//! # cackle-cloud — simulated cloud substrate
//!
//! Everything the Cackle reproduction needs from "the cloud", rebuilt as a
//! deterministic simulator:
//!
//! * [`time`] — millisecond-resolution simulated time.
//! * [`events`] — a deterministic discrete-event queue.
//! * [`pricing`] — cost models (AWS list prices from the paper by default),
//!   the only place [`Money`] is minted.
//! * [`money`] — integer nano-dollars, the one accumulator of money.
//! * [`ledger`] — itemized cost accounting.
//! * [`vm`] — a provisioned VM fleet with spot-request semantics, startup
//!   latency, and minimum billing.
//! * [`pool`] — an elastic pool (AWS Lambda) with instant grant and
//!   millisecond billing at a cost premium.
//! * [`object_store`] — an S3-like object store billed per request.
//!
//! The substitutions relative to real AWS are documented in `DESIGN.md` §1.

pub mod events;
pub mod ledger;
pub mod money;
pub mod object_store;
pub mod pool;
pub mod pricing;
pub mod time;
pub mod vm;

pub use events::EventQueue;
pub use ledger::{micro_dollars, split_micro_dollars, CostCategory, CostLedger};
pub use money::Money;
pub use object_store::ObjectStore;
pub use pool::{ElasticPool, InvocationId};
pub use pricing::{Pricing, EGRESS_MICROS_PER_GIB, REMOTE_REGION_RATE_MILLI};
pub use time::{SimDuration, SimTime};
pub use vm::{VmFleet, VmId};
