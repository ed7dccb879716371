//! Pure scheduling state machines (head job pool, master queue).
//!
//! Shared verbatim between the real threaded runtime and the discrete-event
//! performance simulator, so the schedules the simulator analyses are the
//! schedules the runtime executes.

pub mod master;
pub mod pool;

pub use master::{MasterJob, MasterPool};
pub use pool::{Grant, JobPool, PoolConfig};
