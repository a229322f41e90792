//! # bpw-bufferpool
//!
//! A DBMS-style buffer pool substrate for the BP-Wrapper reproduction:
//! a sharded page table (lock-free lookups; one partition lock per
//! shard, which is also the miss path's only lock), buffer descriptors
//! whose pins latch the page's bytes, simulated storage, and pluggable
//! replacement managers covering the paper's three synchronization
//! schemes (coarse lock per access, lock-free CLOCK hits, and
//! BP-Wrapper).
//!
//! ```
//! use std::sync::Arc;
//! use bpw_bufferpool::{BufferPool, WrappedManager, SimDisk};
//! use bpw_core::WrapperConfig;
//! use bpw_replacement::TwoQ;
//!
//! let pool = BufferPool::new(
//!     1024,                     // frames
//!     8192,                     // page size
//!     WrappedManager::new(TwoQ::new(1024), WrapperConfig::default()),
//!     Arc::new(SimDisk::instant()),
//! );
//! let mut session = pool.session();
//! let page = session.fetch(42).expect("storage I/O failed");
//! page.read(|bytes| assert_eq!(bytes.len(), 8192));
//! ```

pub mod desc;
pub mod free_list;
pub mod managers;
mod page_table;
pub mod pool;
pub mod storage;

pub use desc::{BufferDesc, DescState, PinAttempt, UnpinOutcome};
pub use free_list::FreeList;
pub use managers::{
    ClockManager, CoarseManager, ManagerHandle, ReplacementManager, WrappedManager,
};
pub use pool::{BufferPool, InvalidateOutcome, PinnedPage, PoolSession, PoolStats, RetryPolicy};
pub use storage::{FaultPlan, FaultyDisk, SimDisk, Storage};
