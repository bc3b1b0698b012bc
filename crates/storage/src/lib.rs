//! # uot-storage
//!
//! Block-based storage layer for the UoT query engine, modeled after the
//! storage manager described in Section III-A of *"On inter-operator data
//! transfers in query processing"* (ICDE 2022):
//!
//! * Tables are horizontally partitioned into fixed-size **storage blocks**
//!   ([`StorageBlock`]). The block size is configurable per table and the two
//!   classic layouts are supported: [`RowBlock`] (N-ary / row store) and
//!   [`ColumnBlock`] (decomposed / column store).
//! * Intermediate results of operators are written to **temporary blocks**
//!   checked out from a thread-safe global [`BlockPool`] and returned when
//!   the work order finishes, exactly as the paper describes ("a block is
//!   used by at most one operator work order at any given point in time").
//! * All allocations are metered through a [`MemoryTracker`] so experiments
//!   can report peak memory footprints (Section VI of the paper).
//!
//! The layer is deliberately simple — fixed-width types only, no compression —
//! because the paper's experiments hinge on block geometry (how many tuples
//! fit in a 128 KB vs 2 MB block) and access patterns (sequential column scans
//! vs strided row scans), not on exotic encodings.

pub mod bitmap;
pub mod block;
pub mod catalog;
pub mod column_block;
pub mod error;
pub mod hash_key;
pub mod key_batch;
pub mod pool;
pub mod row_block;
pub mod schema;
pub mod spill;
pub mod table;
pub mod types;
pub mod value;

pub use bitmap::Bitmap;
pub use block::{BlockFormat, StorageBlock};
pub use catalog::Catalog;
pub use column_block::{ColumnBlock, ColumnData};
pub use error::StorageError;
pub use hash_key::{fx_mix, hash_fixed, hash_of, hash_var, FxBuildHasher, FxHasher, HashKey};
pub use key_batch::{KeyBatch, KeyExtractor};
pub use pool::{BlockPool, MemoryTracker, PoolStats, Refusal};
pub use row_block::RowBlock;
pub use schema::{Column, Schema};
pub use spill::{SpillIo, SpillObserver, SpillSlot, SpillStats, SpillStore, SpilledHandle};
pub use table::{Table, TableBuilder};
pub use types::{date_from_ymd, date_to_ymd, format_date, DataType};
pub use value::Value;

/// Result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
