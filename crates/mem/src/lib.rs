//! # specrun-mem
//!
//! The memory subsystem of the SPECRUN runahead-processor simulator:
//!
//! * [`BackingStore`] — sparse functional data memory,
//! * [`Cache`] — set-associative LRU caches,
//! * [`Dram`] — the request-based contention model of Table 1,
//! * [`MemHierarchy`] — split L1 I/D + L2 + L3 + MSHRs, with non-blocking
//!   misses, `clflush`, and the host-side cache-warming helper the paper
//!   added to Multi2Sim,
//! * [`RunaheadCache`] — byte-granular store buffer for runahead mode with
//!   INV poisoning (Mutlu et al., HPCA'03),
//! * [`SlCache`] — the Speculative-Load "L0" cache of the paper's secure
//!   runahead defense (§6), with `Btag`/`IS` taint tags,
//! * [`Fnv1a`] — the FNV-1a 64 digest every crate above shares.
//!
//! Caches model presence and timing; functional bytes always live in the
//! backing store. The covert channel the attack measures is exactly the
//! presence information.
//!
//! ```
//! use specrun_mem::{AccessKind, FillPolicy, HitLevel, MemHierarchy};
//! let mut mem = MemHierarchy::default();
//! let miss = mem.access(0x1000, 0, AccessKind::Load, FillPolicy::Normal);
//! assert_eq!(miss.level, HitLevel::Mem);
//! let hit = mem.access(0x1000, miss.ready_at, AccessKind::Load, FillPolicy::Normal);
//! assert_eq!(hit.level, HitLevel::L1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod cache;
mod dram;
mod fnv;
mod hierarchy;
mod runahead_cache;
mod sl_cache;
mod stats;
mod table;

pub use backing::BackingStore;
pub use cache::{Cache, CacheConfig, Evicted};
pub use dram::{Dram, DramConfig};
pub use fnv::{fnv1a, Fnv1a};
pub use hierarchy::{Access, AccessKind, FillPolicy, HitLevel, MemConfig, MemHierarchy};
pub use runahead_cache::{RunaheadByte, RunaheadCache, RunaheadRead};
pub use sl_cache::{BranchId, Btag, SlCache, SlTags};
pub use stats::MemStats;
