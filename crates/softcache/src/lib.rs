//! # hera-softcache — the SPE software caches
//!
//! SPE cores cannot address main memory: every byte must be DMAed into
//! the 256 KB local store first. Hera-JVM therefore interposes two
//! software caches on the SPE execution path (paper §3.2.1–§3.2.2):
//!
//! * the [`data_cache::DataCache`] caches **objects whole** (their size
//!   discovered from bytecode-level type information) and **arrays in
//!   blocks of up to 1 KB** of neighbouring elements, with bump-pointer
//!   allocation, a local-memory-resident hashtable for lookup, and a
//!   flush-everything policy when full;
//! * the [`code_cache::CodeCache`] caches **methods whole**, found via a
//!   permanently resident 2 KB class table-of-contents (TOC) pointing at
//!   per-class type information blocks (TIBs), themselves cached on
//!   demand — the double dereference of Figure 3. The lookup repeats on
//!   return, because the callee may have purged the caller.
//!
//! Coherence follows the Java Memory Model ([`jmm`]): the data cache is
//! purged before lock acquisition and volatile reads, and dirty data is
//! written back before lock release and volatile writes. Between
//! synchronisation actions, stale reads are *allowed* — and this
//! implementation really does serve stale bytes from its local copy,
//! which is what makes the JMM conformance tests in `hera-core`
//! meaningful.

#![forbid(unsafe_code)]

pub mod code_cache;
pub mod data_cache;
pub mod fault;
pub mod jmm;

pub use code_cache::{CodeCache, CodeCacheStats};
pub use data_cache::{DataCache, DataCacheStats};
pub use fault::CacheFault;
