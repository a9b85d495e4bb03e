//! SPE local store: 256 KB of software-managed memory, partitioned into
//! a resident runtime block, the data-cache region and the code-cache
//! region (paper §3.2: "a block of instructions permanently held in
//! local memory", the 2 KB TOC, plus the two software caches).

/// How the 256 KB local store is partitioned.
///
/// Defaults follow the paper's sweep ranges: Figure 6 varies the data
/// cache up to 104 KB and Figure 7 the code cache up to 88 KB, which
/// together with a 64 KB resident runtime block (interpreter stubs,
/// low-level assembly, TOC, stacks, cache metadata) exactly fills 256 KB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StorePartition {
    /// Permanently resident runtime bytes (includes the 2 KB TOC).
    pub resident_bytes: u32,
    /// Software data-cache region bytes.
    pub data_cache_bytes: u32,
    /// Software code-cache region bytes.
    pub code_cache_bytes: u32,
}

impl Default for StorePartition {
    fn default() -> Self {
        StorePartition {
            resident_bytes: 64 << 10,
            data_cache_bytes: 104 << 10,
            code_cache_bytes: 88 << 10,
        }
    }
}

impl StorePartition {
    /// Total bytes claimed by the partition.
    pub fn total(&self) -> u32 {
        self.resident_bytes + self.data_cache_bytes + self.code_cache_bytes
    }

    /// A partition with custom cache sizes (for the Figure 6/7 sweeps).
    pub fn with_caches(data_cache_bytes: u32, code_cache_bytes: u32) -> StorePartition {
        StorePartition {
            data_cache_bytes,
            code_cache_bytes,
            ..StorePartition::default()
        }
    }
}

/// One SPE's local store: its size and partition, not its bytes. The
/// data-cache region's bytes live in `hera_softcache::DataCache`, the code
/// cache models only its directory, and nothing else in the store is ever
/// written, so a snapshot encodes each store as the all-zero buffer it is.
pub struct LocalStore {
    size: u32,
    partition: StorePartition,
}

impl LocalStore {
    /// Size of a Cell SPE local store.
    pub const SIZE: u32 = 256 << 10;

    /// Create a local store with the given partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition exceeds the store size — that is a
    /// configuration error the embedder must fix, mirroring the hard
    /// physical constraint on the real hardware.
    pub fn new(size: u32, partition: StorePartition) -> LocalStore {
        assert!(
            partition.total() <= size,
            "local store partition ({} bytes) exceeds store size ({} bytes)",
            partition.total(),
            size
        );
        LocalStore { size, partition }
    }

    /// The partition in effect.
    pub fn partition(&self) -> StorePartition {
        self.partition
    }

    /// Total store size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_partition_fills_the_store() {
        let p = StorePartition::default();
        assert_eq!(p.total(), LocalStore::SIZE);
        assert_eq!(p.data_cache_bytes, 104 << 10);
        assert_eq!(p.code_cache_bytes, 88 << 10);
    }

    #[test]
    fn regions_are_disjoint_and_sized() {
        let ls = LocalStore::new(LocalStore::SIZE, StorePartition::default());
        assert_eq!(ls.partition().data_cache_bytes, 104 << 10);
        assert_eq!(ls.partition().resident_bytes, 64 << 10);
        assert_eq!(ls.size(), 256 << 10);
    }

    #[test]
    #[should_panic(expected = "exceeds store size")]
    fn oversized_partition_panics() {
        let _ = LocalStore::new(
            LocalStore::SIZE,
            StorePartition {
                resident_bytes: 64 << 10,
                data_cache_bytes: 200 << 10,
                code_cache_bytes: 88 << 10,
            },
        );
    }

    #[test]
    fn sweep_partitions_shrink_data_region() {
        for kb in [8u32, 40, 104] {
            let p = StorePartition::with_caches(kb << 10, 88 << 10);
            let ls = LocalStore::new(LocalStore::SIZE, p);
            assert_eq!(ls.partition().data_cache_bytes, kb << 10);
        }
    }
}
