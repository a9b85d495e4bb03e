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

/// One SPE's local store.
pub struct LocalStore {
    bytes: Vec<u8>,
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
        LocalStore {
            bytes: vec![0; size as usize],
            partition,
        }
    }

    /// The partition in effect.
    pub fn partition(&self) -> StorePartition {
        self.partition
    }

    /// Offset of the data-cache region.
    pub fn data_region_base(&self) -> u32 {
        self.partition.resident_bytes
    }

    /// Borrow the data-cache region.
    pub fn data_region(&self) -> &[u8] {
        let base = self.partition.resident_bytes as usize;
        &self.bytes[base..base + self.partition.data_cache_bytes as usize]
    }

    /// Mutably borrow the data-cache region.
    pub fn data_region_mut(&mut self) -> &mut [u8] {
        let base = self.partition.resident_bytes as usize;
        &mut self.bytes[base..base + self.partition.data_cache_bytes as usize]
    }

    /// Total store size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// The full raw store contents (snapshot support).
    pub fn raw(&self) -> &[u8] {
        &self.bytes
    }

    /// Overwrite the full store contents from a snapshot. Fails if the
    /// buffer size does not match this store.
    pub fn restore_raw(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        if bytes.len() != self.bytes.len() {
            return Err("local-store size mismatch");
        }
        self.bytes.copy_from_slice(bytes);
        Ok(())
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
        assert_eq!(ls.data_region().len(), 104 << 10);
        assert_eq!(ls.data_region_base(), 64 << 10);
        assert_eq!(ls.size(), 256 << 10);
    }

    #[test]
    fn data_region_is_writable() {
        let mut ls = LocalStore::new(LocalStore::SIZE, StorePartition::default());
        ls.data_region_mut()[0] = 0xAB;
        ls.data_region_mut()[103 * 1024] = 0xCD;
        assert_eq!(ls.data_region()[0], 0xAB);
        assert_eq!(ls.data_region()[103 * 1024], 0xCD);
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
            assert_eq!(ls.data_region().len() as u32, kb << 10);
        }
    }
}
