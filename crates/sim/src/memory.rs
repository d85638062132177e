//! Main memory: a lazily-populated block store.
//!
//! Under full broadcast, main memory is deliberately simple — it keeps no
//! cache state and manages no synchronization (Section A.2); it just
//! services block reads, block writes (flushes) and word writes, and can be
//! inhibited by a source cache.
//!
//! The one concession to speed is a *snoop filter*: a per-block **holder
//! bitmask** (one bit per cache) recording which caches hold a frame for
//! the block — valid **or invalid copy**, i.e. residency, not validity.
//! The simulator maintains it at frame allocation and eviction (the only
//! residency transitions; invalidation keeps the frame resident) and uses
//! it to visit only caches that can possibly tag-match during a broadcast,
//! which changes nothing observable because a non-resident cache's snoop is
//! always a no-op.

use mcs_model::{Addr, BlockAddr, BlockGeometry, FastMap, Word};

/// Main memory, holding blocks of words. Unwritten blocks read as zero.
#[derive(Debug, Clone)]
pub struct MainMemory {
    geometry: BlockGeometry,
    blocks: FastMap<BlockAddr, Box<[Word]>>,
    holders: FastMap<BlockAddr, u64>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// An empty memory with the given geometry.
    pub fn new(geometry: BlockGeometry) -> Self {
        MainMemory { geometry, blocks: FastMap::default(), holders: FastMap::default(), reads: 0, writes: 0 }
    }

    fn zero_block(&self) -> Box<[Word]> {
        vec![Word(0); self.geometry.words_per_block()].into_boxed_slice()
    }

    /// Reads a whole block.
    pub fn read_block(&mut self, block: BlockAddr) -> Box<[Word]> {
        self.reads += 1;
        match self.blocks.get(&block) {
            Some(data) => data.clone(),
            None => self.zero_block(),
        }
    }

    /// Reads a whole block without copying. Returns `None` when the block
    /// was never written (reads as zero); the caller zero-fills.
    pub fn read_block_ref(&mut self, block: BlockAddr) -> Option<&[Word]> {
        self.reads += 1;
        self.blocks.get(&block).map(|d| &**d)
    }

    /// Writes a whole block (a flush), reusing the existing allocation when
    /// the block was written before.
    pub fn write_block(&mut self, block: BlockAddr, data: &[Word]) {
        debug_assert_eq!(data.len(), self.geometry.words_per_block());
        self.writes += 1;
        match self.blocks.get_mut(&block) {
            Some(entry) => entry.copy_from_slice(data),
            None => {
                self.blocks.insert(block, data.into());
            }
        }
    }

    /// Marks cache `cache` as holding a frame for `block`.
    #[inline]
    pub fn add_holder(&mut self, block: BlockAddr, cache: usize) {
        *self.holders.entry(block).or_insert(0) |= 1u64 << cache;
    }

    /// Clears cache `cache`'s holder bit for `block` (frame evicted).
    #[inline]
    pub fn remove_holder(&mut self, block: BlockAddr, cache: usize) {
        if let Some(mask) = self.holders.get_mut(&block) {
            *mask &= !(1u64 << cache);
            if *mask == 0 {
                self.holders.remove(&block);
            }
        }
    }

    /// The holder bitmask for `block`: bit `i` set iff cache `i` holds a
    /// frame for the block (valid or invalid copy).
    #[inline]
    pub fn holders_mask(&self, block: BlockAddr) -> u64 {
        self.holders.get(&block).copied().unwrap_or(0)
    }

    /// Every block with a nonzero holder mask (exactness-test support).
    pub fn holder_blocks(&self) -> Vec<BlockAddr> {
        self.holders.keys().copied().collect()
    }

    /// Reads one word.
    pub fn read_word(&mut self, addr: Addr) -> Word {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        self.reads += 1;
        self.blocks.get(&block).map(|d| d[offset]).unwrap_or(Word(0))
    }

    /// Writes one word (a write-through or update).
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        let block = self.geometry.block_of(addr);
        let offset = self.geometry.offset_of(addr);
        self.writes += 1;
        let words = self.geometry.words_per_block();
        let entry =
            self.blocks.entry(block).or_insert_with(|| vec![Word(0); words].into_boxed_slice());
        entry[offset] = value;
    }

    /// Atomic read-modify-write of one word at the memory module
    /// (Feature 6, method 1). Returns the old value.
    pub fn rmw_word(&mut self, addr: Addr, new: Word) -> Word {
        let old = self.read_word(addr);
        self.write_word(addr, new);
        old
    }

    /// Number of block/word read operations serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of block/word write operations serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The geometry this memory uses.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MainMemory {
        MainMemory::new(BlockGeometry::new(4).unwrap())
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut m = mem();
        assert_eq!(m.read_word(Addr(100)), Word(0));
        assert!(m.read_block(BlockAddr(9)).iter().all(|w| *w == Word(0)));
    }

    #[test]
    fn word_write_read_roundtrip() {
        let mut m = mem();
        m.write_word(Addr(5), Word(42));
        assert_eq!(m.read_word(Addr(5)), Word(42));
        assert_eq!(m.read_word(Addr(4)), Word(0));
        let block = m.read_block(BlockAddr(1));
        assert_eq!(block[1], Word(42));
    }

    #[test]
    fn first_word_write_leaves_the_rest_of_the_block_zero() {
        let mut m = mem();
        m.write_word(Addr(6), Word(42));
        let block = m.read_block(BlockAddr(1));
        assert_eq!(&*block, &[Word(0), Word(0), Word(42), Word(0)]);
        assert_eq!(m.read_block_ref(BlockAddr(1)).map(<[Word]>::len), Some(4));
    }

    #[test]
    fn block_write_overwrites() {
        let mut m = mem();
        m.write_word(Addr(0), Word(1));
        m.write_block(BlockAddr(0), &[Word(9), Word(8), Word(7), Word(6)]);
        assert_eq!(m.read_word(Addr(0)), Word(9));
        assert_eq!(m.read_word(Addr(3)), Word(6));
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut m = mem();
        m.write_word(Addr(2), Word(5));
        assert_eq!(m.rmw_word(Addr(2), Word(1)), Word(5));
        assert_eq!(m.read_word(Addr(2)), Word(1));
        // Test-and-set semantics on a fresh word: old is 0.
        assert_eq!(m.rmw_word(Addr(50), Word(1)), Word(0));
    }

    #[test]
    fn block_ref_read_matches_copying_read() {
        let mut m = mem();
        assert!(m.read_block_ref(BlockAddr(3)).is_none(), "unwritten block");
        m.write_block(BlockAddr(3), &[Word(1), Word(2), Word(3), Word(4)]);
        let via_copy = m.read_block(BlockAddr(3));
        assert_eq!(m.read_block_ref(BlockAddr(3)).unwrap(), &via_copy[..]);
        assert_eq!(m.reads(), 3);
    }

    #[test]
    fn holder_mask_tracks_add_and_remove() {
        let mut m = mem();
        assert_eq!(m.holders_mask(BlockAddr(7)), 0);
        m.add_holder(BlockAddr(7), 0);
        m.add_holder(BlockAddr(7), 3);
        m.add_holder(BlockAddr(7), 3); // idempotent
        assert_eq!(m.holders_mask(BlockAddr(7)), 0b1001);
        m.remove_holder(BlockAddr(7), 0);
        assert_eq!(m.holders_mask(BlockAddr(7)), 0b1000);
        m.remove_holder(BlockAddr(7), 1); // absent bit: no-op
        m.remove_holder(BlockAddr(7), 3);
        assert_eq!(m.holders_mask(BlockAddr(7)), 0);
        m.remove_holder(BlockAddr(9), 5); // never-held block: no-op
        assert_eq!(m.holders_mask(BlockAddr(9)), 0);
    }

    #[test]
    fn counts_operations() {
        let mut m = mem();
        m.read_word(Addr(0));
        m.write_word(Addr(0), Word(1));
        m.read_block(BlockAddr(0));
        m.write_block(BlockAddr(0), &[Word(0); 4]);
        assert_eq!(m.reads(), 2);
        // rmw counts one read and one write.
        m.rmw_word(Addr(1), Word(2));
        assert_eq!(m.reads(), 3);
        assert_eq!(m.writes(), 3);
    }
}
