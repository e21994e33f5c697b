//! Block and Cyclic data layouts (paper Sec. III-F: "Block or Cyclic data
//! layouts") and the 0-based global↔(rank, local) index math.

use lamellar_codec::impl_codec_enum;

/// How global indices map onto team ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Contiguous chunks of `ceil(len / num_pes)` elements per rank.
    Block,
    /// Element `i` lives on rank `i % num_pes`.
    Cyclic,
}

impl_codec_enum!(Distribution { Block, Cyclic });

/// The index-mapping core shared by every array type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Global element count.
    pub glen: usize,
    /// Number of team ranks the array spans.
    pub num_ranks: usize,
    /// The distribution scheme.
    pub dist: Distribution,
}

impl Layout {
    /// Build a layout; arrays of zero length are allowed (all maps empty).
    ///
    /// Batched ops carry local offsets as `u32` on the wire, so no rank may
    /// own more than 2^32 elements (4 Gi per PE).
    pub fn new(glen: usize, num_ranks: usize, dist: Distribution) -> Self {
        assert!(num_ranks > 0, "layout needs at least one rank");
        let layout = Layout { glen, num_ranks, dist };
        assert!(
            layout.max_local_len() as u64 <= 1 << 32,
            "{glen} elements over {num_ranks} ranks put {} on one rank; \
             local offsets are u32, so at most 2^32 elements per rank",
            layout.max_local_len()
        );
        layout
    }

    /// Elements per rank in the Block scheme (the chunk size).
    pub fn block_size(&self) -> usize {
        self.glen.div_ceil(self.num_ranks).max(1)
    }

    /// The team rank owning global index `i`.
    pub fn rank_of(&self, i: usize) -> usize {
        debug_assert!(i < self.glen, "index {i} out of bounds (len {})", self.glen);
        match self.dist {
            Distribution::Block => (i / self.block_size()).min(self.num_ranks - 1),
            Distribution::Cyclic => i % self.num_ranks,
        }
    }

    /// The local offset of global index `i` within its owner's block.
    pub fn local_of(&self, i: usize) -> usize {
        match self.dist {
            Distribution::Block => i - self.rank_of(i) * self.block_size(),
            Distribution::Cyclic => i / self.num_ranks,
        }
    }

    /// Owner and local offset in one call, with one division.
    #[inline]
    pub fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.glen, "index {i} out of bounds (len {})", self.glen);
        match self.dist {
            Distribution::Block => {
                let block = self.block_size();
                let rank = (i / block).min(self.num_ranks - 1);
                (rank, i - rank * block)
            }
            Distribution::Cyclic => (i % self.num_ranks, i / self.num_ranks),
        }
    }

    /// The global index of `(rank, local)`.
    pub fn global_of(&self, rank: usize, local: usize) -> usize {
        match self.dist {
            Distribution::Block => rank * self.block_size() + local,
            Distribution::Cyclic => local * self.num_ranks + rank,
        }
    }

    /// Number of elements stored on `rank`.
    pub fn local_len(&self, rank: usize) -> usize {
        debug_assert!(rank < self.num_ranks);
        match self.dist {
            Distribution::Block => {
                let start = rank * self.block_size();
                self.glen.saturating_sub(start).min(self.block_size())
            }
            // Full rounds, plus one more element for ranks inside the
            // final partial round.
            Distribution::Cyclic => (self.glen + self.num_ranks - 1 - rank) / self.num_ranks,
        }
    }

    /// The largest local block over all ranks — what the backing
    /// SharedMemoryRegion allocates per PE (regions are same-size on every
    /// PE).
    pub fn max_local_len(&self) -> usize {
        (0..self.num_ranks).map(|r| self.local_len(r)).max().unwrap_or(0)
    }
}

impl lamellar_codec::Codec for Layout {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.glen.encode(buf);
        self.num_ranks.encode(buf);
        self.dist.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + self.dist.encoded_len()
    }
    fn decode(r: &mut lamellar_codec::Reader<'_>) -> lamellar_codec::Result<Self> {
        Ok(Layout {
            glen: usize::decode(r)?,
            num_ranks: usize::decode(r)?,
            dist: Distribution::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(layout: Layout) {
        let mut seen = vec![false; layout.glen];
        for rank in 0..layout.num_ranks {
            for local in 0..layout.local_len(rank) {
                let g = layout.global_of(rank, local);
                assert!(g < layout.glen, "global {g} out of bounds");
                assert!(!seen[g], "global {g} mapped twice");
                seen[g] = true;
                assert_eq!(layout.locate(g), (rank, local), "roundtrip for {g}");
            }
        }
        assert!(seen.into_iter().all(|s| s), "every global index covered");
    }

    #[test]
    fn block_bijection_various_shapes() {
        for (glen, n) in [(10, 3), (9, 3), (1, 4), (16, 4), (17, 4), (100, 7), (0, 2)] {
            check_bijection(Layout::new(glen, n, Distribution::Block));
        }
    }

    #[test]
    fn cyclic_bijection_various_shapes() {
        for (glen, n) in [(10, 3), (9, 3), (1, 4), (16, 4), (17, 4), (100, 7), (0, 2)] {
            check_bijection(Layout::new(glen, n, Distribution::Cyclic));
        }
    }

    #[test]
    fn block_is_contiguous() {
        let l = Layout::new(10, 3, Distribution::Block);
        // ceil(10/3) = 4: ranks own [0..4), [4..8), [8..10).
        assert_eq!(l.rank_of(0), 0);
        assert_eq!(l.rank_of(3), 0);
        assert_eq!(l.rank_of(4), 1);
        assert_eq!(l.rank_of(9), 2);
        assert_eq!(l.local_len(0), 4);
        assert_eq!(l.local_len(1), 4);
        assert_eq!(l.local_len(2), 2);
    }

    #[test]
    fn cyclic_strides_by_rank_count() {
        let l = Layout::new(10, 3, Distribution::Cyclic);
        assert_eq!(l.rank_of(0), 0);
        assert_eq!(l.rank_of(1), 1);
        assert_eq!(l.rank_of(2), 2);
        assert_eq!(l.rank_of(3), 0);
        assert_eq!(l.local_of(3), 1);
        assert_eq!(l.local_len(0), 4); // 0,3,6,9
        assert_eq!(l.local_len(1), 3); // 1,4,7
        assert_eq!(l.local_len(2), 3); // 2,5,8
    }

    #[test]
    fn max_local_len_covers_all_ranks() {
        for dist in [Distribution::Block, Distribution::Cyclic] {
            let l = Layout::new(17, 4, dist);
            let m = l.max_local_len();
            for r in 0..4 {
                assert!(l.local_len(r) <= m);
            }
        }
    }

    #[test]
    fn locate_matches_rank_of_and_local_of() {
        for dist in [Distribution::Block, Distribution::Cyclic] {
            for (glen, n) in [(12, 4), (13, 4), (10, 3), (0, 3), (1, 3), (1, 1), (7, 1)] {
                let l = Layout::new(glen, n, dist);
                for i in 0..glen {
                    assert_eq!(
                        l.locate(i),
                        (l.rank_of(i), l.local_of(i)),
                        "{dist:?} {glen}/{n} @ {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^32 elements per rank")]
    fn layout_rejects_more_than_u32_offsets_per_rank() {
        Layout::new(u32::MAX as usize + 2, 1, Distribution::Block);
    }

    #[test]
    fn layout_accepts_exactly_u32_offsets_per_rank() {
        let l = Layout::new(2 * (u32::MAX as usize + 1), 2, Distribution::Cyclic);
        assert_eq!(l.max_local_len(), u32::MAX as usize + 1);
    }

    #[test]
    fn layout_codec_roundtrip() {
        use lamellar_codec::Codec;
        let l = Layout::new(123, 7, Distribution::Cyclic);
        assert_eq!(Layout::from_bytes(&l.to_bytes()).unwrap(), l);
    }
}
