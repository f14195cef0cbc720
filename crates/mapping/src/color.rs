//! The OS memory-management model: coarse *system-row* allocation with
//! page coloring (paper §III-A).
//!
//! NDA operands must interleave across ranks exactly the same way, so the
//! Chopim runtime asks the OS for memory that is (a) aligned and allocated
//! at system-row granularity (one DRAM row in every bank of the system —
//! 512 KiB for the Table II machine) and (b) *colored*: the row-index bits
//! that feed the channel/rank hash are equal for every allocation of the
//! same color. Allocation itself is a free-list per color, the fragmentation
//! behavior of which matches huge-page allocation as the paper argues.

use chopim_dram::codec::{ByteReader, ByteWriter, CodecError};
use chopim_dram::DramConfig;

use crate::linear::LinearMapping;
use crate::Pa;

/// A page color: the compressed value of the row-index bits that determine
/// rank/channel interleaving. Operands sharing a color stay rank-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(pub u32);

/// One allocated system row: `index` is the global row index (the DRAM row
/// opened in every bank when this allocation streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemRow {
    /// Global system-row index (== DRAM row index).
    pub index: u32,
}

/// A contiguous physical allocation of whole system rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The system rows backing the region, in virtual order.
    pub rows: Vec<SystemRow>,
    /// Bytes per system row.
    pub row_bytes: u64,
    /// Color shared by all rows (None for host-only, uncolored regions).
    pub color: Option<Color>,
}

impl Region {
    /// Total bytes in the region.
    pub fn len_bytes(&self) -> u64 {
        self.rows.len() as u64 * self.row_bytes
    }

    /// Physical address of byte `offset` into the region.
    ///
    /// `row_bytes` is a product of power-of-two geometry factors, so the
    /// row split is a shift and a mask.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len_bytes()`.
    #[inline]
    pub fn pa_of(&self, offset: u64) -> Pa {
        assert!(offset < self.len_bytes(), "offset out of region");
        debug_assert!(self.row_bytes.is_power_of_two(), "row size not 2^k");
        let shift = self.row_bytes.trailing_zeros();
        let row = &self.rows[(offset >> shift) as usize];
        (u64::from(row.index) << shift) | (offset & (self.row_bytes - 1))
    }
}

/// The OS physical allocator: hands out system rows, colored on request.
///
/// When built over a partitioned mapping, rows at or above
/// `shared_boundary` form the shared (NDA-reachable) space and host-only
/// requests never receive them.
#[derive(Debug, Clone)]
pub struct ColoredAllocator {
    row_bytes: u64,
    color_bits: Vec<u32>, // positions within the row index
    /// Free host-only rows, per color bucket.
    host_free: Vec<Vec<u32>>,
    /// Free shared-region rows, per color bucket.
    shared_free: Vec<Vec<u32>>,
    total_rows: u32,
    allocated: u32,
}

impl ColoredAllocator {
    /// Build an allocator for `config`, deriving the color mask from
    /// `mapping` and splitting host/shared space at row `shared_boundary`
    /// (use `config.rows` when partitioning is off).
    pub fn new(config: &DramConfig, mapping: &LinearMapping, shared_boundary: u32) -> Self {
        // The mapping's color mask is over line-address bits; row index i
        // corresponds to line bits (row_base + i), so translate.
        let mask = mapping.rank_channel_row_mask();
        use crate::AddressMapper as _;
        let row_base = mapping.line_bits() - mapping.row_bits;
        let color_bits: Vec<u32> = (0..mapping.row_bits)
            .filter(|i| mask >> (row_base + i) & 1 == 1)
            .collect();
        let ncolors = 1usize << color_bits.len();
        let mut host_free = vec![Vec::new(); ncolors];
        let mut shared_free = vec![Vec::new(); ncolors];
        let total_rows = config.rows as u32;
        // Highest rows first so early allocations look "top of memory".
        for row in (0..total_rows).rev() {
            let c = Self::color_of_row(&color_bits, row);
            if row < shared_boundary {
                host_free[c.0 as usize].push(row);
            } else {
                shared_free[c.0 as usize].push(row);
            }
        }
        Self {
            row_bytes: config.system_row_bytes(),
            color_bits,
            host_free,
            shared_free,
            total_rows,
            allocated: 0,
        }
    }

    fn color_of_row(bits: &[u32], row: u32) -> Color {
        let mut c = 0u32;
        for (i, b) in bits.iter().enumerate() {
            c |= (row >> b & 1) << i;
        }
        Color(c)
    }

    /// Number of distinct colors.
    pub fn num_colors(&self) -> usize {
        1 << self.color_bits.len()
    }

    /// The color a given system row belongs to.
    pub fn color_of(&self, row: SystemRow) -> Color {
        Self::color_of_row(&self.color_bits, row.index)
    }

    /// Bytes per system row.
    pub fn system_row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Allocate `n` system rows of `color` from the shared region.
    ///
    /// Returns `None` when the color bucket is exhausted (the OS would
    /// fall back to migration/defrag; our experiments never need it).
    pub fn alloc_shared(&mut self, color: Color, n: usize) -> Option<Region> {
        self.alloc_from(true, color, n)
    }

    /// Allocate `n` host-only system rows of `color`.
    pub fn alloc_host_colored(&mut self, color: Color, n: usize) -> Option<Region> {
        self.alloc_from(false, color, n)
    }

    /// Allocate `n` host-only system rows with no color constraint.
    pub fn alloc_host(&mut self, n: usize) -> Option<Region> {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let c = (0..self.num_colors())
                .max_by_key(|&c| self.host_free[c].len())
                .expect("at least one color");
            match self.host_free[c].pop() {
                Some(r) => rows.push(SystemRow { index: r }),
                None => return None,
            }
        }
        self.allocated += rows.len() as u32;
        Some(Region {
            rows,
            row_bytes: self.row_bytes,
            color: None,
        })
    }

    fn alloc_from(&mut self, shared: bool, color: Color, n: usize) -> Option<Region> {
        assert!((color.0 as usize) < self.num_colors(), "color out of range");
        let pool = if shared {
            &mut self.shared_free
        } else {
            &mut self.host_free
        };
        let bucket = &mut pool[color.0 as usize];
        if bucket.len() < n {
            return None;
        }
        let rows = bucket.split_off(bucket.len() - n);
        self.allocated += n as u32;
        Some(Region {
            rows: rows.into_iter().map(|index| SystemRow { index }).collect(),
            row_bytes: self.row_bytes,
            color: Some(color),
        })
    }

    /// Return a region's rows to the free pools.
    pub fn free(&mut self, region: Region, shared_boundary: u32) {
        for row in region.rows {
            let c = self.color_of(row).0 as usize;
            if row.index < shared_boundary {
                self.host_free[c].push(row.index);
            } else {
                self.shared_free[c].push(row.index);
            }
            self.allocated -= 1;
        }
    }

    /// Rows currently allocated.
    pub fn allocated_rows(&self) -> u32 {
        self.allocated
    }

    /// Total rows managed.
    pub fn total_rows(&self) -> u32 {
        self.total_rows
    }

    /// Serialize the allocator's free-list state (snapshot support). The
    /// free-list *order* is captured verbatim: allocation pops from the
    /// tail, so order determines every future placement decision.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.varint(self.row_bytes);
        w.varint(self.color_bits.len() as u64);
        w.varint(u64::from(self.total_rows));
        for pool in [&self.host_free, &self.shared_free] {
            for bucket in pool {
                w.u32_slice(bucket);
            }
        }
        w.varint(u64::from(self.allocated));
    }

    /// Overwrite this allocator's state from a snapshot.
    ///
    /// # Errors
    ///
    /// [`CodecError::ConfigMismatch`] when the serialized geometry (row
    /// size, color count, total rows) differs from this allocator's.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if r.varint()? != self.row_bytes
            || r.varint_usize()? != self.color_bits.len()
            || r.varint_u32()? != self.total_rows
        {
            return Err(CodecError::ConfigMismatch);
        }
        let ncolors = self.num_colors();
        for pool in [&mut self.host_free, &mut self.shared_free] {
            for bucket in pool.iter_mut().take(ncolors) {
                *bucket = r.u32_vec()?;
            }
        }
        self.allocated = r.varint_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::AddressMapper;

    fn setup() -> (DramConfig, LinearMapping, ColoredAllocator) {
        let cfg = DramConfig::table_ii();
        let map = presets::skylake_like(&cfg);
        // Reserve the top 1/16 of rows as shared space (1 reserved bank).
        let boundary = (cfg.rows - cfg.rows / 16) as u32;
        let alloc = ColoredAllocator::new(&cfg, &map, boundary);
        (cfg, map, alloc)
    }

    #[test]
    fn eight_colors_for_table_ii() {
        let (_, _, a) = setup();
        assert_eq!(a.num_colors(), 8);
    }

    #[test]
    fn same_color_rows_share_rank_channel_interleave() {
        let (cfg, map, mut alloc) = setup();
        let r1 = alloc.alloc_shared(Color(3), 1).unwrap();
        let r2 = alloc.alloc_shared(Color(3), 1).unwrap();
        // Walk both regions line by line: the (channel, rank) sequence must
        // be identical — this is exactly the paper's operand-alignment
        // requirement.
        let lines = cfg.system_row_bytes() / 64;
        for i in (0..lines).step_by(17) {
            let d1 = map.map_pa(r1.pa_of(i * 64));
            let d2 = map.map_pa(r2.pa_of(i * 64));
            assert_eq!((d1.channel, d1.rank), (d2.channel, d2.rank), "line {i}");
        }
    }

    #[test]
    fn different_colors_can_diverge() {
        let (cfg, map, mut alloc) = setup();
        let r1 = alloc.alloc_shared(Color(0), 1).unwrap();
        let r2 = alloc.alloc_shared(Color(5), 1).unwrap();
        let lines = cfg.system_row_bytes() / 64;
        let diverges = (0..lines).any(|i| {
            let d1 = map.map_pa(r1.pa_of(i * 64));
            let d2 = map.map_pa(r2.pa_of(i * 64));
            (d1.channel, d1.rank) != (d2.channel, d2.rank)
        });
        assert!(diverges, "distinct colors should shuffle ranks differently");
    }

    #[test]
    fn shared_and_host_pools_are_disjoint() {
        let (cfg, _, mut alloc) = setup();
        let boundary = (cfg.rows - cfg.rows / 16) as u32;
        let shared = alloc.alloc_shared(Color(0), 4).unwrap();
        for r in &shared.rows {
            assert!(r.index >= boundary);
        }
        let host = alloc.alloc_host(4).unwrap();
        for r in &host.rows {
            assert!(r.index < boundary);
        }
    }

    #[test]
    fn exhaustion_returns_none_and_free_recycles() {
        let (cfg, map, _) = setup();
        let mut alloc = ColoredAllocator::new(&cfg, &map, (cfg.rows / 2) as u32);
        let per_color = cfg.rows / 2 / 8;
        let region = alloc.alloc_shared(Color(1), per_color).unwrap();
        assert!(alloc.alloc_shared(Color(1), 1).is_none());
        assert!(
            alloc.alloc_shared(Color(2), 1).is_some(),
            "other colors unaffected"
        );
        alloc.free(region, (cfg.rows / 2) as u32);
        assert!(alloc.alloc_shared(Color(1), per_color).is_some());
    }

    #[test]
    fn region_pa_addressing_is_row_contiguous() {
        let (cfg, _, mut alloc) = setup();
        let r = alloc.alloc_shared(Color(0), 2).unwrap();
        assert_eq!(r.len_bytes(), 2 * cfg.system_row_bytes());
        let row_bytes = cfg.system_row_bytes();
        // Within one system row, PAs are contiguous.
        assert_eq!(r.pa_of(100) - r.pa_of(0), 100);
        // Across rows, PA jumps to the next allocated row.
        let pa_last = r.pa_of(row_bytes - 1);
        let pa_next = r.pa_of(row_bytes);
        assert_eq!(
            pa_last,
            u64::from(r.rows[0].index) * row_bytes + row_bytes - 1
        );
        assert_eq!(pa_next, u64::from(r.rows[1].index) * row_bytes);
    }

    #[test]
    #[should_panic(expected = "offset out of region")]
    fn out_of_region_offset_panics() {
        let (_, _, mut alloc) = setup();
        let r = alloc.alloc_shared(Color(0), 1).unwrap();
        let _ = r.pa_of(r.len_bytes());
    }
}
