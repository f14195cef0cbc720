//! Invertible GF(2) linear (XOR-hash) address mappings.
//!
//! Every DRAM-coordinate bit is the XOR of a subset of the cache-line
//! physical-address bits. This captures the hashed interleavings of real
//! memory controllers (Intel Skylake and others reverse engineered in the
//! DRAMA work the paper cites) while staying analyzable: the mapping is a
//! square bit matrix over GF(2) whose invertibility we verify at
//! construction.
//!
//! # Byte-sliced evaluation
//!
//! Output bit `o` is `parity(line & mask_o)`, so the whole forward map is
//! linear over GF(2): `map(a ^ b) == map(a) ^ map(b)`. Splitting the line
//! index into bytes, `line = XOR_j (byte_j << 8j)`, therefore gives
//! `map(line) = XOR_j T_j[byte_j]` with `T_j[v] = map(v << 8j)`.
//!
//! * Each table fills in one pass: `T_j[v] = T_j[v & (v - 1)] ^ T_j[low]`,
//!   where `low` is the lowest set bit of `v` (its single-bit image).
//! * Each entry packs all six output fields contiguously into one `u64`.
//!
//! A lookup is one load and XOR per line byte plus six shift/masks to
//! unpack. It is exact by linearity, not an approximation. The inverse,
//! rarely on a hot path, keeps the bit-serial form.

use chopim_dram::{DramAddress, DramConfig};

use crate::{AddressMapper, Pa};

/// Which DRAM coordinate a mapping output bit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutField {
    /// Column (cache-line units).
    Col,
    /// Channel.
    Channel,
    /// Bank group.
    BankGroup,
    /// Bank within group.
    Bank,
    /// Rank within channel.
    Rank,
    /// Row.
    Row,
}

/// One output bit: its field, bit position within the field, and the XOR
/// mask over line-address bits that computes it.
#[derive(Debug, Clone, Copy)]
pub struct OutBit {
    /// Target coordinate field.
    pub field: OutField,
    /// Bit position within the field.
    pub bit: u32,
    /// XOR mask over cache-line address bits.
    pub mask: u64,
}

/// An invertible XOR-hash mapping between cache-line physical addresses
/// and DRAM coordinates.
///
/// Construct via [`LinearMapping::new`] (validates bijectivity) or one of
/// the [`crate::presets`].
#[derive(Debug, Clone)]
pub struct LinearMapping {
    bits: Vec<OutBit>,
    inverse: Vec<u64>,
    /// `tables[j][v]`: packed image of line byte `j` holding `v` (see the
    /// module docs).
    tables: Vec<[u64; 256]>,
    /// `(shift, mask)` of each field in a packed image, in [`OutField`]
    /// declaration order.
    fields: [(u32, u64); 6],
    line_bits: u32,
    banks_per_group: usize,
    /// Number of row bits (exposed for the partition remap).
    pub row_bits: u32,
    /// Number of flat bank bits, `log2(banks_per_rank)`.
    pub bank_bits: u32,
}

fn parity(x: u64) -> u64 {
    u64::from(x.count_ones() & 1)
}

impl LinearMapping {
    /// Build a mapping from explicit output-bit specifications.
    ///
    /// `bits` must contain exactly `line_bits` entries whose masks form an
    /// invertible matrix over GF(2) and whose fields cover the geometry of
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns a description if the matrix is singular or the field widths
    /// do not match `config`.
    pub fn new(config: &DramConfig, bits: Vec<OutBit>) -> Result<Self, String> {
        let line_bits = (config.capacity_bytes() / config.line_bytes() as u64).trailing_zeros();
        if bits.len() != line_bits as usize {
            return Err(format!(
                "need exactly {line_bits} output bits, got {}",
                bits.len()
            ));
        }
        let width = |f: OutField| bits.iter().filter(|b| b.field == f).count() as u32;
        // In `OutField` declaration order, which is also the packing order.
        let expect = [
            (OutField::Col, config.lines_per_row().trailing_zeros()),
            (OutField::Channel, config.channels.trailing_zeros()),
            (OutField::BankGroup, config.bankgroups.trailing_zeros()),
            (OutField::Bank, config.banks_per_group.trailing_zeros()),
            (OutField::Rank, config.ranks_per_channel.trailing_zeros()),
            (OutField::Row, config.rows.trailing_zeros()),
        ];
        for (f, w) in expect {
            if width(f) != w {
                return Err(format!("field {f:?} needs {w} bits, got {}", width(f)));
            }
        }
        let inverse = invert_gf2(&bits.iter().map(|b| b.mask).collect::<Vec<_>>(), line_bits)
            .ok_or("mapping matrix is singular (not a bijection)")?;
        let mut fields = [(0u32, 0u64); 6];
        let mut next = 0;
        for (slot, (_, w)) in fields.iter_mut().zip(expect) {
            *slot = (next, (1u64 << w) - 1);
            next += w;
        }
        // Packed image of each single line bit, then the byte tables.
        let mut unit = vec![0u64; line_bits as usize];
        for b in &bits {
            let pos = fields[b.field as usize].0 + b.bit;
            for (k, u) in unit.iter_mut().enumerate() {
                *u |= (b.mask >> k & 1) << pos;
            }
        }
        let tables = unit
            .chunks(8)
            .map(|byte_units| {
                let mut t = [0u64; 256];
                for v in 1..256usize {
                    let low = v.trailing_zeros() as usize;
                    t[v] = t[v & (v - 1)] ^ byte_units.get(low).copied().unwrap_or(0);
                }
                t
            })
            .collect();
        Ok(Self {
            bits,
            inverse,
            tables,
            fields,
            line_bits,
            banks_per_group: config.banks_per_group,
            row_bits: config.rows.trailing_zeros(),
            bank_bits: config.banks_per_rank().trailing_zeros(),
        })
    }

    /// Map a cache-line index to a DRAM coordinate.
    #[inline]
    pub fn map_line(&self, line: u64) -> DramAddress {
        debug_assert!(line < 1u64 << self.line_bits, "line index out of range");
        let mut packed = 0u64;
        for (j, t) in self.tables.iter().enumerate() {
            packed ^= t[(line >> (8 * j)) as usize & 0xff];
        }
        let field = |i: usize| {
            let (shift, mask) = self.fields[i];
            (packed >> shift) & mask
        };
        DramAddress {
            col: field(0) as u32,
            channel: field(1) as usize,
            bankgroup: field(2) as usize,
            bank: field(3) as usize,
            rank: field(4) as usize,
            row: field(5) as u32,
        }
    }

    /// The bit-serial evaluation the tables replace: the test oracle.
    #[cfg(test)]
    pub(crate) fn map_line_bitwise(&self, line: u64) -> DramAddress {
        let mut d = DramAddress::default();
        for b in &self.bits {
            let v = parity(line & b.mask);
            match b.field {
                OutField::Col => d.col |= (v as u32) << b.bit,
                OutField::Channel => d.channel |= (v as usize) << b.bit,
                OutField::BankGroup => d.bankgroup |= (v as usize) << b.bit,
                OutField::Bank => d.bank |= (v as usize) << b.bit,
                OutField::Rank => d.rank |= (v as usize) << b.bit,
                OutField::Row => d.row |= (v as u32) << b.bit,
            }
        }
        d
    }

    /// Inverse of [`map_line`](Self::map_line).
    pub fn unmap_line(&self, d: &DramAddress) -> u64 {
        let mut out_vec = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            let v = match b.field {
                OutField::Col => u64::from(d.col >> b.bit) & 1,
                OutField::Channel => (d.channel >> b.bit) as u64 & 1,
                OutField::BankGroup => (d.bankgroup >> b.bit) as u64 & 1,
                OutField::Bank => (d.bank >> b.bit) as u64 & 1,
                OutField::Rank => (d.rank >> b.bit) as u64 & 1,
                OutField::Row => u64::from(d.row >> b.bit) & 1,
            };
            out_vec |= v << i;
        }
        let mut line = 0u64;
        for (i, row) in self.inverse.iter().enumerate() {
            line |= parity(out_vec & row) << i;
        }
        line
    }

    /// The XOR masks (over *row-region line bits*) feeding channel and rank
    /// outputs — these define the OS page-coloring bits (paper §III-A).
    pub fn rank_channel_row_mask(&self) -> u64 {
        // Row-region bits are those used as the primary (identity) inputs of
        // row outputs.
        let row_region: u64 = self
            .bits
            .iter()
            .filter(|b| b.field == OutField::Row)
            .fold(0, |acc, b| acc | b.mask);
        self.bits
            .iter()
            .filter(|b| matches!(b.field, OutField::Channel | OutField::Rank))
            .fold(0, |acc, b| acc | (b.mask & row_region))
    }

    /// Line-address bits that feed only column outputs. Flipping any of
    /// them moves a line within its DRAM row: channel, rank, bank group,
    /// bank and row stay put.
    pub fn col_only_mask(&self) -> u64 {
        let non_col = self
            .bits
            .iter()
            .filter(|b| b.field != OutField::Col)
            .fold(0, |acc, b| acc | b.mask);
        !non_col & ((1u64 << self.line_bits) - 1)
    }

    /// Banks per group (needed to flatten bank ids).
    pub fn banks_per_group(&self) -> usize {
        self.banks_per_group
    }
}

impl AddressMapper for LinearMapping {
    fn map_pa(&self, pa: Pa) -> DramAddress {
        self.map_line((pa >> 6) & ((1u64 << self.line_bits) - 1))
    }

    fn unmap(&self, d: &DramAddress) -> Pa {
        self.unmap_line(d) << 6
    }

    fn line_bits(&self) -> u32 {
        self.line_bits
    }
}

/// Invert an `n x n` bit matrix given as row masks. Returns `None` if
/// singular.
fn invert_gf2(rows: &[u64], n: u32) -> Option<Vec<u64>> {
    let n = n as usize;
    let mut a: Vec<u64> = rows.to_vec();
    let mut inv: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r] >> col & 1 == 1)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        for r in 0..n {
            if r != col && a[r] >> col & 1 == 1 {
                a[r] ^= a[col];
                inv[r] ^= inv[col];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    #[test]
    fn gf2_inversion_round_trip() {
        // Small known-invertible matrix: rows = {b01, b11}.
        let inv = invert_gf2(&[0b01, 0b11], 2).unwrap();
        // M = [[1,0],[1,1]] (row i = mask): M^-1 = [[1,0],[1,1]].
        assert_eq!(inv, vec![0b01, 0b11]);
        // Singular matrix rejected.
        assert!(invert_gf2(&[0b01, 0b01], 2).is_none());
    }

    #[test]
    fn wrong_bit_count_rejected() {
        let cfg = chopim_dram::DramConfig::table_ii();
        assert!(LinearMapping::new(&cfg, vec![]).is_err());
    }

    #[test]
    fn skylake_preset_is_bijective_on_samples() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        for line in (0..1u64 << 20).step_by(7919) {
            let d = m.map_line(line);
            assert_eq!(m.unmap_line(&d), line, "line {line} -> {d}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // Fine-grain channel interleaving: among any 16 consecutive lines,
        // both channels must appear (paper §II, address mapping policy).
        for base in [0u64, 1 << 12, 1 << 20] {
            let chans: std::collections::HashSet<_> =
                (base..base + 16).map(|l| m.map_line(l).channel).collect();
            assert_eq!(chans.len(), cfg.channels);
        }
    }

    #[test]
    fn msbs_only_feed_row() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // Flipping any of the top `bank_bits` line bits must change only
        // the row (the partitioning prerequisite, paper Fig. 4b).
        let line = 0x0123_4567u64 & ((1 << m.line_bits()) - 1);
        let top = m.line_bits() - m.bank_bits;
        for b in top..m.line_bits() {
            let d0 = m.map_line(line);
            let d1 = m.map_line(line ^ (1 << b));
            assert_eq!(d0.channel, d1.channel);
            assert_eq!(d0.rank, d1.rank);
            assert_eq!(d0.bankgroup, d1.bankgroup);
            assert_eq!(d0.bank, d1.bank);
            assert_eq!(d0.col, d1.col);
            assert_ne!(d0.row, d1.row);
        }
    }

    #[test]
    fn color_mask_has_eight_colors_for_table_ii() {
        let cfg = chopim_dram::DramConfig::table_ii();
        let m = presets::skylake_like(&cfg);
        // 3 color bits -> 8 colors -> 4 GiB regions in a 32 GiB system,
        // matching the paper's "8 colors ... 4GiB" baseline.
        assert_eq!(m.rank_channel_row_mask().count_ones(), 3);
    }

    /// Every preset × geometry the oracle tests cover.
    fn oracle_mappings() -> Vec<(String, LinearMapping)> {
        let mut out = Vec::new();
        for ch in [1usize, 2, 8] {
            for rk in [1usize, 2, 4, 8] {
                let cfg = chopim_dram::DramConfig::table_ii()
                    .with_channels(ch)
                    .with_ranks(rk);
                out.push((format!("skylake {ch}x{rk}"), presets::skylake_like(&cfg)));
                out.push((format!("naive {ch}x{rk}"), presets::naive(&cfg)));
            }
        }
        out
    }

    #[test]
    fn tables_match_bitwise_oracle_on_single_bits_and_strides() {
        for (name, m) in oracle_mappings() {
            let top = 1u64 << m.line_bits();
            let singles = (0..m.line_bits()).map(|b| 1u64 << b);
            let strided = (0..top).step_by(((top >> 12) | 1) as usize);
            for line in singles.chain(strided).chain([top - 1]) {
                assert_eq!(
                    m.map_line(line),
                    m.map_line_bitwise(line),
                    "{name}: line {line:#x}"
                );
            }
        }
    }

    #[test]
    fn col_only_bits_leave_the_chunk_key_alone() {
        for (name, m) in oracle_mappings() {
            let col_only = m.col_only_mask();
            assert_ne!(col_only, 0, "{name}: some bit feeds only columns");
            let line = 0x0ABC_DEF1u64 & ((1 << m.line_bits()) - 1);
            let d0 = m.map_line(line);
            for b in (0..m.line_bits()).filter(|b| col_only >> b & 1 == 1) {
                let d1 = m.map_line(line ^ (1 << b));
                assert_eq!(
                    (d0.channel, d0.rank, d0.bankgroup, d0.bank, d0.row),
                    (d1.channel, d1.rank, d1.bankgroup, d1.bank, d1.row),
                    "{name}: bit {b}"
                );
            }
        }
    }

    proptest! {
        /// The byte-sliced tables equal the bit-serial evaluation.
        #[test]
        fn prop_tables_match_bitwise_oracle(
            line in 0u64..(1 << 40),
            channels in prop::sample::select(vec![1usize, 2, 8]),
            ranks in prop::sample::select(vec![1usize, 2, 4, 8]),
            hashed in prop::sample::select(vec![true, false]),
        ) {
            let cfg = chopim_dram::DramConfig::table_ii()
                .with_channels(channels)
                .with_ranks(ranks);
            let m = if hashed { presets::skylake_like(&cfg) } else { presets::naive(&cfg) };
            let line = line & ((1 << m.line_bits()) - 1);
            prop_assert_eq!(m.map_line(line), m.map_line_bitwise(line));
        }

        #[test]
        fn prop_bijective(line in 0u64..(1 << 29)) {
            let cfg = chopim_dram::DramConfig::table_ii();
            let m = presets::skylake_like(&cfg);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }

        #[test]
        fn prop_naive_bijective(line in 0u64..(1 << 29)) {
            let cfg = chopim_dram::DramConfig::table_ii();
            let m = presets::naive(&cfg);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }

        #[test]
        fn prop_scaled_geometries_bijective(line in 0u64..(1 << 20), ranks in prop::sample::select(vec![2usize, 4, 8])) {
            let cfg = chopim_dram::DramConfig::table_ii().with_ranks(ranks);
            let m = presets::skylake_like(&cfg);
            let line = line & ((1 << m.line_bits()) - 1);
            let d = m.map_line(line);
            prop_assert_eq!(m.unmap_line(&d), line);
        }
    }
}
