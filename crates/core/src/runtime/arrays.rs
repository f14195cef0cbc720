//! Arrays: colored allocation, the per-NDA layout walk, and functional
//! execution of finished ops and of Fig. 8's host steps on the `f32`
//! backing store.

use std::collections::BTreeSet;
use std::sync::Arc;

use chopim_mapping::color::{Color, Region};
use chopim_mapping::AddressMapper;
use chopim_nda::isa::Opcode;
use chopim_nda::operand::OperandLayout;
use chopim_nda::pe;

use super::{ArrayData, MatId, OpHandle, OpKind, Runtime, Sharing, VecId};

impl Runtime {
    /// Build per-NDA layouts for `lines` payload lines in a colored
    /// region.
    fn build_layouts(
        &mut self,
        lines: u64,
        color: Color,
    ) -> (Vec<Arc<OperandLayout>>, u64, Option<Region>) {
        let lpc = self.cfg.lines_per_row() as u64; // lines per chunk (128)
        let ranks = self.n_ndas as u64;
        let lines_per_rank = lines.div_ceil(ranks).div_ceil(lpc) * lpc;
        if self.rank_partition {
            // Dedicated ranks: synthesize bank-rotating layouts directly.
            let chunks = (lines_per_rank / lpc) as usize;
            let banks = self.cfg.banks_per_rank() as u16;
            let rows_needed = chunks.div_ceil(banks as usize) as u32;
            let mut layouts = Vec::with_capacity(self.n_ndas);
            for i in 0..self.n_ndas {
                let base = self.rp_next_row[i];
                self.rp_next_row[i] += rows_needed;
                layouts.push(OperandLayout::rotating(banks, base, chunks, lpc as u32));
            }
            return (layouts, lines_per_rank, None);
        }
        // Shared mode: allocate colored system rows and derive each rank's
        // chunk walk from the real mapping.
        let row_lines = self.cfg.system_row_bytes() / 64;
        let rows_needed = (lines_per_rank * ranks).div_ceil(row_lines) as usize;
        // With bank partitioning the shared pool is the reserved address
        // space; without it (reserved_banks = 0) NDA arrays live in
        // ordinary colored memory.
        let region = self
            .allocator
            .alloc_shared(color, rows_needed)
            .or_else(|| self.allocator.alloc_host_colored(color, rows_needed))
            .expect("memory exhausted for NDA operands");
        let layouts = self.layouts_from(self.chunk_walk(&region));
        (layouts, lines_per_rank, Some(region))
    }

    /// NDA index and chunk key `(global rank, flat bank, row)` of `pa`,
    /// or `None` when its rank hosts no NDA.
    pub(super) fn chunk_of(&self, pa: u64) -> Option<(usize, (usize, u16, u32))> {
        let d = self.mapper.map_pa(pa);
        let g = d.channel * self.cfg.ranks_per_channel + d.rank;
        let bank = d.flat_bank(self.cfg.banks_per_group) as u16;
        self.nda_of_rank[g].map(|idx| (idx, (g, bank, d.row)))
    }

    /// Each NDA's `(bank, row)` chunks of `region`, in first-seen line
    /// order per system row.
    ///
    /// Offsets that differ only in column-only line bits fall in one
    /// chunk (the partition fix-up reads only bank and row), and the
    /// lowest of them has those bits clear. Visiting just the offsets
    /// with them clear, in increasing order, therefore sees every chunk
    /// in the same first-seen order as a walk over every line, at one
    /// translation per DRAM chunk instead of one per line.
    fn chunk_walk(&self, region: &Region) -> Vec<Vec<(u16, u32)>> {
        let row_lines = self.cfg.system_row_bytes() / 64;
        let skip = self.mapper.inner().col_only_mask() & (row_lines - 1);
        let mut chunk_lists = vec![Vec::new(); self.n_ndas];
        for sysrow in &region.rows {
            let mut seen = BTreeSet::new();
            let base_pa = u64::from(sysrow.index) * self.cfg.system_row_bytes();
            let mut l = 0;
            while l < row_lines {
                if let Some((idx, key)) = self.chunk_of(base_pa + l * 64) {
                    if seen.insert(key) {
                        chunk_lists[idx].push((key.1, key.2));
                    }
                }
                // Next offset with every `skip` bit clear.
                l = ((l | skip) + 1) & !skip;
            }
        }
        chunk_lists
    }

    /// Turn per-NDA chunk lists into operand layouts.
    pub(super) fn layouts_from(
        &self,
        chunk_lists: Vec<Vec<(u16, u32)>>,
    ) -> Vec<Arc<OperandLayout>> {
        let lpc = self.cfg.lines_per_row() as u64;
        let row_lines = self.cfg.system_row_bytes() / 64;
        // Chopim's layout lets the microcode stream contiguous columns of
        // one bank row per 1 KB-per-chip batch (Fig. 3/Fig. 9). The
        // `pa_order_walk` ablation instead rotates lines across all banks
        // of the rank (the walk a naive layout would force), destroying
        // row locality under host interference.
        let group = (row_lines / self.n_ndas as u64 / lpc).max(1) as u32;
        chunk_lists
            .into_iter()
            .map(|c| {
                if self.pa_order_walk && (c.len() as u32).is_multiple_of(group) {
                    OperandLayout::with_interleave(c, lpc as u32, group)
                } else {
                    OperandLayout::new(c, lpc as u32)
                }
            })
            .collect()
    }

    /// Allocate a host-only footprint region of `rows` system rows,
    /// halving on exhaustion (small test pools).
    ///
    /// # Panics
    ///
    /// Panics when host memory is completely exhausted.
    pub fn alloc_host_region(&mut self, rows: usize) -> Region {
        let mut rows = rows.max(1);
        loop {
            if let Some(r) = self.allocator.alloc_host(rows) {
                return r;
            }
            rows /= 2;
            assert!(rows > 0, "host memory exhausted");
        }
    }

    /// Allocate a vector of `len` f32 elements in the default color.
    pub fn vector(&mut self, len: usize, sharing: Sharing) -> VecId {
        self.vector_colored(len, sharing, self.default_color)
    }

    /// Allocate a vector in an explicit shared-region color (paper §III-A:
    /// operands of one instruction must share a color; the runtime inserts
    /// realignment copies otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the color is out of range.
    pub fn vector_colored(&mut self, len: usize, sharing: Sharing, color: Color) -> VecId {
        assert!(len > 0, "empty vector");
        assert!(
            (color.0 as usize) < self.allocator.num_colors(),
            "color out of range"
        );
        let (layouts, lines_per_rank, region, private);
        match sharing {
            Sharing::Shared => {
                let total_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(total_lines, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = None;
            }
            Sharing::Private => {
                // A full copy per NDA, each within its own rank share.
                let per_copy_lines = ((len * 4) as u64).div_ceil(64);
                let (l, lpr, r) = self.build_layouts(per_copy_lines * self.n_ndas as u64, color);
                layouts = l;
                lines_per_rank = lpr;
                region = r;
                private = Some(vec![vec![0.0; len]; self.n_ndas]);
            }
        }
        self.arrays.push(ArrayData {
            backing: vec![0.0; len],
            private,
            layouts,
            lines_per_rank,
            region,
            len,
            shape: None,
            color,
        });
        VecId(self.arrays.len() - 1)
    }

    /// The shared-region color of an array.
    pub fn color_of(&self, v: VecId) -> Color {
        self.arrays[v.0].color
    }

    /// Number of available colors (8 for Table II, paper §III-A).
    pub fn num_colors(&self) -> usize {
        self.allocator.num_colors()
    }

    /// Allocate a row-major `rows x cols` shared matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of 16 (rows must be cache-line
    /// aligned so each line belongs to one sample).
    pub fn matrix(&mut self, rows: usize, cols: usize) -> MatId {
        assert!(
            cols.is_multiple_of(16),
            "cols must be a multiple of 16 (line-aligned rows)"
        );
        let total_lines = ((rows * cols * 4) as u64).div_ceil(64);
        let color = self.default_color;
        let (layouts, lines_per_rank, region) = self.build_layouts(total_lines, color);
        self.arrays.push(ArrayData {
            backing: vec![0.0; rows * cols],
            private: None,
            layouts,
            lines_per_rank,
            region,
            len: rows * cols,
            shape: Some((rows, cols)),
            color,
        });
        MatId(self.arrays.len() - 1)
    }

    /// Overwrite a vector's contents.
    pub fn write_vector(&mut self, v: VecId, data: &[f32]) {
        let a = &mut self.arrays[v.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    /// Read a vector's contents.
    pub fn read_vector(&self, v: VecId) -> &[f32] {
        &self.arrays[v.0].backing
    }

    /// Read one NDA's private copy.
    pub fn read_private(&self, v: VecId, nda: usize) -> &[f32] {
        &self.arrays[v.0].private.as_ref().expect("private array")[nda]
    }

    /// Overwrite a matrix's contents (row-major).
    pub fn write_matrix(&mut self, m: MatId, data: &[f32]) {
        let a = &mut self.arrays[m.0];
        assert_eq!(a.len, data.len(), "length mismatch");
        a.backing.copy_from_slice(data);
    }

    /// Matrix contents (row-major).
    pub fn read_matrix(&self, m: MatId) -> &[f32] {
        &self.arrays[m.0].backing
    }

    fn vec_lines(&self, v: VecId) -> u64 {
        ((self.arrays[v.0].len * 4) as u64).div_ceil(64)
    }

    /// Per-rank payload lines of a shared vector.
    pub(super) fn vec_lines_per_rank(&self, v: VecId) -> u64 {
        self.vec_lines(v).div_ceil(self.n_ndas as u64)
    }

    /// Functionally execute the finished op on the backing store.
    pub(super) fn finalize(&mut self, h: OpHandle) {
        let kind = std::mem::replace(
            &mut self.op_mut(h).kind,
            OpKind::Elementwise {
                op: Opcode::Copy,
                scalars: vec![],
                inputs: vec![],
                output: None,
            },
        );
        match &kind {
            OpKind::Elementwise {
                op,
                scalars,
                inputs,
                output,
            } => {
                let input_data: Vec<Vec<f32>> = inputs
                    .iter()
                    .map(|v| self.arrays[v.0].backing.clone())
                    .collect();
                let input_refs: Vec<&[f32]> = input_data.iter().map(|v| v.as_slice()).collect();
                let stats = match output {
                    Some(o) => pe::execute(
                        *op,
                        scalars,
                        &input_refs,
                        Some(&mut self.arrays[o.0].backing),
                    ),
                    None => pe::execute(*op, scalars, &input_refs, None),
                };
                self.op_mut(h).result = stats.reduction;
                self.add_activity(stats);
            }
            OpKind::Gemv { y, a, x } => {
                assert!(y.0 != a.0 && y.0 != x.0, "GEMV output aliases an input");
                let (rows, cols) = self.arrays[a.0].shape.expect("matrix");
                // Move y out so A and x are read in place, not cloned.
                let mut y_data = std::mem::take(&mut self.arrays[y.0].backing);
                let stats = pe::execute_gemv(
                    &self.arrays[a.0].backing,
                    &self.arrays[x.0].backing,
                    &mut y_data,
                    rows,
                    cols,
                );
                self.arrays[y.0].backing = y_data;
                self.add_activity(stats);
            }
            OpKind::MacroAxpyRows { a_pvt, alphas, x } => {
                let (_, cols) = self.arrays[x.0].shape.expect("matrix");
                // Borrow X's data for the update (restored below) rather
                // than cloning the whole matrix per completion.
                let x_data = std::mem::take(&mut self.arrays[x.0].backing);
                let owners = self.line_owners(*x, cols);
                let lines_per_row = cols / 16;
                let privates = self.arrays[a_pvt.0]
                    .private
                    .as_mut()
                    .expect("private array");
                let mut fmas = 0u64;
                for (i, &alpha) in alphas.iter().enumerate() {
                    let row = &x_data[i * cols..(i + 1) * cols];
                    for l in 0..lines_per_row {
                        let owner = owners[(i * lines_per_row + l) % owners.len()];
                        let dst = &mut privates[owner];
                        for e in 0..16 {
                            let j = l * 16 + e;
                            dst[j] += alpha * row[j];
                            fmas += 1;
                        }
                    }
                }
                self.arrays[x.0].backing = x_data;
                self.pe_activity.fmas += fmas;
                self.pe_activity.buffer_accesses += fmas / 2;
            }
        }
        let op = self.op_mut(h);
        op.kind = kind;
        op.done = true;
    }

    /// Which NDA owns each cache line of a shared array (exact, via the
    /// mapping), cycled for timing-padded tails.
    fn line_owners(&self, m: MatId, _cols: usize) -> Vec<usize> {
        let a = &self.arrays[m.0];
        match &a.region {
            Some(region) => {
                let lines = ((a.len * 4) as u64).div_ceil(64);
                (0..lines)
                    .map(|l| {
                        let d = self.mapper.map_pa(region.pa_of(l * 64));
                        let g = d.channel * self.cfg.ranks_per_channel + d.rank;
                        self.nda_of_rank[g].unwrap_or(g % self.n_ndas)
                    })
                    .collect()
            }
            // Rank-partition mode: round-robin striping.
            None => (0..self.n_ndas).collect(),
        }
    }

    fn add_activity(&mut self, s: pe::ExecStats) {
        self.pe_activity.fmas += s.fmas;
        self.pe_activity.buffer_accesses += s.buffer_accesses;
        self.pe_activity.scratch_accesses += s.scratch_accesses;
    }

    /// Host-side reduction of a private array into a shared vector
    /// (`host::reduce` of Fig. 8): functional sum over NDA copies plus an
    /// analytic host-traffic cycle charge.
    pub fn host_reduce(&mut self, dst: VecId, src: VecId) {
        let len = self.arrays[dst.0].len;
        assert_eq!(self.arrays[src.0].len, len);
        let privates = self.arrays[src.0]
            .private
            .as_ref()
            .expect("private source")
            .clone();
        let out = &mut self.arrays[dst.0].backing;
        out.iter_mut().for_each(|v| *v = 0.0);
        for copy in &privates {
            for (o, v) in out.iter_mut().zip(copy) {
                *o += *v;
            }
        }
        // Host reads n_ndas copies and writes one: bytes / peak BW.
        let bytes = (len * 4 * (self.n_ndas + 1)) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }

    /// Zero every private copy of a private vector.
    pub fn clear_private(&mut self, v: VecId) {
        for copy in self.arrays[v.0].private.as_mut().expect("private array") {
            copy.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Host-side elementwise sigmoid (`host::sigmoid` of Fig. 8).
    pub fn host_sigmoid(&mut self, v: VecId) {
        for x in &mut self.arrays[v.0].backing {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        let bytes = (self.arrays[v.0].len * 8) as f64;
        let bw = self.cfg.channel_bytes_per_cycle() * self.cfg.channels as f64;
        self.host_comm_cycles += (bytes / bw).ceil() as u64;
    }
}
