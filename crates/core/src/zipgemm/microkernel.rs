//! Internal machinery shared by every functional ZipGEMM path.
//!
//! The serial blocked kernel ([`crate::ZipGemm::multiply`]), the
//! multi-threaded kernel ([`crate::ZipGemm::multiply_parallel`]) and the
//! naive reference ([`crate::ZipGemm::multiply_reference`]) all build on the
//! pieces here, so the accumulation contract lives in exactly one place:
//!
//! * [`SeqMap`] — the FragTile-grid → hierarchical-sequence lookup that used
//!   to be copy-pasted between the serial and parallel paths;
//! * [`ActPanel`] — the activation matrix pre-converted to `f32` once per
//!   pass (instead of once per output row that consumes it);
//! * [`decode_tile_f32`] — the per-tile decode cache: one table-driven
//!   (LUT) decode plus one BF16→f32 widening per FragTile per pass, reused
//!   across every `N`-block that consumes the tile;
//! * [`compute_strip`] — the register-blocked `FRAG_DIM × NB` panel kernel
//!   that the serial path runs over the whole matrix and each parallel
//!   worker runs over its strip of tile rows.
//!
//! Every column block has a compile-time width. After the full `NB = 16`
//! blocks, the remaining `n % 16` columns are covered by at most one block
//! each of width 8, 4 and 2 and one 1-wide per-row dot product. So a
//! decode step (`n = 1`) costs each tile's decode plus eight dot products,
//! and a ragged `n` such as 10 runs as an 8-wide block then a 2-wide one;
//! every FMA loop has a compile-time trip count.
//!
//! The bitwise contract (pinned by `tests/fused_correctness.rs`): every
//! output element accumulates in FP32 in ascending-`k` order. Blocking over
//! `N` (full or tail widths) and register-tiling the panel never reorders the
//! per-element chain of adds — each element still sees its `k` products in
//! ascending tile order, ascending lane order — so all three paths produce
//! identical bits.

use crate::decompress::decode_tile_lut;
use crate::format::layout::{block_sequence, TbeMatrix};
use crate::format::{FRAG_DIM, FRAG_ELEMS};
use zipserv_bf16::{Bf16, Matrix};

/// Column width of the register-blocked micro-kernel panel: 16 `f32`
/// accumulator lanes per tile row fill one 64-byte cache line and map onto
/// four 128-bit (or two 256-bit) vector registers.
pub(crate) const NB: usize = 16;

/// Lookup from FragTile grid coordinates `(tr, tk)` to the hierarchical
/// sequence index used by [`TbeMatrix::tile_view`].
///
/// Built once per pass and shared read-only by every worker; previously the
/// construction was duplicated in the serial and parallel paths and could
/// silently drift.
pub(crate) struct SeqMap {
    seq_of: Vec<usize>,
    tiles_k: usize,
}

impl SeqMap {
    /// Builds the lookup for an `m × k` weight matrix (multiples of
    /// [`FRAG_DIM`]).
    pub(crate) fn new(m: usize, k: usize) -> Self {
        let tiles_k = k / FRAG_DIM;
        let mut seq_of = vec![0usize; (m / FRAG_DIM) * tiles_k];
        let mut seq = 0usize;
        for block in &block_sequence(m, k) {
            for &(tr, tc) in block {
                seq_of[tr * tiles_k + tc] = seq;
                seq += 1;
            }
        }
        SeqMap { seq_of, tiles_k }
    }

    /// Sequence index of the FragTile at grid position `(tr, tk)`.
    #[inline]
    pub(crate) fn seq(&self, tr: usize, tk: usize) -> usize {
        self.seq_of[tr * self.tiles_k + tk]
    }

    /// FragTiles along the reduction dimension.
    #[inline]
    pub(crate) fn tiles_k(&self) -> usize {
        self.tiles_k
    }
}

/// The activation matrix packed into a contiguous row-major `f32` panel.
///
/// Widening BF16→f32 preserves every value exactly, so converting up front
/// changes no bits — it only stops each activation element from being
/// re-converted once per output row (`M` times) in the inner loop.
pub(crate) struct ActPanel {
    data: Vec<f32>,
    n: usize,
}

impl ActPanel {
    /// Converts `x` (`k × n`, row-major) once.
    pub(crate) fn pack(x: &Matrix<Bf16>) -> Self {
        ActPanel {
            data: x.as_slice().iter().map(|v| v.to_f32()).collect(),
            n: x.cols(),
        }
    }

    /// Columns of the packed panel.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.n
    }

    /// Row `k` of the panel as a contiguous slice.
    #[inline]
    pub(crate) fn row(&self, k: usize) -> &[f32] {
        &self.data[k * self.n..(k + 1) * self.n]
    }
}

/// Decodes one FragTile into an `f32` scratch panel — the per-tile decode
/// cache. The decode and the BF16→f32 widening happen exactly once per tile
/// per pass here; every `N`-block of the micro-kernel then reuses the
/// cached panel instead of re-converting per FMA.
///
/// Selects the table-driven [`decode_tile_lut`] hot path; the lanewise
/// decoder stays available as the bit-exactness reference (the two are
/// pinned identical, so this selection cannot change output bits).
#[inline]
pub(crate) fn decode_tile_f32(w: &TbeMatrix, seq: usize) -> [f32; FRAG_ELEMS] {
    let tile = decode_tile_lut(w.tile_view(seq), w.base_exp());
    let mut out = [0f32; FRAG_ELEMS];
    for (o, v) in out.iter_mut().zip(tile.iter()) {
        *o = v.to_f32();
    }
    out
}

/// The register-blocked `FRAG_DIM × W` micro-kernel: for each of the tile's
/// `FRAG_DIM` rows, accumulates the `W` output columns starting at `col0`
/// against activation rows `k0..k0 + FRAG_DIM`.
///
/// `W` is a compile-time width ([`NB`] for full blocks, 8/4/2 for tails),
/// so every slice becomes a `[f32; W]` array reference and the FMA loops
/// have constant trip counts the compiler unrolls and vectorizes.
/// Accumulators live in a stack array (the "register file"); the `out`
/// panel is read once before and written once after the `k`-loop, so the
/// innermost loop is pure FP32 FMA — no bounds-checked `Matrix` indexing,
/// no BF16 conversion.
#[inline]
fn block<const W: usize>(
    wf: &[f32; FRAG_ELEMS],
    x: &ActPanel,
    k0: usize,
    out: &mut [f32],
    n: usize,
    row0: usize,
    col0: usize,
) {
    let mut acc = [[0f32; W]; FRAG_DIM];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let o = (row0 + r) * n + col0;
        *acc_r = out[o..o + W].try_into().expect("W-wide block");
    }
    for kk in 0..FRAG_DIM {
        let xr: &[f32; W] = x.row(k0 + kk)[col0..col0 + W]
            .try_into()
            .expect("W-wide block");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let wv = wf[r * FRAG_DIM + kk];
            for (a, &xv) in acc_r.iter_mut().zip(xr) {
                *a += wv * xv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = (row0 + r) * n + col0;
        out[o..o + W].copy_from_slice(acc_r);
    }
}

/// The 1-wide tail: column `col` of the output tile as `FRAG_DIM`
/// per-row dot products. The activation column is gathered once, then the
/// eight row chains advance together in ascending `k`, so each step issues
/// eight independent adds.
#[inline]
fn column(
    wf: &[f32; FRAG_ELEMS],
    x: &ActPanel,
    k0: usize,
    out: &mut [f32],
    n: usize,
    row0: usize,
    col: usize,
) {
    let xc: [f32; FRAG_DIM] = core::array::from_fn(|kk| x.row(k0 + kk)[col]);
    let mut acc: [f32; FRAG_DIM] = core::array::from_fn(|r| out[(row0 + r) * n + col]);
    for (kk, &xv) in xc.iter().enumerate() {
        for (r, a) in acc.iter_mut().enumerate() {
            *a += wf[r * FRAG_DIM + kk] * xv;
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[(row0 + r) * n + col] = *a;
    }
}

/// Computes the output strip for tile rows `start_tr..end_tr` into `out`
/// (row-major `(end_tr - start_tr) * FRAG_DIM × n`, pre-zeroed or holding
/// partial sums), decoding each FragTile exactly once.
///
/// Columns are covered by full [`NB`]-wide blocks, then by at most one
/// block each of width 8, 4 and 2 and one [`column`] — the binary digits
/// of the remainder — so every `n` runs on const-width kernels only.
///
/// Degenerate inputs — zero-column activations or an empty strip (a worker
/// assigned past the end of the tile rows) — are no-ops.
pub(crate) fn compute_strip(
    w: &TbeMatrix,
    seq: &SeqMap,
    x: &ActPanel,
    start_tr: usize,
    end_tr: usize,
    out: &mut [f32],
) {
    let n = x.cols();
    if n == 0 || start_tr >= end_tr {
        return;
    }
    debug_assert_eq!(out.len(), (end_tr - start_tr) * FRAG_DIM * n);
    let full = n - n % NB;
    let tail = n % NB;
    for tr in start_tr..end_tr {
        let row0 = (tr - start_tr) * FRAG_DIM;
        for tk in 0..seq.tiles_k() {
            let wf = decode_tile_f32(w, seq.seq(tr, tk));
            let k0 = tk * FRAG_DIM;
            for col0 in (0..full).step_by(NB) {
                block::<NB>(&wf, x, k0, out, n, row0, col0);
            }
            let mut col0 = full;
            if tail & 8 != 0 {
                block::<8>(&wf, x, k0, out, n, row0, col0);
                col0 += 8;
            }
            if tail & 4 != 0 {
                block::<4>(&wf, x, k0, out, n, row0, col0);
                col0 += 4;
            }
            if tail & 2 != 0 {
                block::<2>(&wf, x, k0, out, n, row0, col0);
                col0 += 2;
            }
            if tail & 1 != 0 {
                column(&wf, x, k0, out, n, row0, col0);
            }
        }
    }
}
