//! Internal machinery shared by every functional ZipGEMM path.
//!
//! The serial blocked kernel ([`crate::ZipGemm::multiply`]), the
//! multi-threaded kernel ([`crate::ZipGemm::multiply_parallel`]) and the
//! naive reference ([`crate::ZipGemm::multiply_reference`]) all build on the
//! pieces here, so the accumulation contract lives in exactly one place:
//!
//! * [`ActPanel`] — the activation matrix pre-converted to `f32` once per
//!   pass (instead of once per output row that consumes it);
//! * [`compute_strip`] — the register-blocked `FRAG_DIM × NB` panel kernel
//!   that the serial path runs over the whole matrix and each parallel
//!   worker runs over its strip of tile rows. It decodes each FragTile
//!   once per pass straight into an `f32` panel (the per-tile decode
//!   cache) and reuses it across every `N`-block that consumes the tile.
//!
//! Every column block has a compile-time width. After the full `NB = 16`
//! blocks, the remaining `n % 16` columns are covered by at most one block
//! each of width 8, 4 and 2 and one 1-wide per-row dot product. So a
//! decode step (`n = 1`) costs each tile's decode plus eight dot products,
//! and a ragged `n` such as 10 runs as an 8-wide block then a 2-wide one;
//! every FMA loop has a compile-time trip count.
//!
//! The panel decoder is chosen from the CPU's features, detected once per
//! process: the AVX-512 VBMI2 expand-load core in `crate::decompress`
//! writes each element's BF16 bits shifted left by 16 (the exact widening)
//! straight into the panel; other hosts run the table-driven
//! `decode_tile_lut` plus a widening loop. Only that decode core is
//! compiled with `#[target_feature]`: the FMA blocks here stay at the
//! crate's baseline target, because compiling the whole strip loop for
//! AVX-512 made the full-width `block::<16>` passes slower: fig12's 64×64
//! blocked pass ran 3–4× slower at N = 16 and N = 32 when tried.
//!
//! Tiles are found through [`TbeMatrix::tile_seq`], the grid → sequence
//! map each matrix builds once when it is assembled or loaded.
//!
//! The bitwise contract (pinned by `tests/fused_correctness.rs`): every
//! output element accumulates in FP32 in ascending-`k` order. Blocking over
//! `N` (full or tail widths) and register-tiling the panel never reorders the
//! per-element chain of adds — each element still sees its `k` products in
//! ascending tile order, ascending lane order — so all three paths produce
//! identical bits.

use crate::decompress::{decode_tile_into, TileOut};
use crate::format::layout::TbeMatrix;
use crate::format::{FRAG_DIM, FRAG_ELEMS};
use zipserv_bf16::{Bf16, Matrix};

/// Column width of the register-blocked micro-kernel panel: 16 `f32`
/// accumulator lanes per tile row fill one 64-byte cache line and map onto
/// four 128-bit (or two 256-bit) vector registers.
pub(crate) const NB: usize = 16;

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
    let mut wf = [0f32; FRAG_ELEMS];
    for tr in start_tr..end_tr {
        let row0 = (tr - start_tr) * FRAG_DIM;
        for tk in 0..w.cols() / FRAG_DIM {
            let view = w.tile_view(w.tile_seq(tr, tk));
            decode_tile_into(view, w.base_exp(), TileOut::F32(&mut wf));
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use crate::decompress::{decode_tile_lanewise, decode_tile_lut_into, host_decode_path};
    use crate::format::layout::TileView;
    use crate::format::tile::EncodedTile;
    use zipserv_bf16::gen::WeightGen;

    /// Both panel decoders against the widened lanewise reference, bit for
    /// bit. The hardware one only runs where the CPU has it, so the
    /// portable one stays tested on hosts where ZipGEMM never selects it.
    fn assert_panels_match(view: TileView<'_>, base: u8, what: &str) {
        let expect = decode_tile_lanewise(view, base).map(|v| v.to_f32().to_bits());
        let mut lut = [f32::NAN; FRAG_ELEMS];
        decode_tile_lut_into(view, base, TileOut::F32(&mut lut));
        assert_eq!(lut.map(f32::to_bits), expect, "lut panel, {what}");
        if host_decode_path() == "avx512vbmi2" {
            let mut hw = [f32::NAN; FRAG_ELEMS];
            decode_tile_into(view, base, TileOut::F32(&mut hw));
            assert_eq!(hw.map(f32::to_bits), expect, "avx512 panel, {what}");
        }
    }

    #[test]
    fn panel_decoders_match_widened_lanewise_on_every_tile() {
        let w = WeightGen::new(0.02)
            .seed(51)
            .outliers(0.2, 40.0)
            .matrix(136, 200);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for seq in 0..tbe.tile_count() {
            assert_panels_match(tbe.tile_view(seq), tbe.base_exp(), &format!("tile {seq}"));
        }
    }

    #[test]
    fn panel_decoders_match_on_hand_built_tiles() {
        let check = |tile: &[Bf16; 64], base: u8, what: &str| {
            let enc = EncodedTile::encode(tile, base);
            let view = TileView {
                bitmaps: &enc.bitmaps,
                high_freq: &enc.high_freq,
                fallback: &enc.fallback,
            };
            assert_panels_match(view, base, what);
            enc.indicator()
        };
        // All-fallback: every value outside the exponent window.
        let all_fb: [Bf16; 64] = core::array::from_fn(|i| Bf16::from_f32(1.0 + i as f32));
        assert_eq!(check(&all_fb, 200, "all-fallback"), 0);
        // All-high-frequency, every codeword and both signs.
        let all_hf: [Bf16; 64] = core::array::from_fn(|i| {
            Bf16::from_parts(
                (i % 2) as u16,
                124 + (i % 7) as u16,
                ((i * 2) & 0x7F) as u16,
            )
        });
        assert_eq!(check(&all_hf, 123, "all-high-freq"), u64::MAX);
        // One high-frequency element at each position, fallback elsewhere.
        for pos in 0..FRAG_ELEMS {
            let mut tile = [Bf16::from_f32(-1e30); 64];
            tile[pos] = Bf16::from_parts(1, 125, 0x11);
            let indicator = check(&tile, 123, &format!("single at {pos}"));
            assert_eq!(indicator, 1 << pos);
        }
    }
}
