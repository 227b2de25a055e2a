//! The thread-local decompressor (Algorithm 2) and its batched variants.
//!
//! Three decoders share one bit-exact contract:
//!
//! * [`decode_tile_lanewise`] reproduces the GPU decode semantics exactly:
//!   32 simulated lanes each reconstruct the two elements of their
//!   Tensor-Core fragment slot using (1) the spatial indicator `B1|B2|B3`,
//!   (2) popcount dynamic addressing, and (3) implicit base-plus-code
//!   exponent lookup. It is the bit-exactness reference.
//! * [`decode_tile_lut`] is the portable table-driven decoder: the
//!   precomputed [`SPREAD`] lookup table turns the per-element plane
//!   extraction into branch-free table reads over 8-bit indicator windows
//!   (the pLUTo LUT-for-logic transform applied on CPU), and an ascending
//!   bit-scan scatter replaces per-element popcount addressing.
//! * [`decode_tile_simd`] is the hardware decoder. On x86-64 CPUs with
//!   AVX-512 F+BW+VBMI2 it decodes all 64 lanes at once: `vpexpandb` /
//!   `vpexpandw` expand-load the two value buffers along the indicator
//!   (popcount-prefix addressing as one instruction per buffer half),
//!   three mask-moves build the codes, and a saturating byte add computes
//!   the exponents before a blend picks each lane's path. Elsewhere it is
//!   [`decode_tile_lut`]. The CPU features are detected once per process
//!   ([`host_decode_path`] names the result); nothing else selects it.
//!
//! The same hardware core also writes the ZipGEMM `f32` panel directly
//! (each element's BF16 bits shifted left by 16, the exact widening), and
//! [`decompress`] runs on it too.
//!
//! **Exponent contract:** the reconstructed exponent is
//! `base_exp.saturating_add(c)`. Valid encodings can never exceed 255
//! (the codeword is defined as `c = e − base_exp`, so `base + c` is the
//! original exponent), which means saturation only triggers on corrupt or
//! hand-crafted bitmaps — and then it pins the exponent at 255 (an
//! Inf/NaN-range BF16) instead of silently wrapping into a tiny exponent
//! that decodes to a plausible-looking wrong value. All three paths apply
//! the identical rule.
//!
//! A per-tile [`DecodeCost`] records the instruction mix the GPU model
//! prices, one mix per [`DecodePath`].

use crate::format::fragment::{fallback_index, high_freq_index, lane_positions, LANES};
use crate::format::layout::{TbeMatrix, TileView};
use crate::format::{FRAG_DIM, FRAG_ELEMS};
use zipserv_bf16::{Bf16, Matrix};

/// Windows per FragTile: the 64-bit indicator is consumed as 8 bytes.
const WINDOWS: usize = 8;

const fn build_spread() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut spread = 0u64;
        let mut bit = 0;
        while bit < 8 {
            spread |= (((byte >> bit) & 1) as u64) << (8 * bit);
            bit += 1;
        }
        table[byte] = spread;
        byte += 1;
    }
    table
}

/// Bit-spread table: bit `j` of the index byte lands in bit `8*j` (the low
/// bit of byte `j`) of the result. ORing three shifted spreads reconstructs
/// all eight 3-bit codewords of one indicator window in three table reads.
pub static SPREAD: [u64; 256] = build_spread();

/// Decodes one FragTile exactly as a warp would: lane by lane, register
/// pair by register pair.
///
/// Returns the 64 elements in row-major tile order. This is the
/// bit-exactness reference for [`decode_tile_lut`] and
/// [`decode_tile_simd`].
pub fn decode_tile_lanewise(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    // Step 1: spatial indicator construction (one warp-wide OR).
    let indicator = view.bitmaps[0] | view.bitmaps[1] | view.bitmaps[2];

    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for lane in 0..LANES {
        let (p0, p1) = lane_positions(lane);
        for p in [p0, p1] {
            // Step 2: parallel element decompression.
            if (indicator >> p) & 1 == 1 {
                // Case A: high-frequency path.
                let idx = high_freq_index(indicator, p);
                let packed = view.high_freq[idx];
                // Reconstruct the 3-bit code from the bit planes.
                let c = (((view.bitmaps[0] >> p) & 1)
                    | (((view.bitmaps[1] >> p) & 1) << 1)
                    | (((view.bitmaps[2] >> p) & 1) << 2)) as u8;
                // Implicit lookup: exponent = base + code (saturating; see
                // the module-level exponent contract).
                let e = base_exp.saturating_add(c);
                out[p] = Bf16::from_packed(packed, e);
            } else {
                // Case B: fallback path.
                let idx = fallback_index(indicator, p);
                out[p] = Bf16::from_bits(view.fallback[idx]);
            }
        }
    }
    out
}

/// All-fallback fast path (`indicator == 0`): the tile is a straight copy
/// of 64 full-precision values.
#[inline]
fn decode_all_fallback(view: TileView<'_>) -> [Bf16; FRAG_ELEMS] {
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for (slot, &bits) in out.iter_mut().zip(&view.fallback[..FRAG_ELEMS]) {
        *slot = Bf16::from_bits(bits);
    }
    out
}

/// All-high-frequency fast path (`indicator == u64::MAX`): every element
/// sits at its own position in `high_freq`, so addressing is the identity.
#[inline]
fn decode_all_high_freq(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    let [b0, b1, b2] = *view.bitmaps;
    let hf = &view.high_freq[..FRAG_ELEMS];
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for w in 0..WINDOWS {
        let codes = (SPREAD[(b0 >> (8 * w)) as u8 as usize]
            | (SPREAD[(b1 >> (8 * w)) as u8 as usize] << 1)
            | (SPREAD[(b2 >> (8 * w)) as u8 as usize] << 2))
            .to_le_bytes();
        for (j, &c) in codes.iter().enumerate() {
            let p = 8 * w + j;
            out[p] = Bf16::from_packed(hf[p], base_exp.saturating_add(c));
        }
    }
    out
}

/// Table-driven FragTile decode: the portable path the blocked ZipGEMM,
/// [`decompress`] and [`decode_tile_simd`] fall back to on CPUs without the
/// hardware decoder.
///
/// Per 8-bit indicator window, three [`SPREAD`] reads reconstruct all eight
/// 3-bit codewords at once — the plane extraction becomes three table reads
/// instead of three shift/mask/merge chains per element. Addressing then
/// exploits that both value buffers are stored in ascending position
/// order: walking the set (resp. clear) indicator bits in ascending order
/// *is* the popcount-prefix order, so a bit-scan scatter consumes each
/// buffer sequentially with no per-element popcount, no index clamping and
/// no data-dependent branch (each loop's trip count is a buffer length).
/// Bitwise identical to [`decode_tile_lanewise`] for every valid tile view.
///
/// # Panics
///
/// Panics (like the lanewise path) if a value buffer is shorter than the
/// indicator's population count demands.
pub fn decode_tile_lut(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    let [b0, b1, b2] = *view.bitmaps;
    let indicator = b0 | b1 | b2;

    // Degenerate tiles skip dynamic addressing entirely.
    if indicator == 0 {
        return decode_all_fallback(view);
    }
    if indicator == u64::MAX {
        return decode_all_high_freq(view, base_exp);
    }

    // Pass 1: spread the three bit planes into one code byte per element
    // (three SPREAD reads per 8-element window).
    let mut codes = [0u8; FRAG_ELEMS];
    for w in 0..WINDOWS {
        let spread = SPREAD[(b0 >> (8 * w)) as u8 as usize]
            | (SPREAD[(b1 >> (8 * w)) as u8 as usize] << 1)
            | (SPREAD[(b2 >> (8 * w)) as u8 as usize] << 2);
        codes[8 * w..8 * w + 8].copy_from_slice(&spread.to_le_bytes());
    }

    // Pass 2+3: scatter both buffers along their bit masks. Slicing up
    // front hoists the bounds checks out of the loops (and still panics on
    // corrupt undersized buffers, matching the lanewise path).
    let n_hf = indicator.count_ones() as usize;
    let hf = &view.high_freq[..n_hf];
    let fb = &view.fallback[..FRAG_ELEMS - n_hf];
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    let mut zeros = !indicator;
    for &bits in fb {
        let p = zeros.trailing_zeros() as usize & 63;
        out[p] = Bf16::from_bits(bits);
        zeros &= zeros - 1;
    }
    let mut ones = indicator;
    for &packed in hf {
        let p = ones.trailing_zeros() as usize & 63;
        out[p] = Bf16::from_packed(packed, base_exp.saturating_add(codes[p]));
        ones &= ones - 1;
    }
    out
}

/// Where a decode writes its 64 row-major elements: a BF16 tile, or the
/// ZipGEMM `f32` panel (each element's bits shifted left by 16, which is
/// exactly `Bf16::to_f32`).
pub(crate) enum TileOut<'a> {
    Bf16(&'a mut [Bf16; FRAG_ELEMS]),
    F32(&'a mut [f32; FRAG_ELEMS]),
}

impl TileOut<'_> {
    /// Writes an already-decoded tile.
    fn write(self, tile: &[Bf16; FRAG_ELEMS]) {
        match self {
            TileOut::Bf16(out) => *out = *tile,
            TileOut::F32(out) => {
                for (o, v) in out.iter_mut().zip(tile) {
                    *o = v.to_f32();
                }
            }
        }
    }
}

/// Decodes one FragTile into `out` on the host's decoder: the AVX-512
/// core when the CPU has F+BW+VBMI2, [`decode_tile_lut_into`] otherwise.
///
/// # Panics
///
/// Panics (like [`decode_tile_lut`]) if a value buffer is shorter than the
/// indicator's population count demands.
pub(crate) fn decode_tile_into(view: TileView<'_>, base_exp: u8, out: TileOut<'_>) {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        let [b0, b1, b2] = *view.bitmaps;
        let n_hf = (b0 | b1 | b2).count_ones() as usize;
        let hf = &view.high_freq[..n_hf];
        let fb = &view.fallback[..FRAG_ELEMS - n_hf];
        // SAFETY: `available()` detected AVX-512 F, BW and VBMI2 on this
        // CPU, and the slicing above (which panics otherwise) proves `hf`
        // holds the `popcount(indicator)` bytes and `fb` the
        // `64 - popcount(indicator)` values the expand-loads read.
        unsafe { avx512::decode(view.bitmaps, hf, fb, base_exp, out) };
        return;
    }
    decode_tile_lut_into(view, base_exp, out);
}

/// The portable half of [`decode_tile_into`]: [`decode_tile_lut`], then a
/// copy (or the BF16→f32 widening) into `out`.
pub(crate) fn decode_tile_lut_into(view: TileView<'_>, base_exp: u8, out: TileOut<'_>) {
    out.write(&decode_tile_lut(view, base_exp));
}

/// The decoder [`decode_tile_simd`], [`decompress`] and the ZipGEMM panel
/// run on this host: `"avx512vbmi2"` or `"lut"`. Detected once per process
/// from the CPU's features.
pub fn host_decode_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        return "avx512vbmi2";
    }
    "lut"
}

/// Hardware FragTile decode: all 64 lanes in a handful of AVX-512
/// instructions on CPUs with F+BW+VBMI2, [`decode_tile_lut`] elsewhere.
///
/// Constant-time like the GPU kernel: no branch on the indicator, no
/// degenerate-tile special cases. Bitwise identical to
/// [`decode_tile_lanewise`] for every valid tile view.
///
/// # Panics
///
/// Panics (like the other paths) if a value buffer is shorter than the
/// indicator's population count demands; it never reads past a slice.
pub fn decode_tile_simd(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    decode_tile_into(view, base_exp, TileOut::Bf16(&mut out));
    out
}

/// The AVX-512 decode core. The only code in the crate that carries a
/// `#[target_feature]` or is `unsafe`; callers reach it through
/// [`decode_tile_into`], which checks the CPU and the buffer lengths.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::TileOut;
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this CPU has AVX-512 F, BW and VBMI2, detected on first use
    /// and cached for the process.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi2")
        })
    }

    /// Decodes one FragTile into `out`.
    ///
    /// Lane `p` of the expand-loads receives the buffer entry at the
    /// popcount of the mask bits below `p` — Algorithm 2's dynamic
    /// addressing for all lanes at once — and zero where its mask bit is
    /// clear. The fallback `u16`s load as two 32-lane halves.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW and VBMI2. With `ind` the OR of
    /// the three bitmaps, `high_freq` must hold at least `ind.count_ones()`
    /// bytes and `fallback` at least `64 - ind.count_ones()` values.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
    pub(super) unsafe fn decode(
        bitmaps: &[u64; 3],
        high_freq: &[u8],
        fallback: &[u16],
        base_exp: u8,
        out: TileOut<'_>,
    ) {
        let [b0, b1, b2] = *bitmaps;
        let ind = b0 | b1 | b2;
        let packed = _mm512_maskz_expandloadu_epi8(ind, high_freq.as_ptr().cast());
        let fb_mask = [!ind as u32, (!ind >> 32) as u32];
        let fb_lo = _mm512_maskz_expandloadu_epi16(fb_mask[0], fallback.as_ptr().cast());
        let fb_hi = _mm512_maskz_expandloadu_epi16(
            fb_mask[1],
            fallback
                .as_ptr()
                .add(fb_mask[0].count_ones() as usize)
                .cast(),
        );

        // code = B1 | B2 << 1 | B3 << 2 per byte lane, exponent = base + code
        // (saturating, the module's exponent contract).
        let code = _mm512_or_si512(
            _mm512_maskz_mov_epi8(b0, _mm512_set1_epi8(1)),
            _mm512_or_si512(
                _mm512_maskz_mov_epi8(b1, _mm512_set1_epi8(2)),
                _mm512_maskz_mov_epi8(b2, _mm512_set1_epi8(4)),
            ),
        );
        let exp = _mm512_adds_epu8(_mm512_set1_epi8(base_exp as i8), code);

        // BF16 = sign << 15 | exp << 7 | mantissa, in two 32-lane halves,
        // blended with the fallback values along the indicator.
        let half = |p8: __m256i, e8: __m256i, fb: __m512i, mask: u32| {
            let p = _mm512_cvtepu8_epi16(p8);
            let e = _mm512_cvtepu8_epi16(e8);
            let hf = _mm512_or_si512(
                _mm512_slli_epi16::<8>(_mm512_and_si512(p, _mm512_set1_epi16(0x80))),
                _mm512_or_si512(
                    _mm512_slli_epi16::<7>(e),
                    _mm512_and_si512(p, _mm512_set1_epi16(0x7F)),
                ),
            );
            _mm512_mask_blend_epi16(mask, fb, hf)
        };
        let bits = [
            half(
                _mm512_castsi512_si256(packed),
                _mm512_castsi512_si256(exp),
                fb_lo,
                ind as u32,
            ),
            half(
                _mm512_extracti64x4_epi64::<1>(packed),
                _mm512_extracti64x4_epi64::<1>(exp),
                fb_hi,
                (ind >> 32) as u32,
            ),
        ];

        match out {
            TileOut::Bf16(out) => {
                let dst = out.as_mut_ptr().cast::<__m512i>();
                _mm512_storeu_si512(dst, bits[0]);
                _mm512_storeu_si512(dst.add(1), bits[1]);
            }
            TileOut::F32(out) => {
                let dst = out.as_mut_ptr().cast::<__m512i>();
                for (h, &b) in bits.iter().enumerate() {
                    let lo = _mm512_cvtepu16_epi32(_mm512_castsi512_si256(b));
                    let hi = _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64::<1>(b));
                    _mm512_storeu_si512(dst.add(2 * h), _mm512_slli_epi32::<16>(lo));
                    _mm512_storeu_si512(dst.add(2 * h + 1), _mm512_slli_epi32::<16>(hi));
                }
            }
        }
    }
}

/// Decompresses a whole [`TbeMatrix`] bit-exactly on the host's
/// [`decode_tile_simd`] path.
pub fn decompress(tbe: &TbeMatrix) -> Matrix<Bf16> {
    let mut out = Matrix::zeros(tbe.rows(), tbe.cols());
    for tr in 0..tbe.rows() / FRAG_DIM {
        for tc in 0..tbe.cols() / FRAG_DIM {
            let tile = decode_tile_simd(tbe.tile_view(tbe.tile_seq(tr, tc)), tbe.base_exp());
            out.set_tile(tr, tc, &tile);
        }
    }
    out
}

/// Which decoder implementation a GPU kernel profile prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePath {
    /// The branchy per-lane Algorithm-2 decode (bit-exactness reference).
    #[default]
    Lanewise,
    /// The table-driven window decode (bit-spread and prefix-popcount table
    /// reads replace per-element popcount and plane-extract logic).
    Lut,
}

/// Per-element instruction cost of a decode path, used to build GPU kernel
/// profiles (Figure 12's LOP3/IADD/POPC workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCost {
    /// Three-input logic ops per element (plane extract + BF16 assembly).
    pub lop3: u64,
    /// Integer adds per element (mask build + implicit lookup + indexing).
    pub iadd: u64,
    /// Population counts per element (dynamic addressing).
    pub popc: u64,
    /// Shifts per element (bit extraction).
    pub shift: u64,
    /// Selects per element (path predicate).
    pub sel: u64,
    /// Shared-memory transactions per FragTile (bitmaps + value slices,
    /// plus lookup-table reads on the LUT path).
    pub lds_per_tile: u64,
}

impl DecodeCost {
    /// The calibrated per-element cost of the lanewise TCA-TBE decompressor.
    ///
    /// Counts follow Algorithm 2 directly: one popcount for addressing, two
    /// shifts + two LOP3 to gather the codeword bits, one LOP3 to merge
    /// sign/mantissa/exponent, two IADD for the mask and implicit lookup,
    /// one select for the A/B path.
    pub const TCA_TBE: DecodeCost = DecodeCost {
        lop3: 3,
        iadd: 2,
        popc: 1,
        shift: 2,
        sel: 1,
        lds_per_tile: 5,
    };

    /// The per-element cost of the table-driven decode path.
    ///
    /// The bit-spread and prefix-popcount tables absorb the popcount and the plane-extract
    /// LOP3/shift pairs: what remains per element is one LOP3 (BF16
    /// assembly), two IADD (index base + implicit lookup), one shift
    /// (nibble extract) and the path select — 5 scalar ops instead of 9.
    /// The tables are not free: 4 table reads per 8-element window add 32
    /// shared-memory transactions per tile on top of the baseline 5.
    pub const TCA_TBE_LUT: DecodeCost = DecodeCost {
        lop3: 1,
        iadd: 2,
        popc: 0,
        shift: 1,
        sel: 1,
        lds_per_tile: 37,
    };

    /// The calibrated cost for a [`DecodePath`].
    pub const fn for_path(path: DecodePath) -> DecodeCost {
        match path {
            DecodePath::Lanewise => DecodeCost::TCA_TBE,
            DecodePath::Lut => DecodeCost::TCA_TBE_LUT,
        }
    }

    /// Total priced scalar ops per element (excluding shared-memory).
    pub fn ops_per_element(&self) -> u64 {
        self.lop3 + self.iadd + self.popc + self.shift + self.sel
    }

    /// Tile decodes one pass over `tiles` FragTiles performs.
    ///
    /// With per-tile decode caching (`cached == true`, the blocked ZipGEMM)
    /// each FragTile is decoded exactly **once per pass**, no matter how
    /// many of the `n_blocks` output `N`-blocks consume it. Without caching
    /// every consuming block re-decodes the tile — the per-*use* accounting
    /// the cost model used to assume implicitly. The count is a property of
    /// the caching discipline, not of the [`DecodePath`]: both paths decode
    /// the same tiles the same number of times.
    pub fn tile_decodes(tiles: u64, n_blocks: u64, cached: bool) -> u64 {
        if cached {
            tiles
        } else {
            tiles * n_blocks.max(1)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use crate::format::tile::EncodedTile;
    use zipserv_bf16::gen::WeightGen;

    fn encode_view(tile: &EncodedTile) -> TileView<'_> {
        TileView {
            bitmaps: &tile.bitmaps,
            high_freq: &tile.high_freq,
            fallback: &tile.fallback,
        }
    }

    fn all_paths(view: TileView<'_>, base: u8) -> [[Bf16; FRAG_ELEMS]; 3] {
        [
            decode_tile_lanewise(view, base),
            decode_tile_lut(view, base),
            decode_tile_simd(view, base),
        ]
    }

    #[test]
    fn lanewise_decode_matches_reference_decode() {
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            if i % 7 == 0 {
                Bf16::from_f32(1e30)
            } else {
                Bf16::from_f32(0.01 + i as f32 * 0.002)
            }
        });
        let base = Bf16::from_f32(0.02).exponent() - 4;
        let enc = EncodedTile::encode(&weights, base);
        let lanewise = decode_tile_lanewise(encode_view(&enc), base);
        let reference = enc.decode(base);
        assert_eq!(lanewise, reference);
        assert_eq!(lanewise, weights);
    }

    #[test]
    fn lut_and_simd_match_lanewise_on_mixed_tile() {
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            if i % 7 == 0 {
                Bf16::from_f32(1e30)
            } else {
                Bf16::from_f32(0.01 + i as f32 * 0.002)
            }
        });
        let base = Bf16::from_f32(0.02).exponent() - 4;
        let enc = EncodedTile::encode(&weights, base);
        let [lanewise, lut, simd] = all_paths(encode_view(&enc), base);
        assert_eq!(lanewise, lut);
        assert_eq!(lanewise, simd);
        assert_eq!(lut, weights);
    }

    #[test]
    fn spread_table_is_consistent() {
        for b in [0usize, 1, 0x55, 0x80, 0xFF, 0xA3] {
            let spread = SPREAD[b];
            for j in 0..8 {
                assert_eq!((spread >> (8 * j)) & 0xFF, ((b >> j) & 1) as u64);
            }
        }
    }

    #[test]
    fn paper_worked_example_thread_19() {
        // §4.3.2: thread 19's a0 is position 38. Build a tile where position
        // 38 carries codeword 101 (5) with base exponent 115 -> exponent 120.
        let mut weights = [Bf16::from_bits(0); 64];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = if i == 38 {
                Bf16::from_parts(0, 120, 0x55)
            } else {
                Bf16::from_bits(0x0042) // exponent 0 -> fallback
            };
        }
        let enc = EncodedTile::encode(&weights, 115);
        assert_eq!(enc.codeword(38), 0b101);
        for dec in all_paths(encode_view(&enc), 115) {
            assert_eq!(dec[38].exponent(), 120);
            assert_eq!(dec, weights);
        }
    }

    #[test]
    fn exponent_saturates_instead_of_wrapping() {
        // Crafted bitmaps no valid encoder would emit: base_exp near the
        // top of the u8 range with codewords that push past 255. The
        // contract pins the exponent at 255 (Inf/NaN range) on every path
        // instead of wrapping into a tiny exponent.
        for base in 250u8..=255 {
            // All 64 elements carry codeword 0b101 (= 5).
            let bitmaps = [u64::MAX, 0, u64::MAX];
            let high_freq: Vec<u8> = (0..64).map(|i| i as u8).collect();
            let fallback: Vec<u16> = Vec::new();
            let view = TileView {
                bitmaps: &bitmaps,
                high_freq: &high_freq,
                fallback: &fallback,
            };
            let expect_exp = base.saturating_add(5);
            let [lanewise, lut, simd] = all_paths(view, base);
            assert_eq!(lanewise, lut, "base={base}");
            assert_eq!(lanewise, simd, "base={base}");
            for (i, v) in lanewise.iter().enumerate() {
                assert_eq!(v.exponent(), expect_exp, "base={base} elem={i}");
                assert_eq!(
                    *v,
                    Bf16::from_packed(i as u8, expect_exp),
                    "base={base} elem={i}"
                );
            }
            if base >= 251 {
                assert_eq!(expect_exp, 255, "saturated at the top");
            }
        }
    }

    #[test]
    fn reference_decode_shares_the_saturation_contract() {
        // EncodedTile::decode must agree with the lanewise path on crafted
        // overflow tiles, not just on encoder output.
        let enc = EncodedTile {
            bitmaps: [u64::MAX, u64::MAX, u64::MAX], // codeword 7 everywhere
            high_freq: (0..64).map(|i| i as u8).collect(),
            fallback: Vec::new(),
        };
        for base in 250u8..=255 {
            let reference = enc.decode(base);
            let lanewise = decode_tile_lanewise(encode_view(&enc), base);
            assert_eq!(reference, lanewise, "base={base}");
            assert_eq!(reference[0].exponent(), base.saturating_add(7));
        }
    }

    #[test]
    fn degenerate_tiles_hit_fast_paths() {
        // All-fallback (indicator == 0).
        let weights: [Bf16; 64] = core::array::from_fn(|i| Bf16::from_f32(1.0 + i as f32));
        let enc = EncodedTile::encode(&weights, 200);
        assert_eq!(enc.indicator(), 0);
        let [lanewise, lut, simd] = all_paths(encode_view(&enc), 200);
        assert_eq!(lanewise, lut);
        assert_eq!(lanewise, simd);
        assert_eq!(lut, weights);

        // All-high-freq (indicator == all ones).
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            Bf16::from_parts(
                (i % 2) as u16,
                124 + (i % 7) as u16,
                ((i * 2) & 0x7F) as u16,
            )
        });
        let enc = EncodedTile::encode(&weights, 123);
        assert_eq!(enc.indicator(), u64::MAX);
        let [lanewise, lut, simd] = all_paths(encode_view(&enc), 123);
        assert_eq!(lanewise, lut);
        assert_eq!(lanewise, simd);
        assert_eq!(lut, weights);
    }

    #[test]
    fn single_element_tiles_at_the_corners() {
        // Exactly one high-freq element, at position 0 and at position 63 —
        // the windows an LUT path most easily gets wrong.
        for pos in [0usize, 63] {
            let mut weights = [Bf16::from_f32(1e30); 64]; // fallback filler
            weights[pos] = Bf16::from_parts(0, 125, 0x11);
            let enc = EncodedTile::encode(&weights, 123);
            assert_eq!(enc.high_freq_count(), 1, "pos={pos}");
            let [lanewise, lut, simd] = all_paths(encode_view(&enc), 123);
            assert_eq!(lanewise, lut, "pos={pos}");
            assert_eq!(lanewise, simd, "pos={pos}");
            assert_eq!(lut, weights, "pos={pos}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn simd_decode_rejects_undersized_high_freq() {
        // 64 high-frequency elements demanded, 63 supplied: the decode must
        // panic before any expand-load could read past the slice.
        let bitmaps = [u64::MAX, 0, 0];
        let high_freq = [0u8; 63];
        let view = TileView {
            bitmaps: &bitmaps,
            high_freq: &high_freq,
            fallback: &[],
        };
        let _ = decode_tile_simd(view, 120);
    }

    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn simd_decode_rejects_undersized_fallback() {
        // One high-frequency element, so 63 fallback values demanded; only
        // 40 supplied (short in the upper 32-lane half).
        let bitmaps = [1, 0, 0];
        let fallback = [0x3F80u16; 40];
        let view = TileView {
            bitmaps: &bitmaps,
            high_freq: &[7],
            fallback: &fallback,
        };
        let _ = decode_tile_simd(view, 120);
    }

    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn lut_decode_rejects_undersized_all_fallback_tile() {
        // The all-fallback fast path used to zip over the short buffer and
        // leave the missing elements zero instead of panicking.
        let fallback = [0x3F80u16; 10];
        let view = TileView {
            bitmaps: &[0; 3],
            high_freq: &[],
            fallback: &fallback,
        };
        let _ = decode_tile_lut(view, 120);
    }

    #[test]
    fn full_matrix_decompress_is_bit_exact() {
        let w = WeightGen::new(0.018).seed(21).matrix(192, 320);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let out = decompress(&tbe);
        assert_eq!(out, w);
    }

    #[test]
    fn ragged_block_shapes_roundtrip() {
        // Shapes that exercise partial BlockTiles and TensorCoreTiles.
        for (r, c) in [(8, 8), (8, 64), (64, 8), (72, 40), (136, 200)] {
            let w = WeightGen::new(0.02).seed(5).matrix(r, c);
            let tbe = TbeCompressor::new().compress(&w).unwrap();
            assert_eq!(decompress(&tbe), w, "{r}x{c}");
        }
    }

    #[test]
    fn matrix_tiles_agree_across_paths() {
        // Every tile of a real compressed matrix decodes identically on all
        // three paths (exercises padded block-boundary views).
        let w = WeightGen::new(0.018).seed(33).matrix(128, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for seq in 0..tbe.tile_count() {
            let view = tbe.tile_view(seq);
            let [lanewise, lut, simd] = all_paths(view, tbe.base_exp());
            assert_eq!(lanewise, lut, "seq={seq}");
            assert_eq!(lanewise, simd, "seq={seq}");
        }
    }

    #[test]
    fn decode_cost_constants() {
        let c = DecodeCost::TCA_TBE;
        assert_eq!(c.ops_per_element(), 9);
        assert!(c.popc == 1 && c.lds_per_tile == 5);
        let l = DecodeCost::TCA_TBE_LUT;
        assert_eq!(l.ops_per_element(), 5);
        assert!(l.popc == 0, "popcount is absorbed by the prefix table");
        assert_eq!(l.lds_per_tile, 37, "4 table reads x 8 windows + baseline 5");
        assert_eq!(DecodeCost::for_path(DecodePath::Lanewise), c);
        assert_eq!(DecodeCost::for_path(DecodePath::Lut), l);
        assert_eq!(DecodePath::default(), DecodePath::Lanewise);
    }

    #[test]
    fn cached_decodes_are_per_tile_per_pass() {
        // Cached: one decode per tile regardless of how many N-blocks use it.
        assert_eq!(DecodeCost::tile_decodes(100, 1, true), 100);
        assert_eq!(DecodeCost::tile_decodes(100, 8, true), 100);
        // Uncached: one decode per tile per consuming block.
        assert_eq!(DecodeCost::tile_decodes(100, 8, false), 800);
        // A pass with no consumers still decodes each tile once (pure
        // decompression).
        assert_eq!(DecodeCost::tile_decodes(100, 0, false), 100);
    }
}
