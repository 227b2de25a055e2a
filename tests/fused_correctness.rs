//! The fused ZipGEMM must be *bitwise* identical to the dense reference
//! GEMM over the decompressed weights — the "bit-exact inference" claim.

use proptest::prelude::*;
use zipserv::bf16::{Bf16, Matrix};
use zipserv::kernels::gemm_ref;
use zipserv::tbe::{TbeCompressor, ZipGemm};

fn weight(scale: f32) -> impl Strategy<Value = Bf16> {
    (-1.0f32..1.0).prop_map(move |x| Bf16::from_f32(x * scale))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_matches_dense_bitwise(
        tm in 1usize..4,
        tk in 1usize..4,
        n in 1usize..9,
        seed in any::<u64>(),
    ) {
        let (m, k) = (tm * 8, tk * 8);
        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 40) as f32 / 16777216.0 - 0.5
        };
        let w = Matrix::from_fn(m, k, |_, _| Bf16::from_f32(next() * 0.1));
        let x = Matrix::from_fn(k, n, |_, _| Bf16::from_f32(next() * 2.0));

        let tbe = TbeCompressor::new().compress(&w).expect("tileable");
        let fused = ZipGemm::new().multiply(&tbe, &x);
        let dense = gemm_ref::gemm(&w, &x);
        for (a, b) in fused.as_slice().iter().zip(dense.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocked_parallel_and_reference_agree_bitwise(
        tm in 1usize..6,
        tk in 1usize..5,
        threads in 1usize..9,
        outlier_mod in 5u64..40,
        seed in any::<u64>(),
    ) {
        // The serial blocked path, the parallel blocked path (including
        // thread counts that do not divide the tile rows) and the naive
        // reference must agree bit for bit across random shapes and random
        // coverages (outlier_mod controls the fallback-path density). Every
        // n from zero columns to 40 runs, so each combination of the
        // 16/8/4/2/1-wide column blocks is covered.
        let (m, k) = (tm * 8, tk * 8);
        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let unit = |v: u64| (v >> 40) as f32 / 16777216.0 - 0.5;
        let w = Matrix::from_fn(m, k, |_, _| {
            let v = next();
            let scale = if v % outlier_mod == 0 { 300.0 } else { 0.1 };
            Bf16::from_f32(unit(v) * scale)
        });
        let tbe = TbeCompressor::new().compress(&w).expect("tileable");
        let kernel = ZipGemm::new();
        for n in 0..=40 {
            let x = Matrix::from_fn(k, n, |_, _| Bf16::from_f32(unit(next()) * 2.0));
            let blocked = kernel.multiply(&tbe, &x);
            let reference = kernel.multiply_reference(&tbe, &x);
            let parallel = kernel.multiply_parallel(&tbe, &x, threads);
            prop_assert_eq!((blocked.rows(), blocked.cols()), (m, n));
            prop_assert_eq!((parallel.rows(), parallel.cols()), (m, n));
            for ((a, b), c) in blocked
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .zip(parallel.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n={}", n);
                prop_assert_eq!(a.to_bits(), c.to_bits(), "n={}", n);
            }
        }
    }

    #[test]
    fn fused_handles_outlier_weights(weights in proptest::collection::vec(weight(100.0), 64..=64)) {
        // One 8x8 weight tile of large-magnitude values (mostly fallback
        // path), multiplied against an identity-ish activation.
        let w = Matrix::from_vec(8, 8, weights);
        let x = Matrix::from_fn(8, 8, |r, c| if r == c { Bf16::ONE } else { Bf16::ZERO });
        let tbe = TbeCompressor::new().compress(&w).expect("tileable");
        let y = ZipGemm::new().multiply(&tbe, &x);
        // W * I = W (each row sum is a single product with 1.0).
        for r in 0..8 {
            for c in 0..8 {
                prop_assert_eq!(y[(r, c)], w[(r, c)].to_f32());
            }
        }
    }
}

#[test]
fn bf16_output_path_matches() {
    let w = Matrix::from_fn(64, 64, |r, c| {
        Bf16::from_f32(((r * 64 + c) as f32).sin() * 0.02)
    });
    let x = Matrix::from_fn(64, 4, |r, c| Bf16::from_f32(((r + c) as f32).cos()));
    let tbe = TbeCompressor::new().compress(&w).expect("tileable");
    let fused = ZipGemm::new().multiply_bf16(&tbe, &x);
    let dense = gemm_ref::gemm_bf16(&w, &x);
    assert_eq!(fused, dense);
}
