//! `TinyLlm::generate` prefills the prompt into a KV cache and then runs
//! one-column steps. These tests hold it to the full-recompute oracle built
//! from the public `forward`: the argmax of the last logit column over the
//! growing sequence, token for token, on dense and compressed models.

use zipserv::serve::transformer::{TinyConfig, TinyLlm};

/// Greedy decoding by re-running `forward` over the whole sequence for
/// every new token.
fn recompute_oracle(model: &TinyLlm, prompt: &[u32], new_tokens: usize) -> Vec<u32> {
    let mut tokens = prompt.to_vec();
    for _ in 0..new_tokens {
        let logits = model.forward(&tokens);
        let last = tokens.len() - 1;
        let mut best = (0u32, f32::NEG_INFINITY);
        for v in 0..model.config().vocab {
            if logits[(v, last)] > best.1 {
                best = (v as u32, logits[(v, last)]);
            }
        }
        tokens.push(best.0);
    }
    tokens
}

/// The dense model of `config` and seed, or its compressed copy.
fn model(config: TinyConfig, seed: u64, compressed: bool) -> TinyLlm {
    let mut model = TinyLlm::random(config, seed);
    if compressed {
        model.compress_weights().expect("tileable layers");
    }
    model
}

/// Cached `generate(p, n)` equals the oracle for every prompt length
/// 1..=20 and every `n` in 0..=8. One oracle run of 8 tokens per prompt
/// covers every shorter `n`, since greedy decoding extends its own prefix.
fn assert_cached_matches_oracle(model: &TinyLlm) {
    const MAX_NEW: usize = 8;
    let vocab = model.config().vocab as u32;
    for len in 1..=20u32 {
        let prompt: Vec<u32> = (0..len).map(|i| (i * 37 + len * 11) % vocab).collect();
        let oracle = recompute_oracle(model, &prompt, MAX_NEW);
        for n in 0..=MAX_NEW {
            assert_eq!(
                model.generate(&prompt, n),
                oracle[..prompt.len() + n],
                "prompt length {len}, {n} new tokens"
            );
        }
    }
}

/// The benchmark's hidden size and head width (6 heads of 64), with one
/// layer and a narrow FFN and vocabulary so the sweep stays fast.
fn hidden_384() -> TinyConfig {
    TinyConfig {
        hidden: 384,
        heads: 6,
        layers: 1,
        ffn: 64,
        vocab: 64,
    }
}

#[test]
fn cached_generate_matches_recompute_on_small() {
    for compressed in [false, true] {
        assert_cached_matches_oracle(&model(TinyConfig::small(), 21, compressed));
    }
}

#[test]
fn cached_generate_matches_recompute_at_hidden_384_dense() {
    assert_cached_matches_oracle(&model(hidden_384(), 22, false));
}

#[test]
fn cached_generate_matches_recompute_at_hidden_384_compressed() {
    assert_cached_matches_oracle(&model(hidden_384(), 22, true));
}

#[test]
fn zero_new_tokens_returns_the_prompt() {
    let model = TinyLlm::random(TinyConfig::small(), 3);
    assert_eq!(model.generate(&[4, 5, 6], 0), vec![4, 5, 6]);
}

#[test]
#[should_panic(expected = "need at least one token")]
fn empty_prompt_panics() {
    let model = TinyLlm::random(TinyConfig::small(), 3);
    let _ = model.generate(&[], 1);
}

#[test]
#[should_panic(expected = "out of vocab")]
fn out_of_vocab_prompt_panics() {
    let model = TinyLlm::random(TinyConfig::small(), 3);
    let _ = model.generate(&[1, 9999], 2);
}
