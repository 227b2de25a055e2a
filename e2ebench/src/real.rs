//! The real compressed-model path, timed on the host: `tbe.compress`
//! (`TbeCompressor::compress`), `tbe.format` (`ModelArchive::to_bytes` /
//! `from_bytes`, the `.ztbe` container), `tbe.decompress`
//! (`TbeMatrix::decompress`), `tbe.zipgemm` (`ZipGemm::multiply`),
//! `kernels.gemm_ref` (`gemm_ref::gemm`) and `serve.transformer`
//! (`TinyLlm::forward` / `generate`).

use crate::cpus::Rotation;
use crate::report::{median, quantile, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use zipserv_bf16::gen::WeightGen;
use zipserv_bf16::{Bf16, Matrix};
use zipserv_core::format::archive::ModelArchive;
use zipserv_core::{TbeCompressor, TbeMatrix, ZipGemm};
use zipserv_kernels::gemm_ref;
use zipserv_serve::transformer::{TinyConfig, TinyLlm};

/// The five linear shapes of the model, in metric-name order.
const LINEARS: [&str; 5] = ["qkv", "o", "gate_up", "down", "lm_head"];

/// Request shapes of a round, `(prompt tokens, new tokens, requests per
/// round)`: two decode-heavy shapes, then three prefill-heavy ones. The
/// 8-token decode-heavy shape is sent three times a round: its decode steps
/// are the cheapest per token, so it sets `tpot_ms_p50` and gets the most
/// samples.
const SHAPES: [(usize, usize, usize); 5] =
    [(4, 3, 1), (8, 3, 3), (24, 1, 1), (36, 1, 1), (48, 1, 1)];

/// Requests in one round.
const ROUND: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < SHAPES.len() {
        n += SHAPES[i].2;
        i += 1;
    }
    n
};

/// The shapes that also run on the dense model, taking turns.
const DENSE_SHAPES: [usize; 2] = [1, 3];

/// Rounds between model set-ups.
const SETUP_EVERY: usize = 4;

/// Mean prompt length of the requests: the `P` of the `nP` metrics.
fn mean_prompt() -> usize {
    let total: usize = SHAPES.iter().map(|s| s.0 * s.2).sum();
    (total as f64 / ROUND as f64).round() as usize
}

/// A model and the requests a closed-loop client sends it.
///
/// The request list is `rounds` rounds, each holding every shape of
/// [`SHAPES`] as often as the shape says. The seed draws the token ids and shuffles each round, so
/// runs on different seeds measure the same amount of work.
#[derive(Debug, Clone, Copy)]
pub struct RealSpec {
    /// Model hyper-parameters.
    config: TinyConfig,
    rounds: usize,
    /// Rounds between requests that also run on the dense model.
    dense_every: usize,
}

impl RealSpec {
    /// `tinyllm_generate`: 8.3 MB of BF16 linear weights, about twice one
    /// core's L2. Fifteen rounds of seven requests leave 10 TTFT samples
    /// beyond p90.
    pub fn full(tiny: bool) -> Self {
        if tiny {
            return Self::companion(true);
        }
        RealSpec {
            config: TinyConfig {
                hidden: 384,
                heads: 6,
                layers: 2,
                ffn: 1032,
                vocab: 1536,
            },
            rounds: 15,
            // The dense model costs about 4x the compressed one here.
            dense_every: 4,
        }
    }

    /// The small model the simulator workloads run alongside the
    /// simulation, so that every workload reports every metric.
    pub fn companion(tiny: bool) -> Self {
        RealSpec {
            config: TinyConfig::small(),
            rounds: if tiny { 1 } else { 15 },
            dense_every: 1,
        }
    }

    /// The request list.
    fn requests(&self, rng: &mut StdRng) -> Vec<Req> {
        let mut out = Vec::with_capacity(self.rounds * ROUND);
        for round in 0..self.rounds {
            let dense = round
                .is_multiple_of(self.dense_every)
                .then(|| DENSE_SHAPES[(round / self.dense_every) % 2]);
            let mut reqs: Vec<Req> = Vec::with_capacity(ROUND);
            for (shape, &(prompt, new_tokens, count)) in SHAPES.iter().enumerate() {
                for copy in 0..count {
                    reqs.push(Req {
                        shape,
                        prompt: (0..prompt)
                            .map(|_| rng.gen_range(0..self.config.vocab) as u32)
                            .collect(),
                        new_tokens,
                        dense: copy == 0 && dense == Some(shape),
                    });
                }
            }
            // Fisher–Yates.
            for i in (1..reqs.len()).rev() {
                reqs.swap(i, rng.gen_range(0..i + 1));
            }
            out.extend(reqs);
        }
        out
    }
}

struct Req {
    /// Index into [`SHAPES`].
    shape: usize,
    prompt: Vec<u32>,
    new_tokens: usize,
    /// Whether the dense model also serves this request.
    dense: bool,
}

/// The model's linear weights by name, drawn exactly as `TinyLlm::random`
/// draws them (same σ, seeds and shapes), since the model keeps its
/// weights private.
fn linear_weights(config: TinyConfig, seed: u64) -> Vec<(String, Matrix<Bf16>)> {
    let (h, ffn) = (config.hidden, config.ffn);
    let sigma = (2.0 / h as f64).sqrt();
    let gen = |rows: usize, cols: usize, salt: u64| {
        WeightGen::new(sigma).seed(seed ^ salt).matrix(rows, cols)
    };
    let mut out = Vec::new();
    for l in 0..config.layers {
        let salt = (l as u64 + 1) << 16;
        out.push((format!("layers.{l}.qkv"), gen(3 * h, h, salt)));
        out.push((format!("layers.{l}.o"), gen(h, h, salt | 1)));
        out.push((format!("layers.{l}.gate_up"), gen(2 * ffn, h, salt | 2)));
        out.push((format!("layers.{l}.down"), gen(h, ffn, salt | 3)));
    }
    out.push(("lm_head".to_string(), gen(config.vocab, h, 0xF)));
    out
}

/// Compresses every weight into an archive; `None` if one is refused.
fn compress_all(weights: &[(String, Matrix<Bf16>)]) -> Option<ModelArchive> {
    let compressor = TbeCompressor::new();
    let mut archive = ModelArchive::new();
    for (name, w) in weights {
        archive.insert(name.clone(), compressor.compress(w).ok()?);
    }
    Some(archive)
}

/// The `.ztbe` round trip: bytes, the archive read back, write and read
/// times.
fn round_trip(archive: &ModelArchive) -> (usize, Option<ModelArchive>, Duration, Duration) {
    let t = Instant::now();
    let bytes = std::hint::black_box(archive.to_bytes());
    let write = t.elapsed();
    let t = Instant::now();
    let loaded = ModelArchive::from_bytes(&bytes).ok();
    let read = t.elapsed();
    (bytes.len(), loaded, write, read)
}

/// Checks that every tensor read back decompresses to its weights bit for
/// bit.
fn check_exact(
    loaded: Option<&ModelArchive>,
    weights: &[(String, Matrix<Bf16>)],
    report: &mut Report,
) {
    for (name, w) in weights {
        let exact = loaded
            .and_then(|a| a.get(name))
            .is_some_and(|m| m.decompress() == *w);
        report.check(
            exact,
            &format!(".ztbe tensor {name} decompresses bit-exact"),
        );
    }
}

/// What the end-to-end pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealE2e {
    /// Median model set-up: build, compress, `.ztbe` write and read.
    pub setup_s: f64,
    /// Median time to first token.
    pub ttft_ms_p50: f64,
    /// 90th-percentile time to first token.
    pub ttft_ms_p90: f64,
    /// Median time per output token after the first.
    pub tpot_ms_p50: f64,
    /// Compressed-model tokens per second of `generate`.
    pub tok_s: f64,
    /// Dense-model tokens per second of `generate` on the dense subset.
    pub dense_tok_s: f64,
    /// `.ztbe` bytes over raw BF16 bytes.
    pub ztbe_size_ratio: f64,
}

/// A built model pair and what building it cost.
struct Loaded {
    dense: TinyLlm,
    compressed: TinyLlm,
    setup: Duration,
    ratio: f64,
}

/// The model's linear weights and their compressed archive, the input of
/// every `.ztbe` round trip.
struct Weights {
    weights: Vec<(String, Matrix<Bf16>)>,
    archive: ModelArchive,
}

impl Weights {
    fn new(spec: &RealSpec, seed: u64, report: &mut Report) -> Self {
        let weights = linear_weights(spec.config, seed);
        let archive = compress_all(&weights);
        report.check(archive.is_some(), "every weight compresses for the archive");
        Weights {
            weights,
            archive: archive.unwrap_or_default(),
        }
    }
}

/// Builds the dense model, compresses it, and round-trips its weights
/// through `.ztbe`. Set-up time counts the build, `compress_weights` and
/// the round trip; drawing and compressing the archive's copy of the
/// weights is done once per run and left out, as the model already paid
/// for compressing them.
fn load(spec: &RealSpec, seed: u64, weights: &Weights, report: &mut Report) -> Loaded {
    let t = Instant::now();
    let dense = TinyLlm::random(spec.config, seed);
    let mut compressed = dense.clone();
    let ok = compressed.compress_weights().is_ok();
    let mut setup = t.elapsed();
    report.check(ok, "the model's weights compress");

    let (bytes, loaded, write, read) = round_trip(&weights.archive);
    setup += write + read;
    check_exact(loaded.as_ref(), &weights.weights, report);
    let raw: usize = weights.weights.iter().map(|(_, w)| w.len() * 2).sum();
    Loaded {
        dense,
        compressed,
        setup,
        ratio: bytes as f64 / raw as f64,
    }
}

/// Best times seen for one request shape, per call.
#[derive(Debug, Clone, Copy)]
struct Best {
    ttft: f64,
    full: f64,
    dense: f64,
}

/// The untraced end-to-end pass, a closed loop with one client: it sends
/// the request list round by round, over and over, rebuilding the model
/// before every [`SETUP_EVERY`]th round.
///
/// A request is timed as the best time seen for its shape over the whole
/// run. The model's arithmetic does not depend on token values, so every
/// request of one shape does the same work, and the best of many timings
/// spread over the run filters out the stalls that other tenants of the
/// machine cause, which last up to tens of seconds.
pub struct RealRun {
    spec: RealSpec,
    seed: u64,
    requests: Vec<Req>,
    best: Vec<Best>,
    next: usize,
    setups: Vec<f64>,
    ratio: f64,
    weights: Option<Weights>,
    model: Option<Loaded>,
    failed: u64,
    cpus: Rotation,
}

impl RealRun {
    /// Draws the request list from `seed`.
    pub fn new(spec: RealSpec, seed: u64) -> Self {
        let requests = spec.requests(&mut StdRng::seed_from_u64(seed));
        let inf = Best {
            ttft: f64::INFINITY,
            full: f64::INFINITY,
            dense: f64::INFINITY,
        };
        RealRun {
            spec,
            seed,
            best: vec![inf; SHAPES.len()],
            requests,
            next: 0,
            setups: Vec::new(),
            ratio: 0.0,
            weights: None,
            model: None,
            failed: 0,
            cpus: Rotation::default(),
        }
    }

    /// Passes completed over the whole request list.
    pub fn passes(&self) -> usize {
        self.next / self.requests.len()
    }

    /// The metrics, over every request sent, each at its shape's best times.
    pub fn finish(&self, report: &mut Report) -> RealE2e {
        let measured: Vec<(&Req, &Best)> = self.requests[..self.next.min(self.requests.len())]
            .iter()
            .map(|r| (r, &self.best[r.shape]))
            .collect();
        let ttft: Vec<f64> = measured.iter().map(|(_, b)| b.ttft * 1e3).collect();
        let tpot: Vec<f64> = measured
            .iter()
            .filter(|(r, _)| r.new_tokens > 1)
            .map(|(r, b)| (b.full - b.ttft) * 1e3 / (r.new_tokens - 1) as f64)
            .collect();
        let rate = |pairs: Vec<(usize, f64)>| {
            let tokens: usize = pairs.iter().map(|p| p.0).sum();
            tokens as f64 / pairs.iter().map(|p| p.1).sum::<f64>()
        };
        let dense: Vec<(usize, f64)> = measured
            .iter()
            .filter(|(r, _)| r.dense)
            .map(|(r, b)| (r.new_tokens, b.dense))
            .collect();
        report.note(format!(
            "real path: {} requests sent, {} succeeded, {} failed; {} requests of {} shapes x {} \
             passes ({} TTFT samples, {} TPOT samples, {} on the dense model too), P = {}, \
             hidden {}",
            self.next,
            self.next as u64 - self.failed,
            self.failed,
            self.requests.len(),
            SHAPES.len(),
            self.passes(),
            ttft.len(),
            tpot.len(),
            dense.len(),
            mean_prompt(),
            self.spec.config.hidden,
        ));
        RealE2e {
            setup_s: median(&self.setups),
            ttft_ms_p50: quantile(&ttft, 0.5),
            ttft_ms_p90: quantile(&ttft, 0.9),
            tpot_ms_p50: quantile(&tpot, 0.5),
            tok_s: rate(
                measured
                    .iter()
                    .map(|(r, b)| (r.new_tokens, b.full))
                    .collect(),
            ),
            dense_tok_s: rate(dense),
            ztbe_size_ratio: self.ratio,
        }
    }
}

impl crate::Unit for RealRun {
    /// Sends the next round of requests, setting the model up afresh before
    /// every [`SETUP_EVERY`]th round.
    fn step(&mut self, report: &mut Report) {
        let round = self.next / ROUND;
        if round.is_multiple_of(SETUP_EVERY) || self.model.is_none() {
            self.model = None;
            let weights = self
                .weights
                .get_or_insert_with(|| Weights::new(&self.spec, self.seed, report));
            let model = load(&self.spec, self.seed, weights, report);
            self.setups.push(model.setup.as_secs_f64());
            self.ratio = model.ratio;
            self.model = Some(model);
        }
        let Some(model) = &self.model else { return };
        // Set-up above spreads its compressor threads over every CPU; the
        // round's requests run on one CPU, the next round's on the next.
        self.cpus.pinned(|| {
            for _ in 0..ROUND {
                let i = self.next % self.requests.len();
                self.next += 1;
                let req = &self.requests[i];
                let best = &mut self.best[req.shape];
                let n = req.new_tokens;
                let t = Instant::now();
                let first = model.compressed.generate(&req.prompt, 1);
                let t_first = t.elapsed().as_secs_f64();
                let (full, t_full) = if n > 1 {
                    let t = Instant::now();
                    let full = model.compressed.generate(&req.prompt, n);
                    (full, t.elapsed().as_secs_f64())
                } else {
                    (first.clone(), t_first)
                };
                best.ttft = best.ttft.min(t_first);
                best.full = best.full.min(t_full);
                let mut ok = full.len() == req.prompt.len() + n && full.starts_with(&first);
                if req.dense {
                    let t = Instant::now();
                    let dense = model.dense.generate(&req.prompt, n);
                    best.dense = best.dense.min(t.elapsed().as_secs_f64());
                    ok &= dense == full;
                }
                report.check(ok, "generate is consistent and dense equals compressed");
                self.failed += u64::from(!ok);
            }
        });
    }

    /// Every request was sent at least once.
    fn enough(&self) -> bool {
        self.passes() >= 1
    }
}

/// Seeded BF16 activations, `rows × cols`.
fn activations(rows: usize, cols: usize, seed: u64) -> Matrix<Bf16> {
    WeightGen::new(1.0).seed(seed).matrix(rows, cols)
}

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The traced pass: every real-path layer metric, timed by calling each
/// layer's public entry point on the model's own weights.
pub fn layers(spec: &RealSpec, seed: u64, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let config = spec.config;
    let p = mean_prompt();
    let weights = linear_weights(config, seed);
    // Layer 0's four linears and the LM head: one of each shape.
    let picked: Vec<(&str, &Matrix<Bf16>)> = LINEARS
        .iter()
        .map(|&lin| {
            let name = if lin == "lm_head" {
                lin.to_string()
            } else {
                format!("layers.0.{lin}")
            };
            let w = &weights
                .iter()
                .find(|(n, _)| *n == name)
                .expect("every linear is drawn")
                .1;
            (lin, w)
        })
        .collect();
    let tbe: Vec<TbeMatrix> = picked
        .iter()
        .filter_map(|(_, w)| TbeCompressor::new().compress(w).ok())
        .collect();
    report.check(tbe.len() == picked.len(), "every linear compresses");
    let inputs: Vec<(Matrix<Bf16>, Matrix<Bf16>)> = picked
        .iter()
        .enumerate()
        .map(|(i, (_, w))| {
            let s = seed ^ ((i as u64 + 1) << 40);
            (activations(w.cols(), 1, s), activations(w.cols(), p, s ^ 1))
        })
        .collect();
    let mut model = TinyLlm::random(config, seed);
    report.check(
        model.compress_weights().is_ok(),
        "the model's weights compress",
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let prompt: Vec<u32> = (0..p)
        .map(|_| rng.gen_range(0..config.vocab) as u32)
        .collect();

    // Correctness once, outside the timed loop: fused ZipGEMM equals the
    // dense reference bit for bit, and decompression is exact.
    for (((_, w), m), (x1, xp)) in picked.iter().zip(&tbe).zip(&inputs) {
        let zip = ZipGemm::new();
        report.check(m.decompress() == **w, "decompress is bit-exact");
        report.check(
            bits(&zip.multiply(m, x1)) == bits(&gemm_ref::gemm(w, x1)),
            "ZipGEMM equals gemm_ref at N=1",
        );
        report.check(
            bits(&zip.multiply(m, xp)) == bits(&gemm_ref::gemm(w, xp)),
            "ZipGEMM equals gemm_ref at N=P",
        );
    }

    let raw_bytes: usize = weights.iter().map(|(_, w)| w.len() * 2).sum();
    let mut compress = Vec::new();
    let (mut write, mut read) = (Vec::new(), Vec::new());
    let mut ztbe_bytes = 0;
    let mut decode = vec![Vec::new(); LINEARS.len()];
    let mut zip = [
        vec![Vec::new(); LINEARS.len()],
        vec![Vec::new(); LINEARS.len()],
    ];
    let mut dense = [
        vec![Vec::new(); LINEARS.len()],
        vec![Vec::new(); LINEARS.len()],
    ];
    let mut forward = Vec::new();
    let mut reps = 0;
    while reps < 3 || start.elapsed() < budget {
        let mut archive = None;
        compress.push(ms(|| archive = compress_all(&weights)));
        let (bytes, loaded, w, r) = round_trip(&archive.unwrap_or_default());
        if reps == 0 {
            check_exact(loaded.as_ref(), &weights, report);
        }
        ztbe_bytes = bytes;
        write.push(w.as_secs_f64() * 1e3);
        read.push(r.as_secs_f64() * 1e3);
        for (i, (((_, w), m), (x1, xp))) in picked.iter().zip(&tbe).zip(&inputs).enumerate() {
            let kernel = ZipGemm::new();
            decode[i].push(ms(|| drop(std::hint::black_box(m.decompress()))));
            zip[0][i].push(ms(|| drop(std::hint::black_box(kernel.multiply(m, x1)))));
            zip[1][i].push(ms(|| drop(std::hint::black_box(kernel.multiply(m, xp)))));
            dense[0][i].push(ms(|| drop(std::hint::black_box(gemm_ref::gemm(w, x1)))));
            dense[1][i].push(ms(|| drop(std::hint::black_box(gemm_ref::gemm(w, xp)))));
        }
        forward.push(ms(|| drop(std::hint::black_box(model.forward(&prompt)))));
        reps += 1;
    }

    let compress_ms = median(&compress);
    report.put("tbe.compress_ms", compress_ms, "ms");
    report.put(
        "tbe.compress_mb_s",
        raw_bytes as f64 / 1e6 / (compress_ms / 1e3),
        "MB/s",
    );
    report.put("ztbe.write_ms", median(&write), "ms");
    report.put("ztbe.read_ms", median(&read), "ms");
    report.put("ztbe.bytes", ztbe_bytes as f64, "bytes");
    for (i, lin) in LINEARS.iter().enumerate() {
        report.put(format!("tbe.decode_ms.{lin}"), median(&decode[i]), "ms");
    }
    for (i, lin) in LINEARS.iter().enumerate() {
        report.put(format!("zipgemm.{lin}.n1_ms"), median(&zip[0][i]), "ms");
        report.put(format!("zipgemm.{lin}.nP_ms"), median(&zip[1][i]), "ms");
    }
    let sum = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).sum::<f64>();
    report.put("zipgemm.decode_share", sum(&decode) / sum(&zip[0]), "ratio");
    for (i, lin) in LINEARS.iter().enumerate() {
        report.put(format!("gemm_ref.{lin}.n1_ms"), median(&dense[0][i]), "ms");
        report.put(format!("gemm_ref.{lin}.nP_ms"), median(&dense[1][i]), "ms");
    }
    let forward_ms = median(&forward);
    report.put("tinyllm.forward_ms.nP", forward_ms, "ms");
    // Every block has one linear of each block shape; the LM head runs once.
    let block: f64 = (0..4).map(|i| median(&zip[1][i])).sum();
    let linear_ms = config.layers as f64 * block + median(&zip[1][4]);
    report.put("tinyllm.linear_share", linear_ms / forward_ms, "ratio");
    report.note(format!(
        "real-path layers: {reps} repetitions, P = {p}, hidden {}, ffn {}, vocab {}",
        config.hidden, config.ffn, config.vocab
    ));
}
