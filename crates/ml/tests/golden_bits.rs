//! Output bits of the three models, recorded at the commit before the
//! wide-vector kernel rewrite (c1f0b89). Kernel work in `pilot-ml` must not
//! change one bit of any score or weight: the constants below are FNV-1a
//! hashes over `f64::to_bits` of everything the per-message protocol
//! (`partial_fit` then `score`) produces over eight seeded 1000-point
//! blocks, and they may only change in a PR that says it changes the
//! arithmetic.

use pilot_datagen::{Block, DataGenConfig, DataGenerator};
use pilot_ml::{
    AutoEncoder, AutoEncoderConfig, Dataset, IsolationForest, IsolationForestConfig, KMeans,
    KMeansConfig, OutlierModel,
};

const KMEANS_SCORES: u64 = 0x06E8_7352_9329_80CA;
/// The forest's score is `(-e_h / c).exp2()`: one libm `exp2` call in every
/// build profile. (Written as `2f64.powf(x)` it was a `pow` call at
/// opt-level 0 that LLVM rewrote to `exp2` when optimising, and the two
/// differ in the last bit on some inputs; this is the optimised builds'
/// value.)
const ISOFOREST_SCORES: u64 = 0xDA72_F3C6_7AF5_DF24;
const AUTOENCODER_SCORES: u64 = 0x01A4_AD59_9273_FA3B;
const AUTOENCODER_WEIGHTS: u64 = 0x4B9E_68E4_F8B1_E374;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn stream() -> Vec<Block> {
    let mut generator = DataGenerator::new(DataGenConfig::paper(1000).with_seed(20_210_517));
    (0..8).map(|_| generator.next_block()).collect()
}

/// Hash of every score the model emits over the stream.
fn score_hash(model: &mut dyn OutlierModel) -> u64 {
    stream().iter().fold(FNV_OFFSET, |h, b| {
        let ds = Dataset::new(&b.data, b.points, b.features);
        model.partial_fit(&ds);
        fnv1a(h, &model.score(&ds))
    })
}

#[test]
fn kmeans_scores_match_recorded_bits() {
    let got = score_hash(&mut KMeans::new(KMeansConfig::paper()));
    assert_eq!(got, KMEANS_SCORES, "{got:#018X}");
}

#[test]
fn isoforest_scores_match_recorded_bits() {
    let mut model = IsolationForest::new(IsolationForestConfig::paper());
    assert_eq!(model.config().n_trees, 100);
    let got = score_hash(&mut model);
    assert_eq!(got, ISOFOREST_SCORES, "{got:#018X}");
}

#[test]
fn autoencoder_scores_and_weights_match_recorded_bits() {
    let mut model = AutoEncoder::new(AutoEncoderConfig::paper());
    let got = score_hash(&mut model);
    let w = fnv1a(FNV_OFFSET, &model.weights());
    assert_eq!(got, AUTOENCODER_SCORES, "{got:#018X} weights {w:#018X}");
    assert_eq!(w, AUTOENCODER_WEIGHTS, "{w:#018X}");
}
