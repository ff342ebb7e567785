//! # pilot-datagen — synthetic IoT data generation
//!
//! The Pilot-Edge paper generates its experimental data with the *Mini-App*
//! data generator of Luckow & Jha's StreamML work (paper ref. \[11\]):
//! messages of 25–10,000 points, each point with 32 features of 8 bytes,
//! giving serialized message sizes of ~7 KB to ~2.6 MB; 512 messages per run.
//! The data is a Gaussian mixture (the k-means workload uses 25 clusters,
//! matching the generator's 25 components) with injected outliers for the
//! outlier-detection models to find.
//!
//! This crate is the Rust equivalent:
//!
//! * [`DataGenConfig`] — message geometry (points × features), cluster count,
//!   outlier fraction, and an RNG seed for reproducibility.
//! * [`DataGenerator`] — streams [`Block`]s: row-major `f64` feature matrices
//!   with ground-truth outlier labels (labels travel out-of-band; they exist
//!   for model-quality tests, not for the pipeline hot path).
//! * [`wire`] — the binary wire format (fixed header + little-endian `f64`
//!   features) whose sizes reproduce the paper's 7 KB–2.6 MB range.
//! * [`RateLimiter`] — paces a producing loop at a target message rate.
//! * [`RatePattern`] / [`PatternedRate`] — time-varying arrival patterns
//!   (constant, burst, step) modelling the paper's workload dynamism.

pub mod codec;
pub mod config;
pub mod generator;
pub mod rate;
pub mod wire;
pub mod workload;

pub use codec::{decode_any, decode_any_into, encode_with, encode_with_into, Codec};
pub use config::DataGenConfig;
pub use generator::{Block, DataGenerator};
pub use rate::RateLimiter;
pub use wire::{
    decode, decode_into, encode, encode_into, serialized_size, WireError, HEADER_BYTES,
};
pub use workload::{PatternedRate, RatePattern};

/// The message sizes (points per message) swept by the paper's experiments:
/// "message sizes of 25 to 10,000 points with 32 features each".
pub const PAPER_MESSAGE_SIZES: [usize; 6] = [25, 100, 500, 1000, 5000, 10000];

/// Features per point in the paper's workload.
pub const PAPER_FEATURES: usize = 32;

/// Cluster count used by the paper's generator and its k-means model.
pub const PAPER_CLUSTERS: usize = 25;

/// Messages per experiment run in the paper.
pub const PAPER_MESSAGES_PER_RUN: usize = 512;
