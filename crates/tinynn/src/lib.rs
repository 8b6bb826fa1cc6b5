//! A from-scratch MLP training, compression and feature-selection library.
//!
//! This crate supplies everything the SSMDVFS models need — and nothing
//! more. The paper's networks are tiny (at most nine fully connected layers
//! of twenty ReLU neurons), so a dependency-free `f32` implementation trains
//! them in milliseconds while giving the compression pipeline (Section IV of
//! the paper) direct access to the weights:
//!
//! * [`Matrix`], [`Dense`], [`Mlp`] — the model itself, with dense and
//!   sparse FLOPs accounting;
//! * [`train_classifier`], [`train_regressor`] — offline supervised
//!   training: one sharded epoch loop for both heads, with the
//!   [`cross_entropy_shard_into`] and [`mse_shard_into`] losses and
//!   [`Adam`];
//! * [`prune_magnitude`], [`prune_neurons`], [`prune_two_stage`] — the
//!   paper's two-stage compression;
//! * [`QuantizedMlp`], [`Int8Net`] — INT8 weight quantization and the
//!   integer inference kernel;
//! * [`column_importance`] — the permutation-importance measurement behind
//!   the RFE feature selection of Table I;
//! * [`Normalizer`], [`ClassificationData`], [`RegressionData`] — dataset
//!   plumbing shared by offline training and the runtime controller;
//! * [`Pool`] — the workspace's one compute pool, a persistent worker team
//!   behind the sharded training loop, RFE and `ssmdvfs::exec`.
//!
//! # Examples
//!
//! Train a classifier and compress it:
//!
//! ```
//! use rand::SeedableRng;
//! use tinynn::{
//!     prune_two_stage, train_classifier, ClassificationData, Matrix, Mlp, Pool, TrainConfig,
//!     TrainScratch,
//! };
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // y = argmax over two features.
//! let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.9, 0.2], &[0.1, 0.8]]);
//! let data = ClassificationData::new(x, vec![0, 1, 0, 1], 2);
//! let (train, val) = data.split(0.5, &mut rng);
//! let mut mlp = Mlp::new(&[2, 8, 2], &mut rng);
//! let (config, mut scratch) = (TrainConfig::default(), TrainScratch::new());
//! train_classifier(&mut mlp, &train, &val, &config, None, &mut scratch, &Pool::serial());
//! let compact = prune_two_stage(&mlp, 0.5, 0.9);
//! assert!(compact.sparse_flops() <= mlp.flops());
//! ```

#![warn(missing_docs)]

mod data;
mod loss;
mod matrix;
mod metrics;
mod mlp;
mod optim;
pub mod par;
mod prune;
mod quant;
mod select;
mod train;

pub use data::{ClassificationData, Normalizer, RegressionData};
pub use loss::{
    cross_entropy_shard_into, cross_entropy_weighted_shard_into, mean_class_weight, mse_shard_into,
    softmax, softmax_in_place,
};
pub use matrix::Matrix;
pub use metrics::{accuracy, argmax, confusion_matrix, mape, mape_counted, mean_class_distance};
pub use mlp::{Activation, Dense, ForwardCache, Gradients, Mlp};
pub use optim::Adam;
pub use par::Pool;
pub use prune::{prune_magnitude, prune_neurons, prune_two_stage, ZeroMask};
pub use quant::{Int8Net, QuantizedMlp};
pub use select::{column_importance, splitmix64};
pub use train::{
    grad_shards, shard_span, train_classifier, train_regressor, TrainConfig, TrainReport,
    TrainScratch,
};
