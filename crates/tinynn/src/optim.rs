//! The Adam optimizer.

use serde::{Deserialize, Serialize};

use crate::mlp::{Gradients, Mlp};

/// Adam (Kingma & Ba, 2015).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Epsilon for numerical stability.
    pub eps: f32,
    t: u64,
    moments: Vec<AdamMoments>,
}

/// Per-layer Adam state: first/second moments for weights, then biases.
type AdamMoments = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

impl Adam {
    /// Creates an Adam optimizer with the standard β parameters.
    pub fn new(lr: f32) -> Adam {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, moments: Vec::new() }
    }

    /// Applies one update step of `grads` to `mlp`.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes do not match the model.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &Gradients) {
        if self.moments.is_empty() {
            self.moments = grads
                .layers
                .iter()
                .map(|(dw, db)| {
                    (
                        vec![0.0; dw.as_slice().len()],
                        vec![0.0; dw.as_slice().len()],
                        vec![0.0; db.len()],
                        vec![0.0; db.len()],
                    )
                })
                .collect();
        }
        assert_eq!(grads.layers.len(), mlp.layers().len(), "gradient/model layer mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (l, (dw, db)) in grads.layers.iter().enumerate() {
            let (mw, vw, mb, vb) = &mut self.moments[l];
            let layer = &mut mlp.layers_mut()[l];
            for (((w, m), v), g) in layer
                .w
                .as_mut_slice()
                .iter_mut()
                .zip(mw.iter_mut())
                .zip(vw.iter_mut())
                .zip(dw.as_slice())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            for (((b, m), v), g) in layer.b.iter_mut().zip(mb.iter_mut()).zip(vb.iter_mut()).zip(db)
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *b -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_shard_into;
    use crate::matrix::Matrix;
    use crate::mlp::ForwardCache;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One batch-mean MSE gradient of `mlp` on `(x, y)`, and the mean loss.
    fn mse_grads(mlp: &Mlp, x: &Matrix, y: &[f32]) -> (f32, Gradients) {
        let mut cache = ForwardCache::empty();
        mlp.forward_into(x, &mut cache);
        let mut delta = Matrix::zeros(0, 0);
        let loss = mse_shard_into(cache.output(), y, &mut delta) / y.len() as f64;
        let mut grads = Gradients::empty();
        mlp.backward_batch_shard_into(&cache, &mut delta, &mut Matrix::zeros(0, 0), &mut grads);
        grads.div_scalar(y.len() as f32);
        (loss as f32, grads)
    }

    #[test]
    fn adam_converges_on_a_line() {
        // Train y = 2x; the loss must fall substantially.
        let mut opt = Adam::new(0.01);
        let mut mlp = Mlp::new(&[1, 8, 1], &mut StdRng::seed_from_u64(7));
        let x = Matrix::from_rows(&[&[-1.0], &[-0.5], &[0.0], &[0.5], &[1.0]]);
        let y = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let mut last = f32::MAX;
        for _ in 0..400 {
            let (loss, grads) = mse_grads(&mlp, &x, &y);
            opt.step(&mut mlp, &grads);
            last = loss;
        }
        assert!(last < 0.01);
    }

    #[test]
    fn adam_step_changes_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 3, 1], &mut rng);
        let before = mlp.layers()[0].w.clone();
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        let (_, grads) = mse_grads(&mlp, &x, &[5.0]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut mlp, &grads);
        assert_ne!(before, mlp.layers()[0].w);
    }
}
