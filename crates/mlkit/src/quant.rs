//! Post-training quantization: fixed-point integer models whose
//! predictions are pure integer arithmetic.
//!
//! The MCML counting metrics need a model whose decision function can be
//! compiled to CNF *exactly* — every float comparison is a bit-exactness
//! hazard. This module derives integer models from the trained float
//! ones:
//!
//! * [`QuantizedMlp`] — the hidden layer is **binarized**: each unit
//!   fires (+1) iff its fixed-point pre-activation `Σ q1ʲ·x + qb1ʲ` is
//!   ≥ 0, replacing the float model's ReLU with a sign activation; the
//!   output is the integer threshold `Σ q2ʲ·hⱼ + qb2 ≥ 0` over the ±1
//!   activations.
//! * [`QuantizedSvm`] — the linear decision function with weights and
//!   bias rounded to fixed point: `Σ qw·x + qb ≥ 0`.
//!
//! All weights are scaled by `2^bits` and rounded
//! (`q = round(w · 2^bits)`), so `bits` is the number of fractional bits
//! retained. [`QuantizedMlp::predict_quantized`] and
//! [`QuantizedSvm::predict_quantized`] evaluate in `i64` only — the CNF
//! encoders in `mcml` reproduce exactly this arithmetic, making the
//! encodings bit-identical to the predictions by construction.
//!
//! Binarization changes the hidden-layer semantics, so the quantized MLP
//! is a *different model* from its float parent; [`agreement_report`]
//! quantifies the drift instead of pretending it away.

use crate::data::Dataset;
use crate::mlp::Mlp;
use crate::svm::LinearSvm;
use crate::Classifier;

/// Default number of fractional bits kept by quantization (the
/// `--quant-bits` CLI default).
pub const DEFAULT_QUANT_BITS: u32 = 8;

/// Scales a float weight to fixed point with `bits` fractional bits.
fn fixed_point(w: f64, bits: u32) -> i64 {
    let scaled = w * (1i64 << bits) as f64;
    // Saturate rather than wrap on pathological weights; real trained
    // weights are O(1) and never come near the bound.
    if scaled >= i32::MAX as f64 {
        i64::from(i32::MAX)
    } else if scaled <= i32::MIN as f64 {
        i64::from(i32::MIN)
    } else {
        scaled.round() as i64
    }
}

/// A binarized, fixed-point MLP: sign-activation hidden layer over
/// integer weights, integer-threshold output over ±1 activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedMlp {
    /// Hidden-layer weights `w1[h][d]`, scaled by `2^bits`.
    w1: Vec<Vec<i64>>,
    /// Hidden-layer biases, scaled by `2^bits`.
    b1: Vec<i64>,
    /// Output-layer weights over the ±1 activations, scaled by `2^bits`.
    w2: Vec<i64>,
    /// Output bias, scaled by `2^bits`.
    b2: i64,
    bits: u32,
}

impl QuantizedMlp {
    /// Derives the quantized model from a trained float MLP by rounding
    /// every layer's weights directly. The sign activation then stands in
    /// for the float ReLU with no magnitude correction, which can drift
    /// far from the parent model — prefer
    /// [`from_mlp_calibrated`](Self::from_mlp_calibrated) when the
    /// training inputs are at hand.
    pub fn from_mlp(mlp: &Mlp, bits: u32) -> QuantizedMlp {
        QuantizedMlp {
            w1: mlp
                .w1
                .iter()
                .map(|row| row.iter().map(|&w| fixed_point(w, bits)).collect())
                .collect(),
            b1: mlp.b1.iter().map(|&b| fixed_point(b, bits)).collect(),
            w2: mlp.w2.iter().map(|&w| fixed_point(w, bits)).collect(),
            b2: fixed_point(mlp.b2, bits),
            bits,
        }
    }

    /// Derives the quantized model with activation-range calibration.
    ///
    /// Each float unit's `relu(zⱼ)` is replaced by its least-squares
    /// one-bit quantizer over `features` (typically the training inputs):
    /// a step threshold `θⱼ` in pre-activation space together with a low
    /// and a high output level, found by an exact scan over the sorted
    /// calibration pre-activations (2-level Lloyd–Max). Writing the step
    /// as `(hi+lo)/2 + (hi−lo)/2 · sign(zⱼ − θⱼ)`, the threshold folds
    /// into the quantized hidden bias, the constant halves into the
    /// output bias and the sign halves into the output weights — the
    /// model keeps the exact ±1 sign-activation semantics of
    /// [`from_mlp`](Self::from_mlp); calibration only picks better
    /// integers. Units whose activation is constant over the calibration
    /// set get weight 0 and drop out of the score. Falls back to
    /// [`from_mlp`](Self::from_mlp) on an empty calibration set.
    pub fn from_mlp_calibrated(mlp: &Mlp, bits: u32, features: &[Vec<u8>]) -> QuantizedMlp {
        if features.is_empty() {
            return QuantizedMlp::from_mlp(mlp, bits);
        }
        let hidden = mlp.w1.len();
        let mut theta = vec![0.0f64; hidden];
        let mut mid = vec![0.0f64; hidden];
        let mut halfspan = vec![0.0f64; hidden];
        for j in 0..hidden {
            let mut z: Vec<f64> = features
                .iter()
                .map(|x| {
                    mlp.w1[j]
                        .iter()
                        .zip(x)
                        .map(|(&w, &xi)| w * f64::from(xi))
                        .sum::<f64>()
                        + mlp.b1[j]
                })
                .collect();
            z.sort_by(|a, b| a.total_cmp(b));
            let (t, lo, hi) = step_fit(&z);
            theta[j] = t;
            mid[j] = (hi + lo) / 2.0;
            halfspan[j] = (hi - lo) / 2.0;
        }
        let signed: Vec<f64> = (0..hidden).map(|j| mlp.w2[j] * halfspan[j]).collect();
        let shift: f64 = (0..hidden).map(|j| mlp.w2[j] * mid[j]).sum();
        QuantizedMlp {
            w1: mlp
                .w1
                .iter()
                .map(|row| row.iter().map(|&w| fixed_point(w, bits)).collect())
                .collect(),
            b1: mlp
                .b1
                .iter()
                .zip(&theta)
                .map(|(&b, &t)| fixed_point(b - t, bits))
                .collect(),
            w2: signed.iter().map(|&w| fixed_point(w, bits)).collect(),
            b2: fixed_point(mlp.b2 + shift, bits),
            bits,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.w1.first().map_or(0, Vec::len)
    }

    /// Number of hidden units.
    pub fn hidden_units(&self) -> usize {
        self.w1.len()
    }

    /// Fractional bits retained by the quantization.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Integer weights of hidden unit `j` (one per feature).
    pub fn hidden_weights(&self, j: usize) -> &[i64] {
        &self.w1[j]
    }

    /// Integer bias of hidden unit `j`.
    pub fn hidden_bias(&self, j: usize) -> i64 {
        self.b1[j]
    }

    /// Integer output-layer weight of hidden unit `j`.
    pub fn output_weight(&self, j: usize) -> i64 {
        self.w2[j]
    }

    /// Integer output bias.
    pub fn output_bias(&self) -> i64 {
        self.b2
    }

    /// Whether hidden unit `j` fires (+1) on `features`:
    /// `Σ w1[j]·x + b1[j] ≥ 0`.
    pub fn unit_fires(&self, j: usize, features: &[u8]) -> bool {
        dot_i(&self.w1[j], features) + self.b1[j] >= 0
    }

    /// The integer output score `Σ w2[j]·hⱼ + b2` with `hⱼ = ±1`.
    pub fn score_quantized(&self, features: &[u8]) -> i64 {
        let mut score = self.b2;
        for j in 0..self.hidden_units() {
            let h = if self.unit_fires(j, features) { 1 } else { -1 };
            score += self.w2[j] * h;
        }
        score
    }

    /// The all-integer prediction the CNF encoding matches bit for bit.
    pub fn predict_quantized(&self, features: &[u8]) -> bool {
        self.score_quantized(features) >= 0
    }
}

impl Classifier for QuantizedMlp {
    fn predict(&self, features: &[u8]) -> bool {
        self.predict_quantized(features)
    }

    fn model_name(&self) -> &'static str {
        "MLP"
    }
}

/// A fixed-point linear SVM: `Σ qw·x + qb ≥ 0` in `i64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedSvm {
    weights: Vec<i64>,
    bias: i64,
    bits: u32,
}

impl QuantizedSvm {
    /// Derives the quantized model from a trained float SVM.
    pub fn from_svm(svm: &LinearSvm, bits: u32) -> QuantizedSvm {
        QuantizedSvm {
            weights: svm.weights.iter().map(|&w| fixed_point(w, bits)).collect(),
            bias: fixed_point(svm.bias, bits),
            bits,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.weights.len()
    }

    /// Fractional bits retained by the quantization.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The integer weight vector.
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// The integer bias.
    pub fn bias(&self) -> i64 {
        self.bias
    }

    /// The integer decision value `Σ qw·x + qb`.
    pub fn score_quantized(&self, features: &[u8]) -> i64 {
        dot_i(&self.weights, features) + self.bias
    }

    /// The all-integer prediction the CNF encoding matches bit for bit.
    pub fn predict_quantized(&self, features: &[u8]) -> bool {
        self.score_quantized(features) >= 0
    }
}

impl Classifier for QuantizedSvm {
    fn predict(&self, features: &[u8]) -> bool {
        self.predict_quantized(features)
    }

    fn model_name(&self) -> &'static str {
        "SVM"
    }
}

fn dot_i(w: &[i64], x: &[u8]) -> i64 {
    w.iter().zip(x).map(|(&wi, &xi)| wi * i64::from(xi)).sum()
}

/// Least-squares one-bit quantizer of `relu` over the sorted
/// pre-activations `z`: returns `(θ, lo, hi)` minimizing
/// `Σ (relu(zᵢ) − level(zᵢ))²` where `level(z)` is `lo` for `z < θ` and
/// `hi` for `z ≥ θ`. Exact scan over the n+1 split points using prefix
/// sums; splits between tied pre-activations are skipped because no
/// threshold can separate them.
fn step_fit(z: &[f64]) -> (f64, f64, f64) {
    let n = z.len();
    let v: Vec<f64> = z.iter().map(|&zi| zi.max(0.0)).collect();
    let mut prefix = vec![0.0f64; n + 1];
    let mut prefix_sq = vec![0.0f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + v[i];
        prefix_sq[i + 1] = prefix_sq[i] + v[i] * v[i];
    }
    let cluster_sse = |from: usize, to: usize| -> f64 {
        let count = (to - from) as f64;
        if count == 0.0 {
            return 0.0;
        }
        let sum = prefix[to] - prefix[from];
        (prefix_sq[to] - prefix_sq[from]) - sum * sum / count
    };
    let mut best_k = 0;
    let mut best_sse = f64::INFINITY;
    for k in 0..=n {
        if k > 0 && k < n && z[k - 1] == z[k] {
            continue;
        }
        let sse = cluster_sse(0, k) + cluster_sse(k, n);
        if sse < best_sse {
            best_sse = sse;
            best_k = k;
        }
    }
    let k = best_k;
    let lo = if k == 0 {
        0.0
    } else {
        (prefix[k] - prefix[0]) / k as f64
    };
    let hi = if k == n {
        0.0
    } else {
        (prefix[n] - prefix[k]) / (n - k) as f64
    };
    let theta = if k == 0 {
        z[0] - 1.0
    } else if k == n {
        z[n - 1] + 1.0
    } else {
        (z[k - 1] + z[k]) / 2.0
    };
    (theta, lo, hi)
}

/// How often a quantized model and its float parent agree on a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreementReport {
    /// Rows compared.
    pub total: usize,
    /// Rows on which both models predicted the same label.
    pub matching: usize,
}

impl AgreementReport {
    /// The agreement rate in `[0, 1]` (1.0 on an empty dataset: no
    /// disagreement was observed).
    pub fn agreement(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.matching as f64 / self.total as f64
        }
    }
}

/// Compares two classifiers row by row — typically a quantized model
/// against the float model it was derived from.
pub fn agreement_report(
    quantized: &dyn Classifier,
    float: &dyn Classifier,
    dataset: &Dataset,
) -> AgreementReport {
    let matching = dataset
        .iter()
        .filter(|(x, _)| quantized.predict(x) == float.predict(x))
        .count();
    AgreementReport {
        total: dataset.len(),
        matching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use crate::svm::SvmConfig;

    fn dataset_from_fn(f: impl Fn(&[u8]) -> bool) -> Dataset {
        let mut d = Dataset::new(5);
        for bits in 0u8..32 {
            let row: Vec<u8> = (0..5).map(|k| (bits >> k) & 1).collect();
            let label = f(&row);
            d.push(row, label);
        }
        d
    }

    #[test]
    fn fixed_point_rounds_and_saturates() {
        assert_eq!(fixed_point(1.0, 8), 256);
        assert_eq!(fixed_point(-0.5, 8), -128);
        assert_eq!(fixed_point(0.001953125, 8), 1); // 0.5 ulp rounds away from zero
        assert_eq!(fixed_point(1e12, 8), i64::from(i32::MAX));
        assert_eq!(fixed_point(-1e12, 8), i64::from(i32::MIN));
    }

    #[test]
    fn quantized_svm_is_pure_integer_threshold() {
        let d = dataset_from_fn(|x| x[0] == 1);
        let svm = LinearSvm::fit(&d, SvmConfig::default());
        let q = QuantizedSvm::from_svm(&svm, DEFAULT_QUANT_BITS);
        assert_eq!(q.num_features(), 5);
        for (x, _) in d.iter() {
            let brute: i64 = x
                .iter()
                .enumerate()
                .map(|(i, &xi)| q.weights()[i] * i64::from(xi))
                .sum::<i64>()
                + q.bias();
            assert_eq!(q.predict_quantized(x), brute >= 0);
            assert_eq!(q.predict(x), q.predict_quantized(x));
        }
    }

    #[test]
    fn quantized_svm_preserves_a_clear_margin() {
        let d = dataset_from_fn(|x| x[0] == 1);
        let svm = LinearSvm::fit(&d, SvmConfig::default());
        let q = QuantizedSvm::from_svm(&svm, DEFAULT_QUANT_BITS);
        let report = agreement_report(&q, &svm, &d);
        assert_eq!(report.total, 32);
        assert_eq!(
            report.matching, 32,
            "8 fractional bits must preserve a 1.0-margin separator"
        );
        assert_eq!(report.agreement(), 1.0);
    }

    #[test]
    fn quantized_mlp_uses_sign_activations() {
        // Hand-built float MLP: two hidden units, exact binary weights so
        // quantization is lossless and the semantics are checkable by hand.
        let mlp = Mlp {
            w1: vec![vec![1.0, -1.0], vec![-2.0, 0.0]],
            b1: vec![-0.5, 1.0],
            w2: vec![1.0, -1.0],
            b2: 0.25,
            config: MlpConfig::default(),
        };
        let q = QuantizedMlp::from_mlp(&mlp, 2);
        assert_eq!(q.hidden_units(), 2);
        assert_eq!(q.num_features(), 2);
        assert_eq!(q.hidden_weights(0), &[4, -4]);
        assert_eq!(q.hidden_bias(0), -2);
        assert_eq!(q.output_weight(1), -4);
        assert_eq!(q.output_bias(), 1);
        for bits in 0u8..4 {
            let x = [bits & 1, (bits >> 1) & 1];
            // Unit 0: 4·x0 − 4·x1 − 2 ≥ 0 ⇔ x0 ∧ ¬x1.
            assert_eq!(q.unit_fires(0, &x), x[0] == 1 && x[1] == 0);
            // Unit 1: −8·x0 + 4 ≥ 0 ⇔ ¬x0.
            assert_eq!(q.unit_fires(1, &x), x[0] == 0);
            let h0: i64 = if q.unit_fires(0, &x) { 1 } else { -1 };
            let h1: i64 = if q.unit_fires(1, &x) { 1 } else { -1 };
            let score = 4 * h0 - 4 * h1 + 1;
            assert_eq!(q.score_quantized(&x), score);
            assert_eq!(q.predict_quantized(&x), score >= 0);
        }
    }

    #[test]
    fn calibration_tracks_the_float_model() {
        // A linearly separable target the float MLP learns essentially
        // perfectly; the calibrated quantization must stay close to the
        // float predictions, where the uncalibrated sign swap may not.
        let d = dataset_from_fn(|x| u32::from(x[0]) + u32::from(x[2]) + u32::from(x[4]) >= 2);
        let mlp = Mlp::fit(
            &d,
            MlpConfig {
                hidden_units: 4,
                epochs: 60,
                ..MlpConfig::default()
            },
        );
        let calibrated = QuantizedMlp::from_mlp_calibrated(&mlp, 8, d.features());
        let report = agreement_report(&calibrated, &mlp, &d);
        assert!(
            report.agreement() >= 0.9,
            "calibrated agreement {} on {} rows",
            report.agreement(),
            report.total
        );
        // Empty calibration set degrades to the plain quantizer.
        assert_eq!(
            QuantizedMlp::from_mlp_calibrated(&mlp, 8, &[]),
            QuantizedMlp::from_mlp(&mlp, 8)
        );
    }

    #[test]
    fn quantization_is_deterministic() {
        let d = dataset_from_fn(|x| x[1] == 1 || x[3] == 1);
        let mlp = Mlp::fit(
            &d,
            MlpConfig {
                hidden_units: 4,
                epochs: 20,
                ..MlpConfig::default()
            },
        );
        let a = QuantizedMlp::from_mlp(&mlp, 8);
        let b = QuantizedMlp::from_mlp(&mlp, 8);
        assert_eq!(a, b);
        assert_eq!(a.model_name(), "MLP");
        let svm = LinearSvm::fit(&d, SvmConfig::default());
        assert_eq!(
            QuantizedSvm::from_svm(&svm, 6),
            QuantizedSvm::from_svm(&svm, 6)
        );
    }

    #[test]
    fn agreement_report_counts_disagreements() {
        struct Const(bool);
        impl Classifier for Const {
            fn predict(&self, _features: &[u8]) -> bool {
                self.0
            }
            fn model_name(&self) -> &'static str {
                "CONST"
            }
        }
        let d = dataset_from_fn(|x| x[0] == 1);
        let report = agreement_report(&Const(true), &Const(true), &d);
        assert_eq!(report.matching, 32);
        let report = agreement_report(&Const(true), &Const(false), &d);
        assert_eq!(report.matching, 0);
        assert_eq!(report.agreement(), 0.0);
        let empty = AgreementReport {
            total: 0,
            matching: 0,
        };
        assert_eq!(empty.agreement(), 1.0);
    }
}
