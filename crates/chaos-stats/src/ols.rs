//! Ordinary least squares with coefficient covariance and Wald tests.
//!
//! This is the workhorse of both the baseline linear power model (Eq. 1)
//! and the stepwise elimination in Algorithm 1: each elimination round
//! refits OLS and inspects the Wald z-statistics of the coefficients.
//!
//! [`WindowedOls`] is the streaming counterpart: it maintains the
//! normal equations of a sliding window incrementally, paying `O(k²)`
//! per sample via rank-1 Cholesky update/downdate
//! ([`CholeskyFactor`]) instead of
//! refactorizing the window from scratch.

use crate::dist;
use crate::gram::CholeskyFactor;
use crate::matrix::{Matrix, QrFactorization};
use crate::StatsError;

/// A fitted ordinary-least-squares model.
///
/// The design matrix is taken as-is; callers that want an intercept should
/// include a column of ones (see [`Matrix::with_intercept`]).
///
/// # Example
///
/// ```
/// use chaos_stats::{Matrix, ols::OlsFit};
///
/// # fn main() -> Result<(), chaos_stats::StatsError> {
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0],
/// ])?.with_intercept();
/// let y = [5.1, 6.9, 9.2, 10.8, 13.1];
/// let fit = OlsFit::fit(&x, &y)?;
/// let pred = fit.predict_row(&[1.0, 2.5])?;
/// assert!((pred - 10.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OlsFit {
    coefficients: Vec<f64>,
    std_errors: Vec<f64>,
    residual_variance: f64,
    n: usize,
    r_squared: f64,
}

impl OlsFit {
    /// Fits `y ≈ X·β` by least squares.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] if `y.len() != x.rows()`.
    /// * [`StatsError::InsufficientData`] if there are not strictly more
    ///   rows than columns (residual variance would be undefined).
    /// * [`StatsError::Singular`] if the design matrix is rank-deficient.
    pub fn fit(x: &Matrix, y: &[f64]) -> Result<Self, StatsError> {
        let (n, p) = (x.rows(), x.cols());
        if y.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: format!("ols: y has {} entries, X has {n} rows", y.len()),
            });
        }
        if n <= p {
            return Err(StatsError::InsufficientData {
                observations: n,
                required: p + 1,
            });
        }
        let qr = QrFactorization::compute(x)?;
        let coefficients = qr.solve(y)?;
        let fitted = x.matvec(&coefficients)?;
        let rss: f64 = y.iter().zip(&fitted).map(|(a, f)| (a - f).powi(2)).sum();
        let residual_variance = rss / (n - p) as f64;
        let xtx_inv = qr.xtx_inverse()?;
        let std_errors: Vec<f64> = (0..p)
            .map(|j| (residual_variance * xtx_inv.get(j, j)).max(0.0).sqrt())
            .collect();
        let mean_y: f64 = y.iter().sum::<f64>() / n as f64;
        let tss: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
        let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 0.0 };
        Ok(OlsFit {
            coefficients,
            std_errors,
            residual_variance,
            n,
            r_squared,
        })
    }

    /// Assembles a fit from precomputed pieces (used by the normal-equation
    /// path in [`crate::gram`], which solves the same least-squares problem
    /// from a cached Gram matrix instead of a fresh QR factorization).
    pub(crate) fn from_parts(
        coefficients: Vec<f64>,
        std_errors: Vec<f64>,
        residual_variance: f64,
        n: usize,
        r_squared: f64,
    ) -> Self {
        OlsFit {
            coefficients,
            std_errors,
            residual_variance,
            n,
            r_squared,
        }
    }

    /// Fitted coefficients, in design-matrix column order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Standard errors of the coefficients.
    pub fn std_errors(&self) -> &[f64] {
        &self.std_errors
    }

    /// Estimated residual variance `σ̂² = RSS / (n − p)`.
    pub fn residual_variance(&self) -> f64 {
        self.residual_variance
    }

    /// Number of observations used in the fit.
    pub fn n_observations(&self) -> usize {
        self.n
    }

    /// In-sample coefficient of determination.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Wald z-statistic for coefficient `j`: `β̂ⱼ / se(β̂ⱼ)`.
    ///
    /// Returns `f64::INFINITY` when the standard error is zero but the
    /// coefficient is not (an exact fit).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn wald_z(&self, j: usize) -> f64 {
        let se = self.std_errors[j];
        let b = self.coefficients[j];
        if se == 0.0 {
            if b == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            b / se
        }
    }

    /// Two-sided Wald p-value for coefficient `j` under the normal
    /// approximation.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn p_value(&self, j: usize) -> f64 {
        dist::wald_p_value(self.wald_z(j))
    }

    /// Predicts the response for one design-matrix row.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if `row.len()` differs from
    /// the number of coefficients.
    pub fn predict_row(&self, row: &[f64]) -> Result<f64, StatsError> {
        if row.len() != self.coefficients.len() {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "predict: row has {} entries, model has {} coefficients",
                    row.len(),
                    self.coefficients.len()
                ),
            });
        }
        Ok(row.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum())
    }

    /// Predicts the response for every row of a design matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the column count differs
    /// from the number of coefficients.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>, StatsError> {
        x.matvec(&self.coefficients)
    }

    /// Exports the fit as plain data for checkpointing.
    pub fn export_state(&self) -> OlsFitState {
        OlsFitState {
            coefficients: self.coefficients.clone(),
            std_errors: self.std_errors.clone(),
            residual_variance: self.residual_variance,
            n: self.n,
            r_squared: self.r_squared,
        }
    }

    /// Rebuilds a fit from exported state.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the coefficient and
    /// standard-error vectors disagree in length, or
    /// [`StatsError::InvalidParameter`] if either is empty.
    pub fn import_state(state: OlsFitState) -> Result<Self, StatsError> {
        if state.coefficients.is_empty() {
            return Err(StatsError::InvalidParameter {
                context: "ols import: empty coefficient vector".to_string(),
            });
        }
        if state.coefficients.len() != state.std_errors.len() {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "ols import: {} coefficients but {} std errors",
                    state.coefficients.len(),
                    state.std_errors.len()
                ),
            });
        }
        Ok(OlsFit {
            coefficients: state.coefficients,
            std_errors: state.std_errors,
            residual_variance: state.residual_variance,
            n: state.n,
            r_squared: state.r_squared,
        })
    }
}

/// Plain-data snapshot of an [`OlsFit`], produced by
/// [`OlsFit::export_state`] and consumed by [`OlsFit::import_state`].
/// All fields are public so external codecs (e.g. the chaos-stream
/// checkpoint format) can serialize them bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFitState {
    /// Fitted coefficients, design-matrix column order.
    pub coefficients: Vec<f64>,
    /// Standard errors of the coefficients.
    pub std_errors: Vec<f64>,
    /// Estimated residual variance.
    pub residual_variance: f64,
    /// Number of observations used in the fit.
    pub n: usize,
    /// In-sample coefficient of determination.
    pub r_squared: f64,
}

/// Plain-data snapshot of a [`WindowedOls`], produced by
/// [`WindowedOls::export_state`] and consumed by
/// [`WindowedOls::import_state`]. The maintained Cholesky factor is
/// carried as its exported lower triangle (empty when the factor was
/// dropped), so a restored solver takes the exact numeric path the
/// original would have.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedOlsState {
    /// Feature columns (excluding the implicit intercept).
    pub p: usize,
    /// Augmented Gram matrix over `[1 | X]`, row-major `(p+1)²`.
    pub gram: Vec<f64>,
    /// `[1 | X]'y`.
    pub xty: Vec<f64>,
    /// `y'y`.
    pub yty: f64,
    /// Rows currently in the window.
    pub n: usize,
    /// Exported lower triangle of the maintained factor; empty when the
    /// factor was dropped (a failed downdate) at snapshot time.
    pub chol_lower: Vec<f64>,
    /// Full-refactorization count at snapshot time.
    pub refactorizations: usize,
}

/// Incremental least squares over a sliding window of observations.
///
/// Maintains the augmented normal equations (`[1 | X]'[1 | X]`,
/// `[1 | X]'y`, `y'y`) of whatever rows are currently "in", together
/// with a rank-1-maintained [`CholeskyFactor`], so that after each
/// [`push`](WindowedOls::push)/[`pop`](WindowedOls::pop) pair a fresh
/// [`fit`](WindowedOls::fit) costs `O(k²)` in the feature count `k` —
/// independent of the window length. This is the numeric core of the
/// streaming engine's coefficient-refresh refit tier.
///
/// The caller is responsible for popping exactly the rows it pushed
/// (the ring-buffer window in `chaos-stream` does this); the solver
/// itself only sees the algebra. When a downdate loses positive
/// definiteness — numerically possible even for well-posed windows —
/// the maintained factor is dropped and the next `fit` refactorizes
/// from the accumulated products in `O(k³)`;
/// [`refactorizations`](WindowedOls::refactorizations) counts these
/// fallbacks.
///
/// Coefficient layout matches [`OlsFit::fit`] on an
/// intercept-augmented design: coefficient 0 is the intercept,
/// coefficient `j + 1` belongs to feature column `j`.
///
/// # Example
///
/// ```
/// use chaos_stats::ols::WindowedOls;
///
/// # fn main() -> Result<(), chaos_stats::StatsError> {
/// let mut w = WindowedOls::new(1);
/// // y = 1 + 2x with a stray early outlier that then slides out.
/// w.push(&[10.0], 100.0)?;
/// for i in 0..6 {
///     w.push(&[i as f64], 1.0 + 2.0 * i as f64)?;
/// }
/// w.pop(&[10.0], 100.0)?; // outlier leaves the window
/// let fit = w.fit()?;
/// assert!((fit.coefficients()[0] - 1.0).abs() < 1e-8);
/// assert!((fit.coefficients()[1] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WindowedOls {
    /// Feature columns (the intercept is implicit).
    p: usize,
    /// Augmented Gram matrix over `[1 | X]`, row-major `(p+1)²`.
    gram: Vec<f64>,
    /// `[1 | X]'y`.
    xty: Vec<f64>,
    /// `y'y`.
    yty: f64,
    /// Rows currently in the window.
    n: usize,
    /// Maintained factor of `gram`; `None` after a failed downdate until
    /// the next fit rebuilds it.
    chol: Option<CholeskyFactor>,
    refactorizations: usize,
    /// How many downdates lost positive definiteness and dropped the
    /// factor. Diagnostic only — excluded from [`WindowedOlsState`] so
    /// the checkpoint byte format is unchanged; restored solvers start
    /// from zero.
    downdate_fallbacks: usize,
    /// Reused augmented-row buffer (`[1 | x]`) for push/pop; never
    /// observable, so it is excluded from snapshots and equality.
    aug_scratch: Vec<f64>,
}

impl WindowedOls {
    /// An empty window solver for `p` feature columns.
    // chaos-lint: cold — solver construction happens at engine setup and machine readmission, never on the steady tick
    pub fn new(p: usize) -> Self {
        let d = p + 1;
        WindowedOls {
            p,
            gram: vec![0.0; d * d],
            xty: vec![0.0; d],
            yty: 0.0,
            n: 0,
            chol: None,
            refactorizations: 0,
            downdate_fallbacks: 0,
            aug_scratch: Vec::new(),
        }
    }

    /// Number of rows currently in the window.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of feature columns (excluding the implicit intercept).
    pub fn n_features(&self) -> usize {
        self.p
    }

    /// How many times a failed downdate (or a first fit) forced a full
    /// `O(k³)` refactorization instead of the `O(k²)` incremental path.
    pub fn refactorizations(&self) -> usize {
        self.refactorizations
    }

    /// How many downdates lost positive definiteness and dropped the
    /// maintained factor. A window sliding down to exactly `k = p + 1`
    /// rows (or fewer) sits on the rank boundary where this is
    /// *structural*, not numerical — the counter makes that fallback
    /// frequency observable instead of silent. Not persisted in
    /// [`WindowedOlsState`]; a restored solver counts from zero.
    pub fn downdate_fallbacks(&self) -> usize {
        self.downdate_fallbacks
    }

    /// Adds one observation to the window.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] if `row.len() != p`.
    /// * [`StatsError::NonFinite`] if `row` or `y` is non-finite (the
    ///   accumulated state is left unchanged).
    pub fn push(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        self.validate(row, y, "push")?;
        let v = self.take_augmented(row);
        self.accumulate(&v, y, 1.0);
        self.n += 1;
        let updated = match self.chol.as_mut() {
            Some(chol) => chol.update(&v),
            None => Ok(()),
        };
        self.aug_scratch = v;
        updated
    }

    /// Removes one observation from the window. The row must be one that
    /// was previously pushed and not yet popped, or the accumulated
    /// normal equations stop describing any real window.
    ///
    /// A downdate that loses positive definiteness is not an error here:
    /// the maintained factor is dropped and rebuilt on the next
    /// [`fit`](WindowedOls::fit).
    ///
    /// # Errors
    ///
    /// * [`StatsError::InvalidParameter`] if the window is empty.
    /// * [`StatsError::DimensionMismatch`] if `row.len() != p`.
    /// * [`StatsError::NonFinite`] if `row` or `y` is non-finite.
    pub fn pop(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        if self.n == 0 {
            return Err(StatsError::InvalidParameter {
                context: "windowed ols: pop from an empty window".to_string(),
            });
        }
        self.validate(row, y, "pop")?;
        let v = self.take_augmented(row);
        self.accumulate(&v, y, -1.0);
        self.n -= 1;
        if let Some(chol) = self.chol.as_mut() {
            if chol.downdate(&v).is_err() {
                self.chol = None;
                self.downdate_fallbacks += 1;
                chaos_obs::add("windowed_ols.downdate_fallbacks", 1);
            }
        }
        self.aug_scratch = v;
        Ok(())
    }

    /// Solves the window's normal equations, reusing the maintained
    /// Cholesky factor when it is live.
    ///
    /// # Errors
    ///
    /// * [`StatsError::InsufficientData`] if the window holds `≤ p + 1`
    ///   rows.
    /// * [`StatsError::Singular`] if the window's Gram matrix is not
    ///   positive definite (collinear window contents).
    pub fn fit(&mut self) -> Result<OlsFit, StatsError> {
        let k = self.p + 1;
        if self.n <= k {
            return Err(StatsError::InsufficientData {
                observations: self.n,
                required: k + 1,
            });
        }
        if self.chol.is_none() {
            self.chol = Some(CholeskyFactor::from_matrix(&self.gram, k)?);
            self.refactorizations += 1;
            chaos_obs::add("windowed_ols.refactorizations", 1);
        }
        // chaos-lint: allow(R4) — the is_none branch directly above
        // fills the factor, so it is always present here.
        let chol = self.chol.as_ref().expect("factor ensured above");
        let beta = chol.solve(&self.xty)?;

        // RSS from the accumulated products: y'y − 2β'X'y + β'(X'X)β.
        let mut quad = 0.0;
        for (i, &bi) in beta.iter().enumerate() {
            let mut acc = 0.0;
            for (g, b) in self.gram[i * k..(i + 1) * k].iter().zip(&beta) {
                acc += g * b;
            }
            quad += bi * acc;
        }
        let dot_by: f64 = beta.iter().zip(&self.xty).map(|(b, v)| b * v).sum();
        let rss = (self.yty - 2.0 * dot_by + quad).max(0.0);
        let residual_variance = rss / (self.n - k) as f64;

        let mut std_errors = vec![0.0; k];
        for (j, se) in std_errors.iter_mut().enumerate() {
            let mut e = vec![0.0; k];
            e[j] = 1.0;
            let z = chol.solve(&e)?;
            *se = (residual_variance * z[j]).max(0.0).sqrt();
        }

        // chaos-lint: allow(R4) — xty always has the intercept slot
        // (k >= 1 is checked at window construction).
        let mean_y = self.xty[0] / self.n as f64;
        let tss = (self.yty - self.n as f64 * mean_y * mean_y).max(0.0);
        let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 0.0 };
        Ok(OlsFit::from_parts(
            beta,
            std_errors,
            residual_variance,
            self.n,
            r_squared,
        ))
    }

    /// Exports the full solver state (normal equations plus the
    /// maintained factor) as plain data for checkpointing.
    pub fn export_state(&self) -> WindowedOlsState {
        WindowedOlsState {
            p: self.p,
            gram: self.gram.clone(),
            xty: self.xty.clone(),
            yty: self.yty,
            n: self.n,
            chol_lower: self
                .chol
                .as_ref()
                .map(|c| c.lower().to_vec())
                .unwrap_or_default(),
            refactorizations: self.refactorizations,
        }
    }

    /// Rebuilds a solver from exported state.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if the Gram matrix,
    /// `X'y` vector, or factor triangle do not match `(p+1)²`/`p+1`, or
    /// errors from [`CholeskyFactor::from_lower`] for a malformed factor.
    pub fn import_state(state: WindowedOlsState) -> Result<Self, StatsError> {
        let d = state.p + 1;
        if state.gram.len() != d * d || state.xty.len() != d {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "windowed ols import: gram {} / xty {} entries for p = {}",
                    state.gram.len(),
                    state.xty.len(),
                    state.p
                ),
            });
        }
        let chol = if state.chol_lower.is_empty() {
            None
        } else {
            Some(CholeskyFactor::from_lower(state.chol_lower, d)?)
        };
        Ok(WindowedOls {
            p: state.p,
            gram: state.gram,
            xty: state.xty,
            yty: state.yty,
            n: state.n,
            chol,
            refactorizations: state.refactorizations,
            downdate_fallbacks: 0,
            aug_scratch: Vec::new(),
        })
    }

    /// Validates one observation's shape and finiteness.
    fn validate(&self, row: &[f64], y: f64, op: &str) -> Result<(), StatsError> {
        if row.len() != self.p {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "windowed ols {op}: row has {} entries, expected {}",
                    row.len(),
                    self.p
                ),
            });
        }
        if !y.is_finite() || row.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFinite {
                context: format!("windowed ols {op}: non-finite observation"),
            });
        }
        Ok(())
    }

    /// Fills and detaches the reused augmented-row buffer `[1 | x]`.
    /// The caller must hand the buffer back via `self.aug_scratch = v`
    /// on every path, keeping steady-state push/pop allocation-free.
    fn take_augmented(&mut self, row: &[f64]) -> Vec<f64> {
        let mut v = std::mem::take(&mut self.aug_scratch);
        v.clear();
        v.push(1.0);
        v.extend_from_slice(row);
        v
    }

    /// Adds (`sign = 1`) or subtracts (`sign = −1`) one augmented row's
    /// cross products.
    fn accumulate(&mut self, v: &[f64], y: f64, sign: f64) {
        let k = self.p + 1;
        for (i, &vi) in v.iter().enumerate() {
            self.xty[i] += sign * vi * y;
            for (j, &vj) in v.iter().enumerate() {
                self.gram[i * k + j] += sign * vi * vj;
            }
        }
        self.yty += sign * y * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_line(n: usize) -> (Matrix, Vec<f64>) {
        // y = 3 + 2x + deterministic "noise" from a fixed pattern.
        let noise = [0.05, -0.1, 0.08, -0.02, 0.0, 0.07, -0.06, 0.01];
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![1.0, i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| 3.0 + 2.0 * i as f64 + noise[i % noise.len()])
            .collect();
        (x, y)
    }

    #[test]
    fn recovers_known_coefficients() {
        let (x, y) = noisy_line(40);
        let fit = OlsFit::fit(&x, &y).unwrap();
        assert!((fit.coefficients()[0] - 3.0).abs() < 0.1);
        assert!((fit.coefficients()[1] - 2.0).abs() < 0.01);
        assert!(fit.r_squared() > 0.999);
    }

    #[test]
    fn significant_slope_has_tiny_p_value() {
        let (x, y) = noisy_line(40);
        let fit = OlsFit::fit(&x, &y).unwrap();
        assert!(fit.p_value(1) < 1e-10);
    }

    #[test]
    fn irrelevant_feature_has_large_p_value() {
        // Add a pseudo-random column uncorrelated with the response noise.
        let n = 60;
        let hash = |i: usize| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0, i as f64, hash(i * 31 + 5)])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..n)
            .map(|i| 3.0 + 2.0 * i as f64 + 0.4 * hash(i * 7 + 1))
            .collect();
        let fit = OlsFit::fit(&x, &y).unwrap();
        assert!(fit.p_value(1) < 1e-10, "true feature must stay significant");
        assert!(
            fit.p_value(2) > 0.05,
            "noise feature p = {}",
            fit.p_value(2)
        );
    }

    #[test]
    fn exact_fit_has_zero_residual_variance() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let y = [1.0, 2.0, 3.0];
        let fit = OlsFit::fit(&x, &y).unwrap();
        assert!(fit.residual_variance() < 1e-20);
        assert_eq!(fit.n_observations(), 3);
    }

    #[test]
    fn rejects_underdetermined() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0]]).unwrap();
        assert!(matches!(
            OlsFit::fit(&x, &[1.0, 2.0]).unwrap_err(),
            StatsError::InsufficientData { .. }
        ));
    }

    #[test]
    fn rejects_mismatched_y() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert!(OlsFit::fit(&x, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn predict_matches_manual_dot_product() {
        let (x, y) = noisy_line(20);
        let fit = OlsFit::fit(&x, &y).unwrap();
        let preds = fit.predict(&x).unwrap();
        let manual = fit.predict_row(x.row(5)).unwrap();
        assert!((preds[5] - manual).abs() < 1e-12);
        assert!(fit.predict_row(&[1.0]).is_err());
    }

    #[test]
    fn std_errors_shrink_with_more_data() {
        let (x1, y1) = noisy_line(16);
        let (x2, y2) = noisy_line(160);
        let f1 = OlsFit::fit(&x1, &y1).unwrap();
        let f2 = OlsFit::fit(&x2, &y2).unwrap();
        assert!(f2.std_errors()[1] < f1.std_errors()[1]);
    }

    /// Deterministic pseudo-random rows for the windowed solver.
    fn stream_rows(n: usize, p: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let det = |i: usize| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..p).map(|j| det(i * p + j + 1) * 4.0).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 2.0 + r.iter().sum::<f64>() + 0.1 * det(i * 13 + 7))
            .collect();
        (rows, y)
    }

    /// Batch QR fit of `rows[lo..hi]` with an explicit intercept.
    fn batch_fit(rows: &[Vec<f64>], y: &[f64], lo: usize, hi: usize) -> OlsFit {
        let x = Matrix::from_rows(&rows[lo..hi]).unwrap().with_intercept();
        OlsFit::fit(&x, &y[lo..hi]).unwrap()
    }

    #[test]
    fn windowed_matches_batch_after_slides() {
        let p = 3;
        let (rows, y) = stream_rows(40, p);
        let mut w = WindowedOls::new(p);
        for i in 0..20 {
            w.push(&rows[i], y[i]).unwrap();
        }
        // Slide the window forward ten times: [10, 30).
        for i in 20..30 {
            w.push(&rows[i], y[i]).unwrap();
            w.pop(&rows[i - 20], y[i - 20]).unwrap();
        }
        assert_eq!(w.len(), 20);
        let windowed = w.fit().unwrap();
        let batch = batch_fit(&rows, &y, 10, 30);
        for (a, b) in windowed.coefficients().iter().zip(batch.coefficients()) {
            assert!((a - b).abs() < 1e-8, "coef {a} vs {b}");
        }
        for (a, b) in windowed.std_errors().iter().zip(batch.std_errors()) {
            assert!((a - b).abs() < 1e-6, "se {a} vs {b}");
        }
        assert!((windowed.r_squared() - batch.r_squared()).abs() < 1e-8);
    }

    #[test]
    fn windowed_survives_downdate_fallback() {
        let p = 2;
        let (rows, y) = stream_rows(30, p);
        let mut w = WindowedOls::new(p);
        // Shrink to the bare minimum and grow again — the downdates near
        // the minimum stress the factor; a dropped factor must rebuild.
        for i in 0..10 {
            w.push(&rows[i], y[i]).unwrap();
        }
        let _ = w.fit().unwrap(); // builds the factor
        for i in 0..6 {
            w.pop(&rows[i], y[i]).unwrap();
        }
        for i in 10..20 {
            w.push(&rows[i], y[i]).unwrap();
        }
        let windowed = w.fit().unwrap();
        let expected_rows: Vec<Vec<f64>> =
            rows[6..10].iter().chain(&rows[10..20]).cloned().collect();
        let expected_y: Vec<f64> = y[6..10].iter().chain(&y[10..20]).copied().collect();
        let x = Matrix::from_rows(&expected_rows).unwrap().with_intercept();
        let batch = OlsFit::fit(&x, &expected_y).unwrap();
        for (a, b) in windowed.coefficients().iter().zip(batch.coefficients()) {
            assert!((a - b).abs() < 1e-7, "coef {a} vs {b}");
        }
    }

    #[test]
    fn shrink_to_exactly_k_rows_pins_typed_outcome() {
        // p = 2 features → k = 3 augmented columns. Sliding the window
        // down to exactly k rows sits on the rank boundary: the pops
        // themselves must stay Ok (a lost factor is a fallback, not an
        // error), fit() must report the typed InsufficientData outcome,
        // and the fallback count must be observable — not silent.
        let p = 2;
        let k = p + 1;
        let (rows, y) = stream_rows(20, p);
        let mut w = WindowedOls::new(p);
        for i in 0..8 {
            w.push(&rows[i], y[i]).unwrap();
        }
        let _ = w.fit().unwrap(); // builds the maintained factor
        assert_eq!(w.refactorizations(), 1);
        assert_eq!(w.downdate_fallbacks(), 0);
        for i in 0..8 - k {
            w.pop(&rows[i], y[i]).unwrap();
        }
        assert_eq!(w.len(), k);
        // At n == k the normal equations are at best rank k: residual
        // variance is undefined, so the outcome is typed, not numeric.
        match w.fit() {
            Err(StatsError::InsufficientData {
                observations,
                required,
            }) => {
                assert_eq!(observations, k);
                assert_eq!(required, k + 1);
            }
            other => panic!("expected InsufficientData at n == k, got {other:?}"),
        }
        // Shrinking one step past the boundary makes the Gram singular,
        // so the downdate *must* drop the factor and count the fallback.
        w.pop(&rows[8 - k], y[8 - k]).unwrap();
        assert_eq!(w.len(), k - 1);
        assert!(
            w.downdate_fallbacks() >= 1,
            "structural rank loss must be counted, not silent"
        );
        // Growing back past k rows must recover via refactorization and
        // agree with a batch fit of the surviving window.
        for i in 8..16 {
            w.push(&rows[i], y[i]).unwrap();
        }
        let refits_before = w.refactorizations();
        let windowed = w.fit().unwrap();
        assert!(w.refactorizations() > refits_before || w.downdate_fallbacks() == 0);
        let kept: Vec<Vec<f64>> = rows[8 - k + 1..8]
            .iter()
            .chain(&rows[8..16])
            .cloned()
            .collect();
        let kept_y: Vec<f64> = y[8 - k + 1..8].iter().chain(&y[8..16]).copied().collect();
        let x = Matrix::from_rows(&kept).unwrap().with_intercept();
        let batch = OlsFit::fit(&x, &kept_y).unwrap();
        for (a, b) in windowed.coefficients().iter().zip(batch.coefficients()) {
            assert!((a - b).abs() < 1e-7, "coef {a} vs {b}");
        }
    }

    #[test]
    fn windowed_rejects_bad_observations() {
        let mut w = WindowedOls::new(2);
        assert!(matches!(
            w.push(&[1.0], 2.0),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            w.push(&[1.0, f64::NAN], 2.0),
            Err(StatsError::NonFinite { .. })
        ));
        assert!(matches!(
            w.push(&[1.0, 2.0], f64::INFINITY),
            Err(StatsError::NonFinite { .. })
        ));
        assert!(matches!(
            w.pop(&[1.0, 2.0], 3.0),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert!(w.is_empty());
        w.push(&[1.0, 2.0], 3.0).unwrap();
        assert!(matches!(w.fit(), Err(StatsError::InsufficientData { .. })));
    }
}
