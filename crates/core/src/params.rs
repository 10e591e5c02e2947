//! Protocol parameters and the quantities derived from them.

use mpca_crypto::lwe::LweParams;
use mpca_encfunc::Theorem9CostModel;

/// The `(n, h, λ, α)` parameters shared by every protocol in this crate,
/// plus the LWE parameter set used for encryption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    /// Total number of parties `n`.
    pub n: usize,
    /// Lower bound on the number of honest parties `h`.
    pub h: usize,
    /// Security parameter `λ` (drives equality-test soundness, committee
    /// over-sampling and Theorem 9 message sizes).
    pub lambda: u32,
    /// Over-sampling constant `α` from Algorithms 2, 5 and 7.
    pub alpha: f64,
    /// LWE parameters for the encryption scheme.
    pub lwe: LweParams,
}

impl ProtocolParams {
    /// Creates a parameter set with default `λ = 16`, `α = 2.0` and toy LWE
    /// parameters (suitable for large simulation sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `h` is not in `[1, n]`.
    pub fn new(n: usize, h: usize) -> Self {
        let params = Self {
            n,
            h,
            lambda: 16,
            alpha: 2.0,
            lwe: LweParams::toy(),
        };
        params.validate();
        params
    }

    /// Overrides the security parameter.
    pub fn with_lambda(mut self, lambda: u32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Overrides the over-sampling constant.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the LWE parameters.
    pub fn with_lwe(mut self, lwe: LweParams) -> Self {
        self.lwe = lwe;
        self
    }

    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `h` is outside `[1, n]`, `α ≤ 0`, or the LWE
    /// parameters are inconsistent.
    pub fn validate(&self) {
        assert!(self.n >= 2, "need at least two parties");
        assert!(self.h >= 1 && self.h <= self.n, "h must be in [1, n]");
        assert!(self.alpha > 0.0, "alpha must be positive");
        assert!(self.lambda >= 1, "lambda must be positive");
        self.lwe.validate();
    }

    /// `log n` used throughout the derived quantities (natural logarithm,
    /// clamped below by 1 so tiny networks stay well-defined).
    pub fn log_n(&self) -> f64 {
        (self.n as f64).ln().max(1.0)
    }

    /// Committee-election probability `p = min(1, α·log n / h)`
    /// (Algorithm 2 step 1).
    pub fn election_probability(&self) -> f64 {
        (self.alpha * self.log_n() / self.h as f64).min(1.0)
    }

    /// The abort threshold on committee size, `2·p·n` (Algorithm 2 step 3).
    pub fn committee_bound(&self) -> usize {
        (2.0 * self.election_probability() * self.n as f64).ceil() as usize
    }

    /// Local committee-election probability `p = min(1, α·log n / √h)`
    /// (Algorithm 7 step 2).
    pub fn local_election_probability(&self) -> f64 {
        (self.alpha * self.log_n() / (self.h as f64).sqrt()).min(1.0)
    }

    /// The abort threshold on local committee size, `2·p·n`
    /// (Algorithm 7 step 4).
    pub fn local_committee_bound(&self) -> usize {
        (2.0 * self.local_election_probability() * self.n as f64).ceil() as usize
    }

    /// Out-degree of the sparse routing network,
    /// `d = α·(n/h)·log n` (Algorithm 5 step 1), clamped to `[1, n − 1]`.
    pub fn sparse_degree(&self) -> usize {
        let d = (self.alpha * self.n as f64 / self.h as f64 * self.log_n()).ceil() as usize;
        d.clamp(1, self.n - 1)
    }

    /// The abort threshold on in-degree (Algorithm 5 step 3).
    ///
    /// The paper uses `2·d` and argues a `n^{−Ω(α)}` failure probability,
    /// which holds once `d = α·(n/h)·log n` is large. At simulation scale
    /// `d` can be a single-digit number, where a Binomial(n, d/n) in-degree
    /// exceeds `2d` with non-negligible probability, so we add an additive
    /// `3·log n` slack; asymptotically the threshold is still `(2 + o(1))·d`.
    pub fn sparse_in_bound(&self) -> usize {
        2 * self.sparse_degree() + (3.0 * self.log_n()).ceil() as usize
    }

    /// Size of each committee member's cover set `S_c`, `n/√h`
    /// (Algorithm 8 step 3), clamped to `[1, n]`.
    pub fn cover_size(&self) -> usize {
        ((self.n as f64 / (self.h as f64).sqrt()).ceil() as usize).clamp(1, self.n)
    }

    /// Number of gossip forwarding rounds used by Algorithm 6.
    ///
    /// The honest subgraph of the routing network is connected with
    /// overwhelming probability (Claim 20), and any connected graph on at
    /// most `h` honest vertices has diameter at most `h − 1`; rumours
    /// therefore reach every honest party within `h` forwarding rounds. A
    /// tighter `O(log n)` bound holds w.h.p. for random graphs, but the
    /// conservative bound keeps correctness unconditional on the sampled
    /// topology.
    pub fn gossip_rounds(&self) -> usize {
        self.h.clamp(2, self.n)
    }

    /// The Theorem 9 cost model for a functionality of the given depth.
    pub fn cost_model(&self, depth: usize) -> Theorem9CostModel {
        Theorem9CostModel::new(self.lambda, depth as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_scale_as_expected() {
        let base = ProtocolParams::new(256, 64);
        let more_honest = ProtocolParams::new(256, 256);
        // More honest parties → smaller committees and sparser networks.
        assert!(more_honest.election_probability() < base.election_probability());
        assert!(more_honest.sparse_degree() < base.sparse_degree());
        assert!(more_honest.local_election_probability() < base.local_election_probability());
        assert!(more_honest.cover_size() < base.cover_size());
        // Bounds are consistent.
        assert!(base.sparse_in_bound() >= 2 * base.sparse_degree());
        assert!(base.committee_bound() >= 1);
    }

    #[test]
    fn probabilities_are_clamped_to_one() {
        let params = ProtocolParams::new(16, 1);
        assert_eq!(params.election_probability(), 1.0);
        assert_eq!(params.local_election_probability(), 1.0);
        assert!(params.sparse_degree() <= 15);
    }

    #[test]
    fn builders_override_fields() {
        let params = ProtocolParams::new(8, 4)
            .with_lambda(32)
            .with_alpha(3.0)
            .with_lwe(LweParams::default_params());
        assert_eq!(params.lambda, 32);
        assert_eq!(params.alpha, 3.0);
        assert_eq!(params.lwe, LweParams::default_params());
        assert_eq!(params.cost_model(2).lambda, 32);
    }

    #[test]
    #[should_panic(expected = "h must be in [1, n]")]
    fn invalid_h_panics() {
        let _ = ProtocolParams::new(4, 5);
    }

    #[test]
    fn gossip_rounds_bounded_by_n() {
        let params = ProtocolParams::new(10, 10);
        assert!(params.gossip_rounds() <= 10);
        assert!(params.gossip_rounds() >= 2);
    }
}
