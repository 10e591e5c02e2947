//! The protocol **catalog**: registry hooks naming this crate's protocol
//! families as data.
//!
//! The scenario subsystem (`mpca-scenario`) enumerates protocols, builds
//! their parties through the constructors in this crate, and checks executed
//! sessions against the paper's communication budgets. The catalog is the
//! bridge: a [`ProtocolKind`] names a family, maps it to its paper
//! statement, and computes the **budget envelope** its honest communication
//! must stay inside — the quantitative half of the security-property oracle.
//!
//! Budgets are **per-protocol envelope curves derived from golden honest
//! sweeps** (`tests/golden/comm_budget_curves.json`, regenerable with
//! `MPCA_BLESS=1 cargo test --test golden_budget_curves`): every
//! [`CalibrationPoint`] records the honest bits and locality measured over
//! the calibration labels at one `(n, h)` grid point, and a [`BudgetCurve`]
//! turns those measurements into budgets with [`BUDGET_SLACK`]× headroom —
//! tight enough (≈2× measured, versus the former ~10× hand constants) to
//! catch constant-factor regressions, not just asymptotic ones. Protocols
//! whose traffic depends on CRS-seeded committee draws
//! ([`crs_variant_traffic`](ProtocolKind::crs_variant_traffic)) additionally
//! floor each point at the grid-wide fitted envelope, so an unlucky
//! calibration draw cannot produce a budget a lucky execution draw would
//! overshoot. Off-grid parameters get the fitted envelope — the theorem
//! shape times an explicitly fitted `log₂(n)^k` polylog factor, measurable
//! now that the grid reaches `n = 512` — at the same slack; when the
//! fixture is absent entirely, the legacy calibrated constants apply.
//! DESIGN.md §7 documents the derivation.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mpca_metrics::json::Json;

use crate::params::ProtocolParams;

/// Multiplicative headroom the budget curves grant over the golden-measured
/// envelope. Honest executions must land inside `slack × envelope`; the
/// former hand-calibrated constants sat ~10× above the measurements.
pub const BUDGET_SLACK: u64 = 2;

/// Path of the golden calibration fixture (checked in at the workspace
/// root). Read at runtime so `MPCA_BLESS=1` regeneration takes effect
/// without a rebuild; the compiled-in copy is the fallback when the
/// binary runs away from the source tree.
pub const BUDGET_FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/comm_budget_curves.json"
);

const BUDGET_FIXTURE_COMPILED: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/comm_budget_curves.json"
));

/// A protocol family of this crate, as a first-class enumerable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Theorem 1 / Algorithm 3: committee-based MPC with abort,
    /// `Õ(n²/h)` bits (module [`mpc`](crate::mpc)).
    Theorem1Mpc,
    /// Theorem 2 / Theorem 18: sparse-gossip MPC with abort, `Õ(n³/h)` bits
    /// and locality `Õ(n/h)` (module [`local_mpc`](crate::local_mpc)).
    Theorem2LocalMpc,
    /// Theorem 4 / Algorithm 8: the communication–locality trade-off,
    /// `Õ(n³/h^{3/2})` bits (module [`tradeoff`](crate::tradeoff)).
    Theorem4Tradeoff,
    /// §2.1: single-source broadcast with abort (module
    /// [`broadcast`](crate::broadcast)).
    Broadcast,
    /// §2.1 / Remark 8: succinct all-to-all broadcast with abort (module
    /// [`all_to_all`](crate::all_to_all)).
    SuccinctAllToAll,
    /// The deliberately verification-free sum (module
    /// [`unchecked`](crate::unchecked)) — a **negative control**: it
    /// violates agreement under equivocation, which is what the oracle must
    /// detect.
    UncheckedSum,
}

impl ProtocolKind {
    /// Every protocol family in the catalog.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Theorem1Mpc,
        ProtocolKind::Theorem2LocalMpc,
        ProtocolKind::Theorem4Tradeoff,
        ProtocolKind::Broadcast,
        ProtocolKind::SuccinctAllToAll,
        ProtocolKind::UncheckedSum,
    ];

    /// The inverse of [`name`](Self::name): resolves a stable identifier
    /// back to its family (used by the golden-fixture loader).
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Short stable identifier (used in scenario labels and reports).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Theorem1Mpc => "thm1-mpc",
            ProtocolKind::Theorem2LocalMpc => "thm2-local-mpc",
            ProtocolKind::Theorem4Tradeoff => "thm4-tradeoff",
            ProtocolKind::Broadcast => "broadcast",
            ProtocolKind::SuccinctAllToAll => "all-to-all",
            ProtocolKind::UncheckedSum => "unchecked-sum",
        }
    }

    /// The paper statement the family implements.
    pub fn paper_ref(self) -> &'static str {
        match self {
            ProtocolKind::Theorem1Mpc => "Theorem 1 / Algorithm 3",
            ProtocolKind::Theorem2LocalMpc => "Theorem 2 / Theorem 18",
            ProtocolKind::Theorem4Tradeoff => "Theorem 4 / Algorithm 8",
            ProtocolKind::Broadcast => "§2.1 (broadcast with abort)",
            ProtocolKind::SuccinctAllToAll => "§2.1 / Remark 8",
            ProtocolKind::UncheckedSum => "— (negative control)",
        }
    }

    /// `true` when the family detects equivocation and answers with abort.
    ///
    /// Every paper protocol does; the [`UncheckedSum`](Self::UncheckedSum)
    /// negative control deliberately does not, so the oracle has a scenario
    /// it must flag.
    pub fn detects_equivocation(self) -> bool {
        !matches!(self, ProtocolKind::UncheckedSum)
    }

    /// The `(n, h)` grid the `--sweep` campaign mode (and the golden
    /// calibration sweeps) use for this family. Grid points keep a
    /// corruption margin `n - h ≥ 2` (≥ 4 for the MPC families), so the
    /// seeded adversary classes of the sweep fit every point.
    pub fn sweep_grid(self) -> &'static [(usize, usize)] {
        match self {
            ProtocolKind::Theorem1Mpc => &[
                (8, 4),
                (12, 6),
                (16, 8),
                (16, 12),
                (24, 12),
                (32, 16),
                (48, 24),
            ],
            ProtocolKind::Theorem2LocalMpc | ProtocolKind::Theorem4Tradeoff => {
                &[(8, 4), (12, 6), (16, 8), (16, 12), (24, 12), (32, 16)]
            }
            ProtocolKind::Broadcast | ProtocolKind::UncheckedSum => {
                &[(8, 6), (12, 10), (16, 14), (24, 22), (32, 30), (48, 46)]
            }
            ProtocolKind::SuccinctAllToAll => &[(8, 6), (12, 10), (16, 14), (24, 22), (32, 30)],
        }
    }

    /// Additional calibration-only grid points: `(n, h)` pairs used by
    /// standing campaigns and tests that are not part of the sweep grid.
    /// Their goldens keep the tight per-point budgets exact wherever the
    /// oracle actually runs.
    ///
    /// The tail of each list reaches into the **asymptotic regime**
    /// (`n ∈ {192, 256, 384, 512}` where a debug-mode calibration run stays
    /// affordable): those points give the log-factor fit of
    /// [`BudgetCurve::fitted_log_exponent`] the spread it needs, instead of
    /// extrapolating polylog growth from `n ≤ 48`. The `Õ(n³)`-traffic
    /// gossip families are calibrated as far as a `cargo test` run can
    /// carry them; the `E19-asymptotics` bench experiment measures them
    /// further out in release mode.
    pub fn calibration_extras(self) -> &'static [(usize, usize)] {
        match self {
            ProtocolKind::Theorem1Mpc => &[
                (8, 6),
                (8, 8),
                (16, 14),
                (16, 15),
                (24, 20),
                (192, 96),
                (256, 128),
                (384, 192),
                (512, 256),
            ],
            ProtocolKind::Theorem2LocalMpc => {
                &[(8, 6), (8, 8), (16, 13), (48, 24), (64, 32), (96, 48)]
            }
            ProtocolKind::Theorem4Tradeoff => {
                &[(8, 6), (8, 8), (16, 14), (48, 24), (64, 32), (96, 48)]
            }
            ProtocolKind::Broadcast => &[(192, 190), (256, 254), (384, 382), (512, 510)],
            ProtocolKind::SuccinctAllToAll => &[(10, 9), (192, 190), (256, 254)],
            ProtocolKind::UncheckedSum => &[(9, 7), (192, 190), (256, 254), (384, 382), (512, 510)],
        }
    }

    /// The full calibration grid: the sweep grid plus the extras.
    pub fn calibration_grid(self) -> Vec<(usize, usize)> {
        let mut grid: Vec<(usize, usize)> = self.sweep_grid().to_vec();
        grid.extend_from_slice(self.calibration_extras());
        grid
    }

    /// `true` when the family's honest traffic depends on `h` (the MPC
    /// families size committees and routing graphs by it). The broadcast
    /// baselines and the unchecked control ignore `h` entirely, so their
    /// calibration points match on `n` alone.
    pub fn h_sensitive_traffic(self) -> bool {
        matches!(
            self,
            ProtocolKind::Theorem1Mpc
                | ProtocolKind::Theorem2LocalMpc
                | ProtocolKind::Theorem4Tradeoff
        )
    }

    /// `true` when the family's honest byte counts vary with the CRS label
    /// (committee election and routing-graph sampling are CRS-seeded, so two
    /// honest executions at the same `(n, h)` legitimately differ by more
    /// than the budget slack). Budget curves floor these families' points at
    /// the grid-wide normalised-constant fit.
    pub fn crs_variant_traffic(self) -> bool {
        self.h_sensitive_traffic()
    }

    /// The theorem's communication shape for this family, evaluated at
    /// `(n, h)` with per-party payload ℓ bytes — the quantity the paper
    /// bounds up to constants and polylog factors. Budget curves scale this
    /// shape by golden-measured constants.
    pub fn comm_shape(self, n: usize, h: usize, payload_bytes: usize) -> f64 {
        let (n, h, ell) = (n as f64, h as f64, payload_bytes as f64);
        match self {
            // Theorem 1: Õ(n²/h).
            ProtocolKind::Theorem1Mpc => n * n / h,
            // Theorem 2: Õ(n³/h).
            ProtocolKind::Theorem2LocalMpc => n * n * n / h,
            // Theorem 4: Õ(n³/h^{3/2}).
            ProtocolKind::Theorem4Tradeoff => n * n * n / (h * h.sqrt()),
            // O(n²·(ℓ + λ-ish header)): the echo phase re-sends n² times.
            ProtocolKind::Broadcast => n * n * (ell + 16.0),
            // Õ(n²·(ℓ + λ)).
            ProtocolKind::SuccinctAllToAll => n * n * (ell + 64.0),
            // n² messages of ℓ value + header bytes.
            ProtocolKind::UncheckedSum => n * n * (ell + 16.0),
        }
    }

    /// The theorem's **locality** shape: the number of distinct peers one
    /// honest party may contact, up to constants. Theorems 2 and 4 promise
    /// sublinear locality (`Õ(n/h)` and `Õ(n/√h)`); the remaining families
    /// are full-mesh (`n - 1`).
    pub fn locality_shape(self, n: usize, h: usize) -> f64 {
        let (n, h) = (n as f64, h as f64);
        match self {
            ProtocolKind::Theorem2LocalMpc => n / h,
            ProtocolKind::Theorem4Tradeoff => n / h.sqrt(),
            _ => (n - 1.0).max(1.0),
        }
    }

    /// The honest-communication **budget envelope** in bits for an execution
    /// at `params` with per-party payloads of `payload_bytes` bytes (the
    /// input length ℓ for MPC and all-to-all, the message length for
    /// broadcast).
    ///
    /// Delegates to the family's golden-derived [`BudgetCurve`]
    /// ([`BUDGET_SLACK`]× the measured envelope; see the module docs for the
    /// derivation); honest executions must land inside it, and an execution
    /// outside it means a constant-factor or accounting regression. Falls
    /// back to the legacy ~10× hand-calibrated constants only when the
    /// golden fixture carries no points for the family.
    pub fn comm_budget_bits(self, params: &ProtocolParams, payload_bytes: usize) -> u64 {
        match BudgetCurve::for_kind(self) {
            Some(curve) => curve.comm_budget_bits(params, payload_bytes),
            None => self.fallback_budget_bits(params, payload_bytes),
        }
    }

    /// The per-party **locality budget** at `params`: the maximum number of
    /// honest peers one honest party may contact. Theorems 2 and 4 promise
    /// locality, not just total bits — this is the quantitative half of the
    /// oracle's locality predicate. Always capped at `n - 1` (the full
    /// mesh); without golden points the cap is the whole budget.
    pub fn locality_budget(self, params: &ProtocolParams) -> usize {
        let cap = params.n.saturating_sub(1).max(1);
        match BudgetCurve::for_kind(self) {
            Some(curve) => curve.locality_budget(params).min(cap),
            None => cap,
        }
    }

    /// The pre-curve budget: the paper's asymptotic bounds instantiated with
    /// hand constants calibrated ~10× above the `E1`–`E5` measurements. Kept
    /// as the fallback for builds without the golden fixture, and as the
    /// yardstick the bless test tightens against.
    pub fn fallback_budget_bits(self, params: &ProtocolParams, payload_bytes: usize) -> u64 {
        let (n, h) = (params.n as u64, params.h as u64);
        let ell = payload_bytes as u64;
        match self {
            // Measured: bits·h/n² ≤ ~60k over the E1 grid.
            ProtocolKind::Theorem1Mpc => 512_000 * n * n / h,
            // Measured: bits·h/n³ ≤ ~51k over the E2 grid.
            ProtocolKind::Theorem2LocalMpc => 512_000 * n * n * n / h,
            // Measured: bits·h^{3/2}/n³ ≤ ~87k over the E3 grid.
            ProtocolKind::Theorem4Tradeoff => {
                let h_sqrt = (params.h as f64).sqrt();
                (768_000.0 * (params.n as f64).powi(3) / (params.h as f64 * h_sqrt)) as u64
            }
            // O(n·ℓ + n²·ℓ): the echo phase re-sends the message n² times.
            ProtocolKind::Broadcast => 64 * n * n * (ell + 16),
            // Õ(n²·(ℓ + λ)): measured ~585 bits per ordered pair at ℓ = 64.
            ProtocolKind::SuccinctAllToAll => 64 * n * n * (ell + 64),
            // n² messages of ⌈ℓ⌉ + header bytes.
            ProtocolKind::UncheckedSum => 64 * n * n * (ell + 16),
        }
    }
}

/// One golden honest-run measurement: the envelope (max over the
/// calibration labels) of honest bits and locality at one `(n, h)` grid
/// point of a protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationPoint {
    /// Total parties.
    pub n: usize,
    /// Guaranteed honest parties the calibration ran at.
    pub h: usize,
    /// Per-party payload length ℓ in bytes of the calibration workload.
    pub payload_bytes: usize,
    /// Honest bits charged — the max over the calibration labels.
    pub honest_bits: u64,
    /// Max per-party locality — the max over the calibration labels.
    pub max_locality: usize,
}

/// A per-protocol budget envelope derived from golden honest sweeps.
///
/// At a calibrated `(n, h)` point the communication budget is
/// [`BUDGET_SLACK`]× the measured envelope; for
/// [`crs_variant_traffic`](ProtocolKind::crs_variant_traffic) families each
/// point is additionally floored at the grid-wide normalised-constant fit
/// (`max` over points of `bits / comm_shape`), which absorbs the
/// committee-draw variance two honest labels can legitimately differ by.
/// Off-grid parameters use the fitted envelope — theorem shape ×
/// explicitly fitted `log₂(n)^k` factor
/// ([`fitted_log_exponent`](Self::fitted_log_exponent)) — at the same
/// slack.
#[derive(Debug, Clone)]
pub struct BudgetCurve {
    kind: ProtocolKind,
    points: Vec<CalibrationPoint>,
}

impl BudgetCurve {
    /// The curve of `kind` from the golden fixture, or `None` when the
    /// fixture has no points for it (callers fall back to
    /// [`ProtocolKind::fallback_budget_bits`]).
    pub fn for_kind(kind: ProtocolKind) -> Option<&'static BudgetCurve> {
        curves().get(&kind)
    }

    /// The calibration points backing this curve.
    pub fn points(&self) -> &[CalibrationPoint] {
        &self.points
    }

    /// The golden point for `(n, h)`, if calibrated. Families whose traffic
    /// ignores `h` ([`h_sensitive_traffic`](ProtocolKind::h_sensitive_traffic)
    /// is `false`) match on `n` alone.
    pub fn calibration_point(&self, n: usize, h: usize) -> Option<&CalibrationPoint> {
        let want_h = self.kind.h_sensitive_traffic();
        self.points
            .iter()
            .find(|p| p.n == n && (!want_h || p.h == h))
    }

    /// The fitted polylog exponent `k` of the model
    /// `bits ≈ C · comm_shape(n, h, ℓ) · log₂(n)^k` — a least-squares fit
    /// over the calibration grid in `(ln log₂ n, ln(bits / shape))` space.
    ///
    /// The theorem statements hide polylog factors inside `Õ(·)`; with the
    /// grid now reaching into the asymptotic regime (`n` up to 512) the
    /// residual `bits / shape` carries enough spread to measure that factor
    /// instead of hand-waving it. Clamped to `[0, 4]` (the paper's hidden
    /// factors are at most a few powers of `log n`); degenerate grids (all
    /// points at one `n`) fit `k = 0`, reducing to the plain constant fit.
    pub fn fitted_log_exponent(&self) -> f64 {
        let samples: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| {
                let shape = self.kind.comm_shape(p.n, p.h, p.payload_bytes);
                let log_n = (p.n as f64).log2().max(1.0);
                (log_n.ln(), (p.honest_bits as f64 / shape).ln())
            })
            .collect();
        let m = samples.len() as f64;
        if samples.is_empty() {
            return 0.0;
        }
        let x_bar = samples.iter().map(|s| s.0).sum::<f64>() / m;
        let y_bar = samples.iter().map(|s| s.1).sum::<f64>() / m;
        let sxx: f64 = samples.iter().map(|s| (s.0 - x_bar).powi(2)).sum();
        if sxx < 1e-9 {
            return 0.0;
        }
        let sxy: f64 = samples.iter().map(|s| (s.0 - x_bar) * (s.1 - y_bar)).sum();
        (sxy / sxx).clamp(0.0, 4.0)
    }

    /// The envelope constant `C` of the fitted log model: the max over
    /// calibration points of `bits / (shape · log₂(n)^k)`, so the fitted
    /// envelope dominates **every** grid measurement by construction.
    fn fitted_envelope_constant(&self, k: f64) -> f64 {
        self.points
            .iter()
            .map(|p| {
                let shape = self.kind.comm_shape(p.n, p.h, p.payload_bytes);
                p.honest_bits as f64 / (shape * (p.n as f64).log2().max(1.0).powf(k))
            })
            .fold(0.0, f64::max)
    }

    /// The fitted envelope in bits at `(n, h, ℓ)`:
    /// `C · comm_shape(n, h, ℓ) · log₂(n)^k` with `k` from
    /// [`fitted_log_exponent`](Self::fitted_log_exponent) and `C` the
    /// grid-wide envelope constant under that exponent.
    pub fn fitted_envelope_bits(&self, n: usize, h: usize, payload_bytes: usize) -> f64 {
        let k = self.fitted_log_exponent();
        self.fitted_envelope_constant(k)
            * self.kind.comm_shape(n, h, payload_bytes)
            * (n as f64).log2().max(1.0).powf(k)
    }

    /// The communication budget in bits at `params` with payload ℓ =
    /// `payload_bytes` (see the type docs for the derivation).
    ///
    /// **Off-grid** parameters get the fitted-envelope verdict at the same
    /// [`BUDGET_SLACK`]× slack as calibrated points: the explicit log-factor
    /// fit (grid reaching `n = 512`) replaces the former clamp up to the
    /// legacy ~10× hand constants, which existed only because a constant
    /// fit from `n ≤ 48` points undershot the polylog growth real
    /// measurements include.
    pub fn comm_budget_bits(&self, params: &ProtocolParams, payload_bytes: usize) -> u64 {
        let shape = self.kind.comm_shape(params.n, params.h, payload_bytes);
        let fitted = self.fitted_envelope_bits(params.n, params.h, payload_bytes);
        let envelope = match self.calibration_point(params.n, params.h) {
            Some(point) => {
                // Rescale the measured point if the requested payload
                // differs from the calibrated one.
                let scale = shape / self.kind.comm_shape(point.n, point.h, point.payload_bytes);
                let measured = point.honest_bits as f64 * scale;
                if self.kind.crs_variant_traffic() {
                    measured.max(fitted)
                } else {
                    measured
                }
            }
            None => fitted,
        };
        (BUDGET_SLACK as f64 * envelope).ceil() as u64
    }

    /// The locality budget at `params`: [`BUDGET_SLACK`]× the measured
    /// per-point locality envelope (floored at the grid-wide fit for
    /// CRS-variant families, like the bit budgets), capped at `n - 1`.
    /// Off-grid parameters get the `n - 1` cap outright — locality counts
    /// peers, where a full-mesh bound is always sound and the polylog
    /// residual is too small to fit meaningfully.
    pub fn locality_budget(&self, params: &ProtocolParams) -> usize {
        let cap = params.n.saturating_sub(1).max(1);
        let shape = self.kind.locality_shape(params.n, params.h);
        let fitted = self
            .points
            .iter()
            .map(|p| p.max_locality as f64 / self.kind.locality_shape(p.n, p.h))
            .fold(0.0, f64::max)
            * shape;
        let envelope = match self.calibration_point(params.n, params.h) {
            Some(point) => {
                let measured = point.max_locality as f64;
                if self.kind.crs_variant_traffic() {
                    measured.max(fitted)
                } else {
                    measured
                }
            }
            None => return cap,
        };
        ((BUDGET_SLACK as f64 * envelope).ceil() as usize).min(cap)
    }
}

fn curves() -> &'static BTreeMap<ProtocolKind, BudgetCurve> {
    static CURVES: OnceLock<BTreeMap<ProtocolKind, BudgetCurve>> = OnceLock::new();
    CURVES.get_or_init(|| {
        let text = std::fs::read_to_string(BUDGET_FIXTURE_PATH)
            .unwrap_or_else(|_| BUDGET_FIXTURE_COMPILED.to_string());
        parse_curves(&text)
    })
}

/// Parses the golden fixture with [`mpca_metrics::json`]. Points of
/// unknown protocols are skipped for forward compatibility; an unparseable
/// document yields no curves, so the legacy constants apply.
fn parse_curves(text: &str) -> BTreeMap<ProtocolKind, BudgetCurve> {
    let mut map: BTreeMap<ProtocolKind, BudgetCurve> = BTreeMap::new();
    let doc = Json::parse(text).unwrap_or(Json::Null);
    for point in doc
        .get("points")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let Some(kind) = point
            .get("protocol")
            .and_then(Json::as_str)
            .and_then(ProtocolKind::from_name)
        else {
            continue;
        };
        let field = |key: &str| point.get(key).and_then(Json::as_u64);
        let (Some(n), Some(h), Some(payload), Some(bits), Some(locality)) = (
            field("n"),
            field("h"),
            field("payload_bytes"),
            field("honest_bits"),
            field("max_locality"),
        ) else {
            continue;
        };
        map.entry(kind)
            .or_insert_with(|| BudgetCurve {
                kind,
                points: Vec::new(),
            })
            .points
            .push(CalibrationPoint {
                n: n as usize,
                h: h as usize,
                payload_bytes: payload as usize,
                honest_bits: bits,
                max_locality: locality as usize,
            });
    }
    map
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::BTreeSet<&str> =
            ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
        assert_eq!(ProtocolKind::Theorem1Mpc.to_string(), "thm1-mpc");
        assert!(ProtocolKind::Theorem1Mpc.paper_ref().contains("Theorem 1"));
    }

    #[test]
    fn only_the_negative_control_skips_equivocation_detection() {
        for kind in ProtocolKind::ALL {
            assert_eq!(
                kind.detects_equivocation(),
                kind != ProtocolKind::UncheckedSum
            );
        }
    }

    #[test]
    fn budgets_track_the_theorem_shapes() {
        let loose = ProtocolParams::new(64, 8);
        let tight = ProtocolParams::new(64, 32);
        // More honest parties → smaller budget for every h-dependent family,
        // whether the curve or the fallback answers (n = 64 is off-grid, so
        // this exercises the fitted-shape path once the fixture is blessed).
        for kind in [
            ProtocolKind::Theorem1Mpc,
            ProtocolKind::Theorem2LocalMpc,
            ProtocolKind::Theorem4Tradeoff,
        ] {
            assert!(kind.comm_budget_bits(&loose, 2) > kind.comm_budget_bits(&tight, 2));
        }
        // The h-insensitive families ignore h but scale with n.
        for kind in [
            ProtocolKind::Broadcast,
            ProtocolKind::SuccinctAllToAll,
            ProtocolKind::UncheckedSum,
        ] {
            assert_eq!(
                kind.comm_budget_bits(&ProtocolParams::new(64, 8), 32),
                kind.comm_budget_bits(&ProtocolParams::new(64, 32), 32)
            );
            assert!(
                kind.comm_budget_bits(&ProtocolParams::new(64, 8), 32)
                    > kind.comm_budget_bits(&ProtocolParams::new(32, 8), 32)
            );
        }
        // The fitted envelopes (log-factor fit over the asymptotic-regime
        // grid) must still cover the measured E1/E2/E3 envelopes at
        // paper-scale parameters — the fitted-envelope verdict replaced the
        // legacy clamp, so this is the no-false-flag guarantee now.
        let e1 = ProtocolParams::new(64, 8);
        assert!(ProtocolKind::Theorem1Mpc.comm_budget_bits(&e1, 2) > 30_553_088);
        let e2 = ProtocolParams::new(96, 48);
        assert!(ProtocolKind::Theorem2LocalMpc.comm_budget_bits(&e2, 2) > 939_665_664);
        let e3 = ProtocolParams::new(64, 48);
        assert!(ProtocolKind::Theorem4Tradeoff.comm_budget_bits(&e3, 2) > 68_627_744);
    }

    #[test]
    fn sweep_grids_keep_corruption_margins() {
        for kind in ProtocolKind::ALL {
            assert!(!kind.sweep_grid().is_empty());
            for &(n, h) in kind.sweep_grid() {
                assert!(h < n, "{kind}: sweep point ({n}, {h}) has no margin");
                let margin = n - h;
                let required = if kind.h_sensitive_traffic() { 4 } else { 2 };
                assert!(
                    margin >= required,
                    "{kind}: sweep point ({n}, {h}) margin {margin} < {required}"
                );
            }
            let grid = kind.calibration_grid();
            assert!(grid.len() >= kind.sweep_grid().len());
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_name("no-such-protocol"), None);
    }

    #[test]
    fn curves_parse_and_budget_from_golden_points() {
        let fixture = concat!(
            "{\"schema\":\"mpc-aborts/comm-budget-curves/v1\",\"points\":[\n",
            "{\"protocol\":\"unchecked-sum\",\"n\":8,\"h\":6,\"payload_bytes\":8,",
            "\"honest_bits\":4000,\"max_locality\":7},\n",
            "{\"protocol\":\"thm1-mpc\",\"n\":8,\"h\":4,\"payload_bytes\":2,",
            "\"honest_bits\":100000,\"max_locality\":7},\n",
            "{\"protocol\":\"thm1-mpc\",\"n\":16,\"h\":8,\"payload_bytes\":2,",
            "\"honest_bits\":200000,\"max_locality\":15},\n",
            "{\"protocol\":\"not-a-protocol\",\"n\":8,\"h\":6,\"payload_bytes\":8,",
            "\"honest_bits\":1,\"max_locality\":1}\n",
            "]}\n",
        );
        let curves = parse_curves(fixture);
        assert_eq!(curves.len(), 2, "unknown protocols are skipped");
        assert!(
            parse_curves(fixture.trim_end().trim_end_matches('}')).is_empty(),
            "an unparseable document gives no curves"
        );

        // h-insensitive: exact per-point budget is slack × measured, however
        // h is spelled; off-grid n gets the fitted-envelope verdict. With a
        // single grid point there is no spread to fit a log factor from, so
        // k = 0 and the envelope is the plain normalised-constant fit.
        let sum = &curves[&ProtocolKind::UncheckedSum];
        let params = ProtocolParams::new(8, 7);
        assert_eq!(sum.comm_budget_bits(&params, 8), 2 * 4000);
        assert_eq!(sum.locality_budget(&params), 7, "2×7 capped at n − 1");
        let off_grid = ProtocolParams::new(16, 14);
        assert_eq!(sum.fitted_log_exponent(), 0.0, "one point → no log fit");
        let fitted = 4000.0 / ProtocolKind::UncheckedSum.comm_shape(8, 6, 8);
        let shape_fit =
            (2.0 * fitted * ProtocolKind::UncheckedSum.comm_shape(16, 14, 8)).ceil() as u64;
        assert_eq!(
            sum.comm_budget_bits(&off_grid, 8),
            shape_fit,
            "off-grid budgets are the fitted envelope at the same slack"
        );
        assert_eq!(
            sum.locality_budget(&off_grid),
            15,
            "off-grid locality is the full-mesh cap"
        );

        // CRS-variant: the point is floored at the grid-wide fit. The
        // (8, 4) point's normalised constant (100000/16 = 6250) dominates
        // the (16, 8) one (200000/32 = 6250 — equal here), so the floor is
        // the measured value and the budget is exactly 2× measured.
        let thm1 = &curves[&ProtocolKind::Theorem1Mpc];
        assert_eq!(
            thm1.comm_budget_bits(&ProtocolParams::new(16, 8), 2),
            2 * 200_000
        );
        // A lucky (low) draw at one point is lifted by the other point's
        // constant: drop the (16, 8) measurement to 50000 and its budget
        // floors at 2 × 6250 × shape(16, 8) = 400000 instead of 100000.
        let mut lucky = thm1.clone();
        lucky.points[1].honest_bits = 50_000;
        assert_eq!(
            lucky.comm_budget_bits(&ProtocolParams::new(16, 8), 2),
            2 * 6250 * 32
        );
    }

    #[test]
    fn log_factor_is_fitted_from_grid_spread() {
        // Synthetic grid following bits = 1000 · shape · log₂(n) exactly:
        // the fit must recover k = 1 and the off-grid envelope must carry
        // the log factor instead of extrapolating the bare theorem shape.
        let kind = ProtocolKind::UncheckedSum;
        let lines: Vec<String> = [8usize, 16, 32, 64, 128]
            .into_iter()
            .map(|n| {
                let bits = (1000.0 * kind.comm_shape(n, n - 2, 8) * (n as f64).log2()) as u64;
                format!(
                    "{{\"protocol\":\"unchecked-sum\",\"n\":{n},\"h\":{},\"payload_bytes\":8,\
                     \"honest_bits\":{bits},\"max_locality\":{}}}",
                    n - 2,
                    n - 1
                )
            })
            .collect();
        let curves = parse_curves(&format!("{{\"points\":[{}]}}", lines.join(",\n")));
        let curve = &curves[&kind];
        let k = curve.fitted_log_exponent();
        assert!((k - 1.0).abs() < 0.05, "fitted k = {k}, expected ≈ 1");
        // Off-grid at n = 256: the envelope must sit within a few percent
        // of the generating model (the envelope constant is a max over
        // near-identical per-point constants, so it cannot undershoot).
        let model = 1000.0 * kind.comm_shape(256, 254, 8) * 8.0;
        let envelope = curve.fitted_envelope_bits(256, 254, 8);
        assert!(
            envelope >= model * 0.98 && envelope <= model * 1.10,
            "envelope {envelope} vs model {model}"
        );
        // And a constant-only grid (k = 0) stays a pure shape fit.
        let flat = parse_curves(
            "{\"points\":[\
             {\"protocol\":\"unchecked-sum\",\"n\":8,\"h\":6,\"payload_bytes\":8,\
             \"honest_bits\":4000,\"max_locality\":7},\
             {\"protocol\":\"unchecked-sum\",\"n\":16,\"h\":14,\"payload_bytes\":8,\
             \"honest_bits\":16000,\"max_locality\":15}]}",
        );
        let flat_k = flat[&kind].fitted_log_exponent();
        assert!(
            flat_k.abs() < 1e-6,
            "shape-proportional grid fits k = 0, got {flat_k}"
        );
    }
}
