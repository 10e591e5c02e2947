//! The protocol **catalog**: registry hooks naming this crate's protocol
//! families as data.
//!
//! The scenario subsystem (`mpca-scenario`) enumerates protocols, builds
//! their parties through the constructors in this crate, and checks executed
//! sessions against the paper's communication budgets. The catalog is the
//! bridge: a [`ProtocolKind`] names a family, its [`FamilySpec`] row holds
//! every per-family fact (grids, theorem shapes, frame decoders, predicate
//! scoping), and the catalog computes the **budget envelope** its honest
//! communication must stay inside — the quantitative half of the
//! security-property oracle.
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
//! ([`committee_traffic`](FamilySpec::committee_traffic)) additionally
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

use crate::frames::{self, FrameDecoder};
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

    /// The family's row of the catalog table: every per-family protocol
    /// fact in one place.
    pub fn spec(self) -> &'static FamilySpec {
        &FAMILIES[self as usize]
    }

    /// The inverse of [`name`](Self::name): resolves a stable identifier
    /// back to its family (used by the golden-fixture loader).
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Short stable identifier (used in scenario labels and reports).
    pub fn name(self) -> &'static str {
        self.spec().name
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

    /// The pre-curve budget: the family row's `legacy_budget_constant`
    /// times its `comm_shape`, hand-calibrated ~10× above the `E1`–`E5`
    /// measurements. Kept as the fallback for builds
    /// without the golden fixture, and as the yardstick the bless test
    /// tightens against.
    pub fn fallback_budget_bits(self, params: &ProtocolParams, payload_bytes: usize) -> u64 {
        let spec = self.spec();
        (spec.legacy_budget_constant * spec.shape(params.n, params.h, payload_bytes)) as u64
    }
}

/// One protocol family's facts: a row of the catalog table, reached
/// through [`ProtocolKind::spec`].
///
/// Everything that differs between families — identity, grids, budget
/// shapes, framing, predicate scoping — is data here, so the budget curves,
/// [`FrameSchema`](crate::FrameSchema), the predicate sets, the sweep and
/// the search all read one definition. Adding a family is one row here,
/// plus its constructor and sweep adversary classes in the scenario layer
/// (DESIGN.md §6).
#[derive(Debug)]
pub struct FamilySpec {
    /// Short stable identifier (scenario labels, reports, fixtures).
    pub(crate) name: &'static str,
    /// The `(n, h)` grid the `--sweep` campaign mode (and the golden
    /// calibration sweeps) use. Grid points keep a corruption margin
    /// `n - h ≥ 2` (≥ 4 for the committee families), so the seeded
    /// adversary classes of the sweep fit every point.
    pub sweep_grid: &'static [(usize, usize)],
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
    pub(crate) calibration_extras: &'static [(usize, usize)],
    /// `true` when honest traffic is sized by committees and routing
    /// graphs drawn from the CRS (the three theorem families). Such traffic
    /// depends on `h`, so calibration points match on `(n, h)` rather than
    /// `n` alone; and it varies with the CRS label — two honest executions
    /// at the same `(n, h)` legitimately differ by more than the budget
    /// slack — so budget curves floor these families' points at the
    /// grid-wide normalised-constant fit.
    pub committee_traffic: bool,
    /// The theorem's communication shape at `(n, h)` with per-party payload
    /// ℓ bytes — the quantity the paper bounds up to constants and polylog
    /// factors. Budget curves scale it by golden-measured constants.
    pub(crate) comm_shape: fn(n: f64, h: f64, payload_bytes: f64) -> f64,
    /// The theorem's **locality** shape: the number of distinct peers one
    /// honest party may contact, up to constants. Theorems 2 and 4 promise
    /// sublinear locality (`Õ(n/h)` and `Õ(n/√h)`); the remaining families
    /// are full-mesh (`n - 1`).
    pub(crate) locality_shape: fn(n: f64, h: f64) -> f64,
    /// The hand constant of the legacy budget
    /// ([`ProtocolKind::fallback_budget_bits`]): bits per unit of
    /// [`comm_shape`](Self::comm_shape), ~10× above the measurements.
    pub(crate) legacy_budget_constant: f64,
    /// The message-enum decoders [`FrameSchema::decode`](crate::FrameSchema::decode)
    /// tries, in order (dominant enum first).
    pub(crate) frame_decoders: &'static [FrameDecoder],
    /// The frame tags the family replicates **verbatim** to several
    /// recipients — the tags the broadcast-consistency predicate may
    /// quantify over without false positives. Tags with legitimate
    /// per-recipient variation (key-generation shares, gossip rumours
    /// relaying distinct sources) are deliberately absent; Theorem 2's
    /// local protocol replicates nothing verbatim.
    pub consistency_tags: &'static [&'static str],
    /// `true` for the families where a misbehaviour-detection abort can
    /// **only** arise from the announced verification phase. The
    /// committee-based theorem families legitimately detect earlier — their
    /// committee-election equality tests and share-forwarding cross-checks
    /// run (and abort) before any `VerificationStart` milestone — so the
    /// detection-implies-verification rule is not an invariant there.
    pub verification_is_sole_detector: bool,
}

impl FamilySpec {
    /// The full calibration grid: the sweep grid plus the extras.
    pub fn calibration_grid(&self) -> Vec<(usize, usize)> {
        [self.sweep_grid, self.calibration_extras].concat()
    }

    /// [`comm_shape`](Self::comm_shape) at integer arguments.
    fn shape(&self, n: usize, h: usize, payload_bytes: usize) -> f64 {
        (self.comm_shape)(n as f64, h as f64, payload_bytes as f64)
    }
}

/// The full-mesh locality shape, `n - 1`.
fn full_mesh(n: f64, _h: f64) -> f64 {
    (n - 1.0).max(1.0)
}

/// The catalog table, in [`ProtocolKind::ALL`] order (a kind's discriminant
/// indexes its row).
static FAMILIES: [FamilySpec; 6] = [
    // Theorem 1 / Algorithm 3.
    FamilySpec {
        name: "thm1-mpc",
        sweep_grid: &[
            (8, 4),
            (12, 6),
            (16, 8),
            (16, 12),
            (24, 12),
            (32, 16),
            (48, 24),
        ],
        calibration_extras: &[
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
        committee_traffic: true,
        // Õ(n²/h).
        comm_shape: |n, h, _| n * n / h,
        locality_shape: full_mesh,
        // Measured: bits·h/n² ≤ ~60k over the E1 grid.
        legacy_budget_constant: 512_000.0,
        frame_decoders: &[frames::frame_mpc_msg, frames::frame_committee_msg],
        consistency_tags: &["mpc:input-ct", "mpc:output"],
        verification_is_sole_detector: false,
    },
    // Theorem 2 / Theorem 18.
    FamilySpec {
        name: "thm2-local-mpc",
        sweep_grid: &[(8, 4), (12, 6), (16, 8), (16, 12), (24, 12), (32, 16)],
        calibration_extras: &[(8, 6), (8, 8), (16, 13), (48, 24), (64, 32), (96, 48)],
        committee_traffic: true,
        // Õ(n³/h).
        comm_shape: |n, h, _| n * n * n / h,
        // Õ(n/h).
        locality_shape: |n, h| n / h,
        // Measured: bits·h/n³ ≤ ~51k over the E2 grid.
        legacy_budget_constant: 512_000.0,
        frame_decoders: &[frames::frame_gossip_msg, frames::frame_connect_msg],
        consistency_tags: &[],
        verification_is_sole_detector: false,
    },
    // Theorem 4 / Algorithm 8.
    FamilySpec {
        name: "thm4-tradeoff",
        sweep_grid: &[(8, 4), (12, 6), (16, 8), (16, 12), (24, 12), (32, 16)],
        calibration_extras: &[(8, 6), (8, 8), (16, 14), (48, 24), (64, 32), (96, 48)],
        committee_traffic: true,
        // Õ(n³/h^{3/2}).
        comm_shape: |n, h, _| n * n * n / (h * h.sqrt()),
        // Õ(n/√h).
        locality_shape: |n, h| n / h.sqrt(),
        // Measured: bits·h^{3/2}/n³ ≤ ~87k over the E3 grid.
        legacy_budget_constant: 768_000.0,
        frame_decoders: &[
            frames::frame_mpc_msg,
            frames::frame_local_committee_msg,
            frames::frame_gossip_msg,
            frames::frame_connect_msg,
        ],
        consistency_tags: &["mpc:input-ct", "mpc:output"],
        verification_is_sole_detector: false,
    },
    // §2.1 (broadcast with abort).
    FamilySpec {
        name: "broadcast",
        sweep_grid: &[(8, 6), (12, 10), (16, 14), (24, 22), (32, 30), (48, 46)],
        calibration_extras: &[(192, 190), (256, 254), (384, 382), (512, 510)],
        committee_traffic: false,
        // O(n²·(ℓ + λ-ish header)): the echo phase re-sends n² times.
        comm_shape: |n, _, ell| n * n * (ell + 16.0),
        locality_shape: full_mesh,
        legacy_budget_constant: 64.0,
        frame_decoders: &[frames::frame_broadcast_msg],
        consistency_tags: &["bcast:send"],
        verification_is_sole_detector: true,
    },
    // §2.1 / Remark 8.
    FamilySpec {
        name: "all-to-all",
        sweep_grid: &[(8, 6), (12, 10), (16, 14), (24, 22), (32, 30)],
        calibration_extras: &[(10, 9), (192, 190), (256, 254)],
        committee_traffic: false,
        // Õ(n²·(ℓ + λ)): measured ~585 bits per ordered pair at ℓ = 64.
        comm_shape: |n, _, ell| n * n * (ell + 64.0),
        locality_shape: full_mesh,
        legacy_budget_constant: 64.0,
        frame_decoders: &[frames::frame_succinct_msg],
        consistency_tags: &["a2a:input"],
        verification_is_sole_detector: true,
    },
    // The negative control: no paper statement.
    FamilySpec {
        name: "unchecked-sum",
        sweep_grid: &[(8, 6), (12, 10), (16, 14), (24, 22), (32, 30), (48, 46)],
        calibration_extras: &[(9, 7), (192, 190), (256, 254), (384, 382), (512, 510)],
        committee_traffic: false,
        // n² messages of ℓ value + header bytes.
        comm_shape: |n, _, ell| n * n * (ell + 16.0),
        locality_shape: full_mesh,
        legacy_budget_constant: 64.0,
        frame_decoders: &[frames::frame_sum_value],
        consistency_tags: &["sum:value"],
        verification_is_sole_detector: true,
    },
];

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
/// [`committee_traffic`](FamilySpec::committee_traffic) families each
/// point is additionally floored at the grid-wide normalised-constant fit
/// (`max` over points of `bits / comm_shape`), which absorbs the
/// committee-draw variance two honest labels can legitimately differ by.
/// Off-grid parameters use the fitted envelope — theorem shape ×
/// explicitly fitted `log₂(n)^k` factor
/// ([`fitted_log_exponent`](Self::fitted_log_exponent)) — at the same
/// slack.
#[derive(Debug, Clone)]
pub struct BudgetCurve {
    spec: &'static FamilySpec,
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
    /// ignores `h` ([`committee_traffic`](FamilySpec::committee_traffic) is
    /// `false`) match on `n` alone.
    pub fn calibration_point(&self, n: usize, h: usize) -> Option<&CalibrationPoint> {
        let want_h = self.spec.committee_traffic;
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
                let shape = self.spec.shape(p.n, p.h, p.payload_bytes);
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
                let shape = self.spec.shape(p.n, p.h, p.payload_bytes);
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
            * self.spec.shape(n, h, payload_bytes)
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
        let shape = self.spec.shape(params.n, params.h, payload_bytes);
        let fitted = self.fitted_envelope_bits(params.n, params.h, payload_bytes);
        let envelope = match self.calibration_point(params.n, params.h) {
            Some(point) => {
                // Rescale the measured point if the requested payload
                // differs from the calibrated one.
                let scale = shape / self.spec.shape(point.n, point.h, point.payload_bytes);
                let measured = point.honest_bits as f64 * scale;
                if self.spec.committee_traffic {
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
    /// committee-traffic families, like the bit budgets), capped at `n - 1`.
    /// Off-grid parameters get the `n - 1` cap outright — locality counts
    /// peers, where a full-mesh bound is always sound and the polylog
    /// residual is too small to fit meaningfully.
    pub fn locality_budget(&self, params: &ProtocolParams) -> usize {
        let cap = params.n.saturating_sub(1).max(1);
        let locality_shape = |n: usize, h: usize| (self.spec.locality_shape)(n as f64, h as f64);
        let shape = locality_shape(params.n, params.h);
        let fitted = self
            .points
            .iter()
            .map(|p| p.max_locality as f64 / locality_shape(p.n, p.h))
            .fold(0.0, f64::max)
            * shape;
        let envelope = match self.calibration_point(params.n, params.h) {
            Some(point) => {
                let measured = point.max_locality as f64;
                if self.spec.committee_traffic {
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
                spec: kind.spec(),
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
        // Pinned in `ALL` order, so a swapped table row fails here even
        // though it would still round-trip through `from_name`.
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "thm1-mpc",
                "thm2-local-mpc",
                "thm4-tradeoff",
                "broadcast",
                "all-to-all",
                "unchecked-sum"
            ]
        );
        assert_eq!(ProtocolKind::Theorem1Mpc.to_string(), "thm1-mpc");
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
        // The legacy budgets (constant × shape) keep the hand formulas'
        // values, one point per family.
        let legacy = [
            (ProtocolKind::Theorem1Mpc, 16, 8, 2, 16_384_000),
            (ProtocolKind::Theorem2LocalMpc, 8, 4, 2, 65_536_000),
            (ProtocolKind::Theorem4Tradeoff, 8, 4, 2, 49_152_000),
            (ProtocolKind::Broadcast, 8, 6, 32, 196_608),
            (ProtocolKind::SuccinctAllToAll, 8, 6, 32, 393_216),
            (ProtocolKind::UncheckedSum, 8, 6, 8, 98_304),
        ];
        for (kind, n, h, ell, bits) in legacy {
            assert_eq!(
                kind.fallback_budget_bits(&ProtocolParams::new(n, h), ell),
                bits,
                "{kind} at ({n}, {h}, ℓ = {ell})"
            );
        }
    }

    #[test]
    fn sweep_grids_keep_corruption_margins() {
        for kind in ProtocolKind::ALL {
            let spec = kind.spec();
            assert!(!spec.sweep_grid.is_empty());
            for &(n, h) in spec.sweep_grid {
                assert!(h < n, "{kind}: sweep point ({n}, {h}) has no margin");
                let margin = n - h;
                let required = if spec.committee_traffic { 4 } else { 2 };
                assert!(
                    margin >= required,
                    "{kind}: sweep point ({n}, {h}) margin {margin} < {required}"
                );
            }
            let grid = spec.calibration_grid();
            assert!(grid.len() >= spec.sweep_grid.len());
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
        let shape = ProtocolKind::UncheckedSum.spec().comm_shape;
        let fitted = 4000.0 / shape(8.0, 6.0, 8.0);
        let shape_fit = (2.0 * fitted * shape(16.0, 14.0, 8.0)).ceil() as u64;
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

        // Committee traffic: the point is floored at the grid-wide fit. The
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
        let shape = kind.spec().comm_shape;
        let lines: Vec<String> = [8usize, 16, 32, 64, 128]
            .into_iter()
            .map(|n| {
                let bits =
                    (1000.0 * shape(n as f64, (n - 2) as f64, 8.0) * (n as f64).log2()) as u64;
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
        let model = 1000.0 * shape(256.0, 254.0, 8.0) * 8.0;
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
