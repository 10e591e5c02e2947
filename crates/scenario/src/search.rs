//! Coverage-guided adversary search: invert the predicate plane into a
//! bug-finding loop.
//!
//! The searcher enumerates and mutates [`AdversarySpec`] candidates
//! (corruption sets, tampered frame fields, flood budgets, trigger
//! milestones) over the protocol catalog's sweep grids, executes them in
//! batches through the engine's [`SessionPool`], and evaluates every
//! retained event stream against the family's full predicate set
//! ([`full_set`](mpca_predicate::full_set)). Two signals come back per
//! candidate:
//!
//! * **coverage** — the `(family, oracle verdicts, violated predicates)`
//!   signature; novel signatures steer the deterministic mutation loop
//!   toward unexplored behaviour;
//! * **finds** — a candidate violating a predicate **outside its expected
//!   set** (an equivocator may legitimately split a replicated frame; a
//!   charged flood legitimately trips `flooding-never-charged`; anything
//!   else is a bug in protocol, harness or predicate).
//!
//! Every find is greedily shrunk — fewer parties, one victim, smaller
//! budgets, stripped triggers — re-executing after each step, and written
//! as a [`Counterexample`] that replays bit-for-bit on any backend.
//!
//! The whole loop is a pure function of [`SearchConfig`]: candidate
//! generation draws from a [`Prg`] seeded by `config.seed` alone, batches
//! execute on the engine's deterministic backends, and reports carry no
//! wall-clock-dependent state — same seed, same findings, same
//! counterexample bytes.
//!
//! A [`Rig`] deliberately weakens the expected-violation sets so CI can
//! assert the loop still *finds*: under [`Rig::LoosenFlooding`] the charged
//! flood's legitimate `flooding-never-charged` violation counts as novel,
//! so a healthy searcher deterministically produces at least one shrunk
//! counterexample.

use std::collections::BTreeSet;

use mpca_core::ProtocolKind;
use mpca_crypto::Prg;
use mpca_engine::{ExecutionBackend, Sequential, SessionPool};
use mpca_net::{MilestoneKind, NetError};
use mpca_predicate::Span;
use mpca_trace::payload_fingerprint;

use crate::cex::{run_scenario_traced, violations_of, Counterexample};
use crate::codec::encode_spec;
use crate::oracle;
use crate::plan::{Expectation, Scenario};
use crate::registry;
use crate::spec::{AdversarySpec, CorruptionSpec, TriggerSpec};

/// A deliberate handicap on the expected-violation sets, for testing the
/// searcher itself (the "rigged oracle-bug control" of the E20 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rig {
    /// Drop the flooding entries from the expected sets: the charged
    /// flood's legitimate `flooding-never-charged` violation then reads as
    /// a novel find, which the searcher must discover, shrink and emit
    /// deterministically.
    LoosenFlooding,
}

impl Rig {
    /// Stable name (CLI flag value and counterexample `rig` field).
    pub fn name(self) -> &'static str {
        match self {
            Rig::LoosenFlooding => "loosen-flooding",
        }
    }

    /// The inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Rig> {
        match name {
            "loosen-flooding" => Some(Rig::LoosenFlooding),
            _ => None,
        }
    }
}

/// The searcher's full configuration — its only source of entropy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Seed for the candidate-mutation [`Prg`] and every scenario.
    pub seed: u64,
    /// Total candidates to generate and execute (shrink re-executions are
    /// extra).
    pub budget: usize,
    /// Restrict grids to `n ≤ 12` (the CI slice).
    pub tiny: bool,
    /// Pool workers per batch.
    pub workers: usize,
    /// Optional handicap (see [`Rig`]).
    pub rig: Option<Rig>,
}

impl SearchConfig {
    /// The default search: 48 candidates.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            budget: 48,
            tiny: false,
            workers: 2,
            rig: None,
        }
    }

    /// The CI slice: 24 candidates, `n ≤ 12`.
    pub fn tiny(seed: u64) -> Self {
        Self {
            budget: 24,
            tiny: true,
            ..Self::new(seed)
        }
    }

    /// Sets the rig.
    pub fn with_rig(mut self, rig: Rig) -> Self {
        self.rig = Some(rig);
        self
    }
}

/// One generated candidate: a family, a grid point, an adversary and the
/// charging mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Protocol family.
    pub kind: ProtocolKind,
    /// Total parties.
    pub n: usize,
    /// Guaranteed honest parties.
    pub h: usize,
    /// The adversary under test.
    pub adversary: AdversarySpec,
    /// Charge adversary bytes (the flooding-control knob).
    pub charge: bool,
}

impl Candidate {
    /// Canonical content-derived label: the same candidate always gets the
    /// same label (and therefore the same seeded inputs and trace digest),
    /// whatever generation or shrink step produced it.
    pub fn label(&self) -> String {
        let identity = format!(
            "{}|{}|{}|{}|{}",
            self.kind.name(),
            self.n,
            self.h,
            encode_spec(&self.adversary),
            self.charge,
        );
        format!(
            "srch-{}-{}-n{}-h{}-{:08x}",
            self.kind.name(),
            self.adversary.name(),
            self.n,
            self.h,
            payload_fingerprint(identity.as_bytes()) as u32,
        )
    }

    /// The concrete scenario this candidate executes as.
    pub fn to_scenario(&self, seed: u64) -> Scenario {
        Scenario {
            label: self.label(),
            kind: self.kind,
            n: self.n,
            h: self.h,
            adversary: self.adversary.clone(),
            seed,
            charge_adversary_bytes: self.charge,
            expectation: Expectation::Holds,
        }
    }
}

/// One candidate whose execution violated a predicate outside its expected
/// set.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violating candidate (pre-shrink).
    pub candidate: Candidate,
    /// Every violated full-set predicate name, in set order.
    pub violated: Vec<&'static str>,
    /// The subset of `violated` outside the candidate's expected set.
    pub novel: Vec<&'static str>,
    /// Trace digest of the violating execution.
    pub digest: String,
    /// First-violation span of the first violated predicate.
    pub span: Span,
}

/// What a search run produced.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Candidates generated and executed (excludes shrink re-executions).
    pub executed: usize,
    /// Distinct coverage signatures observed.
    pub coverage: BTreeSet<String>,
    /// Every novel-violation find, in discovery order (pre-shrink).
    pub findings: Vec<Finding>,
    /// One shrunk counterexample per distinct novel signature.
    pub counterexamples: Vec<Counterexample>,
    /// Scenario executions spent shrinking.
    pub shrink_executions: usize,
}

impl SearchReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "search: {} candidates, {} coverage signatures, {} novel finds, \
             {} counterexamples ({} shrink executions)",
            self.executed,
            self.coverage.len(),
            self.findings.len(),
            self.counterexamples.len(),
            self.shrink_executions,
        )
    }
}

/// The per-family candidate templates generation 0 executes verbatim and
/// later generations mutate. Explicit corruption only — shrinking and
/// relabelling must never re-sample who is corrupted.
fn templates(tiny: bool) -> Vec<Candidate> {
    let explicit = |indices: &[usize]| CorruptionSpec::Explicit(indices.to_vec());
    let mut list = vec![
        // Committee-based MPC families: withholding, crashes, silence, a
        // milestone-triggered bounded flood, and framing-aware equivocation
        // against the encrypted-input and output frames.
        Candidate {
            kind: ProtocolKind::Theorem1Mpc,
            n: 12,
            h: 6,
            adversary: AdversarySpec::Silent {
                corrupt: explicit(&[0, 1]),
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Theorem1Mpc,
            n: 12,
            h: 6,
            adversary: AdversarySpec::Withhold {
                corrupt: explicit(&[0]),
                recipients: vec![1, 2],
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Theorem1Mpc,
            n: 12,
            h: 6,
            adversary: AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: explicit(&[0]),
                    victims: vec![],
                    junk_bytes: 1024,
                    round_budget: Some(2),
                }),
                trigger: TriggerSpec::AtMilestone(MilestoneKind::CommitteeAnnounced),
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Theorem1Mpc,
            n: 12,
            h: 6,
            adversary: AdversarySpec::EquivocateFrame {
                corrupt: explicit(&[0]),
                victims: vec![1, 2, 3],
                tag: "mpc:input-ct".into(),
                field: "c2.0".into(),
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Theorem2LocalMpc,
            n: 12,
            h: 6,
            adversary: AdversarySpec::AbortAt {
                corrupt: explicit(&[0, 1]),
                round: 3,
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Theorem4Tradeoff,
            n: 12,
            h: 6,
            adversary: AdversarySpec::EquivocateFrame {
                corrupt: explicit(&[0]),
                victims: (1..=8).collect(),
                tag: "mpc:output".into(),
                field: "output".into(),
            },
            charge: false,
        },
        // Broadcast: the designated sender misbehaves.
        Candidate {
            kind: ProtocolKind::Broadcast,
            n: 8,
            h: 6,
            adversary: AdversarySpec::Equivocate {
                corrupt: explicit(&[0]),
                victims: vec![1, 2],
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::Broadcast,
            n: 8,
            h: 6,
            adversary: AdversarySpec::Withhold {
                corrupt: explicit(&[0]),
                recipients: vec![2, 3],
            },
            charge: false,
        },
        // All-to-all: triggered floods, charged and uncharged — the charged
        // one is the standing flooding-predicate control.
        Candidate {
            kind: ProtocolKind::SuccinctAllToAll,
            n: 10,
            h: 9,
            adversary: AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: explicit(&[0]),
                    victims: vec![],
                    junk_bytes: 2048,
                    round_budget: None,
                }),
                trigger: TriggerSpec::AtRound(1),
            },
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::SuccinctAllToAll,
            n: 10,
            h: 9,
            adversary: AdversarySpec::Flood {
                corrupt: explicit(&[0]),
                victims: vec![],
                junk_bytes: 2048,
                round_budget: None,
            },
            charge: true,
        },
        // The verification-free sum: honest baseline plus the blunt
        // equivocation that silently splits the outputs.
        Candidate {
            kind: ProtocolKind::UncheckedSum,
            n: 8,
            h: 8,
            adversary: AdversarySpec::Honest,
            charge: false,
        },
        Candidate {
            kind: ProtocolKind::UncheckedSum,
            n: 8,
            h: 7,
            adversary: AdversarySpec::Equivocate {
                corrupt: explicit(&[0]),
                victims: vec![1],
            },
            charge: false,
        },
    ];
    if !tiny {
        // Wider grid points join outside the CI slice.
        list.push(Candidate {
            kind: ProtocolKind::Theorem1Mpc,
            n: 16,
            h: 8,
            adversary: AdversarySpec::Silent {
                corrupt: explicit(&[0, 1]),
            },
            charge: false,
        });
        list.push(Candidate {
            kind: ProtocolKind::SuccinctAllToAll,
            n: 16,
            h: 14,
            adversary: AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: explicit(&[0]),
                    victims: vec![],
                    junk_bytes: 1024,
                    round_budget: Some(3),
                }),
                trigger: TriggerSpec::AtRound(1),
            },
            charge: false,
        });
    }
    list
}

/// The predicate names a candidate's adversary may **legitimately**
/// violate. Anything violated outside this set is a find.
fn expected_violations(candidate: &Candidate, rig: Option<Rig>) -> BTreeSet<&'static str> {
    fn walk(spec: &AdversarySpec, charge: bool, out: &mut BTreeSet<&'static str>) {
        match spec {
            AdversarySpec::Flood { .. } if charge => {
                // Charging adversary bytes deliberately breaks the flooding
                // rule; the stream-level predicate must flag it.
                out.insert("flooding-never-charged");
            }
            AdversarySpec::Equivocate { .. } | AdversarySpec::EquivocateFrame { .. } => {
                // Tampered replicated frames legitimately split the
                // broadcast-consistency view — that IS the attack.
                out.insert("broadcast-consistency");
            }
            AdversarySpec::Triggered { base, .. } => walk(base, charge, out),
            AdversarySpec::Both { a, b } => {
                walk(a, charge, out);
                walk(b, charge, out);
            }
            _ => {}
        }
    }
    let mut expected = BTreeSet::new();
    walk(&candidate.adversary, candidate.charge, &mut expected);
    if rig == Some(Rig::LoosenFlooding) {
        expected.remove("flooding-never-charged");
    }
    expected
}

/// The grid points a candidate of `kind` may mutate or shrink onto.
fn grid_points(kind: ProtocolKind, tiny: bool) -> Vec<(usize, usize)> {
    kind.spec()
        .sweep_grid
        .iter()
        .copied()
        .filter(|&(n, _)| !tiny || n <= 12)
        .collect()
}

/// Clamps a victim/recipient list to the parties of an `n`-party network,
/// excluding party 0 (always the corrupted index in the template space);
/// `fallback_one` keeps at least one entry for the adversaries that need a
/// non-empty target list to act at all.
fn clamp_parties(list: &[usize], n: usize, fallback_one: bool) -> Vec<usize> {
    let mut clamped: Vec<usize> = list.iter().copied().filter(|&p| p > 0 && p < n).collect();
    if clamped.is_empty() && fallback_one {
        clamped.push(1 % n.max(1));
    }
    clamped
}

/// Mutates one numeric/structural knob of `candidate`, drawing every choice
/// from `prg`. Grid points move within the family's sweep grid, budgets and
/// victim sets resize, triggers reshuffle — the adversary *class* is the
/// template's and never changes, so every mutant stays terminating.
fn mutate(candidate: &Candidate, prg: &mut Prg, tiny: bool) -> Candidate {
    let mut mutant = candidate.clone();

    // Move the grid point (always; the corruption count is template-fixed
    // and every sweep grid point tolerates it).
    let points = grid_points(mutant.kind, tiny);
    let (n, h) = points[prg.gen_range(points.len() as u64) as usize];
    if mutant.adversary.corruption_count() <= n - h {
        mutant.n = n;
        mutant.h = h;
    }
    let n = mutant.n;

    fn mutate_spec(spec: &mut AdversarySpec, prg: &mut Prg, n: usize) {
        match spec {
            AdversarySpec::Flood {
                victims,
                junk_bytes,
                round_budget,
                ..
            } => {
                *junk_bytes = [64usize, 256, 1024, 2048, 4096][prg.gen_range(5) as usize];
                *round_budget = match prg.gen_range(4) {
                    0 => None,
                    r => Some(r as usize),
                };
                *victims = clamp_parties(victims, n, false);
            }
            AdversarySpec::AbortAt { round, .. } => {
                *round = 1 + prg.gen_range(5) as usize;
            }
            AdversarySpec::Withhold { recipients, .. } => {
                let count = 1 + prg.gen_range(3) as usize;
                *recipients = (1..n).take(count).collect();
            }
            AdversarySpec::Equivocate { victims, .. }
            | AdversarySpec::EquivocateFrame { victims, .. } => {
                let count = 1 + prg.gen_range((n as u64 - 1).min(8)) as usize;
                *victims = (1..n).take(count).collect();
            }
            AdversarySpec::Triggered { base, trigger } => {
                *trigger = match prg.gen_range(3) {
                    0 => TriggerSpec::AtRound(1 + prg.gen_range(3) as usize),
                    1 => TriggerSpec::AtMilestone(MilestoneKind::CommitteeAnnounced),
                    _ => TriggerSpec::AtMilestone(MilestoneKind::SharesDistributed),
                };
                mutate_spec(base, prg, n);
            }
            AdversarySpec::Both { a, b } => {
                mutate_spec(a, prg, n);
                mutate_spec(b, prg, n);
            }
            _ => {}
        }
    }
    mutate_spec(&mut mutant.adversary, prg, n);
    mutant
}

/// The coverage signature of one executed candidate: family, oracle
/// verdict letters, violated predicate names.
fn signature(kind: ProtocolKind, letters: &str, violated: &[&'static str]) -> String {
    format!("{}|{letters}|{}", kind.name(), violated.join(","))
}

/// Candidates per pool batch.
const BATCH: usize = 8;

/// Executes `candidates` as one traced, stream-retaining pool batch.
fn run_batch<B: ExecutionBackend>(
    candidates: &[Candidate],
    seed: u64,
    backend: B,
    workers: usize,
) -> Result<Vec<(Scenario, mpca_engine::SessionReport)>, NetError> {
    let scenarios: Vec<Scenario> = candidates.iter().map(|c| c.to_scenario(seed)).collect();
    let mut pool = SessionPool::new(backend).with_workers(workers);
    pool.reserve(scenarios.len());
    for scenario in &scenarios {
        pool.submit_task(
            registry::scenario_task(scenario)
                .with_tracing(true)
                .with_trace_logs(true),
        );
    }
    let batch = pool.run()?;
    Ok(scenarios.into_iter().zip(batch.sessions).collect())
}

/// One shrink proposal: a strictly smaller candidate, or `None` when the
/// reduction does not apply.
type ShrinkOp = fn(&Candidate) -> Option<Candidate>;

/// Applies `f` to the leaf spec under any `Triggered` wrappers (shrink
/// never reaches inside `Both`; the sides-only ops handle those).
fn map_leaf(
    spec: &AdversarySpec,
    f: &dyn Fn(&AdversarySpec) -> Option<AdversarySpec>,
) -> Option<AdversarySpec> {
    match spec {
        AdversarySpec::Triggered { base, trigger } => {
            map_leaf(base, f).map(|shrunk| AdversarySpec::Triggered {
                base: Box::new(shrunk),
                trigger: trigger.clone(),
            })
        }
        other => f(other),
    }
}

fn shrink_grid(candidate: &Candidate) -> Option<Candidate> {
    // Greedy: the smallest tiny-grid point (`n ≤ 12`) the corruption count
    // and target lists still fit.
    let corruption = candidate.adversary.corruption_count();
    grid_points(candidate.kind, true)
        .into_iter()
        .filter(|&(n, h)| n < candidate.n && corruption <= n - h)
        .map(|(n, h)| {
            let mut smaller = candidate.clone();
            smaller.n = n;
            smaller.h = h;
            smaller.adversary = map_leaf(&smaller.adversary, &|leaf| {
                let mut leaf = leaf.clone();
                match &mut leaf {
                    AdversarySpec::Flood { victims, .. } => {
                        *victims = clamp_parties(victims, n, false)
                    }
                    AdversarySpec::Withhold { recipients, .. } => {
                        *recipients = clamp_parties(recipients, n, true)
                    }
                    AdversarySpec::Equivocate { victims, .. }
                    | AdversarySpec::EquivocateFrame { victims, .. } => {
                        *victims = clamp_parties(victims, n, true)
                    }
                    _ => {}
                }
                Some(leaf)
            })
            .expect("map_leaf with a total function");
            smaller
        })
        .next()
}

fn shrink_corruption(candidate: &Candidate) -> Option<Candidate> {
    let shrunk = map_leaf(&candidate.adversary, &|leaf| {
        let mut leaf = leaf.clone();
        let corrupt = match &mut leaf {
            AdversarySpec::HonestProxy { corrupt }
            | AdversarySpec::Silent { corrupt }
            | AdversarySpec::Flood { corrupt, .. }
            | AdversarySpec::AbortAt { corrupt, .. }
            | AdversarySpec::Withhold { corrupt, .. }
            | AdversarySpec::Equivocate { corrupt, .. }
            | AdversarySpec::EquivocateFrame { corrupt, .. } => corrupt,
            _ => return None,
        };
        match corrupt {
            CorruptionSpec::Explicit(indices) if indices.len() > 1 => {
                *indices = vec![indices[0]];
                Some(leaf)
            }
            _ => None,
        }
    })?;
    Some(Candidate {
        adversary: shrunk,
        ..candidate.clone()
    })
}

fn shrink_junk(candidate: &Candidate) -> Option<Candidate> {
    let shrunk = map_leaf(&candidate.adversary, &|leaf| match leaf {
        AdversarySpec::Flood { junk_bytes, .. } if *junk_bytes >= 32 => {
            let mut leaf = leaf.clone();
            if let AdversarySpec::Flood { junk_bytes, .. } = &mut leaf {
                *junk_bytes /= 2;
            }
            Some(leaf)
        }
        _ => None,
    })?;
    Some(Candidate {
        adversary: shrunk,
        ..candidate.clone()
    })
}

fn shrink_round_budget(candidate: &Candidate) -> Option<Candidate> {
    let shrunk = map_leaf(&candidate.adversary, &|leaf| match leaf {
        AdversarySpec::Flood { round_budget, .. } if *round_budget != Some(1) => {
            let mut leaf = leaf.clone();
            if let AdversarySpec::Flood { round_budget, .. } = &mut leaf {
                *round_budget = Some(1);
            }
            Some(leaf)
        }
        _ => None,
    })?;
    Some(Candidate {
        adversary: shrunk,
        ..candidate.clone()
    })
}

fn shrink_trigger(candidate: &Candidate) -> Option<Candidate> {
    match &candidate.adversary {
        AdversarySpec::Triggered { base, .. } => Some(Candidate {
            adversary: (**base).clone(),
            ..candidate.clone()
        }),
        _ => None,
    }
}

fn shrink_victims(candidate: &Candidate) -> Option<Candidate> {
    let shrunk = map_leaf(&candidate.adversary, &|leaf| {
        let mut leaf = leaf.clone();
        let list = match &mut leaf {
            AdversarySpec::Withhold { recipients, .. } => recipients,
            AdversarySpec::Equivocate { victims, .. }
            | AdversarySpec::EquivocateFrame { victims, .. } => victims,
            _ => return None,
        };
        if list.len() > 1 {
            *list = vec![list[0]];
            Some(leaf)
        } else {
            None
        }
    })?;
    Some(Candidate {
        adversary: shrunk,
        ..candidate.clone()
    })
}

fn shrink_both_side(candidate: &Candidate) -> Option<Candidate> {
    match &candidate.adversary {
        AdversarySpec::Both { a, .. } => Some(Candidate {
            adversary: (**a).clone(),
            ..candidate.clone()
        }),
        _ => None,
    }
}

/// Greedily shrinks a finding: each reduction in fixed order, re-executed
/// on the sequential backend, accepted only when every novel predicate
/// still fires. Returns the minimal candidate, its final execution's
/// pinned values, and the executions spent.
fn shrink(
    finding: &Finding,
    seed: u64,
    rig: Option<Rig>,
) -> Result<(Counterexample, usize), NetError> {
    const OPS: [ShrinkOp; 7] = [
        shrink_both_side,
        shrink_grid,
        shrink_corruption,
        shrink_junk,
        shrink_round_budget,
        shrink_trigger,
        shrink_victims,
    ];
    let still_novel = |candidate: &Candidate| -> Result<bool, NetError> {
        let scenario = candidate.to_scenario(seed);
        let report = run_scenario_traced(&scenario, Sequential)?;
        let violated: BTreeSet<&str> = violations_of(&scenario, &report)
            .iter()
            .map(|v| v.name)
            .collect();
        Ok(finding.novel.iter().all(|name| violated.contains(name)))
    };

    let mut current = finding.candidate.clone();
    let mut executions = 0usize;
    let mut progress = true;
    while progress {
        progress = false;
        for op in OPS {
            // Ops keep applying until they stop reducing (grid descent and
            // junk halving shrink repeatedly), each step re-verified.
            while let Some(smaller) = op(&current) {
                if smaller == current {
                    break;
                }
                executions += 1;
                if still_novel(&smaller)? {
                    current = smaller;
                    progress = true;
                } else {
                    break;
                }
            }
        }
    }

    // Pin the final execution.
    let scenario = current.to_scenario(seed);
    let report = run_scenario_traced(&scenario, Sequential)?;
    executions += 1;
    let violations = violations_of(&scenario, &report);
    let summary = report.trace.as_ref().expect("traced session has a summary");
    let first_span = violations
        .first()
        .map(|v| (v.violation.span.start as u64, v.violation.span.end as u64))
        .unwrap_or((0, 0));
    Ok((
        Counterexample {
            label: scenario.label.clone(),
            kind: current.kind,
            n: current.n,
            h: current.h,
            seed,
            adversary: current.adversary.clone(),
            charge_adversary_bytes: current.charge,
            violated: violations.iter().map(|v| v.name.to_string()).collect(),
            digest: summary.digest.clone(),
            events: summary.events,
            span: first_span,
            rig: rig.map(|r| r.name().to_string()),
        },
        executions,
    ))
}

/// Runs the search loop (see the module docs for the full shape).
///
/// # Errors
///
/// Propagates session-level [`NetError`]s — a candidate that fails to
/// *execute* (as opposed to violating predicates) is a harness bug.
pub fn run_search<B: ExecutionBackend + Clone>(
    config: &SearchConfig,
    backend: B,
) -> Result<SearchReport, NetError> {
    let pool_templates = templates(config.tiny);
    let mut prg = Prg::from_seed_bytes(&[b"mpca-search", &config.seed.to_le_bytes()[..]].concat());
    let mut seen_labels: BTreeSet<String> = BTreeSet::new();
    let mut coverage: BTreeSet<String> = BTreeSet::new();
    let mut novel_signatures: BTreeSet<String> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut counterexamples: Vec<Counterexample> = Vec::new();
    let mut executed = 0usize;
    let mut shrink_executions = 0usize;
    let mut next_template = 0usize;

    while executed < config.budget {
        // Assemble the next batch: templates verbatim first (generation 0
        // must cover every class), then seeded mutants; duplicates by
        // canonical label are skipped, with bounded retries.
        let mut batch: Vec<Candidate> = Vec::new();
        let batch_target = BATCH.min(config.budget - executed);
        let mut attempts = 0usize;
        while batch.len() < batch_target && attempts < batch_target * 16 {
            attempts += 1;
            let candidate = if next_template < pool_templates.len() {
                let template = pool_templates[next_template].clone();
                next_template += 1;
                template
            } else {
                let pick = prg.gen_range(pool_templates.len() as u64) as usize;
                mutate(&pool_templates[pick], &mut prg, config.tiny)
            };
            if seen_labels.insert(candidate.label()) {
                batch.push(candidate);
            }
        }
        if batch.is_empty() {
            break; // candidate space exhausted under this budget
        }

        for (candidate, (scenario, report)) in batch.iter().zip(run_batch(
            &batch,
            config.seed,
            backend.clone(),
            config.workers,
        )?) {
            executed += 1;
            let violations = violations_of(&scenario, &report);
            let violated: Vec<&'static str> = violations.iter().map(|v| v.name).collect();
            let outcome = oracle::evaluate(scenario, report);
            coverage.insert(signature(
                candidate.kind,
                &outcome.verdict_letters(),
                &violated,
            ));

            let expected = expected_violations(candidate, config.rig);
            let novel: Vec<&'static str> = violated
                .iter()
                .copied()
                .filter(|name| !expected.contains(name))
                .collect();
            if novel.is_empty() {
                continue;
            }
            let finding = Finding {
                candidate: candidate.clone(),
                violated,
                novel,
                digest: outcome
                    .report
                    .trace
                    .as_ref()
                    .map(|t| t.digest.clone())
                    .unwrap_or_default(),
                span: violations
                    .first()
                    .map(|v| v.violation.span)
                    .unwrap_or(Span { start: 0, end: 0 }),
            };
            // One counterexample per distinct novel signature: re-finding
            // the same bug through another mutant adds no regression value.
            let novel_sig = format!("{}|{}", candidate.kind.name(), finding.novel.join(","));
            if novel_signatures.insert(novel_sig) {
                let (cex, spent) = shrink(&finding, config.seed, config.rig)?;
                shrink_executions += spent;
                counterexamples.push(cex);
            }
            findings.push(finding);
        }
    }

    Ok(SearchReport {
        executed,
        coverage,
        findings,
        counterexamples,
        shrink_executions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_cover_every_family_and_carry_unique_labels() {
        let tiny = templates(true);
        let kinds: BTreeSet<&str> = tiny.iter().map(|c| c.kind.name()).collect();
        assert_eq!(kinds.len(), ProtocolKind::ALL.len());
        let labels: BTreeSet<String> = tiny.iter().map(Candidate::label).collect();
        assert_eq!(labels.len(), tiny.len(), "labels must be unique");
        // Labels are content-derived: same candidate, same label.
        assert_eq!(tiny[0].label(), templates(true)[0].label());
        // The charged-flood control is present (the rig needs it).
        assert!(tiny.iter().any(|c| c.charge));
    }

    #[test]
    fn expected_violation_sets_match_the_adversary_class() {
        let templates = templates(true);
        let charged_flood = templates.iter().find(|c| c.charge).unwrap();
        assert!(expected_violations(charged_flood, None).contains("flooding-never-charged"));
        assert!(expected_violations(charged_flood, Some(Rig::LoosenFlooding)).is_empty());
        let equivocator = templates
            .iter()
            .find(|c| matches!(c.adversary, AdversarySpec::Equivocate { .. }))
            .unwrap();
        assert_eq!(
            expected_violations(equivocator, None),
            ["broadcast-consistency"].into()
        );
    }

    #[test]
    fn mutation_is_deterministic_and_stays_in_class() {
        let template = &templates(true)[2]; // the triggered thm1 flood
        let mut prg_a = Prg::from_seed_bytes(b"m");
        let mut prg_b = Prg::from_seed_bytes(b"m");
        let a = mutate(template, &mut prg_a, true);
        let b = mutate(template, &mut prg_b, true);
        assert_eq!(a, b, "same PRG stream, same mutant");
        assert!(a.adversary.name().contains("flood"));
        assert!(a.n <= 12, "tiny mutation stays on the tiny grid");
    }

    #[test]
    fn rigged_tiny_search_finds_and_shrinks_the_planted_violation() {
        let config = SearchConfig::tiny(7).with_rig(Rig::LoosenFlooding);
        let report = run_search(&config, Sequential).expect("search executes");
        assert!(report.executed <= config.budget);
        assert!(
            !report.counterexamples.is_empty(),
            "the rig plants a charged flood the search must find: {}",
            report.summary()
        );
        let cex = &report.counterexamples[0];
        assert!(cex.violated.iter().any(|v| v == "flooding-never-charged"));
        assert!(cex.charge_adversary_bytes);
        assert_eq!(cex.rig.as_deref(), Some("loosen-flooding"));
        // The shrink reduced the flood to its minimal shape.
        assert!(matches!(
            &cex.adversary,
            AdversarySpec::Flood { junk_bytes, round_budget, .. }
                if *junk_bytes <= 64 && *round_budget == Some(1)
        ));
        // …and the counterexample replays cleanly.
        assert_eq!(cex.replay(Sequential).expect("replays"), vec![]);
    }

    #[test]
    fn search_is_deterministic_in_its_seed() {
        let config = SearchConfig {
            budget: 12,
            ..SearchConfig::tiny(3)
        };
        let a = run_search(&config, Sequential).expect("search executes");
        let b = run_search(&config, Sequential).expect("search executes");
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(
            a.counterexamples, b.counterexamples,
            "same seed, same counterexample bytes"
        );
        let unrigged_finds: Vec<_> = a.findings.iter().map(|f| &f.novel).collect();
        assert!(
            unrigged_finds.is_empty(),
            "an unrigged tiny search over standing templates finds nothing: {unrigged_finds:?}"
        );
    }
}
