//! Compiling declarative scenarios into live pool sessions.
//!
//! This is the bridge between the three data layers ([`AdversarySpec`],
//! [`Scenario`], [`ProtocolKind`]) and the execution stack: for each
//! scenario it builds the protocol's parties through the `mpca-core`
//! constructors, splits off the corrupted parties' logic for the
//! proxy-based adversaries, compiles the adversary spec into `mpca-net`
//! combinators, and wraps the finished simulator constructor in an
//! `mpca-engine` [`SessionTask`]. Construction runs on whichever worker runs
//! the task, so keygen and input encryption are part of the parallelised
//! work.

use std::collections::{BTreeMap, BTreeSet};

use mpca_core::{
    all_to_all, broadcast, local_mpc, mpc, tradeoff, unchecked, ExecutionPath, FrameSchema,
    ProtocolKind,
};
use mpca_encfunc::Functionality;
use mpca_engine::{ExecutionBackend, SessionTask};
use mpca_net::{
    AbortAt, Adversary, CommonRandomString, Compose, Envelope, Equivocate, FloodBudget, NetError,
    NoAdversary, PartyId, PartyLogic, Payload, ProxyAdversary, SilentAdversary, SimConfig,
    Simulator, TriggerWhen, Withhold,
};

use crate::plan::Scenario;
use crate::spec::{AdversarySpec, TriggerSpec};

/// Message / input length ℓ in bytes used by the broadcast and all-to-all
/// scenario workloads.
pub const SCENARIO_MESSAGE_BYTES: usize = 32;

/// The broadcast scenarios' designated sender (corrupting party 0 therefore
/// corrupts the sender).
pub const BROADCAST_SENDER: PartyId = PartyId(0);

/// Input length ℓ in bytes of the MPC scenario workloads: one 16-bit
/// summand per party.
const SUM_INPUT_BYTES: usize = std::mem::size_of::<u16>();

/// The deterministic 16-bit values the MPC scenario workloads sum.
fn sum_values(n: usize, seed: u64) -> Vec<u16> {
    (0..n as u64)
        .map(|i| (i * 23 + 7).wrapping_add(seed.wrapping_mul(101)) as u16)
        .collect()
}

fn sum_inputs(n: usize, seed: u64) -> Vec<Vec<u8>> {
    sum_values(n, seed)
        .iter()
        .map(|v| v.to_le_bytes().to_vec())
        .collect()
}

fn crs_label(scenario: &Scenario) -> Vec<u8> {
    [
        b"scenario-",
        scenario.label.as_bytes(),
        &scenario.seed.to_le_bytes()[..],
    ]
    .concat()
}

/// Compiles `scenario` into a standalone [`SessionTask`] — the same
/// build-and-execute closure a pooled submission gets, but schedulable by
/// any driver (the `mpca-obs` soak harness admits these one arrival at a
/// time instead of as a batch).
pub fn scenario_task<B: ExecutionBackend>(scenario: &Scenario) -> SessionTask<B> {
    let sc = scenario.clone();
    match scenario.kind {
        ProtocolKind::Theorem1Mpc => SessionTask::new(sc.label.clone(), move || {
            let params = sc.params();
            let inputs = sum_inputs(sc.n, sc.seed);
            let crs = CommonRandomString::from_label(&crs_label(&sc));
            let parties = mpc::mpc_parties(
                &params,
                &Functionality::Sum {
                    input_bytes: SUM_INPUT_BYTES,
                },
                ExecutionPath::Concrete,
                &inputs,
                crs,
                &skip_construction(&sc),
            );
            finish(&sc, parties)
        }),
        ProtocolKind::Theorem2LocalMpc => SessionTask::new(sc.label.clone(), move || {
            let params = sc.params();
            let inputs = sum_inputs(sc.n, sc.seed);
            let crs = CommonRandomString::from_label(&crs_label(&sc));
            let parties = local_mpc::local_mpc_parties(
                &params,
                &Functionality::Sum {
                    input_bytes: SUM_INPUT_BYTES,
                },
                &inputs,
                crs,
                &skip_construction(&sc),
            );
            finish(&sc, parties)
        }),
        ProtocolKind::Theorem4Tradeoff => SessionTask::new(sc.label.clone(), move || {
            let params = sc.params();
            let inputs = sum_inputs(sc.n, sc.seed);
            let crs = CommonRandomString::from_label(&crs_label(&sc));
            let parties = tradeoff::tradeoff_parties(
                &params,
                &Functionality::Sum {
                    input_bytes: SUM_INPUT_BYTES,
                },
                ExecutionPath::Concrete,
                &inputs,
                crs,
                &skip_construction(&sc),
            );
            finish(&sc, parties)
        }),
        ProtocolKind::Broadcast => SessionTask::new(sc.label.clone(), move || {
            let message = vec![0xB7u8 ^ sc.seed as u8; SCENARIO_MESSAGE_BYTES];
            let parties = broadcast::broadcast_parties(
                sc.n,
                BROADCAST_SENDER,
                message,
                &skip_construction(&sc),
            );
            finish(&sc, parties)
        }),
        ProtocolKind::SuccinctAllToAll => SessionTask::new(sc.label.clone(), move || {
            let inputs: Vec<Vec<u8>> = (0..sc.n)
                .map(|i| vec![i as u8 ^ sc.seed as u8; SCENARIO_MESSAGE_BYTES])
                .collect();
            let parties =
                all_to_all::succinct_parties(&inputs, 20, &crs_label(&sc), &skip_construction(&sc));
            finish(&sc, parties)
        }),
        ProtocolKind::UncheckedSum => SessionTask::new(sc.label.clone(), move || {
            let values: Vec<u64> = (0..sc.n as u64)
                .map(|i| (i * 13 + 1).wrapping_add(sc.seed))
                .collect();
            let parties = unchecked::unchecked_sum_parties(&values, &skip_construction(&sc));
            finish(&sc, parties)
        }),
    }
}

impl Scenario {
    /// The per-party payload length ℓ in bytes of the inputs
    /// [`scenario_task`] builds for this scenario (feeds the
    /// [`comm_budget_bits`](ProtocolKind::comm_budget_bits) check).
    pub fn payload_bytes(&self) -> usize {
        match self.kind {
            ProtocolKind::Theorem1Mpc
            | ProtocolKind::Theorem2LocalMpc
            | ProtocolKind::Theorem4Tradeoff => SUM_INPUT_BYTES,
            ProtocolKind::Broadcast | ProtocolKind::SuccinctAllToAll => SCENARIO_MESSAGE_BYTES,
            ProtocolKind::UncheckedSum => std::mem::size_of::<u64>(),
        }
    }
}

/// Parties whose construction a scenario can skip: proxy-based adversaries
/// need the corrupted parties' honest logic, everyone else discards it —
/// so constructors only build corrupted-party state (keygen, input
/// encryption) when the adversary will actually run it. Each party's
/// construction is independent and deterministic per id, so skipping some
/// never changes the others.
fn skip_construction(scenario: &Scenario) -> BTreeSet<PartyId> {
    if scenario.adversary.needs_proxy_logic() {
        BTreeSet::new()
    } else {
        scenario.corrupted()
    }
}

/// Splits the constructed logic into honest parties and corrupted-party
/// logic (empty unless the adversary is proxy-based), compiles the
/// adversary, and assembles the simulator.
fn finish<L>(scenario: &Scenario, all_parties: Vec<L>) -> Result<Simulator<L>, NetError>
where
    L: PartyLogic + Send + 'static,
{
    let corrupted = scenario.corrupted();
    let (honest, corrupt_logic): (Vec<L>, Vec<L>) = all_parties
        .into_iter()
        .partition(|party| !corrupted.contains(&party.id()));
    let ctx = CompileCtx {
        n: scenario.n,
        seed: scenario.seed,
        label: &scenario.label,
        kind: scenario.kind,
        all_corrupted: &corrupted,
    };
    let adversary = compile_adversary(&scenario.adversary, &ctx, &corrupted, corrupt_logic);
    let config = SimConfig {
        count_adversary_bytes: scenario.charge_adversary_bytes,
        ..SimConfig::default()
    };
    Simulator::new(scenario.n, honest, adversary, config)
}

fn to_ids(indices: &[usize], n: usize) -> Vec<PartyId> {
    indices
        .iter()
        .map(|&i| {
            assert!(i < n, "party index {i} out of range for n = {n}");
            PartyId(i)
        })
        .collect()
}

/// Resolves a victim list; an empty list defaults to every non-corrupted
/// party.
fn victims_or_all_honest(
    victims: &[usize],
    n: usize,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<PartyId> {
    if victims.is_empty() {
        PartyId::all(n)
            .filter(|id| !corrupted.contains(id))
            .collect()
    } else {
        to_ids(victims, n)
    }
}

/// The scenario identity a spec compiles under: [`AdversarySpec::Both`]
/// re-resolves its per-side corruption sets from it.
struct CompileCtx<'a> {
    n: usize,
    seed: u64,
    label: &'a str,
    /// The protocol family — frame-aware specs compile the family's
    /// [`FrameSchema`] from it.
    kind: ProtocolKind,
    /// The scenario's full corruption set — inside a [`AdversarySpec::Both`]
    /// side this is wider than the side's own set, so a flood's defaulted
    /// victim list never targets the other side's corrupted parties.
    all_corrupted: &'a BTreeSet<PartyId>,
}

/// Compiles a declarative spec into live `mpca-net` combinators.
///
/// `corrupt_logic` is the honest protocol logic of the corrupted parties
/// (consumed by the proxy-based variants; dropped by the rest — silent
/// parties simply never run).
fn compile_adversary<L>(
    spec: &AdversarySpec,
    ctx: &CompileCtx<'_>,
    corrupted: &BTreeSet<PartyId>,
    corrupt_logic: Vec<L>,
) -> Box<dyn Adversary>
where
    L: PartyLogic + Send + 'static,
{
    let n = ctx.n;
    match spec {
        AdversarySpec::Honest => Box::new(NoAdversary::new()),
        AdversarySpec::Silent { .. } => Box::new(SilentAdversary::new(corrupted.iter().copied())),
        AdversarySpec::Flood {
            victims,
            junk_bytes,
            round_budget,
            ..
        } => {
            let mut flood = FloodBudget::new(
                corrupted.iter().copied(),
                victims_or_all_honest(victims, n, ctx.all_corrupted),
                *junk_bytes,
            );
            if let Some(rounds) = round_budget {
                flood = flood.with_round_budget(*rounds);
            }
            Box::new(flood)
        }
        AdversarySpec::HonestProxy { .. } => Box::new(ProxyAdversary::honest(corrupt_logic, n)),
        AdversarySpec::AbortAt { round, .. } => Box::new(AbortAt::new(
            Box::new(ProxyAdversary::honest(corrupt_logic, n)),
            *round,
        )),
        AdversarySpec::Withhold { recipients, .. } => Box::new(Withhold::new(
            Box::new(ProxyAdversary::honest(corrupt_logic, n)),
            to_ids(recipients, n),
        )),
        AdversarySpec::Equivocate { victims, .. } => Box::new(Equivocate::new(
            Box::new(ProxyAdversary::honest(corrupt_logic, n)),
            to_ids(victims, n),
        )),
        AdversarySpec::EquivocateFrame {
            victims,
            tag,
            field,
            ..
        } => {
            // The rewriter tampers exactly `field` inside frames matching
            // `tag` under this protocol's schema; everything else passes
            // through true — a tampered copy always re-parses, so the
            // attack reaches verification, never the parser.
            let schema = FrameSchema::new(ctx.kind);
            let tag = tag.clone();
            let field = field.clone();
            Box::new(Equivocate::with_rewriter(
                Box::new(ProxyAdversary::honest(corrupt_logic, n)),
                to_ids(victims, n),
                move |envelope: &Envelope| {
                    schema
                        .tamper(&envelope.payload, &tag, &field)
                        .map(Payload::from_vec)
                },
            ))
        }
        AdversarySpec::Triggered {
            base,
            trigger: TriggerSpec::AtMilestone(kind),
        } => {
            let wrapped = TriggerWhen::at_milestone(
                compile_adversary(base, ctx, corrupted, corrupt_logic),
                *kind,
            );
            Box::new(if base.needs_proxy_logic() {
                wrapped
            } else {
                wrapped.without_dormant_observation()
            })
        }
        AdversarySpec::Triggered { base, trigger } => {
            let wrapped = TriggerWhen::new(
                compile_adversary(base, ctx, corrupted, corrupt_logic),
                compile_trigger(trigger),
            );
            // Observation-free inners (floods, silents) are not driven while
            // dormant, so their budgets stay intact until the trigger fires;
            // proxy-based inners keep observing so their honest logic stays
            // in sync with the execution.
            Box::new(if base.needs_proxy_logic() {
                wrapped
            } else {
                wrapped.without_dormant_observation()
            })
        }
        AdversarySpec::Both { a, b } => {
            // Re-derive the per-side corruption sets (deterministic in the
            // scenario identity) and split the corrupted parties' honest
            // logic between the sides; `Compose` enforces disjointness.
            let (a_set, b_set) = spec.resolve_split(ctx.n, ctx.seed, ctx.label);
            let (a_logic, b_logic): (Vec<L>, Vec<L>) = corrupt_logic
                .into_iter()
                .partition(|logic| a_set.contains(&logic.id()));
            Box::new(Compose::new(
                compile_adversary(a, ctx, &a_set, a_logic),
                compile_adversary(b, ctx, &b_set, b_logic),
            ))
        }
    }
}

/// Compiles a trigger spec into a live delivered-message predicate
/// ([`TriggerSpec::AtMilestone`] compiles through
/// [`TriggerWhen::at_milestone`] instead and never reaches this function).
fn compile_trigger(
    trigger: &TriggerSpec,
) -> impl FnMut(usize, &BTreeMap<PartyId, Vec<Envelope>>) -> bool + Send + 'static {
    let trigger = trigger.clone();
    let mut delivered_bytes = 0u64;
    move |round, delivered| match &trigger {
        TriggerSpec::AtRound(r) => round >= *r,
        TriggerSpec::BytesDelivered(threshold) => {
            delivered_bytes += delivered
                .values()
                .flatten()
                .map(|e| e.payload.len() as u64)
                .sum::<u64>();
            delivered_bytes >= *threshold
        }
        TriggerSpec::MessageFrom(p) => delivered.values().flatten().any(|e| e.from == PartyId(*p)),
        TriggerSpec::AtMilestone(_) => {
            unreachable!("AtMilestone compiles through TriggerWhen::at_milestone")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioPlan;
    use crate::spec::CorruptionSpec;
    use mpca_engine::{Sequential, SessionPool};

    #[test]
    fn every_protocol_kind_submits_and_runs() {
        let mut pool = SessionPool::new(Sequential).with_workers(1);
        for (i, kind) in ProtocolKind::ALL.into_iter().enumerate() {
            let plan = ScenarioPlan::new(format!("k{i}"), kind, AdversarySpec::Honest)
                .with_grid([(8, 8)])
                .with_seed(5);
            for scenario in plan.scenarios() {
                pool.submit_task(scenario_task(&scenario));
            }
        }
        let batch = pool.run().expect("all-honest scenarios run");
        assert_eq!(batch.sessions.len(), ProtocolKind::ALL.len());
        assert!(batch.sessions.iter().all(|s| !s.any_abort()));
    }

    #[test]
    fn proxy_baseline_matches_all_honest_outputs() {
        // HonestProxy is transparent: the honest parties' outputs under a
        // proxied corruption must equal the all-honest outputs of the same
        // scenario seed.
        let honest_plan =
            ScenarioPlan::new("base", ProtocolKind::UncheckedSum, AdversarySpec::Honest)
                .with_grid([(8, 8)])
                .with_seed(9);
        let proxy_plan = ScenarioPlan::new(
            "base",
            ProtocolKind::UncheckedSum,
            AdversarySpec::HonestProxy {
                corrupt: CorruptionSpec::Explicit(vec![0, 3]),
            },
        )
        .with_grid([(8, 6)])
        .with_seed(9);

        let mut pool = SessionPool::new(Sequential).with_workers(1);
        pool.submit_task(scenario_task(&honest_plan.scenarios()[0]));
        pool.submit_task(scenario_task(&proxy_plan.scenarios()[0]));
        let batch = pool.run().unwrap();
        let all_honest_output = batch.sessions[0].outcomes.values().next().unwrap().clone();
        assert!(batch.sessions[1]
            .outcomes
            .values()
            .all(|digest| *digest == all_honest_output));
    }

    #[test]
    fn both_adversary_composes_and_runs() {
        let plan = ScenarioPlan::new(
            "both",
            ProtocolKind::UncheckedSum,
            AdversarySpec::Both {
                a: Box::new(AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Seeded { count: 2 },
                }),
                b: Box::new(AdversarySpec::Flood {
                    corrupt: CorruptionSpec::Seeded { count: 1 },
                    victims: vec![],
                    junk_bytes: 256,
                    round_budget: Some(2),
                }),
            },
        )
        .with_grid([(12, 8)])
        .with_seed(3);
        let scenario = plan.scenarios().remove(0);
        let corrupted = scenario.corrupted();
        assert_eq!(corrupted.len(), 3, "2 silent + 1 flooding, disjoint");

        let mut pool = SessionPool::new(Sequential).with_workers(1);
        pool.submit_task(scenario_task(&scenario));
        let batch = pool.run().expect("Both scenario runs");
        let report = &batch.sessions[0];
        // The flooding side's junk is never charged (§3.1), and the honest
        // parties all reached a terminal state.
        assert_eq!(report.stats.bytes_sent_by(&corrupted), 0);
        assert_eq!(report.outcomes.len(), 12 - corrupted.len());
    }

    #[test]
    fn victim_defaulting_and_id_resolution() {
        let corrupted: BTreeSet<PartyId> = [PartyId(1)].into();
        assert_eq!(
            victims_or_all_honest(&[], 4, &corrupted),
            vec![PartyId(0), PartyId(2), PartyId(3)]
        );
        assert_eq!(victims_or_all_honest(&[2], 4, &corrupted), vec![PartyId(2)]);
        assert_eq!(to_ids(&[0, 2], 4), vec![PartyId(0), PartyId(2)]);
    }
}
