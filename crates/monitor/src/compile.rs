//! Signature compilation — the two sources of monitors.
//!
//! 1. **Hand-declared signatures** for the paper's six problematic
//!    instances ([`s1`] … [`s6`]): each encodes the instance's observable
//!    event chain over the typed trace stream, including the negation
//!    arcs that make the carrier-divergent instances (S5, S6) *refutable*
//!    rather than merely unobserved on the unaffected carrier.
//! 2. **Compiled counterexamples** ([`compile_witness`]): the screening
//!    phase emits mck counterexample paths as human-oriented action
//!    strings; each action that has a phone-side observable is lowered to
//!    a pattern arc, and the property's violation observable
//!    ([`observable_for`]) is appended so the compiled monitor confirms
//!    only when the *violation itself* is visible in the trace, not just
//!    the stimulus prefix.

use cellstack::RatSystem;
use netsim::trace::{CallPhase, HazardKind};

use crate::automaton::{Signature, Step};
use crate::pattern::{FaultClass, Pattern};

/// Deadline bound, in ms, on the location-update chain that follows a
/// cross-system disruption: 600 s = ten minutes. The paper's Figure 4
/// recovery pacing and the §7 S6 counting rule both bound the LAU/TAU
/// chain by this window — a periodic-update timer tick at worst lands
/// once inside it, so a genuine chain completes (or visibly fails)
/// within the bound, while an unrelated later episode cannot be
/// swallowed into a stale pending prefix. Shared by the S1/S2 recovery
/// deadlines here and the study S6 failure-propagation deadline
/// (`userstudy::detect::s6_detach`).
pub const LAU_CHAIN_DEADLINE_MS: u64 = 600_000;

/// S1 — "unprotected shared context": the 3G network deactivates the PDP
/// context, the return switch completes without one, and the device is
/// detached in 4G until recovery (Figure 4 pacing, hence the generous
/// timed recovery step).
pub fn s1() -> Signature {
    Signature::new("S1-hand")
        .step(
            "pdp-deactivated",
            Pattern::nas_down("Deactivate Context Request").on(RatSystem::Utran3g),
        )
        .step("returned-to-4g", Pattern::camped_on(RatSystem::Lte4g))
        .step(
            "s1-context-loss",
            Pattern::hazard(HazardKind::S1ContextLoss),
        )
        .timed_step(
            "recovered",
            Pattern::registration(true),
            LAU_CHAIN_DEADLINE_MS,
        )
}

/// S2 — "out-of-sequence signaling": a lossy uplink drops attach-family
/// messages; a later mobility update is answered out of session context
/// and an in-service device receives an implicit detach.
pub fn s2() -> Signature {
    Signature::new("S2-hand")
        .step("uplink-loss", Pattern::fault(FaultClass::Drop, Some(true)))
        .step(
            "tau-attempt",
            Pattern::nas_up("Tracking Area Update Request"),
        )
        .step(
            "implicit-detach",
            Pattern::hazard(HazardKind::ImplicitDetach),
        )
        .step("deregistered", Pattern::registration(false))
        .timed_step(
            "re-registered",
            Pattern::registration(true),
            LAU_CHAIN_DEADLINE_MS,
        )
}

/// S3 — "stuck in 3G": the CSFB call ends but the device keeps camping on
/// 3G until the carrier's return policy lets it leave. The span between
/// `call-released` and `returned-to-4g` *is* the Table 6 stuck time, so
/// the same signature confirms on both carriers while exposing the
/// severity divergence in its evidence.
pub fn s3() -> Signature {
    Signature::new("S3-hand")
        .step("csfb-fallback", Pattern::camped_on(RatSystem::Utran3g))
        .step("call-connected", Pattern::call(CallPhase::Connected))
        .step("call-released", Pattern::call(CallPhase::Released))
        .step("returned-to-4g", Pattern::camped_on(RatSystem::Lte4g))
}

/// S4 — "HOL blocking": a CM service request queues behind an in-flight
/// location update; the call connects only after the update (and the
/// WAIT-FOR-NETWORK-COMMAND hold) completes.
pub fn s4() -> Signature {
    Signature::new("S4-hand")
        .step("dialed", Pattern::call(CallPhase::Dialed))
        .step("hol-blocked", Pattern::hazard(HazardKind::S4HolBlocked))
        .step(
            "lau-completes",
            Pattern::nas_down("Location Updating Accept"),
        )
        .timed_step(
            "call-connected",
            Pattern::call(CallPhase::Connected),
            60_000,
        )
}

/// S5 — "fate-sharing modulation": once the CS call reconfigures the
/// shared channel, an uplink sample during the call collapses. A healthy
/// in-call uplink sample is a negation arc, so the milder carrier is
/// actively *refuted* instead of silently unobserved.
pub fn s5() -> Signature {
    Signature::new("S5-hand")
        .step(
            "64qam-disabled",
            Pattern::RadioConfig {
                allow_64qam: Some(false),
            },
        )
        .step("ul-collapse", Pattern::ul_in_call_below(1_000))
        .forbid(
            "healthy in-call uplink",
            Pattern::ul_in_call_at_least(1_500),
        )
}

/// S6 — "3G failure propagated to 4G": the deferred post-call location
/// update is disrupted by the fast return, the MSC reports the failure,
/// and the MME detaches the device *on 4G*. A completed location update
/// (the accept reaching the device) refutes the disruption — the slow
/// -return carrier always completes it.
pub fn s6() -> Signature {
    Signature::new("S6-hand")
        .step("call-released", Pattern::call(CallPhase::Released))
        .step("deferred-lau", Pattern::nas_up("Location Updating Request"))
        .step(
            "failure-propagated",
            Pattern::hazard(HazardKind::S6FailurePropagated),
        )
        .step(
            "network-detach-on-4g",
            Pattern::nas_down("Detach Request (network)").on(RatSystem::Lte4g),
        )
        .step("deregistered", Pattern::registration(false))
        .forbid(
            "completed location update",
            Pattern::nas_down("Location Updating Accept"),
        )
}

/// Look up the hand-declared signature for an instance name ("S1".."S6").
pub fn hand_signature(instance: &str) -> Option<Signature> {
    match instance {
        "S1" => Some(s1()),
        "S2" => Some(s2()),
        "S3" => Some(s3()),
        "S4" => Some(s4()),
        "S5" => Some(s5()),
        "S6" => Some(s6()),
        _ => None,
    }
}

/// Outcome of lowering a screening counterexample into a signature.
#[derive(Clone, Debug)]
pub struct CompiledWitness {
    /// The compiled automaton (stimulus arcs + violation observable).
    pub signature: Signature,
    /// Number of witness actions that lowered to an arc.
    pub mapped: usize,
    /// Witness actions with no phone-side observable (model-internal
    /// scheduling like retry timers or in-core deliveries).
    pub skipped: Vec<String>,
}

/// Lower one screening counterexample action to a pattern arc, if it has
/// a phone-side observable.
fn lower_action(action: &str) -> Option<(String, Pattern)> {
    let arc = |label: &str, pat: Pattern| Some((label.to_string(), pat));
    if action.contains("switch 4G->3G") {
        return arc("camped-on-3g", Pattern::camped_on(RatSystem::Utran3g));
    }
    if action.contains("switch 3G->4G") || action.contains("3G->4G return completes") {
        return arc("camped-on-4g", Pattern::camped_on(RatSystem::Lte4g));
    }
    if action.contains("PDP context deactivated") || action.contains("deactivates PDP context") {
        return arc(
            "pdp-deactivated",
            Pattern::nas_down("Deactivate Context Request"),
        );
    }
    if action.contains("uplink RRC: Drop") {
        return arc("uplink-loss", Pattern::fault(FaultClass::Drop, Some(true)));
    }
    if action.contains("downlink RRC: Drop") {
        return arc(
            "downlink-loss",
            Pattern::fault(FaultClass::Drop, Some(false)),
        );
    }
    if action.contains("tracking-area update triggered") || action.contains("TrackingArea") {
        return arc(
            "tau-attempt",
            Pattern::nas_up("Tracking Area Update Request"),
        );
    }
    if action.contains("location-area update triggered") || action.contains("LocationArea") {
        return arc("lau-attempt", Pattern::nas_up("Location Updating Request"));
    }
    if action.contains("RoutingArea") {
        return arc(
            "rau-attempt",
            Pattern::nas_up("Routing Area Update Request"),
        );
    }
    if action.contains("user dials") {
        return arc("dialed", Pattern::call(CallPhase::Dialed));
    }
    if action.contains("call ends") || action.contains("user hangs up") {
        return arc("call-released", Pattern::call(CallPhase::Released));
    }
    if action.contains("operator rejects attach") {
        return arc("attach-rejected", Pattern::nas_down("Attach Reject"));
    }
    if action.contains("network detaches the device") {
        return arc(
            "network-detach",
            Pattern::nas_down("Detach Request (network)"),
        );
    }
    None
}

/// The phone-side observable of a violated screening property — appended
/// as the final arc of a compiled signature so confirmation requires the
/// violation itself, not just its stimulus.
pub fn observable_for(property: &str) -> Option<Step> {
    let step = |label: &str, pat: Pattern| {
        Some(Step {
            label: label.to_string(),
            pattern: pat,
            within_ms: None,
            forbidden: Vec::new(),
        })
    };
    match property {
        "PacketService_OK" => step("violation: out of service", Pattern::registration(false)),
        "CallService_OK" => step(
            "violation: request blocked",
            Pattern::hazard(HazardKind::S4HolBlocked),
        ),
        // MM_OK violations are lassos ("never returns"); on a finite trace
        // the observable is the eventual return that closes the stuck
        // window — the span length carries the severity.
        "MM_OK" => step("stuck window closes", Pattern::camped_on(RatSystem::Lte4g)),
        _ => None,
    }
}

/// Compile a screening counterexample path (plus the violated property)
/// into a signature automaton.
///
/// Consecutive duplicate arcs are collapsed: the simulator can satisfy
/// "drop, drop, drop" with distinct faults, but the model's repeated
/// scheduling actions carry no extra trace obligation.
pub fn compile_witness(name: &str, property: &str, witness: &[String]) -> CompiledWitness {
    let mut sig = Signature::new(format!("{name}-compiled"));
    let mut mapped = 0usize;
    let mut skipped = Vec::new();
    for action in witness {
        match lower_action(action) {
            Some((label, pat)) => {
                if sig.steps.last().map(|s| &s.pattern) == Some(&pat) {
                    continue; // collapse consecutive duplicates
                }
                mapped += 1;
                sig = sig.step(label, pat);
            }
            None => skipped.push(action.clone()),
        }
    }
    if let Some(obs) = observable_for(property) {
        // Avoid a no-op final arc when the stimulus already ends on the
        // same pattern.
        if sig.steps.last().map(|s| &s.pattern) != Some(&obs.pattern) {
            sig.steps.push(obs);
        }
    }
    CompiledWitness {
        signature: sig,
        mapped,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_signatures_cover_all_six_instances() {
        for name in ["S1", "S2", "S3", "S4", "S5", "S6"] {
            let sig = hand_signature(name).expect("signature exists");
            assert!(!sig.steps.is_empty());
        }
        assert!(hand_signature("S7").is_none());
    }

    #[test]
    fn divergent_instances_carry_negation_arcs() {
        assert!(!s5().forbidden.is_empty(), "S5 refutes via healthy uplink");
        assert!(!s6().forbidden.is_empty(), "S6 refutes via completed LU");
    }

    #[test]
    fn compile_lowers_observables_and_skips_internals() {
        let witness = vec![
            "inter-system switch 4G->3G".to_string(),
            "PDP context deactivated: operator determined barring".to_string(),
            "inter-system switch 3G->4G".to_string(),
        ];
        let c = compile_witness("S1", "PacketService_OK", &witness);
        assert_eq!(c.mapped, 3);
        assert!(c.skipped.is_empty());
        // Three stimulus arcs + the PacketService_OK violation observable.
        assert_eq!(c.signature.steps.len(), 4);
        assert_eq!(c.signature.steps[3].label, "violation: out of service");
    }

    #[test]
    fn compile_collapses_duplicates_and_records_skips() {
        let witness = vec![
            "scenario: tracking-area update triggered".to_string(),
            "uplink RRC: DropFront".to_string(),
            "uplink RRC: DropFront".to_string(),
            "device: attach retry timer fires".to_string(),
        ];
        let c = compile_witness("S2", "PacketService_OK", &witness);
        assert_eq!(c.mapped, 2, "duplicate drop collapsed");
        assert_eq!(c.skipped, vec!["device: attach retry timer fires"]);
    }
}
