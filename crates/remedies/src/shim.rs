//! The reliable-transfer shim layer (§8 "Layer Extension", §9.1).
//!
//! "We propose a slim layer with reliable transfer for the out-of-sequence
//! signaling ... inserted between EMM and RRC. Its reliable transfer
//! ensures the end-to-end in-order signal exchange between the phone and
//! MME. To be compatible with the current system, it bridges the interfaces
//! between EMM and RRC and encapsulates the information of reliable
//! transfer function."
//!
//! [`ShimEndpoint`] is a tiny go-back-N-style reliable channel endpoint:
//! every NAS message is wrapped in a [`ShimFrame::Data`] with a sequence
//! number; the peer acknowledges cumulatively, delivers in order exactly
//! once (de-duplicating retransmissions — the Figure 5b defense), and the
//! sender retransmits unacknowledged frames on a timer (the Figure 5a
//! defense).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use cellstack::NasMessage;
use netsim::FaultPolicy;

/// Frames exchanged by two shim endpoints.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShimFrame {
    /// A sequenced payload.
    Data {
        /// Sequence number (0-based, per direction).
        seq: u32,
        /// The NAS message carried.
        msg: NasMessage,
    },
    /// Cumulative acknowledgment: every `seq < ack_next` was received.
    Ack {
        /// Next expected sequence number.
        ack_next: u32,
    },
}

/// One side of the shim (the phone's EMM side or the MME side).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShimEndpoint {
    /// Next sequence number to assign to an outgoing message.
    next_seq: u32,
    /// Sent but not yet acknowledged frames (retransmission buffer).
    unacked: VecDeque<(u32, NasMessage)>,
    /// Next sequence number expected from the peer.
    recv_next: u32,
    /// Count of retransmissions performed (diagnostics).
    pub retransmissions: u64,
    /// Count of duplicate frames suppressed (diagnostics).
    pub duplicates_dropped: u64,
}

impl ShimEndpoint {
    /// A fresh endpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap `msg` for transmission. The frame is also buffered for
    /// retransmission until acknowledged.
    pub fn send(&mut self, msg: NasMessage) -> ShimFrame {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back((seq, msg.clone()));
        ShimFrame::Data { seq, msg }
    }

    /// Handle a received frame. Returns `(deliveries, reply)`: NAS messages
    /// to hand to the upper layer (in order, deduplicated), and an optional
    /// frame to transmit back (an ACK for data frames).
    pub fn on_receive(&mut self, frame: ShimFrame) -> (Vec<NasMessage>, Option<ShimFrame>) {
        match frame {
            ShimFrame::Data { seq, msg } => {
                let mut deliveries = Vec::new();
                if seq == self.recv_next {
                    self.recv_next += 1;
                    deliveries.push(msg);
                } else if seq < self.recv_next {
                    // Retransmitted duplicate: suppress, but re-ACK.
                    self.duplicates_dropped += 1;
                } else {
                    // Out-of-order future frame: with go-back-N we drop it
                    // and let the sender retransmit in order.
                    self.duplicates_dropped += 1;
                }
                (
                    deliveries,
                    Some(ShimFrame::Ack {
                        ack_next: self.recv_next,
                    }),
                )
            }
            ShimFrame::Ack { ack_next } => {
                while matches!(self.unacked.front(), Some((seq, _)) if *seq < ack_next) {
                    self.unacked.pop_front();
                }
                (Vec::new(), None)
            }
        }
    }

    /// The retransmission timer fired: re-send every unacknowledged frame.
    pub fn on_retransmit_timer(&mut self) -> Vec<ShimFrame> {
        let frames: Vec<ShimFrame> = self
            .unacked
            .iter()
            .map(|(seq, msg)| ShimFrame::Data {
                seq: *seq,
                msg: msg.clone(),
            })
            .collect();
        self.retransmissions += frames.len() as u64;
        frames
    }

    /// Number of frames awaiting acknowledgment.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }
}

/// The Figure 12-left experiment: "the RRC at the base station drops the
/// message according to a given drop rate. For each test, user device does
/// both attach and tracking area update for 100 times" (§9.1). Returns the
/// number of *implicit detaches* observed.
///
/// The exchange uses the real EMM machines from `cellstack`; the lossy leg
/// is the device→MME uplink, driven by a [`FaultPolicy`] that makes
/// one draw per transmission. The paper's sweep uses a drop-only policy
/// ([`FaultPolicy::dropping`]); the generalized adversary also
/// *reorders* frames (an earlier message lands after a later one) and
/// *corrupts* them (the receiver's integrity check discards the frame, TS
/// 24.301 §4.4.4.2).
///
/// With the shim, every uplink NAS message rides in a sequenced frame that
/// is retransmitted until acknowledged and de-duplicated at the MME, so a
/// lost, corrupted or reordered frame is just an unacknowledged one and no
/// loss-induced state divergence survives. Without the shim, a late-landing
/// NAS message is exactly the out-of-sequence delivery of §5.2.
pub fn figure12_left_run(policy: &FaultPolicy, cycles: u32, with_shim: bool, seed: u64) -> u32 {
    use cellstack::emm::{
        EmmDevice, EmmDeviceInput, EmmDeviceOutput, EmmDeviceState, MmeEmm, MmeInput, MmeOutput,
    };
    use cellstack::{NasMessage, Registration, UpdateKind};
    use netsim::AdvFate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut detaches = 0u32;

    for _ in 0..cycles {
        let mut dev = EmmDevice::new();
        let mut mme = MmeEmm::new();
        let mut dev_shim = ShimEndpoint::new();
        let mut mme_shim = ShimEndpoint::new();
        // Overtaken traffic in flight: a reordered message lands only after
        // a later transmission has gone through.
        let mut held_plain: Vec<NasMessage> = Vec::new();
        let mut held_frames: Vec<ShimFrame> = Vec::new();

        // Transmit one uplink NAS message over the faulty leg; returns the
        // messages the MME's upper layer receives.
        let uplink = |msg: NasMessage,
                      rng: &mut StdRng,
                      dev_shim: &mut ShimEndpoint,
                      mme_shim: &mut ShimEndpoint,
                      held_plain: &mut Vec<NasMessage>,
                      held_frames: &mut Vec<ShimFrame>|
         -> Vec<NasMessage> {
            if with_shim {
                // The ACK leg is treated as reliable (BS->core is wired).
                let deliver = |frame: ShimFrame,
                               dev_shim: &mut ShimEndpoint,
                               mme_shim: &mut ShimEndpoint|
                 -> Vec<NasMessage> {
                    let (d, ack) = mme_shim.on_receive(frame);
                    if let Some(a) = ack {
                        dev_shim.on_receive(a);
                    }
                    d
                };
                let mut frame = dev_shim.send(msg);
                for _attempt in 0..200 {
                    match policy.decide(rng) {
                        AdvFate::Deliver | AdvFate::Delay { .. } => {
                            let mut out = deliver(frame, dev_shim, mme_shim);
                            // The overtaken copies finally land — late, so
                            // the shim sees them as stale and suppresses.
                            for late in held_frames.drain(..) {
                                out.extend(deliver(late, dev_shim, mme_shim));
                            }
                            return out;
                        }
                        AdvFate::Duplicate { .. } => {
                            let mut out = deliver(frame.clone(), dev_shim, mme_shim);
                            out.extend(deliver(frame, dev_shim, mme_shim));
                            return out;
                        }
                        AdvFate::Reorder { .. } => {
                            // Overtaken: parked until after a later delivery;
                            // meanwhile the sender's timer re-sends.
                            held_frames.push(frame.clone());
                        }
                        AdvFate::Drop | AdvFate::Corrupt => {
                            // Lost outright, or discarded by the receiver's
                            // integrity check — either way no ACK comes.
                        }
                    }
                    match dev_shim.on_retransmit_timer().into_iter().next() {
                        Some(f) => frame = f,
                        None => return Vec::new(),
                    }
                }
                Vec::new()
            } else {
                match policy.decide(rng) {
                    AdvFate::Deliver | AdvFate::Delay { .. } => {
                        let mut out = vec![msg];
                        // Overtaken messages land after this one.
                        out.append(held_plain);
                        out
                    }
                    AdvFate::Duplicate { .. } => vec![msg.clone(), msg],
                    AdvFate::Reorder { .. } => {
                        held_plain.push(msg);
                        Vec::new()
                    }
                    AdvFate::Drop | AdvFate::Corrupt => Vec::new(),
                }
            }
        };

        // Drive one attach + one tracking-area update.
        let mut dev_out = Vec::new();
        dev.on_input(EmmDeviceInput::AttachTrigger, &mut dev_out);
        let mut downlink: Vec<NasMessage> = Vec::new();
        // A bounded number of exchange rounds per cycle.
        let mut tau_done = false;
        let mut tau_sent = false;
        for _round in 0..40 {
            // Process device outputs -> uplink -> MME -> downlink.
            let outs = std::mem::take(&mut dev_out);
            for o in outs {
                if let EmmDeviceOutput::Send(msg) = o {
                    for m in uplink(
                        msg,
                        &mut rng,
                        &mut dev_shim,
                        &mut mme_shim,
                        &mut held_plain,
                        &mut held_frames,
                    ) {
                        let mut mo = Vec::new();
                        mme.on_input(MmeInput::Uplink(m), &mut mo);
                        for x in mo {
                            if let MmeOutput::Send(d) = x {
                                downlink.push(d);
                            }
                        }
                    }
                }
            }
            // Deliver downlink (reliable).
            for m in std::mem::take(&mut downlink) {
                let detach = matches!(
                    m,
                    NasMessage::UpdateReject(UpdateKind::TrackingArea, _)
                        | NasMessage::NetworkDetach(_)
                );
                let mut o = Vec::new();
                dev.on_input(EmmDeviceInput::Network(m), &mut o);
                if detach
                    && o.iter().any(|e| {
                        matches!(e, EmmDeviceOutput::RegChanged(Registration::Deregistered))
                    })
                {
                    detaches += 1;
                    tau_done = true; // cycle ends in failure
                }
                dev_out.extend(o);
            }
            if dev.state == EmmDeviceState::Registered && !tau_sent {
                tau_sent = true;
                dev.on_input(EmmDeviceInput::TauTrigger, &mut dev_out);
            } else if dev.state == EmmDeviceState::Registered && tau_sent {
                tau_done = true;
            } else if dev.state == EmmDeviceState::RegisteredInitiated && dev_out.is_empty() {
                // Attach request lost without shim: retry timer.
                dev.on_input(EmmDeviceInput::RetryTimer, &mut dev_out);
            } else if dev.state == EmmDeviceState::TauInitiated
                && dev_out.is_empty()
                && downlink.is_empty()
            {
                // TAU request lost without shim: retransmit on T3430.
                dev.on_input(EmmDeviceInput::TauTrigger, &mut dev_out);
            }
            if tau_done && dev_out.is_empty() {
                break;
            }
        }
    }
    detaches
}

/// One Figure 12-left series: `(drop_rate_percent, detaches)` points.
pub type Fig12Series = Vec<(f64, u32)>;

/// The full Figure 12-left sweep: drop rates 0–10%, 100 cycles each,
/// with and without the shim. Returns `(with_solution, without_solution)`
/// series.
pub fn figure12_left(seed: u64) -> (Fig12Series, Fig12Series) {
    let rates = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10];
    let with: Vec<_> = rates
        .iter()
        .map(|&r| {
            (
                r * 100.0,
                figure12_left_run(&FaultPolicy::dropping(r), 100, true, seed),
            )
        })
        .collect();
    let without: Vec<_> = rates
        .iter()
        .map(|&r| {
            (
                r * 100.0,
                figure12_left_run(&FaultPolicy::dropping(r), 100, false, seed ^ 1),
            )
        })
        .collect();
    (with, without)
}

/// The Figure 12-left sweep under the generalized adversary: at each x-axis
/// point `x%`, the uplink drops at `x%`, reorders at `x%` and corrupts at
/// `x/2 %`. Returns `(with_solution, without_solution)` series.
pub fn figure12_left_adversarial(seed: u64) -> (Fig12Series, Fig12Series) {
    let rates = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10];
    let policy_at = |r: f64| FaultPolicy {
        drop_rate: r,
        reorder_rate: r,
        corrupt_rate: r / 2.0,
        reorder_hold_ms: 50,
        ..FaultPolicy::default()
    };
    let with: Vec<_> = rates
        .iter()
        .map(|&r| (r * 100.0, figure12_left_run(&policy_at(r), 100, true, seed)))
        .collect();
    let without: Vec<_> = rates
        .iter()
        .map(|&r| {
            (
                r * 100.0,
                figure12_left_run(&policy_at(r), 100, false, seed ^ 1),
            )
        })
        .collect();
    (with, without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstack::RatSystem;

    fn msg(n: u8) -> NasMessage {
        match n {
            0 => NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            },
            1 => NasMessage::AttachComplete,
            _ => NasMessage::DetachRequest,
        }
    }

    #[test]
    fn in_order_delivery_with_acks() {
        let mut a = ShimEndpoint::new();
        let mut b = ShimEndpoint::new();
        let f0 = a.send(msg(0));
        let f1 = a.send(msg(1));
        let (d0, ack0) = b.on_receive(f0);
        assert_eq!(d0, vec![msg(0)]);
        let (d1, ack1) = b.on_receive(f1);
        assert_eq!(d1, vec![msg(1)]);
        a.on_receive(ack0.unwrap());
        assert_eq!(a.unacked_len(), 1);
        a.on_receive(ack1.unwrap());
        assert_eq!(a.unacked_len(), 0);
    }

    #[test]
    fn lost_frame_recovered_by_retransmission() {
        let mut a = ShimEndpoint::new();
        let mut b = ShimEndpoint::new();
        let _lost = a.send(msg(0)); // dropped by the network
        let frames = a.on_retransmit_timer();
        assert_eq!(frames.len(), 1);
        let (d, _) = b.on_receive(frames[0].clone());
        assert_eq!(d, vec![msg(0)], "retransmission delivers the signal");
        assert_eq!(a.retransmissions, 1);
    }

    #[test]
    fn duplicate_suppressed_exactly_once_delivery() {
        let mut a = ShimEndpoint::new();
        let mut b = ShimEndpoint::new();
        let f = a.send(msg(0));
        let (d1, _) = b.on_receive(f.clone());
        assert_eq!(d1.len(), 1);
        // The same frame arrives again (e.g. via a second base station —
        // the Figure 5b scenario).
        let (d2, ack) = b.on_receive(f);
        assert!(d2.is_empty(), "duplicate must not reach EMM");
        assert_eq!(b.duplicates_dropped, 1);
        // The duplicate still produces an ACK, so the sender stops
        // retransmitting even if the first ACK was lost.
        assert!(matches!(ack, Some(ShimFrame::Ack { ack_next: 1 })));
    }

    #[test]
    fn out_of_order_future_frame_dropped_until_in_order() {
        let mut a = ShimEndpoint::new();
        let mut b = ShimEndpoint::new();
        let f0 = a.send(msg(0));
        let f1 = a.send(msg(1));
        // f1 overtakes f0.
        let (d, _) = b.on_receive(f1.clone());
        assert!(d.is_empty());
        let (d, _) = b.on_receive(f0);
        assert_eq!(d, vec![msg(0)]);
        let (d, _) = b.on_receive(f1);
        assert_eq!(d, vec![msg(1)], "in-sequence after retransmission");
    }

    #[test]
    fn cumulative_ack_clears_multiple() {
        let mut a = ShimEndpoint::new();
        a.send(msg(0));
        a.send(msg(1));
        a.send(msg(2));
        a.on_receive(ShimFrame::Ack { ack_next: 2 });
        assert_eq!(a.unacked_len(), 1);
    }

    #[test]
    fn retransmit_empty_buffer_is_noop() {
        let mut a = ShimEndpoint::new();
        assert!(a.on_retransmit_timer().is_empty());
        assert_eq!(a.retransmissions, 0);
    }

    #[test]
    fn figure12_left_zero_drop_zero_detach_both_ways() {
        assert_eq!(
            figure12_left_run(&FaultPolicy::dropping(0.0), 100, false, 1),
            0
        );
        assert_eq!(
            figure12_left_run(&FaultPolicy::dropping(0.0), 100, true, 1),
            0
        );
    }

    #[test]
    fn figure12_left_without_solution_detaches_grow_with_drop_rate() {
        let low = figure12_left_run(&FaultPolicy::dropping(0.02), 100, false, 2);
        let high = figure12_left_run(&FaultPolicy::dropping(0.10), 100, false, 2);
        assert!(high > 0, "10% drop must cause detaches");
        assert!(high >= low, "roughly linear growth: {low} -> {high}");
    }

    #[test]
    fn figure12_left_with_solution_never_detaches() {
        for rate in [0.02, 0.06, 0.10, 0.3] {
            assert_eq!(
                figure12_left_run(&FaultPolicy::dropping(rate), 100, true, 3),
                0,
                "shim must eliminate detaches at drop rate {rate}"
            );
        }
    }

    #[test]
    fn figure12_left_sweep_shapes() {
        let (with, without) = figure12_left(7);
        assert_eq!(with.len(), 6);
        assert!(with.iter().all(|&(_, d)| d == 0));
        assert!(without.last().unwrap().1 >= without.first().unwrap().1);
    }

    #[test]
    fn adversarial_f12l_shim_still_eliminates_detaches() {
        // Reordering and corruption on top of drops: the go-back-N shim
        // must still hold implicit detaches at zero.
        let policy = FaultPolicy {
            drop_rate: 0.10,
            reorder_rate: 0.10,
            corrupt_rate: 0.05,
            reorder_hold_ms: 50,
            ..FaultPolicy::default()
        };
        assert_eq!(figure12_left_run(&policy, 100, true, 11), 0);
    }

    #[test]
    fn adversarial_f12l_without_shim_detaches() {
        let policy = FaultPolicy {
            drop_rate: 0.10,
            reorder_rate: 0.10,
            corrupt_rate: 0.05,
            reorder_hold_ms: 50,
            ..FaultPolicy::default()
        };
        assert!(
            figure12_left_run(&policy, 100, false, 11) > 0,
            "the bare exchange must implicitly detach under the adversary"
        );
    }

    #[test]
    fn adversarial_f12l_is_deterministic_per_seed() {
        let policy = FaultPolicy {
            drop_rate: 0.06,
            reorder_rate: 0.06,
            corrupt_rate: 0.03,
            reorder_hold_ms: 50,
            ..FaultPolicy::default()
        };
        let a = figure12_left_run(&policy, 100, false, 5);
        let b = figure12_left_run(&policy, 100, false, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn adversarial_f12l_sweep_shapes() {
        let (with, without) = figure12_left_adversarial(7);
        assert_eq!(with.len(), 6);
        assert!(with.iter().all(|&(_, d)| d == 0), "shim holds: {with:?}");
        assert_eq!(without[0].1, 0, "0% faults, 0 detaches");
        assert!(
            without.iter().any(|&(_, d)| d > 0),
            "faults must bite without the shim: {without:?}"
        );
    }
}
