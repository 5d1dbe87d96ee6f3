//! Alternative shared-channel organizations (§6.2's proposal).
//!
//! After diagnosing S5, the paper sketches two better ways to organize the
//! 3G shared channel:
//!
//! > "Instead of coupling the CS and PS traffic from the same device on the
//! > shared channel, we can **cluster PS sessions from multiple devices**
//! > and let them share the same channel while CS sessions are grouped
//! > together and sent over the shared channel using the same modulation
//! > scheme. An alternative approach is to **allow CS and PS to adopt their
//! > own modulation scheme**. This way, diverse requirements of CS and PS
//! > traffic can both be met."
//!
//! This module implements a small TTI-slot scheduler over a population of
//! devices with voice and data flows, under the three organizations, and
//! measures what each flow class achieves — quantifying the proposal the
//! paper leaves as design discussion.

use cellstack::Modulation;
use serde::Serialize;

/// How the carrier organizes CS and PS traffic onto shared channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SharingScheme {
    /// Carrier practice (S5): each device's CS and PS traffic share one
    /// channel with one modulation, downgraded to the CS-safe scheme
    /// whenever any voice is active.
    CoupledPerDevice,
    /// Paper proposal 1: PS sessions from all devices are clustered on
    /// 64QAM channels; CS sessions are grouped on a robust 16QAM channel.
    ClusterByDomain,
    /// Paper proposal 2: every flow uses its own modulation on its slice of
    /// the channel (per-flow adaptive modulation).
    IndependentModulation,
}

impl SharingScheme {
    /// All three organizations.
    pub const ALL: [SharingScheme; 3] = [
        SharingScheme::CoupledPerDevice,
        SharingScheme::ClusterByDomain,
        SharingScheme::IndependentModulation,
    ];
}

/// One device's demand in the experiment.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DeviceLoad {
    /// The device has an active voice call.
    pub voice: bool,
    /// The device has an active bulk-data flow.
    pub data: bool,
}

/// Aggregate outcome of one scheduling round.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SchedulerOutcome {
    /// Aggregate PS throughput across devices, Mbps.
    pub data_mbps_total: f64,
    /// Mean per-data-flow throughput, Mbps.
    pub data_mbps_per_flow: f64,
    /// Fraction of voice flows meeting the 12.2 kbps AMR requirement with
    /// robust (≤16QAM) modulation.
    pub voice_satisfied: f64,
}

/// AMR voice payload requirement, kbps (§6.2: "the best 3G CS voice is
/// 12.2 kbps"), padded with signaling overhead.
const VOICE_KBPS: f64 = 12.2 * 2.0;

/// Voice scheduling overhead on a shared channel: robust coding TTIs,
/// power-control headroom, HS-SCCH signaling (same calibration as
/// `netsim::radio::cs_sharing_factor`).
const VOICE_AIRTIME_OVERHEAD: f64 = 0.50;

/// Schedule one TTI-averaged round for a device population.
///
/// `channels` is the number of 5 MHz carriers available; airtime within a
/// channel is split evenly between the flows assigned to it.
pub fn schedule(
    scheme: SharingScheme,
    devices: &[DeviceLoad],
    channels: usize,
) -> SchedulerOutcome {
    assert!(channels > 0, "need at least one carrier");
    let voice_flows: Vec<()> = devices.iter().filter(|d| d.voice).map(|_| ()).collect();
    let data_flows: Vec<()> = devices.iter().filter(|d| d.data).map(|_| ()).collect();
    let n_voice = voice_flows.len();
    let n_data = data_flows.len();
    if n_data == 0 && n_voice == 0 {
        return SchedulerOutcome::default();
    }

    let dl64 = Modulation::Qam64.peak_dl_kbps() as f64 / 1_000.0; // Mbps
    let dl16 = Modulation::Qam16.peak_dl_kbps() as f64 / 1_000.0;

    let (data_total, voice_ok) = match scheme {
        SharingScheme::CoupledPerDevice => {
            // Each device owns a slice of a channel; a device with voice
            // runs its slice at 16QAM and burns the voice overhead.
            let active: Vec<&DeviceLoad> = devices.iter().filter(|d| d.voice || d.data).collect();
            let slice = channels as f64 / active.len() as f64;
            let mut data_total = 0.0;
            for d in &active {
                if d.data {
                    let rate = if d.voice { dl16 } else { dl64 };
                    let share = if d.voice { VOICE_AIRTIME_OVERHEAD } else { 1.0 };
                    data_total += rate * slice.min(1.0) * share;
                }
            }
            (data_total, 1.0) // voice always wins on its own slice
        }
        SharingScheme::ClusterByDomain => {
            // One robust channel carries all voice; the rest carry data at
            // 64QAM. Voice capacity check: the 16QAM channel must fit all
            // calls.
            let voice_capacity_flows = (dl16 * 1_000.0 * 0.5 / VOICE_KBPS) as usize;
            let voice_ok = if n_voice == 0 {
                1.0
            } else {
                (voice_capacity_flows.min(n_voice)) as f64 / n_voice as f64
            };
            let data_channels = if n_voice > 0 {
                channels.saturating_sub(1)
            } else {
                channels
            };
            let data_total = if n_data > 0 && data_channels > 0 {
                dl64 * data_channels as f64
            } else if n_data > 0 {
                // Degenerate single-channel case: data shares the voice
                // channel's leftover airtime at the robust modulation.
                dl16 * (1.0 - (n_voice as f64 * VOICE_KBPS / 1_000.0 / dl16)).max(0.0)
            } else {
                0.0
            };
            (data_total, voice_ok)
        }
        SharingScheme::IndependentModulation => {
            // Flows share airtime; each flow uses its own scheme. Voice
            // takes only its tiny payload share (no whole-channel
            // downgrade).
            let voice_airtime =
                (n_voice as f64 * VOICE_KBPS / 1_000.0 / dl16).min(0.5) * channels as f64;
            let data_airtime = (channels as f64 - voice_airtime).max(0.0);
            let data_total = if n_data > 0 { dl64 * data_airtime } else { 0.0 };
            (data_total, 1.0)
        }
    };

    SchedulerOutcome {
        data_mbps_total: data_total,
        data_mbps_per_flow: if n_data > 0 {
            data_total / n_data as f64
        } else {
            0.0
        },
        voice_satisfied: voice_ok,
    }
}

/// The §6.2 comparison experiment: a busy cell (many devices, half with
/// calls, most with data) under all three schemes.
pub fn sharing_comparison(
    devices: usize,
    channels: usize,
) -> Vec<(SharingScheme, SchedulerOutcome)> {
    let loads: Vec<DeviceLoad> = (0..devices)
        .map(|i| DeviceLoad {
            voice: i % 2 == 0,
            data: i % 4 != 3,
        })
        .collect();
    SharingScheme::ALL
        .iter()
        .map(|&s| (s, schedule(s, &loads, channels)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_cell() -> Vec<DeviceLoad> {
        (0..12)
            .map(|i| DeviceLoad {
                voice: i % 2 == 0,
                data: i % 4 != 3,
            })
            .collect()
    }

    #[test]
    fn clustering_beats_coupling_for_data() {
        let cell = busy_cell();
        let coupled = schedule(SharingScheme::CoupledPerDevice, &cell, 3);
        let clustered = schedule(SharingScheme::ClusterByDomain, &cell, 3);
        assert!(
            clustered.data_mbps_total > coupled.data_mbps_total * 1.25,
            "clustering reclaims the 64QAM channels: {:.1} vs {:.1}",
            clustered.data_mbps_total,
            coupled.data_mbps_total
        );
        // With more carriers the clustering advantage widens (only one
        // robust channel is sacrificed regardless of carrier count).
        let coupled5 = schedule(SharingScheme::CoupledPerDevice, &cell, 5);
        let clustered5 = schedule(SharingScheme::ClusterByDomain, &cell, 5);
        assert!(clustered5.data_mbps_total > coupled5.data_mbps_total * 1.4);
        assert!(clustered.voice_satisfied >= 0.99, "voice still served");
    }

    #[test]
    fn independent_modulation_is_best_for_data() {
        let cell = busy_cell();
        let clustered = schedule(SharingScheme::ClusterByDomain, &cell, 3);
        let independent = schedule(SharingScheme::IndependentModulation, &cell, 3);
        assert!(
            independent.data_mbps_total >= clustered.data_mbps_total,
            "per-flow modulation wastes no whole channel on voice: {:.1} vs {:.1}",
            independent.data_mbps_total,
            clustered.data_mbps_total
        );
        assert_eq!(independent.voice_satisfied, 1.0);
    }

    #[test]
    fn no_voice_schemes_converge() {
        let cell: Vec<DeviceLoad> = (0..8)
            .map(|_| DeviceLoad {
                voice: false,
                data: true,
            })
            .collect();
        let results: Vec<f64> = SharingScheme::ALL
            .iter()
            .map(|&s| schedule(s, &cell, 2).data_mbps_total)
            .collect();
        // Without voice there is nothing to decouple: all three equal.
        assert!((results[0] - results[1]).abs() < 1e-6);
        assert!((results[1] - results[2]).abs() < 1e-6);
    }

    #[test]
    fn voice_only_cell_has_zero_data() {
        let cell: Vec<DeviceLoad> = (0..4)
            .map(|_| DeviceLoad {
                voice: true,
                data: false,
            })
            .collect();
        for s in SharingScheme::ALL {
            let out = schedule(s, &cell, 2);
            assert_eq!(out.data_mbps_total, 0.0);
            assert!(out.voice_satisfied > 0.99);
        }
    }

    #[test]
    fn empty_cell_is_all_zero() {
        for s in SharingScheme::ALL {
            let out = schedule(s, &[], 2);
            assert_eq!(out.data_mbps_total, 0.0);
        }
    }

    #[test]
    fn comparison_covers_all_schemes() {
        let rows = sharing_comparison(12, 3);
        assert_eq!(rows.len(), 3);
        // Ordering: coupled < clustered <= independent.
        assert!(rows[0].1.data_mbps_total < rows[1].1.data_mbps_total);
        assert!(rows[1].1.data_mbps_total <= rows[2].1.data_mbps_total + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one carrier")]
    fn zero_channels_panics() {
        schedule(SharingScheme::CoupledPerDevice, &busy_cell(), 0);
    }
}
