//! Radio model: path loss → RSSI, RSSI → signaling loss rate, and
//! modulation/shared-channel → achievable PS throughput.
//!
//! This is the substitute for the paper's physical testbed. The pieces are
//! calibrated to the figures the paper reports rather than to a full PHY:
//!
//! * RSSI follows a log-distance path-loss model, spanning the paper's
//!   observed range (−51 dBm near a site, below −110 dBm in the weak-signal
//!   areas used to lose EMM signals, §5.2.2).
//! * Signal loss probability rises steeply below −100 dBm.
//! * Downlink/uplink rate is the modulation peak (64QAM ≈ 21 Mbps, 16QAM ≈
//!   11 Mbps — Figure 10) scaled by signal quality, a time-of-day load
//!   factor (Figure 9's hour bins), and the CS slot share when voice rides
//!   the same channel (S5).

use cellstack::Modulation;

/// Received signal strength, dBm.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Rssi(pub f64);

impl Rssi {
    /// Is this in the "good signal" range the paper drives in (Figure 7:
    /// −51 to −95 dBm)?
    pub fn is_good(self) -> bool {
        self.0 >= -95.0
    }

    /// Is this the weak-coverage regime used to provoke S2 (≤ −110 dBm)?
    pub fn is_weak(self) -> bool {
        self.0 <= -110.0
    }
}

/// Log-distance path loss: `RSSI = tx_dbm − pl0 − 10·n·log10(d/d0)`.
///
/// Defaults give −51 dBm at the 50 m reference and ≈−111 dBm at 10 km,
/// matching the span of the paper's measurements.
#[derive(Clone, Copy, Debug)]
pub struct PathLoss {
    /// Effective transmit power + antenna gains, dBm.
    pub tx_dbm: f64,
    /// Path loss at the reference distance, dB.
    pub pl0_db: f64,
    /// Reference distance, meters.
    pub d0_m: f64,
    /// Path-loss exponent (≈2.6, urban macro).
    pub exponent: f64,
}

impl Default for PathLoss {
    fn default() -> Self {
        Self {
            tx_dbm: 43.0,
            pl0_db: 94.0,
            d0_m: 50.0,
            exponent: 2.6,
        }
    }
}

impl PathLoss {
    /// RSSI at `distance_m` meters from the base station.
    pub fn rssi_at(&self, distance_m: f64) -> Rssi {
        let d = distance_m.max(self.d0_m);
        Rssi(self.tx_dbm - self.pl0_db - 10.0 * self.exponent * (d / self.d0_m).log10())
    }
}

/// Probability that one signaling message is lost in the air at `rssi`.
///
/// Negligible in good signal; ramping up linearly from −100 dBm to 50% at
/// −120 dBm (the §5.2.2 weak-coverage regime).
pub fn signaling_loss_prob(rssi: Rssi) -> f64 {
    if rssi.0 >= -100.0 {
        0.001
    } else {
        (0.001 + (-100.0 - rssi.0) * 0.025).min(0.5)
    }
}

/// Signal-quality factor in [0.35, 1]: achievable fraction of the
/// modulation's peak rate at a given RSSI.
pub fn quality_factor(rssi: Rssi) -> f64 {
    // Full rate above -70 dBm, degrading towards cell edge.
    let x = ((rssi.0 + 110.0) / 40.0).clamp(0.0, 1.0);
    0.35 + 0.65 * x
}

/// Relative network load by hour of day (0-23). Shapes the Figure 9 bins:
/// busiest in the evening (17-20), lightest overnight (23-02).
pub fn hourly_load(hour: u32) -> f64 {
    const LOAD: [f64; 24] = [
        0.25, 0.20, 0.18, 0.18, 0.20, 0.25, 0.35, 0.45, // 0-7
        0.55, 0.60, 0.60, 0.62, 0.65, 0.62, 0.60, 0.62, // 8-15
        0.68, 0.78, 0.82, 0.80, 0.72, 0.60, 0.45, 0.32, // 16-23
    ];
    LOAD[(hour % 24) as usize]
}

/// The shared-channel configuration a device currently experiences.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelConfig {
    /// Modulation on the (downlink) shared channel.
    pub modulation: Modulation,
    /// A CS call shares the channel (costs slots + scheduling overhead).
    pub cs_sharing: bool,
    /// Domain decoupling applied (separate channels — the §8 remedy).
    pub decoupled: bool,
}

/// Fraction of shared-channel capacity left for PS when a CS call shares it.
///
/// Voice itself is only 12.2 kbps, but the coupled configuration costs far
/// more than the voice payload: the scheduler must interleave robust-coding
/// voice TTIs, power-control headroom is reserved, and HS-SCCH signaling
/// overhead grows. Calibrated so the *coupled* downlink drop lands in the
/// paper's 73.9–74.8% once combined with the 64QAM→16QAM downgrade, and the
/// uplink drop can reach 96% for an OP-II-like configuration.
pub fn cs_sharing_factor(uplink: bool, aggressive_coupling: bool) -> f64 {
    match (uplink, aggressive_coupling) {
        // Downlink: modulation downgrade (21→11 Mbps ≈ 48% drop) times this
        // factor ≈ 74% total drop.
        (false, _) => 0.50,
        // Uplink OP-I: mild coupling — about half the rate survives.
        (true, false) => 0.49,
        // Uplink OP-II: voice-first scheduling starves PS almost entirely.
        (true, true) => 0.075,
    }
}

/// Achievable PS rate in kbit/s.
///
/// `base_peak` comes from the modulation ([`Modulation::peak_dl_kbps`] /
/// `peak_ul_kbps`); the factors compose multiplicatively.
pub fn achievable_kbps(
    cfg: ChannelConfig,
    uplink: bool,
    rssi: Rssi,
    hour: u32,
    aggressive_coupling: bool,
) -> f64 {
    let peak = if uplink {
        cfg.modulation.peak_ul_kbps()
    } else {
        cfg.modulation.peak_dl_kbps()
    } as f64;
    let mut rate = peak * quality_factor(rssi) * (1.0 - 0.45 * hourly_load(hour));
    if cfg.cs_sharing && !cfg.decoupled {
        rate *= cs_sharing_factor(uplink, aggressive_coupling);
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_decreases_with_distance() {
        let pl = PathLoss::default();
        let near = pl.rssi_at(50.0);
        let mid = pl.rssi_at(1_000.0);
        let far = pl.rssi_at(10_000.0);
        assert!(near.0 > mid.0 && mid.0 > far.0);
        assert!(near.0 > -60.0, "near-site RSSI ≈ -51 dBm ({near:?})");
        assert!(far.0 < -105.0, "10 km is weak coverage ({far:?})");
    }

    #[test]
    fn good_and_weak_bands_match_paper() {
        assert!(Rssi(-51.0).is_good());
        assert!(Rssi(-95.0).is_good());
        assert!(!Rssi(-96.0).is_good());
        assert!(Rssi(-110.0).is_weak());
        assert!(!Rssi(-100.0).is_weak());
    }

    #[test]
    fn loss_negligible_in_good_signal() {
        assert!(signaling_loss_prob(Rssi(-70.0)) < 0.01);
    }

    #[test]
    fn loss_substantial_in_weak_signal() {
        let p = signaling_loss_prob(Rssi(-115.0));
        assert!(p > 0.2, "got {p}");
        assert!(signaling_loss_prob(Rssi(-140.0)) <= 0.5);
    }

    #[test]
    fn quality_factor_bounded() {
        assert!((quality_factor(Rssi(-50.0)) - 1.0).abs() < 1e-9);
        assert!(quality_factor(Rssi(-120.0)) >= 0.35);
    }

    #[test]
    fn evening_busier_than_night() {
        assert!(hourly_load(18) > hourly_load(1));
        assert!(hourly_load(12) > hourly_load(4));
    }

    #[test]
    fn s5_downlink_drop_in_paper_band() {
        // Without call: 64QAM, no sharing. With call: 16QAM + sharing.
        let rssi = Rssi(-70.0);
        let hour = 12;
        let without = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam64,
                cs_sharing: false,
                decoupled: false,
            },
            false,
            rssi,
            hour,
            false,
        );
        let with = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam16,
                cs_sharing: true,
                decoupled: false,
            },
            false,
            rssi,
            hour,
            false,
        );
        let drop = 1.0 - with / without;
        assert!(
            (0.70..=0.80).contains(&drop),
            "downlink drop {drop:.3} should be ≈0.739-0.748"
        );
    }

    #[test]
    fn s5_uplink_op2_drop_near_96_percent() {
        let rssi = Rssi(-70.0);
        let without = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam16,
                cs_sharing: false,
                decoupled: false,
            },
            true,
            rssi,
            12,
            true,
        );
        let with = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam16,
                cs_sharing: true,
                decoupled: false,
            },
            true,
            rssi,
            12,
            true,
        );
        let drop = 1.0 - with / without;
        assert!(
            (0.90..=0.99).contains(&drop),
            "uplink OP-II drop {drop:.3} should be ≈0.961"
        );
    }

    #[test]
    fn decoupling_restores_rate() {
        let rssi = Rssi(-70.0);
        let coupled = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam16,
                cs_sharing: true,
                decoupled: false,
            },
            false,
            rssi,
            12,
            false,
        );
        let decoupled = achievable_kbps(
            ChannelConfig {
                modulation: Modulation::Qam64,
                cs_sharing: true,
                decoupled: true,
            },
            false,
            rssi,
            12,
            false,
        );
        assert!(
            decoupled / coupled > 1.5,
            "the §9.2 remedy improved data ≈1.6×, got {:.2}",
            decoupled / coupled
        );
    }
}
