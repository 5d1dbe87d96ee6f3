//! HSS — the Home Subscriber Server (paper Figure 1, §2: "HSS (Home
//! Subscriber Server), which stores user subscription information"; the 3G
//! core has "HSS, which is similar to its counterpart in 4G").
//!
//! The MME/MSC consult the HSS during attach: a device whose subscription
//! is missing or barred is rejected with the corresponding 3GPP cause.
//! This is where the scenario sampler's "operator responses" with permanent
//! reject causes (§3.2.1) come from in a real deployment.

use serde::{Deserialize, Serialize};

use cellstack::AttachRejectCause;

/// Subscription state of one IMSI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Subscription {
    /// Normal subscriber: attach accepted.
    Active,
    /// Unknown IMSI (no record).
    Unknown,
    /// Operator-barred (e.g. unpaid bill).
    Barred,
    /// Roaming not allowed in this serving network.
    RoamingDisallowed,
}

/// One subscriber record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriberRecord {
    /// The IMSI (identity).
    pub imsi: u64,
    /// Subscription state.
    pub subscription: Subscription,
    /// 4G (LTE) service included in the plan.
    pub lte_enabled: bool,
}

/// The subscriber database shared by the 3G and 4G cores.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Hss {
    records: Vec<SubscriberRecord>,
}

impl Hss {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a subscriber record.
    pub fn provision(&mut self, record: SubscriberRecord) {
        if let Some(existing) = self.records.iter_mut().find(|r| r.imsi == record.imsi) {
            *existing = record;
        } else {
            self.records.push(record);
        }
    }

    /// Look up a subscriber.
    pub fn lookup(&self, imsi: u64) -> Option<&SubscriberRecord> {
        self.records.iter().find(|r| r.imsi == imsi)
    }

    /// The attach admission decision for `imsi` on the 4G side: `Ok(())`
    /// admits, `Err(cause)` carries the TS 24.301 reject cause the MME
    /// sends the device.
    pub fn admit_4g(&self, imsi: u64) -> Result<(), AttachRejectCause> {
        match self.lookup(imsi) {
            None => Err(AttachRejectCause::ImsiUnknownInHss),
            Some(rec) => match rec.subscription {
                Subscription::Unknown => Err(AttachRejectCause::ImsiUnknownInHss),
                Subscription::Barred => Err(AttachRejectCause::EpsServicesNotAllowed),
                Subscription::RoamingDisallowed => {
                    Err(AttachRejectCause::RoamingNotAllowedInTrackingArea)
                }
                Subscription::Active if !rec.lte_enabled => {
                    Err(AttachRejectCause::EpsServicesNotAllowedInPlmn)
                }
                Subscription::Active => Ok(()),
            },
        }
    }

    /// Number of provisioned subscribers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no subscriber is provisioned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hss_with(sub: Subscription, lte: bool) -> Hss {
        let mut h = Hss::new();
        h.provision(SubscriberRecord {
            imsi: 1,
            subscription: sub,
            lte_enabled: lte,
        });
        h
    }

    #[test]
    fn active_subscriber_admitted() {
        assert_eq!(hss_with(Subscription::Active, true).admit_4g(1), Ok(()));
    }

    #[test]
    fn unknown_imsi_rejected() {
        let h = Hss::new();
        assert_eq!(h.admit_4g(42), Err(AttachRejectCause::ImsiUnknownInHss));
        assert_eq!(
            hss_with(Subscription::Unknown, true).admit_4g(1),
            Err(AttachRejectCause::ImsiUnknownInHss)
        );
    }

    #[test]
    fn barred_subscriber_rejected_permanently() {
        let cause = hss_with(Subscription::Barred, true)
            .admit_4g(1)
            .unwrap_err();
        assert_eq!(cause, AttachRejectCause::EpsServicesNotAllowed);
        assert!(!cause.retry_allowed(), "barring is a permanent cause");
    }

    #[test]
    fn roaming_disallowed_maps_to_ta_cause() {
        assert_eq!(
            hss_with(Subscription::RoamingDisallowed, true).admit_4g(1),
            Err(AttachRejectCause::RoamingNotAllowedInTrackingArea)
        );
    }

    #[test]
    fn three_g_only_plan_rejected_on_lte() {
        assert_eq!(
            hss_with(Subscription::Active, false).admit_4g(1),
            Err(AttachRejectCause::EpsServicesNotAllowedInPlmn)
        );
    }

    #[test]
    fn provision_replaces_existing() {
        let mut h = hss_with(Subscription::Active, true);
        h.provision(SubscriberRecord {
            imsi: 1,
            subscription: Subscription::Barred,
            lte_enabled: true,
        });
        assert_eq!(h.len(), 1);
        assert!(h.admit_4g(1).is_err());
    }
}
