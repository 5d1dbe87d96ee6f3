//! The shared carrier core: HSS plus per-IMSI session machines.

use cellstack::cm::MscCc;
use cellstack::emm::MmeEmm;
use cellstack::esm::MmeEsm;
use cellstack::gmm::SgsnGmm;
use cellstack::mm::MscMm;
use cellstack::sm::SgsnSm;
use cellstack::SessionTable;

use crate::hss::Hss;
use crate::inject::NodeId;

/// The carrier-side protocol machines serving *one* subscriber: the MSC
/// (MM + CC), the 3G gateways (GMM + SM) and the MME (EMM + standalone
/// ESM). A real core keeps one such bundle per attached IMSI.
pub struct CoreSession {
    /// MSC mobility machine.
    pub msc_mm: MscMm,
    /// MSC call handling.
    pub msc_cc: MscCc,
    /// 3G gateways, mobility side.
    pub sgsn_gmm: SgsnGmm,
    /// 3G gateways, session side.
    pub sgsn_sm: SgsnSm,
    /// MME mobility machine.
    pub mme: MmeEmm,
    /// MME standalone session machine.
    pub mme_esm: MmeEsm,
}

impl CoreSession {
    fn new(mme_remedy: bool) -> Self {
        let mut mme = MmeEmm::new();
        if mme_remedy {
            mme.forward_lu_failure = false;
        }
        Self {
            msc_mm: MscMm::new(),
            msc_cc: MscCc::new(),
            sgsn_gmm: SgsnGmm::new(),
            sgsn_sm: SgsnSm::new(),
            mme,
            mme_esm: MmeEsm::new(),
        }
    }
}

/// One carrier's core network, shared by every UE signaling into it: the
/// home subscriber server plus the per-IMSI [`CoreSession`] table.
pub struct CarrierCore {
    /// The home subscriber server (consulted on 4G attach).
    pub hss: Hss,
    sessions: SessionTable<CoreSession>,
}

impl Default for CarrierCore {
    fn default() -> Self {
        Self::new()
    }
}

impl CarrierCore {
    /// A fresh core with no sessions.
    pub fn new() -> Self {
        Self {
            hss: Hss::new(),
            sessions: SessionTable::new(),
        }
    }

    /// The session bundle serving `imsi`. A subscriber that was never
    /// provisioned ([`Self::provision_session`]) gets an unremedied
    /// session on first contact.
    pub fn session(&mut self, imsi: u64) -> &mut CoreSession {
        self.sessions.session_with(imsi, || CoreSession::new(false))
    }

    /// Eagerly create the session for `imsi` with its MME-remedy flag. The
    /// remedy is rolled out per subscriber, not per core, so one core can
    /// serve UEs on remedied and base carrier profiles. Idempotent: an
    /// existing session is left untouched.
    pub fn provision_session(&mut self, imsi: u64, mme_remedy: bool) {
        self.sessions
            .session_with(imsi, || CoreSession::new(mme_remedy));
    }

    /// The session bundle serving `imsi`, if that subscriber ever signaled.
    pub fn session_if_known(&self, imsi: u64) -> Option<&CoreSession> {
        self.sessions.get(imsi)
    }

    /// Number of subscribers with live core sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Restart one core node: its volatile per-subscriber state is lost
    /// for *every* session (a restarted MME forgets all its UEs at once),
    /// in deterministic IMSI order.
    pub fn restart(&mut self, node: NodeId) {
        for (_, s) in self.sessions.iter_mut() {
            match node {
                NodeId::Mme => {
                    // Preserve the per-session remedy flag across the
                    // restart: it is carrier configuration, not volatile
                    // subscriber state.
                    let mut mme = MmeEmm::new();
                    mme.forward_lu_failure = s.mme.forward_lu_failure;
                    s.mme = mme;
                    s.mme_esm = MmeEsm::new();
                }
                NodeId::Msc => {
                    s.msc_mm = MscMm::new();
                    s.msc_cc = MscCc::new();
                }
                NodeId::Sgsn => {
                    s.sgsn_gmm = SgsnGmm::new();
                    s.sgsn_sm = SgsnSm::new();
                }
                // Base stations hold no NAS state in this model.
                NodeId::Bs4g | NodeId::Bs3g => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstack::emm::MmeUeState;

    /// An MME restart wipes every session's volatile state but keeps each
    /// session's own remedy flag; a session created on first contact is
    /// unremedied.
    #[test]
    fn mme_restart_keeps_each_sessions_remedy_flag() {
        let (remedied, base, contacted) = (1, 2, 3);
        let mut core = CarrierCore::new();
        core.provision_session(remedied, true);
        core.provision_session(base, false);
        for imsi in [remedied, base, contacted] {
            core.session(imsi).mme.state = MmeUeState::Registered;
        }
        core.restart(NodeId::Mme);
        let mme = |imsi| &core.session_if_known(imsi).expect("session kept").mme;
        assert!([remedied, base, contacted]
            .iter()
            .all(|&imsi| mme(imsi).state == MmeUeState::Deregistered));
        assert!(!mme(remedied).forward_lu_failure);
        assert!(mme(base).forward_lu_failure);
        assert!(mme(contacted).forward_lu_failure);
    }
}
