//! The original single-phone `World` scenario suite, relocated from
//! `src/world.rs` when the world was split into UE / carrier / executive
//! layers. Exercised through the facade, these pin down that the refactor
//! preserved every trajectory byte-for-byte.

mod tests {
    use cellstack::*;
    use netsim::operator::{op_i, op_ii};
    use netsim::*;

    fn attach_world(op: OperatorProfile, seed: u64) -> World {
        let mut w = World::new(WorldConfig::new(op, seed));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        assert!(!w.stack.out_of_service(), "attach must complete");
        assert!(w.stack.data_service_available());
        w
    }

    #[test]
    fn clean_4g_attach_over_the_air() {
        let w = attach_world(op_i(), 1);
        assert_eq!(w.metrics.detach_count, 0);
        assert!(w.metrics.attach_attempts >= 1);
        assert!(w.trace.first("Attach Request").is_some());
    }

    #[test]
    fn csfb_call_cycle_op1_returns_quickly() {
        let mut w = attach_world(op_i(), 2);
        w.cfg.auto_hangup_after_ms = Some(30_000);
        w.schedule_in(1_000, Ev::Dial);
        w.run_until(SimTime::from_secs(600));
        assert_eq!(w.metrics.call_setups.len(), 1, "call must connect");
        assert_eq!(
            w.stack.serving,
            RatSystem::Lte4g,
            "OP-I returns to 4G after the CSFB call"
        );
        assert_eq!(w.metrics.stuck_in_3g_ms.len(), 1);
        // Paper Table 6 OP-I: seconds, not minutes.
        assert!(w.metrics.stuck_in_3g_ms[0] <= 52_600);
    }

    #[test]
    fn s3_op2_stuck_in_3g_while_high_rate_data_flows() {
        let mut w = attach_world(op_ii(), 3);
        w.cfg.auto_hangup_after_ms = Some(20_000);
        // High-rate data session starts before the call and keeps going.
        w.schedule_in(500, Ev::DataStart { high_rate: true });
        w.schedule_in(2_000, Ev::Dial);
        // The data session ends only after 120 s.
        w.schedule_in(120_000, Ev::DataSessionEnd);
        w.run_until(SimTime::from_secs(400));
        assert_eq!(w.metrics.call_setups.len(), 1);
        assert_eq!(w.metrics.stuck_in_3g_ms.len(), 1);
        let stuck = w.metrics.stuck_in_3g_ms[0];
        // Call ends ≈ 35 s in; the device cannot reselect before the session
        // ends at 120 s, so it is stuck for > 60 s (S3).
        assert!(
            stuck > 60_000,
            "OP-II must stay in 3G until RRC idles, got {stuck} ms"
        );
        assert_eq!(w.stack.serving, RatSystem::Lte4g, "eventually returns");
    }

    #[test]
    fn s3_op1_same_scenario_returns_fast_but_disrupts() {
        let mut w = attach_world(op_i(), 4);
        w.cfg.auto_hangup_after_ms = Some(20_000);
        w.schedule_in(500, Ev::DataStart { high_rate: true });
        w.schedule_in(2_000, Ev::Dial);
        w.schedule_in(120_000, Ev::DataSessionEnd);
        w.run_until(SimTime::from_secs(400));
        let stuck = w.metrics.stuck_in_3g_ms[0];
        assert!(
            stuck < 60_000,
            "OP-I redirects without waiting for the session, got {stuck} ms"
        );
    }

    #[test]
    fn s1_pdp_deactivated_in_3g_causes_oos_on_return() {
        let mut w = attach_world(op_i(), 5);
        w.cfg.auto_hangup_after_ms = Some(15_000);
        w.schedule_in(1_000, Ev::Dial);
        // While in 3G (call active around t≈5-20 s), the network deactivates
        // the PDP context.
        w.schedule_in(
            10_000,
            Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
        );
        w.run_until(SimTime::from_secs(300));
        assert!(w.metrics.s1_events >= 1, "S1 must be observed");
        assert!(w.metrics.detach_count >= 1, "device was detached");
        // The quirky phone re-attaches; Figure 4's recovery time is recorded.
        assert!(
            !w.metrics.recovery_times_ms.is_empty(),
            "recovery must complete"
        );
        let rec = w.metrics.recovery_times_ms[0];
        assert!(
            (2_000..=30_000).contains(&rec),
            "Figure 4 band 2.4-24.7 s, got {rec} ms"
        );
        assert!(!w.stack.out_of_service());
    }

    #[test]
    fn s1_remedy_prevents_detach() {
        // The S1 fix is two-sided (device + MME).
        let mut w = World::new(WorldConfig::new(op_i().remedied(), 6));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(5));
        w.cfg.auto_hangup_after_ms = Some(15_000);
        w.schedule_in(0, Ev::Dial);
        w.schedule_in(
            9_000,
            Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
        );
        w.run_until(SimTime::from_secs(300));
        assert_eq!(
            w.metrics.detach_count, 0,
            "§8 remedy keeps the device registered"
        );
        assert!(!w.stack.out_of_service());
        assert!(w.stack.data_service_available(), "bearer reactivated");
    }

    #[test]
    fn s2_heavy_uplink_loss_causes_detaches() {
        // The §9.1 experiment: repeated attach + TAU cycles under signal
        // drop. Each cycle risks losing the Attach Complete, leaving the
        // MME in WaitAttachComplete so the next TAU is rejected
        // "implicitly detached" (Figure 5a).
        let mut cfg = WorldConfig::new(op_i(), 7);
        cfg.inject_ul_4g = Injection::dropping(0.4);
        let mut w = World::new(cfg);
        for i in 0..30u64 {
            let base = i * 40_000;
            w.schedule_at(SimTime::from_millis(base), Ev::PowerOn(RatSystem::Lte4g));
            w.schedule_at(
                SimTime::from_millis(base + 20_000),
                Ev::TriggerUpdate(UpdateKind::TrackingArea),
            );
            w.schedule_at(SimTime::from_millis(base + 35_000), Ev::Detach);
        }
        w.run_until(SimTime::from_secs(1_300));
        assert!(
            w.metrics.implicit_detaches > 0,
            "lost signaling must cause implicit detaches (S2); got {:?}",
            w.metrics.implicit_detaches
        );
    }

    #[test]
    fn no_loss_no_detach_baseline() {
        let mut w = attach_world(op_i(), 8);
        for i in 1..40 {
            w.schedule_in(i * 15_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        }
        w.run_until(SimTime::from_secs(620));
        assert_eq!(w.metrics.detach_count, 0);
        assert_eq!(w.metrics.tau_durations_ms.len(), 39);
    }

    #[test]
    fn s4_lau_durations_recorded_and_block_calls() {
        let mut w = attach_world(op_i(), 9);
        w.cfg.auto_hangup_after_ms = Some(10_000);
        // Get into 3G via a CSFB call, then trigger LAU + dial racing.
        w.schedule_in(1_000, Ev::Dial);
        w.run_until(SimTime::from_secs(120));
        assert_eq!(w.stack.serving, RatSystem::Lte4g);
        // Second call in 3G: put the phone in 3G first via CSFB again; this
        // time trigger an explicit LAU right before dialing.
        // Seed chosen so the sampled LAU accept outruns the release-with-
        // redirect return to 4G; otherwise the update is disrupted (the S6
        // shape) and no duration is measured.
        let mut w2 = attach_world(op_i(), 12);
        w2.cfg.auto_hangup_after_ms = Some(10_000);
        w2.schedule_in(1_000, Ev::Dial);
        let t = w2.now.plus_secs(8);
        w2.run_until(t); // now in 3G, CSFB deferred LAU
        w2.schedule_in(0, Ev::TriggerUpdate(UpdateKind::LocationArea));
        let t = w2.now.plus_secs(120);
        w2.run_until(t);
        assert!(
            !w2.metrics.lau_durations_ms.is_empty(),
            "LAU durations must be measured"
        );
        for &d in &w2.metrics.lau_durations_ms {
            assert!(d >= 1_500, "OP-I LAU takes seconds, got {d} ms");
        }
    }

    #[test]
    fn s5_speedtest_shows_rate_drop_during_call() {
        let mut w = attach_world(op_ii(), 11);
        w.cfg.auto_hangup_after_ms = Some(40_000);
        w.schedule_in(500, Ev::DataStart { high_rate: true });
        w.schedule_in(1_000, Ev::Dial);
        // Samples during the call (call runs ≈ 15-55 s) and after.
        for i in 0..5 {
            w.schedule_in(25_000 + i * 2_000, Ev::SpeedtestSample { uplink: false });
            w.schedule_in(25_000 + i * 2_000, Ev::SpeedtestSample { uplink: true });
        }
        w.schedule_in(200_000, Ev::DataSessionEnd);
        for i in 0..5 {
            w.schedule_in(400_000 + i * 2_000, Ev::SpeedtestSample { uplink: false });
            w.schedule_in(400_000 + i * 2_000, Ev::SpeedtestSample { uplink: true });
        }
        w.run_until(SimTime::from_secs(500));
        let dl_call = w.metrics.mean_throughput(false, true);
        let dl_idle = w.metrics.mean_throughput(false, false);
        assert!(dl_call > 0.0 && dl_idle > 0.0, "both phases sampled");
        let drop = 1.0 - dl_call / dl_idle;
        assert!(
            drop > 0.5,
            "S5: large downlink drop during the call, got {drop:.2}"
        );
        let ul_call = w.metrics.mean_throughput(true, true);
        let ul_idle = w.metrics.mean_throughput(true, false);
        let ul_drop = 1.0 - ul_call / ul_idle;
        assert!(
            ul_drop > 0.85,
            "OP-II uplink collapse ≈96%, got {ul_drop:.2}"
        );
    }

    #[test]
    fn drive_route1_triggers_two_updates() {
        let mut w = attach_world(op_i(), 12);
        // Camp on 3G directly for the drive (the Figure 7 measurement is a
        // 3G CS phenomenon).
        w.cfg.auto_hangup_after_ms = Some(5_000);
        w.schedule_in(100, Ev::Dial); // CSFB moves us to 3G
        let t = w.now.plus_secs(8);
        w.run_until(t);
        assert_eq!(w.stack.serving, RatSystem::Utran3g);
        w.csfb = None; // stay in 3G for the drive
        w.start_drive(netsim::mobility::Drive::at_60mph(
            netsim::mobility::Route::route_1(),
        ));
        let t = w.now.plus_secs(16 * 60);
        w.run_until(t);
        // Two LA boundaries on Route-1.
        assert!(
            w.metrics.lau_durations_ms.len() >= 2,
            "expected ≥2 boundary LAUs, got {}",
            w.metrics.lau_durations_ms.len()
        );
        assert!(!w.metrics.rssi_samples.is_empty());
        // RSSI stays in the good band along the route (Figure 7 bottom).
        assert!(w
            .metrics
            .rssi_samples
            .iter()
            .all(|&(_, dbm)| (-95.0..=-45.0).contains(&dbm)));
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let run = |seed| {
            let mut w = attach_world(op_ii(), seed);
            w.cfg.auto_hangup_after_ms = Some(20_000);
            w.schedule_in(500, Ev::DataStart { high_rate: true });
            w.schedule_in(2_000, Ev::Dial);
            w.schedule_in(90_000, Ev::DataSessionEnd);
            w.run_until(SimTime::from_secs(400));
            (
                w.metrics.stuck_in_3g_ms.clone(),
                w.metrics.call_setups.len(),
                w.trace.len(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn call_setup_time_near_figure7_average() {
        let mut w = attach_world(op_i(), 13);
        w.cfg.auto_hangup_after_ms = Some(8_000);
        w.schedule_in(1_000, Ev::Dial);
        w.run_until(SimTime::from_secs(120));
        let s = &w.metrics.call_setups[0];
        assert!(
            (9_000..=16_000).contains(&s.setup_ms),
            "Figure 7: ≈11.4 s average setup, got {} ms",
            s.setup_ms
        );
    }
}

mod mt_and_wifi_tests {
    use cellstack::*;
    use netsim::operator::{op_i, op_ii};
    use netsim::phone::PhoneModel;
    use netsim::*;

    fn attached(op: OperatorProfile, seed: u64) -> World {
        let mut w = World::new(WorldConfig::new(op, seed));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        assert!(!w.stack.out_of_service());
        w
    }

    #[test]
    fn incoming_csfb_call_connects_and_returns() {
        let mut w = attached(op_i(), 31);
        w.cfg.auto_hangup_after_ms = Some(15_000);
        w.schedule_in(1_000, Ev::IncomingCall);
        w.run_until(SimTime::from_secs(300));
        assert_eq!(w.metrics.call_setups.len(), 1, "MT call must connect");
        // MT setup is page + setup + answer delay: well under an MO setup.
        let setup = w.metrics.call_setups[0].setup_ms;
        assert!(setup < 10_000, "MT setup {setup} ms");
        assert_eq!(w.stack.serving, RatSystem::Lte4g, "returns after the call");
    }

    #[test]
    fn incoming_call_in_3g_needs_no_fallback() {
        let mut w = attached(op_ii(), 32);
        // Park the phone in 3G first via a CSFB call cycle... simpler: camp
        // directly.
        w.stack.serving = RatSystem::Utran3g;
        w.stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
        w.csfb = None;
        w.cfg.auto_hangup_after_ms = Some(10_000);
        w.schedule_in(500, Ev::IncomingCall);
        w.run_until(w.now.plus_secs(120));
        assert_eq!(w.metrics.call_setups.len(), 1);
        assert!(w.trace.first("incoming call").is_some());
    }

    #[test]
    fn wifi_switch_causes_s1_on_quirky_models() {
        // §5.1.3: HTC One deactivates all PDP contexts on Wi-Fi switch in
        // 3G; walking back to 4G then produces S1.
        let mut cfg = WorldConfig::new(op_i(), 33);
        cfg.phone_model = PhoneModel::HtcOne;
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.cfg.auto_hangup_after_ms = Some(60_000);
        w.schedule_in(500, Ev::Dial); // CSFB puts us in 3G
        w.schedule_in(15_000, Ev::WifiAvailable); // Wi-Fi appears mid-call
        w.run_until(SimTime::from_secs(400));
        assert!(
            w.metrics.s1_events >= 1,
            "Wi-Fi PDP deactivation must produce S1 on return"
        );
        assert!(w.metrics.detach_count >= 1);
    }

    #[test]
    fn wifi_switch_harmless_on_other_models() {
        let mut cfg = WorldConfig::new(op_i(), 33); // same seed as above
        cfg.phone_model = PhoneModel::IPhone5s;
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.cfg.auto_hangup_after_ms = Some(60_000);
        w.schedule_in(500, Ev::Dial);
        w.schedule_in(15_000, Ev::WifiAvailable);
        w.run_until(SimTime::from_secs(400));
        assert_eq!(
            w.metrics.s1_events, 0,
            "iPhone keeps the PDP context; no S1"
        );
    }

    #[test]
    fn mt_call_while_busy_is_ignored() {
        let mut w = attached(op_i(), 35);
        w.cfg.auto_hangup_after_ms = Some(30_000);
        w.schedule_in(500, Ev::Dial);
        w.schedule_in(5_000, Ev::IncomingCall); // collides with the MO call
        w.run_until(SimTime::from_secs(200));
        assert_eq!(w.metrics.call_setups.len(), 1, "only the MO call counts");
    }
}

mod coverage_tests {
    use cellstack::*;
    use netsim::operator::op_i;
    use netsim::*;

    #[test]
    fn coverage_roundtrip_with_context_is_seamless() {
        let mut w = World::new(WorldConfig::new(op_i(), 61));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.schedule_in(1_000, Ev::CoverageEnter3g);
        w.schedule_in(60_000, Ev::CoverageReturn4g);
        w.run_until(SimTime::from_secs(200));
        assert_eq!(w.stack.serving, RatSystem::Lte4g);
        assert_eq!(w.metrics.detach_count, 0, "context migrated both ways");
        assert!(w.stack.data_service_available());
        assert!(w.trace.first("coverage mobility").is_some());
    }

    #[test]
    fn coverage_roundtrip_after_deactivation_is_s1() {
        // The paper's second S1 validation method: drive into 3G, lose the
        // PDP context there, drive back into 4G coverage.
        let mut w = World::new(WorldConfig::new(op_i(), 62));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.schedule_in(1_000, Ev::CoverageEnter3g);
        w.schedule_in(
            20_000,
            Ev::NetworkDeactivatePdp(PdpDeactivationCause::IncompatiblePdpContext),
        );
        w.schedule_in(60_000, Ev::CoverageReturn4g);
        w.run_until(SimTime::from_secs(300));
        assert!(w.metrics.s1_events >= 1, "S1 via coverage mobility");
        assert!(!w.metrics.recovery_times_ms.is_empty(), "Figure 4 sample");
    }

    #[test]
    fn coverage_events_ignored_during_calls() {
        let mut w = World::new(WorldConfig::new(op_i(), 63));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.cfg.auto_hangup_after_ms = Some(30_000);
        w.schedule_in(500, Ev::Dial);
        // Mid-call coverage events must not teleport the device.
        w.schedule_in(20_000, Ev::CoverageReturn4g);
        w.run_until(w.now.plus_secs(25));
        assert_eq!(
            w.stack.serving,
            RatSystem::Utran3g,
            "the CSFB call keeps the device in 3G"
        );
        w.run_until(w.now.plus_secs(300));
        assert_eq!(w.metrics.call_setups.len(), 1);
    }
}

mod hss_tests {
    use cellstack::*;
    use netsim::hss::{SubscriberRecord, Subscription};
    use netsim::operator::op_i;
    use netsim::*;

    #[test]
    fn barred_subscriber_never_attaches() {
        let mut w = World::new(WorldConfig::new(op_i(), 81));
        let imsi = w.imsi;
        w.carrier.hss.provision(SubscriberRecord {
            imsi,
            subscription: Subscription::Barred,
            lte_enabled: true,
        });
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(60));
        assert!(w.stack.out_of_service(), "barred IMSI stays out of service");
        assert!(w.trace.first("HSS rejected attach").is_some());
        // The permanent cause stops the retry storm.
        assert!(
            w.metrics.attach_attempts <= 2,
            "permanent reject must not be retried ({} attempts)",
            w.metrics.attach_attempts
        );
    }

    #[test]
    fn three_g_only_plan_falls_back() {
        let mut w = World::new(WorldConfig::new(op_i(), 82));
        let imsi = w.imsi;
        w.carrier.hss.provision(SubscriberRecord {
            imsi,
            subscription: Subscription::Active,
            lte_enabled: false,
        });
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(60));
        assert!(w.stack.out_of_service());
    }

    #[test]
    fn provisioned_subscriber_attaches_normally() {
        let mut w = World::new(WorldConfig::new(op_i(), 83));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        assert!(!w.stack.out_of_service());
    }
}

mod duplicate_signal_tests {
    use cellstack::*;
    use netsim::operator::op_i;
    use netsim::*;

    /// Figure 5(b): a duplicated Attach Request reaching the MME after
    /// registration makes it delete the EPS bearer context and reprocess —
    /// exercised end-to-end with duplication injection on the uplink.
    #[test]
    fn duplicated_attach_request_disrupts_service() {
        let mut cfg = WorldConfig::new(op_i(), 91);
        // Every uplink message is delivered AND re-delivered 2 s later —
        // the two-base-station relay race of §5.2.1.
        cfg.inject_ul_4g = Injection::duplicating(1.0, 2_000);
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(60));
        // The duplicate Attach Request arrived while Registered: the MME
        // deleted the bearer and re-ran the handshake (ReprocessAccept).
        assert!(
            w.trace.find("core received: Attach Request").count() >= 2,
            "the duplicate must reach the MME"
        );
        // Count MME-side bearer teardown via the reprocessing: the device
        // ends registered (the handshake re-completes)...
        assert!(!w.stack.out_of_service());
        // ...but the packet service saw a transition gap: more than one
        // Attach Accept was issued.
        assert!(
            w.trace.find("device received: Attach Accept").count() >= 2,
            "reprocessing re-ran the accept"
        );
    }

    #[test]
    fn duplicate_with_reject_policy_detaches() {
        use cellstack::emm::DuplicateAttachPolicy;
        use cellstack::AttachRejectCause;
        let mut cfg = WorldConfig::new(op_i(), 92);
        cfg.inject_ul_4g = Injection::duplicating(1.0, 2_000);
        let mut w = World::new(cfg);
        w.mme_mut().duplicate_policy =
            DuplicateAttachPolicy::ReprocessReject(AttachRejectCause::NetworkFailure);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        // The device believes it is registered; the MME deregistered it
        // when rejecting the duplicate. The divergence surfaces at the
        // next tracking-area update (the Figure 5a ending).
        w.schedule_in(30_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        w.run_until(SimTime::from_secs(120));
        assert!(
            w.metrics.implicit_detaches >= 1,
            "the reject path must detach the device at the next TAU"
        );
    }
}

mod fallback_tests {
    use cellstack::*;
    use netsim::operator::op_i;
    use netsim::*;

    #[test]
    fn total_4g_loss_falls_back_to_3g() {
        // The 4G uplink is dead; attach retries exhaust and the phone camps
        // on 3G instead (§5.1.2's last resort).
        let mut cfg = WorldConfig::new(op_i(), 71);
        cfg.inject_ul_4g = Injection::dropping(1.0);
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(120));
        assert_eq!(w.stack.serving, RatSystem::Utran3g, "fell back to 3G");
        assert!(!w.stack.out_of_service(), "registered on 3G");
        assert!(w.trace.first("falling back to 3G").is_some());
        // All five 4G attach attempts were made first.
        assert!(w.stack.emm.attach_attempts >= w.stack.emm.max_attach_attempts);
    }

    #[test]
    fn fallback_device_can_still_make_calls() {
        let mut cfg = WorldConfig::new(op_i(), 72);
        cfg.inject_ul_4g = Injection::dropping(1.0);
        let mut w = World::new(cfg);
        w.cfg.auto_hangup_after_ms = Some(10_000);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(60));
        assert_eq!(w.stack.serving, RatSystem::Utran3g);
        // A plain 3G CS call works (the CS domain is unaffected).
        w.schedule_in(0, Ev::Dial);
        let t = w.now.plus_secs(120);
        w.run_until(t);
        assert_eq!(w.metrics.call_setups.len(), 1);
    }
}

mod s4_ps_side_tests {
    use cellstack::*;
    use netsim::operator::{op_i, op_ii};
    use netsim::*;

    /// §6.1.2, data half: "the SM data requests are not immediately
    /// processed during the routing area update."
    #[test]
    fn data_request_blocked_behind_rau() {
        let mut w = World::new(WorldConfig::new(op_i(), 101));
        w.stack.serving = RatSystem::Utran3g;
        w.stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
        // A routing-area update starts, and the user enables data while it
        // is still in flight (OP-I RAUs take 1-3.6 s).
        w.schedule_in(0, Ev::TriggerUpdate(UpdateKind::RoutingArea));
        w.schedule_in(300, Ev::DataStart { high_rate: false });
        w.run_until(SimTime::from_secs(60));
        assert!(
            w.metrics.blocked_requests >= 1,
            "the SM request must queue behind the RAU"
        );
        // Once the RAU completes the request goes through.
        assert!(w.stack.data_service_available(), "served after the update");
        assert_eq!(w.metrics.rau_durations_ms.len(), 1);
    }

    #[test]
    fn data_request_unblocked_with_remedy() {
        let mut w = World::new(WorldConfig::new(op_i().remedied(), 102));
        w.stack.serving = RatSystem::Utran3g;
        w.stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
        w.schedule_in(0, Ev::TriggerUpdate(UpdateKind::RoutingArea));
        w.schedule_in(300, Ev::DataStart { high_rate: false });
        w.run_until(SimTime::from_secs(60));
        assert_eq!(
            w.metrics.blocked_requests, 0,
            "the parallel-threads remedy serves the SM request concurrently"
        );
        assert!(w.stack.data_service_available());
    }

    /// Detach during an active call tears everything down cleanly.
    #[test]
    fn detach_during_call_is_clean() {
        let mut w = World::new(WorldConfig::new(op_ii(), 103));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.schedule_in(500, Ev::Dial);
        // User yanks the battery mid-call (well after connect).
        w.schedule_in(40_000, Ev::Detach);
        w.run_until(SimTime::from_secs(200));
        // No panic, no phantom metrics; the world stays consistent.
        assert!(w.metrics.call_setups.len() <= 1);
    }

    /// The trace log serializes to JSONL and parses back.
    #[test]
    fn world_trace_roundtrips_jsonl() {
        let mut w = World::new(WorldConfig::new(op_i(), 104));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        let jsonl = w.trace.to_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let entry: netsim::trace::TraceEntry =
                serde_json::from_str(line).expect("every line parses");
            assert!(!entry.desc.is_empty());
        }
    }
}

mod campaign_tests {
    use cellstack::MsgClass;
    use cellstack::*;
    use netsim::inject::{Campaign, FaultPhase, FaultPolicy, PolicyRule};
    use netsim::operator::op_i;
    use netsim::*;

    fn mixed_campaign(seed: u64) -> Campaign {
        Campaign::new("mixed", seed).with_phase(FaultPhase::new(
            "stress",
            5_000,
            60_000,
            vec![
                PolicyRule::on_class(
                    MsgClass::Mobility,
                    FaultPolicy {
                        drop_rate: 0.2,
                        reorder_rate: 0.2,
                        corrupt_rate: 0.1,
                        reorder_hold_ms: 500,
                        ..FaultPolicy::default()
                    },
                ),
                PolicyRule::any(FaultPolicy::dropping(0.1)),
            ],
        ))
    }

    fn campaign_run(seed: u64) -> (String, u32, usize) {
        let mut cfg = WorldConfig::new(op_i(), seed);
        cfg.campaign = Some(mixed_campaign(seed));
        cfg.nas_retx = true;
        cfg.nas_timer_scale = 0.1;
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        for i in 1..10u64 {
            w.schedule_in(i * 6_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        }
        w.run_until(SimTime::from_secs(120));
        (
            w.campaign_report().expect("campaign runs").to_json(),
            w.metrics.implicit_detaches,
            w.trace.len(),
        )
    }

    #[test]
    fn campaign_report_byte_identical_across_runs() {
        let a = campaign_run(42);
        let b = campaign_run(42);
        assert_eq!(a, b, "same seed must reproduce the whole run");
        assert!(a.0.contains("\"campaign\": \"mixed\""));
        assert!(a.0.contains("\"seed\": 42"));
    }

    #[test]
    fn partition_blocks_attach_until_it_lifts() {
        let mut cfg = WorldConfig::new(op_i(), 44);
        cfg.campaign = Some(Campaign::new("part", 44).with_phase(FaultPhase::partition(
            "radio-dead",
            0,
            5_000,
        )));
        cfg.nas_retx = true;
        cfg.nas_timer_scale = 0.1;
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(60));
        assert!(
            !w.stack.out_of_service(),
            "T3410 retries carry the attach past the partition"
        );
        assert_eq!(w.stack.serving, RatSystem::Lte4g);
        let report = w.campaign_report().unwrap();
        assert!(
            report.phases[0].stats.partition_drops >= 2,
            "the partition must have eaten the early attach attempts: {:?}",
            report.phases[0].stats
        );
    }

    #[test]
    fn mme_restart_after_outage_detaches_at_next_tau() {
        let mut cfg = WorldConfig::new(op_i(), 45);
        cfg.campaign = Some(Campaign::new("outage", 45).with_phase(FaultPhase::outage(
            "mme-down",
            10_000,
            20_000,
            vec![NodeId::Mme],
        )));
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        assert!(
            !w.stack.out_of_service(),
            "attach completes before the outage"
        );
        w.schedule_in(22_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        w.run_until(SimTime::from_secs(120));
        assert!(
            w.metrics.implicit_detaches >= 1,
            "the restarted MME forgot the UE and must reject the TAU"
        );
        assert!(w.trace.first("restarted after outage").is_some());
    }

    #[test]
    fn corrupted_tau_is_rejected_and_detaches() {
        let mut cfg = WorldConfig::new(op_i(), 46);
        cfg.campaign = Some(Campaign::new("corrupt", 46).with_phase(FaultPhase::new(
            "corrupt-mobility",
            9_000,
            40_000,
            vec![PolicyRule {
                leg: Some(Leg::Ul4g),
                class: Some(MsgClass::Mobility),
                policy: FaultPolicy::corrupting(1.0),
            }],
        )));
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        assert!(!w.stack.out_of_service());
        w.schedule_in(4_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        w.run_until(SimTime::from_secs(120));
        assert!(
            w.metrics.implicit_detaches >= 1,
            "the semantic reject of the corrupted TAU must detach the device"
        );
        let report = w.campaign_report().unwrap();
        assert!(report.phases[0].stats.corrupted >= 1);
        assert!(w.trace.first("corrupted in flight").is_some());
    }

    #[test]
    fn nas_retx_rides_out_lossy_attach_uplink() {
        let mut cfg = WorldConfig::new(op_i(), 47);
        cfg.campaign = Some(Campaign::new("lossy", 47).with_phase(FaultPhase::new(
            "lossy-ul",
            0,
            120_000,
            vec![PolicyRule::on_leg(Leg::Ul4g, FaultPolicy::dropping(0.4))],
        )));
        cfg.nas_retx = true;
        cfg.nas_timer_scale = 0.1;
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        for i in 1..12u64 {
            w.schedule_in(i * 9_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
        }
        w.run_until(SimTime::from_secs(120));
        assert!(
            !w.stack.out_of_service(),
            "bounded retransmission rides out 40% uplink loss"
        );
        let stats = w.campaign_report().unwrap().phases[0].stats;
        assert!(
            stats.dropped >= 1,
            "the lossy phase must have dropped something"
        );
        assert!(stats.delivered >= 1, "but fairness lets retries through");
    }

    #[test]
    fn adversary_covers_3g_legs_too() {
        // Kill the 3G PS uplink: the GMM attach after a 4G fallback can
        // never complete, which the legacy 4G-only injection could not
        // express.
        let mut cfg = WorldConfig::new(op_i(), 48);
        cfg.campaign = Some(Campaign::new("3g-dead", 48).with_phase(FaultPhase::new(
            "ps-ul-dead",
            0,
            600_000,
            vec![
                PolicyRule::on_leg(Leg::Ul4g, FaultPolicy::dropping(1.0)),
                PolicyRule::on_leg(Leg::Ul3gPs, FaultPolicy::dropping(1.0)),
            ],
        )));
        let mut w = World::new(cfg);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(300));
        assert!(
            w.stack.out_of_service(),
            "with both PS uplinks dead no registration can complete"
        );
        let stats = w.campaign_report().unwrap().phases[0].stats;
        assert!(stats.dropped >= 2);
    }
}
