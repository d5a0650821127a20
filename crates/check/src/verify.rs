//! Tests of [`check_invariant`](crate::check_invariant), the checker that
//! takes a certificate on the transition system it was produced on (no
//! preprocessing facts). The portfolio and the engine tests rely on it.

mod tests {
    use crate::invariant::tests::safe_counter;
    use crate::{check_invariant, CertCheckError, CheckOptions};
    use plic3::{Certificate, Config, Ic3};
    use plic3_aig::AigBuilder;
    use plic3_logic::{Clause, Lit};
    use plic3_ts::TransitionSystem;

    #[test]
    fn accepts_genuine_certificates() {
        let aig = safe_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let cert = result.certificate().expect("safe");
        let report = check_invariant(engine.ts(), cert, &CheckOptions::default()).expect("valid");
        assert_eq!(report.lemmas, cert.lemmas.len());
        assert_eq!(report.facts, 0, "a transition system carries no prep facts");
        // The same certificate passes the AIG-level checker with the same report.
        let on_aig = crate::check_certificate(&aig, cert, &CheckOptions::default()).expect("valid");
        assert_eq!(report, on_aig);
    }

    #[test]
    fn rejects_lemmas_over_non_state_variables() {
        let ts = TransitionSystem::from_aig(&safe_counter());
        let bogus = Certificate {
            lemmas: vec![Clause::unit(Lit::neg(ts.primed_var(0)))],
            level: 1,
        };
        let err = check_invariant(&ts, &bogus, &CheckOptions::default()).unwrap_err();
        assert!(
            matches!(err, CertCheckError::Invalid(ref why) if why.contains("non-state")),
            "{err}"
        );
    }

    #[test]
    fn rejects_empty_certificate_for_non_inductive_property() {
        // For the plain 3-bit counter with bad at 7, the property is not
        // inductive on its own, so the empty certificate must be rejected.
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, 7);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let err =
            check_invariant(&ts, &Certificate::default(), &CheckOptions::default()).unwrap_err();
        assert!(
            matches!(err, CertCheckError::Invalid(ref why) if why.contains("after one step")),
            "{err}"
        );
    }
}
