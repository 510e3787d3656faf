//! Central registry of PRNG stream identifiers.
//!
//! Every deterministic subsystem decorrelates its RNGs from one base
//! seed via [`crate::derive_stream_seed`]`(base, stream)`. Before this
//! module, each subsystem picked its `stream` constants locally, and two
//! of them collided: portfolio arm `k` and reoptimization step `k` both
//! used the bare counter `k`, so a portfolio run and a reopt session
//! sharing a base seed silently shared PRNG streams (arm 0 == step 0).
//! The DES validation streams (`0xDE50001`/`0xDE50002`) likewise sat
//! inside the reopt counter range, colliding with (admittedly
//! unreachable) steps 233 017 345/6.
//!
//! The fix is an explicit allocation: each subsystem owns a **span** of
//! `2^32` stream ids starting at a tagged base, and derives its per-use
//! stream as `BASE + counter` with `counter < 2^32`. Spans are pairwise
//! disjoint (enforced by the `spans_are_pairwise_disjoint` unit test), so no
//! two subsystems can ever derive the same stream id again.
//!
//! **Frozen legacy span:** the reoptimization step stream keeps the bare
//! counter (`REOPT_STEP + k == k`) because recorded churn-replay
//! artifacts and the daemon's warm-start trajectory depend on it; the
//! zero tag is simply *reserved* for reopt, and every other subsystem
//! moved out of its range.
//!
//! The churn generator is listed here too ([`CHURN_CLOCK_XOR`]) even
//! though it derives differently (`seed ^ CHURN_CLOCK_XOR` feeding
//! `StdRng`, not `derive_stream_seed`): the constant lives in this file
//! so the full seeding surface is auditable in one place.

/// Span size owned by each subsystem: `BASE + counter`, `counter < 2^32`.
pub const SPAN: u64 = 1 << 32;

/// Reoptimization per-step streams (`ReoptSession`: event steps and
/// daemon idle steps share one monotone counter). Frozen at the legacy
/// zero tag — see the module docs.
pub const REOPT_STEP: u64 = 0;

/// Portfolio orchestrator arm streams (`PortfolioSearch` task index).
/// Tag bytes spell `"POLI"` in the high half.
pub const PORTFOLIO_ARM: u64 = 0x504F_4C49_0000_0000;

/// DES validation streams (`dtrctl validate`): one fixed stream per
/// validated scheme. Tag bytes spell `"DES\0"` in the high half; the two
/// ids keep their historical low halves (`0xDE50001`/`0xDE50002`).
pub const DES: u64 = 0x4445_5300_0000_0000;

/// The DES stream validating the STR baseline incumbent.
pub const DES_BASELINE: u64 = DES + 0x0DE5_0001;

/// The DES stream validating the DTR incumbent.
pub const DES_DTR: u64 = DES + 0x0DE5_0002;

/// Upgrade-placement search streams (`UpgradeSearch`). Tag bytes spell
/// `"UPGR"` in the high half.
pub const UPGRADE: u64 = 0x5550_4752_0000_0000;

/// The STR baseline search an upgrade run scores `R_L` against.
pub const UPGRADE_BASELINE: u64 = UPGRADE;

/// First probe-search stream; probe `i` uses `UPGRADE_PROBE + i`.
pub const UPGRADE_PROBE: u64 = UPGRADE + 1;

/// XOR tag of the churn-trace generator's clock RNG (`seed ^ tag` feeds
/// `StdRng::seed_from_u64`). Not a `derive_stream_seed` stream — listed
/// for audit completeness only and excluded from the span check.
pub const CHURN_CLOCK_XOR: u64 = 0xc3a5_c85c_97cb_3127;

/// `(name, base)` of every `derive_stream_seed` span in the workspace.
/// New subsystems must register here; the tests below keep the registry
/// collision-free.
pub const SPANS: &[(&str, u64)] = &[
    ("reopt-step", REOPT_STEP),
    ("portfolio-arm", PORTFOLIO_ARM),
    ("des-validation", DES),
    ("upgrade-search", UPGRADE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::derive_stream_seed;

    #[test]
    fn spans_are_pairwise_disjoint() {
        let mut spans: Vec<(&str, u64)> = SPANS.to_vec();
        spans.sort_by_key(|&(_, base)| base);
        for w in spans.windows(2) {
            let (a_name, a) = w[0];
            let (b_name, b) = w[1];
            assert!(
                a.checked_add(SPAN).is_some_and(|end| end <= b),
                "stream spans {a_name} (base {a:#x}) and {b_name} (base {b:#x}) overlap"
            );
        }
        // And the top span does not wrap.
        let (top_name, top) = *spans.last().unwrap();
        assert!(
            top.checked_add(SPAN).is_some(),
            "span {top_name} wraps past u64::MAX"
        );
    }

    #[test]
    fn fixed_ids_sit_inside_their_spans() {
        for (name, id, base) in [
            ("DES_BASELINE", DES_BASELINE, DES),
            ("DES_DTR", DES_DTR, DES),
            ("UPGRADE_BASELINE", UPGRADE_BASELINE, UPGRADE),
            ("UPGRADE_PROBE", UPGRADE_PROBE, UPGRADE),
        ] {
            assert!(
                id >= base && id - base < SPAN,
                "{name} ({id:#x}) escapes its span (base {base:#x})"
            );
        }
        assert_ne!(DES_BASELINE, DES_DTR);
        assert_ne!(UPGRADE_BASELINE, UPGRADE_PROBE);
    }

    #[test]
    fn cross_subsystem_streams_never_collide_anymore() {
        // The original bug: portfolio arm k and reopt step k shared
        // stream id k. With tagged spans, low counters in any two
        // subsystems map to distinct stream ids and distinct derived
        // seeds.
        let base_seed = 42u64;
        for k in 0..64u64 {
            assert_ne!(PORTFOLIO_ARM + k, REOPT_STEP + k);
            assert_ne!(
                derive_stream_seed(base_seed, PORTFOLIO_ARM + k),
                derive_stream_seed(base_seed, REOPT_STEP + k)
            );
        }
        // The DES ids no longer sit inside the reopt counter range.
        for id in [DES_BASELINE, DES_DTR] {
            assert!(id - DES < SPAN);
            assert!(id >= SPAN, "DES id {id:#x} is inside the reopt span");
        }
    }
}
