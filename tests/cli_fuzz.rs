//! No sequence of `campaign` flags can panic the spec vocabulary. Each
//! case feeds up to eight `(flag, value)` pairs through `SpecArgs::apply`
//! — values valid for some flag mixed with hostile ones: empty,
//! non-finite, negative, zero, huge, overflowing, unknown names and short
//! comma lists of these — then builds the spec and enumerates its cells.
//! Each step must return `Ok` or `Err`; a panic fails the property with
//! the flags attached.

use bwap_bench::cli::SpecArgs;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every flag `apply` consumes, one executor knob it hands back, and one
/// flag nobody knows.
const FLAGS: &[&str] = &[
    "--name",
    "--machine",
    "--workloads",
    "--phased",
    "--phase-periods",
    "--policies",
    "--scenarios",
    "--workers",
    "--dwps",
    "--fleet",
    "--schedulers",
    "--arrival-rates",
    "--fleet-jobs",
    "--seed",
    "--engine",
    "--spec",
    "--probe",
    "--quick",
    "--threads",
    "--bogus",
];

/// Hostile values first, then values some flag accepts.
const VALUES: &[&str] = &[
    "",
    "NaN",
    "inf",
    "-inf",
    "-1",
    "0",
    "1e300",
    "1e-300",
    "18446744073709551615",
    "18446744073709551616",
    "nope",
    "1",
    "2",
    "0.5",
    "online",
    "a",
    "b",
    "tiered",
    "SC",
    "all",
    "SC.FLIP",
    "uniform-workers",
    "bwap",
    "bwap-adaptive",
    "coscheduled",
    "least-loaded",
    "event",
    "dwp_dedup",
    "fig_fleet",
];

/// One token, or a comma list of two or three.
fn value() -> impl Strategy<Value = String> {
    let token = || (0..VALUES.len()).prop_map(|i| VALUES[i]);
    prop_oneof![
        token().prop_map(str::to_string),
        prop::collection::vec(token(), 2..4).prop_map(|v| v.join(",")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn flag_sequences_never_panic_the_spec_vocabulary(
        pairs in prop::collection::vec(((0..FLAGS.len()).prop_map(|i| FLAGS[i]), value()), 0..9),
    ) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sa = SpecArgs::default();
            for (flag, v) in &pairs {
                let _ = sa.apply(flag, &mut || v.clone());
            }
            if let Ok(spec) = sa.build() {
                let _ = spec.cells();
            }
        }));
        prop_assert!(outcome.is_ok(), "a flag sequence panicked");
    }
}
