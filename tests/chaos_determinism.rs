//! The chaos campaign's central reproducibility contract, now *by
//! construction*: every schedule replays on a discrete-event `SimClock`,
//! where the clock owns all interleaving decisions and time
//! advances only when every actor is blocked. The same `(target, seed,
//! schedules)` triple must therefore produce a byte-identical
//! [`ChaosReport`] on the **first attempt** — there is no retry budget
//! here, because there is no host-load noise for a retry to absorb. A
//! divergence in this file is a real nondeterminism bug, full stop.
//!
//! (The old real-clock version of this test tolerated one divergence per
//! pair and demanded two *consecutive* agreements, because a multi-second
//! host stall could push a benign schedule's probes over a checker
//! deadline. Virtual time makes verdicts load-independent, so that
//! hardening is deliberately gone.)
//!
//! [`ChaosReport`]: harness::chaos::ChaosReport

use std::time::Duration;

use proptest::prelude::*;

use harness::chaos::{replay, run_campaign, ChaosOptions, Reproducer};
use kvs::target::KvsTarget;

/// A small-but-representative campaign: four schedules cover single
/// faults, an overlapping pair (statistically), and one benign near-miss
/// (index 3 under the default benign cadence). Virtual time replays the
/// full warmup + horizon + grace span in milliseconds of wall time.
fn quick_opts() -> ChaosOptions {
    let mut opts = ChaosOptions {
        seed: 1042,
        schedules: 4,
        warmup: Duration::from_millis(400),
        ..ChaosOptions::default()
    };
    opts.compose.horizon = Duration::from_millis(1_800);
    opts
}

#[test]
fn same_seed_is_byte_identical_first_attempt_and_different_seeds_diverge() {
    let target = KvsTarget;
    let opts = quick_opts();

    let first = run_campaign(&target, &opts).unwrap();
    let a = serde_json::to_string_pretty(&first).unwrap();
    let b = serde_json::to_string_pretty(&run_campaign(&target, &opts).unwrap()).unwrap();
    assert_eq!(
        a, b,
        "chaos reports diverged across same-seed runs — the \
         virtual clock leaked nondeterminism"
    );

    // The campaign actually exercised both schedule kinds…
    assert_eq!(first.summary.schedules, 4);
    assert!(first.summary.harmful >= 3);
    assert_eq!(first.summary.benign, 1);
    // …and the report round-trips through JSON byte-for-byte, so the
    // archived artifact equals the in-process one.
    let back: harness::chaos::ChaosReport = serde_json::from_str(&a).unwrap();
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), a);

    // A different seed must compose a different campaign: determinism
    // comes from the seed, not from a degenerate constant schedule.
    let other = run_campaign(
        &target,
        &ChaosOptions {
            seed: opts.seed + 1,
            schedules: 1,
            ..quick_opts()
        },
    )
    .unwrap();
    assert_ne!(
        first.outcomes[0].schedule, other.outcomes[0].schedule,
        "different seeds composed the same schedule"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Verdicts are facts about the schedule, not about thread layout: a
    /// campaign whose checker executors spawn in a random seed-derived
    /// permutation must produce the same report bytes as the
    /// registration-order baseline, for every permutation.
    #[test]
    fn report_is_invariant_under_executor_spawn_order(spawn_seed in any::<u64>()) {
        let target = KvsTarget;
        let mut baseline_opts = ChaosOptions {
            schedules: 2,
            ..quick_opts()
        };
        let baseline = serde_json::to_string_pretty(
            &run_campaign(&target, &baseline_opts).unwrap(),
        )
        .unwrap();
        baseline_opts.wd.spawn_order_seed = Some(spawn_seed);
        let permuted = serde_json::to_string_pretty(
            &run_campaign(&target, &baseline_opts).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(
            baseline,
            permuted,
            "spawn order {} changed the report",
            spawn_seed
        );
    }
}

/// Every archived reproducer must reach its recorded verdict on the
/// virtual clock: the corpus was minted on the real clock, and the virtual
/// clock must tell the same story about each of these schedules, or the
/// sim is not simulating the system we shipped.
#[test]
fn chaos_corpus_replays_to_recorded_verdicts_under_sim() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&corpus)
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "chaos corpus is empty");

    for path in entries {
        let rep: Reproducer =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let targets = harness::select_targets(&rep.target)
            .unwrap_or_else(|| panic!("{path:?} names unknown target {:?}", rep.target));
        let (outcome, matches) =
            replay(targets[0].as_ref(), &rep, &ChaosOptions::default()).unwrap();
        assert!(
            matches,
            "{}: sim replay reached {:?}, corpus records {:?}",
            path.file_name().unwrap().to_string_lossy(),
            outcome.verdict,
            rep.verdict
        );
    }
}
