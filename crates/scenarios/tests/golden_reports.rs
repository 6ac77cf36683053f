//! The report half of the repo's regression net: the quick suite's stdout at
//! two seeds is committed under `golden/`, and every experiment cheap enough
//! for a debug build is re-run here and compared to its block, byte for byte.
//! CI diffs the whole release-build suite (E15/E17/E18 included) against the
//! same files. A PR that means to change a report regenerates them:
//! `repro --quick --seed N > golden/quick.N.md`.

use scenarios::experiments::{registry, Params};

/// 3.0 s / 9.5 s / 3.2 s in release — minutes in a debug `cargo test`.
const RELEASE_ONLY: [&str; 3] = ["E15", "E17", "E18"];

const GOLDENS: [(u64, &str); 2] = [
    (42, include_str!("../../../golden/quick.42.md")),
    (20080815, include_str!("../../../golden/quick.20080815.md")),
];

#[test]
fn quick_reports_match_the_committed_goldens() {
    for (suite_seed, golden) in GOLDENS {
        // `repro` prints each report followed by two blank lines.
        let blocks: Vec<&str> = golden.split_terminator("\n\n\n").collect();
        assert_eq!(blocks.len(), registry().len(), "one block per experiment");
        for (experiment, block) in registry().iter().zip(blocks) {
            if RELEASE_ONLY.contains(&experiment.id) {
                continue;
            }
            let seed = experiment.suite_seed.unwrap_or(suite_seed);
            let report = experiment.run(seed, &Params::new(), true).unwrap().report;
            assert_eq!(
                report.to_string(),
                format!("{block}\n"),
                "{} at suite seed {suite_seed} moved; if intended, regenerate with \
                 `repro --quick --seed {suite_seed} > golden/quick.{suite_seed}.md`",
                experiment.id
            );
        }
    }
}
