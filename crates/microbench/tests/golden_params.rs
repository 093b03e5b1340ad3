//! Extraction is pinned bit for bit: the Netronome parameter table must
//! serialize to exactly the committed file.
//!
//! `to_text` prints every `f64` in its shortest round-tripping form, so
//! equal text means equal bits. A change that is meant to move a
//! parameter re-records the file with
//! `clara extract --nic netronome -o crates/microbench/tests/data/netronome-agilio-cx40.params`
//! and says why in its description.

use clara_lnic::profiles;
use clara_microbench::{extract_parameters, from_text, to_text};

const GOLDEN: &str = include_str!("data/netronome-agilio-cx40.params");

#[test]
fn netronome_extraction_matches_the_recorded_parameters() {
    let text = to_text(&extract_parameters(&profiles::netronome_agilio_cx40()));
    if text != GOLDEN {
        let diff: Vec<String> = text
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(got, want)| got != want)
            .map(|(got, want)| format!("  got  {got}\n  want {want}"))
            .collect();
        panic!(
            "extracted parameters differ from the recorded file ({} vs {} lines):\n{}",
            text.lines().count(),
            GOLDEN.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn recorded_parameters_round_trip() {
    let parsed = from_text(GOLDEN).expect("recorded file parses");
    assert_eq!(to_text(&parsed), GOLDEN);
}
