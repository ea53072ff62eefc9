//! §6.4's Version Validation sweep is a property of the vulnerability
//! database, not of a study of it: however many analyses a process runs,
//! the sweep over the built-in database × PoC corpus runs once, and every
//! study's `validations` is that one result.
//!
//! Its own binary with one test: the sweep counter is per process.

use webvuln::core::{analyze_store, Pipeline, StudyConfig};
use webvuln::poclab::{sweeps_run, Lab};
use webvuln::telemetry::Telemetry;
use webvuln::webgen::Timeline;

#[test]
fn one_sweep_serves_every_analysis_in_the_process() {
    let store =
        std::env::temp_dir().join(format!("webvuln-tvv-once-{}.wvstore", std::process::id()));
    let _ = std::fs::remove_file(&store);
    assert_eq!(sweeps_run(), 0);
    let study = Pipeline::new(StudyConfig::quick())
        .domains(60)
        .timeline(Timeline::truncated(3))
        .checkpoint(&store);
    let config = study.build();
    let first = study.run().expect("study");
    for _ in 0..3 {
        let again = analyze_store(config, &store, &Telemetry::new()).expect("analyze");
        assert!(std::ptr::eq(again.validations, first.validations));
    }
    let _ = std::fs::remove_file(&store);
    assert_eq!(sweeps_run(), 1, "one Pipeline::run and three analyze_store");

    // `validate_all` itself stays a real sweep, and finds what was shared.
    let fresh = Lab::new().validate_all();
    assert_eq!(sweeps_run(), 2);
    assert_eq!(first.validations, fresh);
    assert_eq!(format!("{:?}", first.validations), format!("{fresh:?}"));
}
