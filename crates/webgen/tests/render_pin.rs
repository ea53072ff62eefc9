//! The bytes of every page the synthetic web serves, pinned: only a
//! page's length and what the fingerprint engine reads of it reach the
//! store, so a change to the renderer that moves a byte the engine does
//! not read would otherwise go unseen. The hash covers every domain of a
//! seed-42, 3 000-domain web in weeks 0, 20, …, 200: each outcome's kind,
//! and each served page's bytes.

use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

/// FNV-1a over the pages, pinned when the renderer wrote through
/// `format!` (and unchanged by its rewrite into one buffer).
const PINNED: (usize, u64) = (25_282, 1_168_183_019_236_112_663);

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn every_rendered_page_is_pinned() {
    let eco = Ecosystem::generate(EcosystemConfig {
        seed: 42,
        domain_count: 3_000,
        timeline: Timeline::paper(),
    });
    let (mut pages, mut hash) = (0, 0xCBF2_9CE4_8422_2325);
    for week in (0..eco.timeline().weeks).step_by(20) {
        for model in eco.models() {
            let (kind, body) = match eco.page(&model.name, week) {
                PageOutcome::UnknownHost => (0, None),
                PageOutcome::Offline => (1, None),
                PageOutcome::Forbidden => (2, None),
                PageOutcome::Blocked(body) => (3, Some(body)),
                PageOutcome::Page(body) => (4, Some(body)),
            };
            hash = fnv1a(hash, &[kind]);
            if let Some(body) = body {
                hash = fnv1a(hash, &(body.len() as u64).to_le_bytes());
                hash = fnv1a(hash, body.as_bytes());
                pages += 1;
            }
        }
    }
    assert_eq!((pages, hash), PINNED, "pages served and their FNV-1a");
}
