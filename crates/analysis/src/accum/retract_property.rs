#![cfg(test)]
//! `retract` against the cold fold, and the watch daemon's per-domain
//! settle built on it.
//!
//! Over generated week sequences and drawn domain splits A ⊔ B, `fold A`
//! merged with `fold B`, then `fold B` retracted, must finish as `fold A`
//! does, with no count left at zero in any map. A model of the daemon's
//! bookkeeping — arrivals absorbed under the settled verdict, flipped
//! domains pending, a quiet tick that settles exactly those, a database
//! delta rejoined in one walk that leaves them pending — driven over
//! drawn §4.1 verdicts, must read, merged, as [`fold_store`] over the same
//! store under the current verdict. Each property broken one way must
//! fail.

use super::oracle::{assert_same, delta, dump, weeks, Corpus};
use super::*;
use crate::dataset::WeekSnapshot;
use crate::filter::FilterWindow;
use crate::store_io::snapshot_to_week;
use std::panic::{catch_unwind, AssertUnwindSafe};
use webvuln_failpoint::check::{self, Gen};
use webvuln_store::codec::{encode_week_file, WeekFile};
use webvuln_store::{shard_file_name, AnyWriter};

/// A way to break `retract`, planted after a correct one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leak {
    /// A count map keeps the part's keys at zero.
    KeyKeptAtZero,
    /// The part's update events stay in.
    EventsKept,
    /// Table 1 keeps the part's spelling of a version the rest still
    /// sees, at zero, as a fold that never re-derives it would.
    SpellingKept,
}

/// `weeks` restricted to the domains `keep` accepts, folded.
fn fold_domains(
    weeks: &[WeekSnapshot],
    keep: &dyn Fn(&str) -> bool,
    ctx: &AccumCtx<'_>,
) -> StudyAccum {
    let mut accum = StudyAccum::default();
    for week in weeks {
        let mut slice = week.clone();
        slice.pages.retain(|domain, _| keep(domain));
        slice.summaries.retain(|domain, _| keep(domain));
        slice.carried_forward.retain(|domain| keep(domain));
        accum.absorb(&slice, ctx);
    }
    accum
}

/// Every key some count map of `accum` holds at zero.
fn zero_keys(accum: &StudyAccum) -> Vec<String> {
    let mut zeros = Vec::new();
    let mut scan = |what: &str, counts: &BTreeMap<String, usize>| {
        let at_zero = counts.iter().filter(|&(_, &count)| count == 0);
        zeros.extend(at_zero.map(|(key, _)| format!("{what} {key}")));
    };
    for lib in &accum.landscape.libs {
        scan("library host", &lib.host_counts);
    }
    scan("github host", &accum.sri.host_counts);
    if let Some(last) = &accum.flash.last {
        scan("flash tld", &last.tld_counts);
    }
    for lib in &accum.landscape.libs {
        for (version, spellings) in &lib.version_counts {
            if spellings.is_empty() {
                zeros.push(format!("version {version} with no spelling"));
            }
            let at_zero = spellings.iter().filter(|&&(_, count)| count == 0);
            zeros.extend(at_zero.map(|(spelling, _)| format!("spelling {spelling}")));
        }
    }
    zeros
}

/// `live.retract(part)`, then `leak` planted.
fn retract_leaking(live: &mut StudyAccum, part: StudyAccum, leak: Option<Leak>) {
    let kept = part.clone();
    live.retract(part);
    match leak {
        None => {}
        Some(Leak::KeyKeptAtZero) => {
            let tlds = kept
                .flash
                .last
                .map(|last| last.tld_counts)
                .unwrap_or_default();
            if let Some(last) = &mut live.flash.last {
                for tld in tlds.into_keys() {
                    last.tld_counts.entry(tld).or_insert(0);
                }
            }
            for host in kept.sri.host_counts.into_keys() {
                live.sri.host_counts.entry(host).or_insert(0);
            }
            for (into, from) in live.landscape.libs.iter_mut().zip(kept.landscape.libs) {
                for host in from.host_counts.into_keys() {
                    into.host_counts.entry(host).or_insert(0);
                }
            }
        }
        Some(Leak::EventsKept) => {
            let behavior = &mut live.behavior;
            behavior.events_claimed.extend(kept.behavior.events_claimed);
            behavior.events_tvv.extend(kept.behavior.events_tvv);
            behavior.regressions.extend(kept.behavior.regressions);
        }
        Some(Leak::SpellingKept) => {
            for (into, from) in live.landscape.libs.iter_mut().zip(kept.landscape.libs) {
                for (version, _) in from.version_counts.into_values().flatten() {
                    if let Some(spellings) = into.version_counts.get_mut(&version) {
                        if !spellings
                            .iter()
                            .any(|(kept, _)| same_spelling(kept, &version))
                        {
                            spellings.push((version, 0));
                        }
                    }
                }
            }
        }
    }
}

/// The retract property, with `retract` intact or leaking one way.
fn retracts_to_the_fold_without(g: &mut Gen, leak: Option<Leak>) {
    let wordpress = webvuln_cvedb::wordpress_catalog();
    let db = VulnDb::builtin();
    let corpus = Corpus {
        db: &db,
        wordpress: &wordpress,
        respell: g.range(0..=3) > 0,
    };
    let domains: Vec<String> = (0..g.range(1..=12))
        .map(|i| format!("site{i:02}.{}", ["com", "cn", "org"][i as usize % 3]))
        .collect();
    let raw = weeks(g, &corpus, &domains);
    let ranks: BTreeMap<String, usize> = domains.iter().cloned().zip(1..).collect();
    let ctx = AccumCtx {
        db: &db,
        ranks: &ranks,
    };
    let b: BTreeSet<String> = domains.iter().filter(|_| g.bool()).cloned().collect();
    let in_a = |domain: &str| !b.contains(domain);
    let in_b = |domain: &str| b.contains(domain);
    let a = fold_domains(&raw, &in_a, &ctx);
    let mut live = a.clone();
    if g.bool() {
        live.merge(fold_domains(&raw, &in_b, &ctx));
    } else {
        // The other order of the merge: B first.
        let mut merged = fold_domains(&raw, &in_b, &ctx);
        merged.merge(live);
        live = merged;
    }
    retract_leaking(&mut live, fold_domains(&raw, &in_b, &ctx), leak);
    let what = format!("{} domains, B = {b:?}", domains.len());
    assert_same(&dump(&live, &db), &dump(&a, &db), &what);
    assert_eq!(zero_keys(&live), Vec::<String>::new(), "{what}");
}

#[test]
fn a_retracted_part_leaves_the_fold_of_the_rest() {
    check::run("merge then retract is the fold of the rest", 1024, |g| {
        retracts_to_the_fold_without(g, None)
    });
}

/// The retract property has teeth: each planted leak is caught.
#[test]
fn a_leaking_retract_is_caught() {
    for leak in [Leak::KeyKeptAtZero, Leak::EventsKept, Leak::SpellingKept] {
        let name = format!("retract, {leak:?}");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check::run(&name, 1024, |g| retracts_to_the_fold_without(g, Some(leak)))
        }));
        assert!(caught.is_err(), "{leak:?} went unnoticed");
    }
}

/// One way to break the daemon's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// A settle leaves one flipped domain where it was.
    SettleSkipsAFlip,
    /// A settle folds one flipped domain's history under the verdict it
    /// is leaving: coming back, it folds to nothing and stays out.
    SettleUnderThePreviousVerdict,
    /// An arrival passes over the shard parts the week has no page for.
    ArrivalSkipsAnEmptyPart,
    /// A delta's rejoin spends the pending flips, as if it had settled
    /// them.
    RejoinSpendsThePending,
}

/// The daemon's live state, as `watcher.rs` keeps it.
struct Model {
    live: Buckets<StudyAccum>,
    /// The verdict `live` was folded under.
    settled: BTreeSet<String>,
    /// `settled` with `pending` toggled: the verdict now.
    filtered: BTreeSet<String>,
    pending: BTreeSet<String>,
    mutation: Option<Mutation>,
}

impl Model {
    fn new(shards: usize, mutation: Option<Mutation>) -> Model {
        Model {
            live: Buckets::new(shards),
            settled: BTreeSet::new(),
            filtered: BTreeSet::new(),
            pending: BTreeSet::new(),
            mutation,
        }
    }

    fn arrive(&mut self, week: &WeekSnapshot, ctx: &AccumCtx<'_>) {
        let file = WeekFile::parse(&encode_week_file(&snapshot_to_week(week))).expect("parse");
        let records = file.week().expect("decode");
        if self.mutation != Some(Mutation::ArrivalSkipsAnEmptyPart) {
            let absorbed = self.live.absorb(&records, &self.settled, ctx);
            return absorbed.expect("absorb");
        }
        let mut symbols = SymbolCache::default();
        let shards = self.live.parts.len();
        let place = |host: &str| Some(shard_of(host, shards));
        let views = DecodedWeek::partition(&records, &self.settled, &mut symbols, shards, place);
        for (part, view) in self.live.parts.iter_mut().zip(&views.expect("partition")) {
            if view.collected() > 0 {
                part.as_mut().expect("healthy").absorb(view, ctx);
            }
        }
    }

    fn flip_to(&mut self, fresh: BTreeSet<String>) {
        for domain in fresh.symmetric_difference(&self.filtered) {
            if !self.pending.remove(domain) {
                self.pending.insert(domain.clone());
            }
        }
        self.filtered = fresh;
    }

    fn settle(&mut self, g: &mut Gen, reader: &AnyReader, ctx: &AccumCtx<'_>) {
        let mut flipped = std::mem::take(&mut self.pending);
        let victim = flipped
            .iter()
            .nth(g.range(0..=63) as usize % flipped.len().max(1))
            .cloned();
        match (self.mutation, victim) {
            (Some(Mutation::SettleSkipsAFlip), Some(victim)) => {
                flipped.remove(&victim);
            }
            (Some(Mutation::SettleUnderThePreviousVerdict), Some(victim))
                if self.settled.contains(&victim) =>
            {
                flipped.remove(&victim);
            }
            _ => {}
        }
        let settled = self.live.settle(reader, &flipped, &self.settled, ctx);
        settled.expect("settle");
        self.settled = self.filtered.clone();
    }

    /// A delta tick: when it extended the database (`refold`), every
    /// part's exposure accumulators again; else (a delta the database
    /// already held) a walk that only reads. The flipped domains stay
    /// pending either way.
    fn rejoin(&mut self, reader: &AnyReader, ctx: &AccumCtx<'_>, threads: usize, refold: bool) {
        let scan = |_: &mut (), _: &DecodedWeek<'_>| {};
        let rejoined = self
            .live
            .rejoin(reader, ctx, threads, &self.settled, refold, scan);
        rejoined.expect("rejoin");
        if self.mutation == Some(Mutation::RejoinSpendsThePending) {
            self.pending.clear();
            self.settled = self.filtered.clone();
        }
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("settle-{tag}-{}-{case}", std::process::id()))
}

fn genesis(first: &WeekSnapshot, total: usize, ranked: &[String]) -> Genesis {
    Genesis {
        start_days: i64::from(first.date.day_number()),
        weeks_total: total,
        ranks: ranked.iter().cloned().zip(1..).collect(),
    }
}

/// The model property, with the bookkeeping intact or broken one way.
fn settles_to_the_cold_fold(g: &mut Gen, mutation: Option<Mutation>) {
    let wordpress = webvuln_cvedb::wordpress_catalog();
    let mut db = VulnDb::builtin();
    let extension = delta(g, &db);
    // The delta lands before week `extend_at` arrives, or in that week's
    // tick, after its arrival and flips.
    let (extend_at, same_tick) = (g.range(0..=12) as usize, g.bool());
    let (shards, threads) = (*g.pick(&[1usize, 4]), *g.pick(&[1usize, 2]));
    // One ranked domain never answers: it has no page anywhere, and its
    // verdict flips like any other's.
    let mut ranked: Vec<String> = (0..g.range(1..=12))
        .map(|i| format!("site{i:02}.{}", ["com", "cn", "org"][i as usize % 3]))
        .collect();
    let raw = {
        let corpus = Corpus {
            db: &db,
            wordpress: &wordpress,
            respell: g.bool(),
        };
        weeks(g, &corpus, &ranked)
    };
    ranked.push("ghost.example".to_string());
    let ranks: BTreeMap<String, usize> = ranked.iter().cloned().zip(1..).collect();

    let path = scratch("property");
    let genesis = genesis(&raw[0], raw.len(), &ranked);
    let mut writer = AnyWriter::create(&path, genesis, shards).expect("create");
    let mut window = FilterWindow::new(&ranked);
    let mut model = Model::new(shards, mutation);
    for (index, week) in raw.iter().enumerate() {
        let delta_now = index == extend_at;
        if delta_now && !same_tick {
            db.extend(extension.clone());
        }
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        if delta_now && !same_tick && index > 0 {
            let reader = AnyReader::open_degraded(&path).expect("open");
            model.rejoin(&reader, &ctx, threads, true);
        } else if index > 0 && g.range(0..=3) == 0 {
            // A delta file the database already holds, replayed.
            let reader = AnyReader::open_degraded(&path).expect("open");
            model.rejoin(&reader, &ctx, threads, false);
        }
        writer.commit_week(&snapshot_to_week(week)).expect("commit");
        model.arrive(week, &ctx);
        let outcomes = week.summaries.iter();
        window.absorb(outcomes.map(|(d, s)| (d.as_str(), s.status, s.body_len)));
        let fresh = match g.range(0..=5) {
            // The §4.1 rule itself: domains die, stay dead, return.
            0 | 1 => window.verdict(),
            2 => model.filtered.clone(),
            // Everything flips.
            3 => {
                let all: BTreeSet<String> = ranked.iter().cloned().collect();
                all.difference(&model.filtered).cloned().collect()
            }
            // Only the domain no week has a page for.
            4 => {
                let ghost = BTreeSet::from(["ghost.example".to_string()]);
                ghost
                    .symmetric_difference(&model.filtered)
                    .cloned()
                    .collect()
            }
            _ => ranked.iter().filter(|_| g.bool()).cloned().collect(),
        };
        model.flip_to(fresh);
        if delta_now && same_tick {
            db.extend(extension.clone());
            let ctx = AccumCtx {
                db: &db,
                ranks: &ranks,
            };
            let reader = AnyReader::open_degraded(&path).expect("open");
            model.rejoin(&reader, &ctx, threads, true);
        }
        // Flips pile up over back-to-back arrivals; a quiet tick settles.
        if index + 1 < raw.len() && g.range(0..=2) == 0 {
            continue;
        }
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        let reader = AnyReader::open_degraded(&path).expect("open");
        model.settle(g, &reader, &ctx);
        let cold: StudyAccum = fold_store(&reader, &ctx, threads, &model.filtered).expect("fold");
        let what = format!("after week {index} at {shards} shards, {threads} threads");
        assert_same(&dump(&model.live.merged(), &db), &dump(&cold, &db), &what);
    }
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn settled_state_is_the_cold_fold() {
    check::run("settled state is the cold fold", 128, |g| {
        settles_to_the_cold_fold(g, None)
    });
}

/// The model property has teeth: each way of breaking the bookkeeping is
/// caught.
#[test]
fn a_broken_settle_is_caught() {
    for mutation in [
        Mutation::SettleSkipsAFlip,
        Mutation::SettleUnderThePreviousVerdict,
        Mutation::ArrivalSkipsAnEmptyPart,
        Mutation::RejoinSpendsThePending,
    ] {
        let name = format!("settled state, {mutation:?}");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check::run(&name, 128, |g| settles_to_the_cold_fold(g, Some(mutation)))
        }));
        assert!(caught.is_err(), "{mutation:?} went unnoticed");
    }
}

/// A flipped domain whose shard file is gone leaves that shard holding
/// nothing, taking no arrival after that, and the whole reads as the
/// degraded cold fold — which skips that shard — before and after the
/// next week.
#[test]
fn a_flip_in_a_dark_shard_settles_to_the_degraded_cold_fold() {
    check::run("dark shard", 16, |g| {
        const SHARDS: usize = 4;
        let wordpress = webvuln_cvedb::wordpress_catalog();
        let db = VulnDb::builtin();
        let ranked: Vec<String> = (0..24).map(|i| format!("site{i:02}.com")).collect();
        let ranks: BTreeMap<String, usize> = ranked.iter().cloned().zip(1..).collect();
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        let corpus = Corpus {
            db: &db,
            wordpress: &wordpress,
            respell: false,
        };
        let mut raw = weeks(g, &corpus, &ranked);
        let last = raw.pop().expect("at least one week");
        let path = scratch("dark");
        let genesis = genesis(raw.first().unwrap_or(&last), raw.len() + 1, &ranked);
        let mut writer = AnyWriter::create(&path, genesis, SHARDS).expect("create");
        let mut model = Model::new(SHARDS, None);
        for week in &raw {
            writer.commit_week(&snapshot_to_week(week)).expect("commit");
            model.arrive(week, &ctx);
        }
        // Shard 1 goes dark; every domain in it flips, and one elsewhere.
        std::fs::remove_file(path.join(shard_file_name(1))).expect("remove shard");
        let mut flipped: BTreeSet<String> = ranked
            .iter()
            .filter(|domain| shard_of(domain, SHARDS) == 1)
            .cloned()
            .collect();
        flipped.extend(ranked.iter().find(|d| shard_of(d, SHARDS) != 1).cloned());
        model.flip_to(flipped);
        for week in [None, Some(&last)] {
            if let Some(week) = week {
                writer.commit_week(&snapshot_to_week(week)).expect("commit");
                model.arrive(week, &ctx);
            }
            let reader = AnyReader::open_degraded(&path).expect("open degraded");
            assert!(reader.is_degraded());
            model.settle(g, &reader, &ctx);
            let cold: StudyAccum = fold_store(&reader, &ctx, 2, &model.filtered).expect("fold");
            assert_same(&dump(&model.live.merged(), &db), &dump(&cold, &db), "dark");
        }
        let _ = std::fs::remove_dir_all(&path);
    });
}
