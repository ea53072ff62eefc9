#![cfg(test)]
//! [`Buckets`] against the cold fold: a model of the watch daemon's
//! bookkeeping — arrivals absorbed bucket by bucket, the buckets of
//! flipped domains remembered, a settle that folds exactly those again —
//! driven over generated week sequences and drawn §4.1 verdicts, must
//! read, merged, as [`fold_store`] over the same store under the same
//! verdict. The same model with one step of the bookkeeping broken must
//! not.

use super::oracle::{assert_same, delta, dump, weeks, Corpus};
use super::*;
use crate::dataset::WeekSnapshot;
use crate::filter::FilterWindow;
use crate::store_io::snapshot_to_week;
use std::panic::{catch_unwind, AssertUnwindSafe};
use webvuln_failpoint::check::{self, Gen};
use webvuln_store::codec::{encode_week_file, WeekFile};
use webvuln_store::{shard_file_name, AnyWriter};

/// One way to break the bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// A settle leaves one touched bucket as it was.
    SkipATouchedBucket,
    /// A settle folds one touched bucket under the verdict it already
    /// had.
    RefoldUnderThePreviousVerdict,
    /// An arrival passes over the buckets the week has no page for.
    EmptyBucketSkipsTheWeek,
}

/// The daemon's live state, as `watcher.rs` keeps it.
struct Model {
    live: Buckets<StudyAccum>,
    filtered: BTreeSet<String>,
    /// The verdict the touched buckets were last folded under.
    settled: BTreeSet<String>,
    touched: BTreeSet<usize>,
    mutation: Option<Mutation>,
}

impl Model {
    fn arrive(&mut self, week: &WeekSnapshot, ctx: &AccumCtx<'_>) {
        let file = WeekFile::parse(&encode_week_file(&snapshot_to_week(week))).expect("parse");
        let records = file.week().expect("decode");
        if self.mutation != Some(Mutation::EmptyBucketSkipsTheWeek) {
            let absorbed = self.live.absorb(&records, &self.filtered, ctx);
            return absorbed.expect("absorb");
        }
        let mut symbols = SymbolCache::default();
        let cut = self.live.count();
        let place = |host: &str| Some(shard_of(host, cut));
        let views = DecodedWeek::partition(&records, &self.filtered, &mut symbols, cut, place);
        for (bucket, view) in self.live.parts.iter_mut().zip(&views.expect("partition")) {
            if view.collected() > 0 {
                bucket.as_mut().expect("healthy").absorb(view, ctx);
            }
        }
    }

    fn flip_to(&mut self, fresh: BTreeSet<String>) {
        for domain in fresh.symmetric_difference(&self.filtered) {
            self.touched.insert(self.live.bucket_of(domain));
        }
        self.filtered = fresh;
    }

    fn settle(&mut self, g: &mut Gen, reader: &AnyReader, ctx: &AccumCtx<'_>, threads: usize) {
        let mut touched = std::mem::take(&mut self.touched);
        let victim = touched
            .iter()
            .copied()
            .nth(g.range(0..=63) as usize % touched.len().max(1));
        match (self.mutation, victim) {
            (Some(Mutation::SkipATouchedBucket), Some(victim)) => {
                touched.remove(&victim);
            }
            (Some(Mutation::RefoldUnderThePreviousVerdict), Some(victim)) => {
                touched.remove(&victim);
                let previous = &self.settled;
                let refolded = self.live.refold(reader, [victim], ctx, threads, previous);
                refolded.expect("refold");
            }
            _ => {}
        }
        let refolded = self
            .live
            .refold(reader, touched, ctx, threads, &self.filtered);
        refolded.expect("refold");
        self.settled = self.filtered.clone();
    }

    /// A delta extended the database: every bucket again.
    fn rebuild(&mut self, reader: &AnyReader, ctx: &AccumCtx<'_>, threads: usize) {
        self.touched.clear();
        let all = 0..self.live.count();
        let refolded = self.live.refold(reader, all, ctx, threads, &self.filtered);
        refolded.expect("refold");
        self.settled = self.filtered.clone();
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("bucket-{tag}-{}-{case}", std::process::id()))
}

fn genesis(first: &WeekSnapshot, total: usize, ranked: &[String]) -> Genesis {
    Genesis {
        start_days: i64::from(first.date.day_number()),
        weeks_total: total,
        ranks: ranked.iter().cloned().zip(1..).collect(),
    }
}

/// The property, with the bookkeeping intact or broken one way.
fn settles_to_the_cold_fold(g: &mut Gen, mutation: Option<Mutation>) {
    let wordpress = webvuln_cvedb::wordpress_catalog();
    let mut db = VulnDb::builtin();
    let extension = delta(g, &db);
    let extend_before = g.range(0..=12) as usize;
    let (shards, threads) = (*g.pick(&[1usize, 4]), *g.pick(&[1usize, 2]));
    // One ranked domain never answers: its bucket has no page anywhere,
    // and its verdict flips like any other's.
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
    let mut window = FilterWindow::new();
    let mut model = Model {
        live: Buckets::new(shards),
        filtered: BTreeSet::new(),
        settled: BTreeSet::new(),
        touched: BTreeSet::new(),
        mutation,
    };
    for (index, week) in raw.iter().enumerate() {
        if index == extend_before {
            db.extend(extension.clone());
        }
        let ctx = AccumCtx {
            db: &db,
            ranks: &ranks,
        };
        if index == extend_before && index > 0 {
            let reader = AnyReader::open_degraded(&path).expect("open");
            model.rebuild(&reader, &ctx, threads);
        }
        writer.commit_week(&snapshot_to_week(week)).expect("commit");
        model.arrive(week, &ctx);
        let outcomes = week.summaries.iter();
        window.absorb(outcomes.map(|(d, s)| (d.as_str(), s.status, s.body_len)));
        let fresh = match g.range(0..=5) {
            // The §4.1 rule itself: domains die, stay dead, return.
            0 | 1 => window.verdict(&ranked),
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
        // Flips pile up over back-to-back arrivals; a quiet tick settles.
        if index + 1 < raw.len() && g.range(0..=2) == 0 {
            continue;
        }
        let reader = AnyReader::open_degraded(&path).expect("open");
        model.settle(g, &reader, &ctx, threads);
        let cold: StudyAccum = fold_store(&reader, &ctx, threads, &model.filtered).expect("fold");
        let what = format!("after week {index} at {shards} shards, {threads} threads");
        assert_same(&dump(&model.live.merged(), &db), &dump(&cold, &db), &what);
    }
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn bucketed_state_settles_to_the_cold_fold() {
    check::run("bucketed state settles to the cold fold", 128, |g| {
        settles_to_the_cold_fold(g, None)
    });
}

/// The property has teeth: each way of breaking the bookkeeping is caught.
#[test]
fn a_broken_settle_is_caught() {
    for mutation in [
        Mutation::SkipATouchedBucket,
        Mutation::RefoldUnderThePreviousVerdict,
        Mutation::EmptyBucketSkipsTheWeek,
    ] {
        let name = format!("bucketed state, {mutation:?}");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check::run(&name, 128, |g| settles_to_the_cold_fold(g, Some(mutation)))
        }));
        assert!(caught.is_err(), "{mutation:?} went unnoticed");
    }
}

/// A touched bucket whose shard file is gone settles to nothing, takes no
/// arrival after that, and the whole reads as the degraded cold fold —
/// which skips that shard — before and after the next week.
#[test]
fn a_touched_bucket_in_a_dark_shard_settles_to_the_degraded_cold_fold() {
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
        let mut model = Model {
            live: Buckets::new(SHARDS),
            filtered: BTreeSet::new(),
            settled: BTreeSet::new(),
            touched: BTreeSet::new(),
            mutation: None,
        };
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
            model.settle(g, &reader, &ctx, 2);
            let cold: StudyAccum = fold_store(&reader, &ctx, 2, &model.filtered).expect("fold");
            assert_same(&dump(&model.live.merged(), &db), &dump(&cold, &db), "dark");
        }
        let _ = std::fs::remove_dir_all(&path);
    });
}
