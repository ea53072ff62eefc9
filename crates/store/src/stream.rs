//! [`WeekStream`]: streaming iteration over a snapshot store.
//!
//! The paper-scale pipeline never materializes the whole study: analysis
//! folds over one decoded week at a time, in canonical global order
//! (weeks ascending, records host-sorted within each week — exactly the
//! order the writer committed). `WeekStream` is that iterator, built on
//! [`AnyReader`] so both layouts stream identically; a sharded store's
//! weeks are merged across healthy shards on the fly.
//!
//! Peak memory while streaming is one decoded [`WeekData`] plus the
//! reader's structural index — independent of how many weeks (or
//! domains) the store holds beyond the single week in flight.

use crate::error::StoreError;
use crate::record::WeekData;
use crate::sharded::AnyReader;

/// Iterator over a store's committed weeks, decoding one at a time.
///
/// Yields `Result<WeekData, StoreError>` in week order; a decode error
/// for one week does not end the stream (later weeks may still be
/// intact), so callers decide whether to abort or skip.
pub struct WeekStream<'a> {
    reader: &'a AnyReader,
    next: usize,
    end: usize,
}

impl<'a> WeekStream<'a> {
    /// Streams every committed week of `reader`, either layout.
    pub fn over(reader: &'a AnyReader) -> WeekStream<'a> {
        WeekStream {
            end: reader.weeks_committed(),
            reader,
            next: 0,
        }
    }

    /// Restricts the stream to weeks `[from, to)` (clamped to what the
    /// store holds).
    pub fn range(mut self, from: usize, to: usize) -> WeekStream<'a> {
        self.next = from.min(self.end);
        self.end = to.min(self.end);
        self
    }

    /// Weeks not yet yielded.
    pub fn remaining(&self) -> usize {
        self.end - self.next
    }
}

impl Iterator for WeekStream<'_> {
    type Item = Result<WeekData, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let week = self.next;
        self.next += 1;
        Some(self.reader.week(week))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for WeekStream<'_> {}
