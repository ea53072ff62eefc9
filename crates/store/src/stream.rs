//! [`WeekStream`]: streaming iteration over a snapshot store.
//!
//! Whoever wants a store's weeks whole and owned — the JSON export, a
//! resumed collection's replay — reads them one at a time,
//! in canonical global order (weeks ascending, records host-sorted within
//! each week — exactly the order the writer committed). `WeekStream` is that
//! iterator, built on [`AnyReader`] so both layouts stream identically; a
//! sharded store's weeks are merged across healthy shards on the fly. (A
//! fold does not come this way: it borrows each shard's records in place,
//! [`StoreReader::week_records`](crate::StoreReader::week_records).)
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
    pub(crate) fn over(reader: &'a AnyReader) -> WeekStream<'a> {
        WeekStream {
            end: reader.weeks_committed(),
            reader,
            next: 0,
        }
    }

    /// Weeks not yet yielded.
    pub(crate) fn remaining(&self) -> usize {
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
