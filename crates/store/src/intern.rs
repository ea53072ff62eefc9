//! The store-wide string-interning table.
//!
//! Hosts, library slugs, version strings, and URLs repeat across nearly
//! every weekly snapshot; records therefore reference strings by a `u32`
//! symbol. The table is append-only and file-global: each segment's
//! payload begins with the strings first seen in that segment, and symbols
//! are assigned in file order, so a reader that walks the segments in
//! sequence reconstructs the exact table the writer had.

use crate::record::Sym;
use std::collections::HashMap;

/// An append-only string table with reverse lookup.
#[derive(Default)]
pub(crate) struct Interner {
    strings: Vec<String>,
    /// Reverse map over `strings[..indexed]`. Decoding appends without
    /// filling it — a one-segment decode only ever resolves symbols —
    /// and [`Interner::index_decoded`] catches it up for whoever looks
    /// strings up by value.
    by_value: HashMap<String, u32>,
    indexed: usize,
    mark: usize,
}

impl Interner {
    /// An empty table.
    pub(crate) fn new() -> Interner {
        Interner::default()
    }

    /// Returns the symbol for `value`, inserting it if unseen.
    pub(crate) fn intern(&mut self, value: &str) -> u32 {
        self.index_decoded();
        if let Some(&sym) = self.by_value.get(value) {
            return sym;
        }
        let sym = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(value.to_string());
        self.by_value.insert(value.to_string(), sym);
        self.indexed = self.strings.len();
        sym
    }

    /// Brings the reverse map up to date with every decoded string. A
    /// string a corrupt block repeats keeps its first symbol.
    pub(crate) fn index_decoded(&mut self) {
        for (sym, value) in self.strings.iter().enumerate().skip(self.indexed) {
            self.by_value.entry(value.clone()).or_insert(sym as u32);
        }
        self.indexed = self.strings.len();
    }

    /// The string behind `sym`, if allocated.
    pub(crate) fn resolve(&self, sym: u32) -> Option<&str> {
        self.strings.get(sym as usize).map(String::as_str)
    }

    /// `id` paired with the string behind it, as decoded records hold one.
    pub(crate) fn sym(&self, id: u32) -> Option<Sym<'_>> {
        self.resolve(id).map(|text| Sym { id, text })
    }

    /// Every string with its symbol, in symbol order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Sym<'_>> {
        let syms = self.strings.iter().enumerate();
        syms.map(|(id, text)| Sym {
            id: id as u32,
            text,
        })
    }

    /// The symbol of an already-interned string. Decoded strings count
    /// once [`Interner::index_decoded`] has run.
    pub(crate) fn lookup(&self, value: &str) -> Option<u32> {
        debug_assert_eq!(self.indexed, self.strings.len(), "reverse map is stale");
        self.by_value.get(value).copied()
    }

    /// Remembers the current table size; [`Interner::new_strings`] returns
    /// everything interned after this point. Called at segment start.
    pub(crate) fn set_mark(&mut self) {
        self.mark = self.strings.len();
    }

    /// The strings interned since the last [`Interner::set_mark`] — the
    /// segment's string block.
    pub(crate) fn new_strings(&self) -> &[String] {
        &self.strings[self.mark..]
    }

    /// Appends a string decoded from a segment's string block, preserving
    /// writer symbol order.
    pub(crate) fn push_decoded(&mut self, value: String) {
        self.strings.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_stable_and_dense() {
        let mut table = Interner::new();
        let a = table.intern("alpha.example");
        let b = table.intern("beta.example");
        assert_eq!(table.intern("alpha.example"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(table.resolve(a), Some("alpha.example"));
        assert_eq!(table.resolve(7), None);
        assert_eq!(table.lookup("beta.example"), Some(b));
        assert_eq!(table.lookup("gamma.example"), None);
    }

    #[test]
    fn decoded_strings_are_indexed_on_demand() {
        let mut table = Interner::new();
        table.push_decoded("alpha.example".to_string());
        table.push_decoded("beta.example".to_string());
        assert_eq!(table.resolve(1), Some("beta.example"));
        // `intern` catches the reverse map up before it looks.
        assert_eq!(table.intern("beta.example"), 1);
        assert_eq!(table.intern("gamma.example"), 2);
        table.push_decoded("delta.example".to_string());
        table.index_decoded();
        assert_eq!(table.lookup("delta.example"), Some(3));
    }

    #[test]
    fn mark_isolates_per_segment_strings() {
        let mut table = Interner::new();
        table.intern("week0.example");
        table.set_mark();
        assert!(table.new_strings().is_empty());
        table.intern("week0.example"); // already known: not "new"
        table.intern("week1.example");
        assert_eq!(table.new_strings(), ["week1.example".to_string()]);
        table.set_mark();
        assert!(table.new_strings().is_empty());
    }
}
