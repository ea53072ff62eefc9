//! # webvuln-html
//!
//! A forgiving HTML tokenizer, a one-pass resource extractor and a
//! lightweight DOM — the parsing substrate of the `webvuln` measurement
//! pipeline.
//!
//! The paper's crawler downloads ~780k landing pages a week and hands the
//! static HTML to a fingerprinting stage. This crate turns raw page bytes
//! into exactly what that stage needs:
//!
//! * a pull tokenizer ([`Tokenizer`]) over tokens borrowed from the page,
//!   which never fails on real-world tag soup,
//! * raw-text handling for `<script>`/`<style>` so inline library banners
//!   (`/*! jQuery v3.5.1 */`) survive intact,
//! * [`extract_resources`]: in one pass over those tokens, with no tree,
//!   scripts with `src`/`integrity`/`crossorigin`, links, Flash
//!   `<object>`/`<embed>` with `AllowScriptAccess`, generator metas and
//!   comments,
//! * a DOM ([`Document::parse`]) built from the same tokens, for callers
//!   that walk a tree, and [`extract`] over it: the oracle the one pass is
//!   tested against.
//!
//! ```
//! use webvuln_html::{extract, extract_resources, Document};
//!
//! let html = r#"<script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>"#;
//! let res = extract_resources(html);
//! assert!(res.scripts[0].src.as_deref().unwrap().contains("1.12.4"));
//! assert_eq!(res, extract(&Document::parse(html)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dom;
mod extract;
mod tokenizer;

pub use dom::{Descendants, Document, Element, Node};
pub use extract::{
    extract, extract_resources, is_swf_url, url_host, FlashRef, LinkRef, PageResources, ScriptRef,
};
pub use tokenizer::{decode_entities, tokenize, Attributes, Token, Tokenizer};
