//! Identities and release catalogs of the top-15 client-side JavaScript
//! libraries the study focuses on (paper Table 1), plus WordPress.
//!
//! Release catalogs list each library's published versions with release
//! dates. They drive two things: the web-ecosystem simulator only deploys
//! versions that exist at a given week, and the PoC lab sweeps "every
//! version from v1.0.0 to the latest" exactly like the paper's 85-environment
//! experiment. Dates of the versions the analysis hinges on (jQuery 1.12.4,
//! 3.0.0, 3.4.0, 3.5.0/3.5.1, 3.6.0, …) are the real release dates; filler
//! versions carry approximate dates, which is irrelevant to every analysis
//! (only paper-critical boundaries matter).

use crate::date::Date;
use std::fmt;
use webvuln_version::Version;

/// One of the top-15 libraries (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LibraryId {
    /// jQuery — 64.0% of websites, the dominant library.
    JQuery,
    /// Bootstrap — 21.5%.
    Bootstrap,
    /// jQuery-Migrate — 20.8%; the compatibility shim.
    JQueryMigrate,
    /// jQuery-UI — 12.2%.
    JQueryUi,
    /// Modernizr — 9.5%.
    Modernizr,
    /// JS-Cookie — 3.3%; successor of jQuery-Cookie.
    JsCookie,
    /// Underscore — 2.5%.
    Underscore,
    /// Isotope — 1.8%.
    Isotope,
    /// Popper — 1.7%.
    Popper,
    /// Moment.js — 1.6%.
    MomentJs,
    /// RequireJS — 1.6%.
    RequireJs,
    /// SWFObject — 1.3%; discontinued Flash embedder.
    SwfObject,
    /// Prototype — 1.0%.
    Prototype,
    /// jQuery-Cookie — 1.0%; discontinued, superseded by JS-Cookie.
    JQueryCookie,
    /// Polyfill.io — 0.9%.
    PolyfillIo,
}

impl LibraryId {
    /// All fifteen libraries, in the paper's Table 1 order (by usage).
    pub const ALL: [LibraryId; 15] = [
        LibraryId::JQuery,
        LibraryId::Bootstrap,
        LibraryId::JQueryMigrate,
        LibraryId::JQueryUi,
        LibraryId::Modernizr,
        LibraryId::JsCookie,
        LibraryId::Underscore,
        LibraryId::Isotope,
        LibraryId::Popper,
        LibraryId::MomentJs,
        LibraryId::RequireJs,
        LibraryId::SwfObject,
        LibraryId::Prototype,
        LibraryId::JQueryCookie,
        LibraryId::PolyfillIo,
    ];

    /// Position in [`LibraryId::ALL`] — a dense key for per-library tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Canonical display name (as printed in the paper).
    pub fn name(&self) -> &'static str {
        match self {
            LibraryId::JQuery => "jQuery",
            LibraryId::Bootstrap => "Bootstrap",
            LibraryId::JQueryMigrate => "jQuery-Migrate",
            LibraryId::JQueryUi => "jQuery-UI",
            LibraryId::Modernizr => "Modernizr",
            LibraryId::JsCookie => "JS-Cookie",
            LibraryId::Underscore => "Underscore",
            LibraryId::Isotope => "Isotope",
            LibraryId::Popper => "Popper",
            LibraryId::MomentJs => "Moment.js",
            LibraryId::RequireJs => "RequireJS",
            LibraryId::SwfObject => "SWFObject",
            LibraryId::Prototype => "Prototype",
            LibraryId::JQueryCookie => "jQuery-Cookie",
            LibraryId::PolyfillIo => "Polyfill.io",
        }
    }

    /// Lower-case identifier usable in file names and URLs.
    pub fn slug(&self) -> &'static str {
        match self {
            LibraryId::JQuery => "jquery",
            LibraryId::Bootstrap => "bootstrap",
            LibraryId::JQueryMigrate => "jquery-migrate",
            LibraryId::JQueryUi => "jquery-ui",
            LibraryId::Modernizr => "modernizr",
            LibraryId::JsCookie => "js.cookie",
            LibraryId::Underscore => "underscore",
            LibraryId::Isotope => "isotope",
            LibraryId::Popper => "popper",
            LibraryId::MomentJs => "moment",
            LibraryId::RequireJs => "require",
            LibraryId::SwfObject => "swfobject",
            LibraryId::Prototype => "prototype",
            LibraryId::JQueryCookie => "jquery.cookie",
            LibraryId::PolyfillIo => "polyfill",
        }
    }

    /// Resolves a [`LibraryId::slug`] back to its identifier — the inverse
    /// used when decoding persisted datasets.
    pub fn from_slug(slug: &str) -> Option<LibraryId> {
        LibraryId::ALL.into_iter().find(|lib| lib.slug() == slug)
    }

    /// True for projects the paper calls discontinued (§6.3).
    pub fn is_discontinued(&self) -> bool {
        matches!(self, LibraryId::SwfObject | LibraryId::JQueryCookie)
    }
}

impl fmt::Display for LibraryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One published release of a library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    /// The version.
    pub version: Version,
    /// Release date.
    pub date: Date,
}

/// The release history of one library, sorted by version ascending.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Which library this catalog describes.
    pub library: LibraryId,
    /// All releases, ascending by version.
    pub releases: Vec<Release>,
}

impl Catalog {
    /// All versions released on or before `date` (what a developer could
    /// have deployed at that time).
    pub fn available_at(&self, date: Date) -> impl Iterator<Item = &Release> {
        self.releases.iter().filter(move |r| r.date <= date)
    }

    /// The newest version available at `date`, if any release precedes it.
    pub fn latest_at(&self, date: Date) -> Option<&Release> {
        self.available_at(date)
            .max_by(|a, b| a.version.cmp(&b.version))
    }

    /// The newest version overall.
    pub fn latest(&self) -> &Release {
        self.releases.last().expect("catalogs are non-empty")
    }

    /// The newest version available at `date` within major version
    /// `major` — what a compatibility-wary developer upgrades to (§6.3:
    /// breaking changes across majors are the main update blocker).
    pub fn latest_at_in_major(&self, date: Date, major: u32) -> Option<&Release> {
        self.available_at(date)
            .filter(|r| r.version.major() == major)
            .max_by(|a, b| a.version.cmp(&b.version))
    }

    /// Release date of `version`, if it is a known release.
    pub fn release_date(&self, version: &Version) -> Option<Date> {
        self.releases
            .iter()
            .find(|r| &r.version == version)
            .map(|r| r.date)
    }

    /// Total number of releases.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// True when the catalog has no releases (never for built-in data).
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }
}

/// Raw catalog data: `(version, release date)`.
type Raw = &'static [(&'static str, &'static str)];

/// jQuery releases — the boundary versions all carry real dates.
static JQUERY: Raw = &[
    ("1.0", "2006-08-26"),
    ("1.0.1", "2006-08-31"),
    ("1.0.2", "2006-10-09"),
    ("1.0.3", "2006-10-27"),
    ("1.0.4", "2006-12-12"),
    ("1.1", "2007-01-14"),
    ("1.1.1", "2007-01-22"),
    ("1.1.2", "2007-02-27"),
    ("1.1.3", "2007-07-01"),
    ("1.1.4", "2007-08-24"),
    ("1.2", "2007-09-10"),
    ("1.2.1", "2007-09-16"),
    ("1.2.2", "2008-01-15"),
    ("1.2.3", "2008-02-06"),
    ("1.2.4", "2008-05-19"),
    ("1.2.5", "2008-05-24"),
    ("1.2.6", "2008-05-24"),
    ("1.3", "2009-01-13"),
    ("1.3.1", "2009-01-21"),
    ("1.3.2", "2009-02-19"),
    ("1.4", "2010-01-14"),
    ("1.4.1", "2010-01-25"),
    ("1.4.2", "2010-02-19"),
    ("1.4.3", "2010-10-16"),
    ("1.4.4", "2010-11-11"),
    ("1.5", "2011-01-31"),
    ("1.5.1", "2011-02-24"),
    ("1.5.2", "2011-03-31"),
    ("1.6", "2011-05-03"),
    ("1.6.1", "2011-05-12"),
    ("1.6.2", "2011-06-30"),
    ("1.6.3", "2011-09-01"),
    ("1.6.4", "2011-09-18"),
    ("1.7", "2011-11-03"),
    ("1.7.1", "2011-11-21"),
    ("1.7.2", "2012-03-21"),
    ("1.8.0", "2012-08-09"),
    ("1.8.1", "2012-08-30"),
    ("1.8.2", "2012-09-20"),
    ("1.8.3", "2012-11-13"),
    ("1.9.0", "2013-01-15"),
    ("1.9.1", "2013-02-04"),
    ("1.10.0", "2013-05-24"),
    ("1.10.1", "2013-05-30"),
    ("1.10.2", "2013-07-03"),
    ("1.11.0", "2014-01-23"),
    ("1.11.1", "2014-05-01"),
    ("1.11.2", "2014-12-17"),
    ("1.11.3", "2015-04-28"),
    ("1.12.0", "2016-01-08"),
    ("1.12.1", "2016-02-22"),
    ("1.12.2", "2016-03-17"),
    ("1.12.3", "2016-04-05"),
    ("1.12.4", "2016-05-20"),
    ("2.0.0", "2013-04-18"),
    ("2.0.1", "2013-05-24"),
    ("2.0.2", "2013-05-30"),
    ("2.0.3", "2013-07-03"),
    ("2.1.0", "2014-01-23"),
    ("2.1.1", "2014-05-01"),
    ("2.1.2", "2014-12-17"),
    ("2.1.3", "2014-12-18"),
    ("2.1.4", "2015-04-28"),
    ("2.2.0", "2016-01-08"),
    ("2.2.1", "2016-02-22"),
    ("2.2.2", "2016-03-17"),
    ("2.2.3", "2016-04-05"),
    ("2.2.4", "2016-05-20"),
    ("3.0.0", "2016-06-09"),
    ("3.1.0", "2016-07-07"),
    ("3.1.1", "2016-09-22"),
    ("3.2.0", "2017-03-16"),
    ("3.2.1", "2017-03-20"),
    ("3.3.0", "2018-01-19"),
    ("3.3.1", "2018-01-20"),
    ("3.4.0", "2019-04-10"),
    ("3.4.1", "2019-05-01"),
    ("3.5.0", "2020-04-10"),
    ("3.5.1", "2020-05-04"),
    ("3.6.0", "2021-03-02"),
];

static BOOTSTRAP: Raw = &[
    ("2.0.0", "2012-01-31"),
    ("2.0.4", "2012-06-01"),
    ("2.1.0", "2012-08-20"),
    ("2.2.0", "2012-10-29"),
    ("2.2.2", "2012-12-08"),
    ("2.3.0", "2013-02-07"),
    ("2.3.1", "2013-02-28"),
    ("2.3.2", "2013-07-26"),
    ("3.0.0", "2013-08-19"),
    ("3.0.1", "2013-10-30"),
    ("3.0.2", "2013-11-06"),
    ("3.0.3", "2013-12-05"),
    ("3.1.0", "2014-01-30"),
    ("3.1.1", "2014-02-13"),
    ("3.2.0", "2014-06-26"),
    ("3.3.0", "2014-10-29"),
    ("3.3.1", "2014-11-12"),
    ("3.3.2", "2015-01-19"),
    ("3.3.4", "2015-03-16"),
    ("3.3.5", "2015-06-15"),
    ("3.3.6", "2015-11-24"),
    ("3.3.7", "2016-07-25"),
    ("3.4.0", "2018-12-13"),
    ("3.4.1", "2019-02-13"),
    ("4.0.0", "2018-01-18"),
    ("4.1.0", "2018-04-09"),
    ("4.1.1", "2018-04-30"),
    ("4.1.2", "2018-07-12"),
    ("4.1.3", "2018-07-24"),
    ("4.2.1", "2018-12-21"),
    ("4.3.0", "2019-02-11"),
    ("4.3.1", "2019-02-13"),
    ("4.4.0", "2019-11-26"),
    ("4.4.1", "2019-11-28"),
    ("4.5.0", "2020-05-13"),
    ("4.5.1", "2020-07-06"),
    ("4.5.2", "2020-08-06"),
    ("4.5.3", "2020-10-13"),
    ("4.6.0", "2021-01-19"),
    ("4.6.1", "2021-10-26"),
    ("5.0.0", "2021-05-05"),
    ("5.0.1", "2021-05-12"),
    ("5.0.2", "2021-06-22"),
    ("5.1.0", "2021-08-04"),
    ("5.1.1", "2021-09-07"),
    ("5.1.2", "2021-10-05"),
    ("5.1.3", "2021-10-09"),
];

static JQUERY_MIGRATE: Raw = &[
    ("1.0.0", "2013-01-15"),
    ("1.1.0", "2013-02-16"),
    ("1.1.1", "2013-02-16"),
    ("1.2.0", "2013-05-01"),
    ("1.2.1", "2013-05-08"),
    ("1.3.0", "2015-09-08"),
    ("1.4.0", "2016-02-22"),
    ("1.4.1", "2016-05-20"),
    ("3.0.0", "2016-06-09"),
    ("3.0.1", "2017-09-26"),
    ("3.1.0", "2019-06-08"),
    ("3.2.0", "2020-04-10"),
    ("3.3.0", "2020-05-05"),
    ("3.3.1", "2020-05-12"),
    ("3.3.2", "2020-11-10"),
];

static JQUERY_UI: Raw = &[
    ("1.5.0", "2008-06-08"),
    ("1.6.0", "2009-01-07"),
    ("1.7.0", "2009-03-06"),
    ("1.7.1", "2009-03-19"),
    ("1.7.2", "2009-06-12"),
    ("1.8.0", "2010-03-23"),
    ("1.8.9", "2011-01-21"),
    ("1.8.16", "2011-08-18"),
    ("1.8.24", "2012-09-28"),
    ("1.9.0", "2012-10-08"),
    ("1.9.1", "2012-10-25"),
    ("1.9.2", "2012-11-23"),
    ("1.10.0", "2013-01-17"),
    ("1.10.1", "2013-02-15"),
    ("1.10.2", "2013-03-14"),
    ("1.10.3", "2013-05-03"),
    ("1.10.4", "2014-01-17"),
    ("1.11.0", "2014-06-26"),
    ("1.11.1", "2014-08-13"),
    ("1.11.2", "2014-10-16"),
    ("1.11.3", "2015-03-11"),
    ("1.11.4", "2015-03-11"),
    ("1.12.0", "2016-07-08"),
    ("1.12.1", "2016-09-14"),
    ("1.13.0", "2021-10-07"),
    ("1.13.1", "2022-01-20"),
];

static MODERNIZR: Raw = &[
    ("2.0.0", "2011-06-01"),
    ("2.5.3", "2012-02-17"),
    ("2.6.2", "2012-09-16"),
    ("2.7.0", "2013-11-25"),
    ("2.8.3", "2014-07-25"),
    ("3.0.0", "2015-06-29"),
    ("3.3.1", "2016-02-27"),
    ("3.5.0", "2017-05-03"),
    ("3.6.0", "2018-01-24"),
    ("3.7.0", "2019-01-24"),
    ("3.8.0", "2019-08-06"),
    ("3.9.1", "2020-02-10"),
    ("3.10.0", "2020-06-15"),
    ("3.11.0", "2020-09-01"),
    ("3.11.4", "2021-01-22"),
    ("3.11.8", "2021-11-30"),
];

static JS_COOKIE: Raw = &[
    ("2.0.0", "2015-04-27"),
    ("2.1.0", "2015-10-09"),
    ("2.1.1", "2016-03-02"),
    ("2.1.2", "2016-05-24"),
    ("2.1.3", "2016-10-02"),
    ("2.1.4", "2017-01-17"),
    ("2.2.0", "2017-12-05"),
    ("2.2.1", "2019-04-11"),
    ("3.0.0", "2021-06-07"),
    ("3.0.1", "2021-08-01"),
];

static UNDERSCORE: Raw = &[
    ("1.0.0", "2009-10-28"),
    ("1.3.2", "2012-01-28"),
    ("1.4.4", "2013-01-30"),
    ("1.5.2", "2013-09-07"),
    ("1.6.0", "2014-02-10"),
    ("1.7.0", "2014-08-26"),
    ("1.8.0", "2015-02-19"),
    ("1.8.1", "2015-02-19"),
    ("1.8.2", "2015-02-21"),
    ("1.8.3", "2015-04-01"),
    ("1.9.0", "2018-05-24"),
    ("1.9.1", "2018-05-30"),
    ("1.9.2", "2019-12-04"),
    ("1.10.0", "2020-02-21"),
    ("1.10.2", "2020-03-24"),
    ("1.11.0", "2020-08-28"),
    ("1.12.0", "2020-11-24"),
    ("1.12.1", "2021-03-19"),
    ("1.13.0", "2021-04-09"),
    ("1.13.1", "2021-04-14"),
    ("1.13.2", "2021-11-01"),
];

static ISOTOPE: Raw = &[
    ("1.5.26", "2013-08-14"),
    ("2.0.0", "2014-03-05"),
    ("2.1.0", "2014-10-24"),
    ("2.2.2", "2015-10-03"),
    ("3.0.0", "2016-08-26"),
    ("3.0.1", "2016-10-12"),
    ("3.0.2", "2017-01-20"),
    ("3.0.3", "2017-03-03"),
    ("3.0.4", "2017-07-21"),
    ("3.0.5", "2018-01-23"),
    ("3.0.6", "2018-06-27"),
];

static POPPER: Raw = &[
    ("1.0.0", "2016-11-01"),
    ("1.12.9", "2017-12-06"),
    ("1.14.3", "2018-05-02"),
    ("1.14.7", "2019-01-21"),
    ("1.15.0", "2019-04-09"),
    ("1.16.0", "2019-10-17"),
    ("1.16.1", "2020-01-27"),
    ("2.0.0", "2020-02-04"),
    ("2.4.4", "2020-07-27"),
    ("2.5.4", "2020-11-11"),
    ("2.9.2", "2021-04-08"),
    ("2.10.2", "2021-09-21"),
    ("2.11.0", "2021-11-05"),
    ("2.11.2", "2021-12-15"),
];

static MOMENT: Raw = &[
    ("2.0.0", "2013-02-09"),
    ("2.5.1", "2014-01-06"),
    ("2.8.1", "2014-07-24"),
    ("2.8.4", "2014-11-19"),
    ("2.9.0", "2015-01-07"),
    ("2.10.6", "2015-07-29"),
    ("2.11.0", "2015-12-23"),
    ("2.11.2", "2016-02-07"),
    ("2.13.0", "2016-04-18"),
    ("2.15.2", "2016-10-24"),
    ("2.17.1", "2016-12-03"),
    ("2.18.1", "2017-03-22"),
    ("2.19.3", "2017-11-29"),
    ("2.20.1", "2017-12-19"),
    ("2.22.2", "2018-06-01"),
    ("2.24.0", "2019-01-21"),
    ("2.25.3", "2020-05-04"),
    ("2.27.0", "2020-06-18"),
    ("2.29.0", "2020-09-22"),
    ("2.29.1", "2020-10-06"),
];

static REQUIREJS: Raw = &[
    ("2.0.0", "2012-05-30"),
    ("2.1.0", "2012-10-04"),
    ("2.1.22", "2015-12-05"),
    ("2.2.0", "2016-04-01"),
    ("2.3.0", "2016-09-01"),
    ("2.3.2", "2016-11-07"),
    ("2.3.3", "2017-02-06"),
    ("2.3.4", "2017-06-27"),
    ("2.3.5", "2017-10-27"),
    ("2.3.6", "2018-08-27"),
];

static SWFOBJECT: Raw = &[
    ("2.0", "2007-12-05"),
    ("2.1", "2008-04-02"),
    ("2.2", "2009-07-21"),
];

static PROTOTYPE: Raw = &[
    ("1.5.0", "2007-01-18"),
    ("1.5.1", "2007-05-01"),
    ("1.6.0", "2007-11-06"),
    ("1.6.0.1", "2008-01-03"),
    ("1.6.0.2", "2008-01-25"),
    ("1.6.0.3", "2008-09-29"),
    ("1.6.1", "2009-08-31"),
    ("1.7.0", "2010-11-16"),
    ("1.7.1", "2012-07-24"),
    ("1.7.2", "2014-04-04"),
    ("1.7.3", "2015-09-22"),
];

static JQUERY_COOKIE: Raw = &[
    ("1.0", "2010-09-20"),
    ("1.1", "2011-09-01"),
    ("1.2", "2012-04-20"),
    ("1.3.0", "2012-11-30"),
    ("1.3.1", "2013-02-05"),
    ("1.4.0", "2014-01-27"),
    ("1.4.1", "2014-04-10"),
];

static POLYFILL_IO: Raw = &[
    ("1", "2014-06-26"),
    ("2", "2015-09-22"),
    ("3", "2019-02-20"),
];

/// WordPress core releases (subset: the branches visible in the dataset;
/// versions the paper's events hinge on carry real dates).
pub static WORDPRESS: Raw = &[
    ("2.8.3", "2009-08-03"),
    ("3.1.3", "2011-05-25"),
    ("3.3.2", "2012-04-20"),
    ("3.5.2", "2013-06-21"),
    ("3.7", "2013-10-24"),
    ("4.0", "2014-09-04"),
    ("4.5", "2016-04-12"),
    ("4.9", "2017-11-16"),
    ("4.9.8", "2018-08-02"),
    ("5.0", "2018-12-06"),
    ("5.1", "2019-02-21"),
    ("5.2", "2019-05-07"),
    ("5.3", "2019-11-12"),
    ("5.4", "2020-03-31"),
    ("5.5", "2020-08-11"),
    ("5.5.3", "2020-10-30"),
    ("5.6", "2020-12-08"),
    ("5.7", "2021-03-09"),
    ("5.8", "2021-07-20"),
    ("5.8.3", "2022-01-06"),
    ("5.9", "2022-01-25"),
];

fn build(library: LibraryId, raw: Raw) -> Catalog {
    let mut releases: Vec<Release> = raw
        .iter()
        .map(|(v, d)| Release {
            version: Version::parse(v).unwrap_or_else(|e| panic!("catalog version {v}: {e}")),
            date: Date::parse(d).unwrap_or_else(|e| panic!("catalog date {d}: {e}")),
        })
        .collect();
    releases.sort_by(|a, b| a.version.cmp(&b.version));
    Catalog { library, releases }
}

/// Builds the release catalog for `library`.
pub fn catalog(library: LibraryId) -> Catalog {
    let raw = match library {
        LibraryId::JQuery => JQUERY,
        LibraryId::Bootstrap => BOOTSTRAP,
        LibraryId::JQueryMigrate => JQUERY_MIGRATE,
        LibraryId::JQueryUi => JQUERY_UI,
        LibraryId::Modernizr => MODERNIZR,
        LibraryId::JsCookie => JS_COOKIE,
        LibraryId::Underscore => UNDERSCORE,
        LibraryId::Isotope => ISOTOPE,
        LibraryId::Popper => POPPER,
        LibraryId::MomentJs => MOMENT,
        LibraryId::RequireJs => REQUIREJS,
        LibraryId::SwfObject => SWFOBJECT,
        LibraryId::Prototype => PROTOTYPE,
        LibraryId::JQueryCookie => JQUERY_COOKIE,
        LibraryId::PolyfillIo => POLYFILL_IO,
    };
    build(library, raw)
}

/// Builds the WordPress core release catalog (not a JS library; modelled
/// separately because it drives the §7 auto-update attribution).
pub fn wordpress_catalog() -> Vec<Release> {
    let mut releases: Vec<Release> = WORDPRESS
        .iter()
        .map(|(v, d)| Release {
            version: Version::parse(v).unwrap_or_else(|e| panic!("wp version {v}: {e}")),
            date: Date::parse(d).unwrap_or_else(|e| panic!("wp date {d}: {e}")),
        })
        .collect();
    releases.sort_by(|a, b| a.version.cmp(&b.version));
    releases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (position, lib) in LibraryId::ALL.into_iter().enumerate() {
            assert_eq!(lib.index(), position, "{lib}");
        }
    }

    #[test]
    fn slugs_round_trip() {
        for lib in LibraryId::ALL {
            assert_eq!(LibraryId::from_slug(lib.slug()), Some(lib));
        }
        assert_eq!(LibraryId::from_slug("angular"), None);
    }

    #[test]
    fn all_catalogs_build_and_are_sorted() {
        for lib in LibraryId::ALL {
            let cat = catalog(lib);
            assert!(!cat.is_empty(), "{lib} has releases");
            for w in cat.releases.windows(2) {
                assert!(
                    w[0].version < w[1].version,
                    "{lib}: {} !< {}",
                    w[0].version,
                    w[1].version
                );
            }
        }
    }

    #[test]
    fn paper_critical_jquery_dates() {
        let cat = catalog(LibraryId::JQuery);
        let d = |v: &str| {
            cat.release_date(&Version::parse(v).expect("version"))
                .unwrap_or_else(|| panic!("{v} in catalog"))
        };
        assert_eq!(
            d("1.12.4"),
            Date::new(2016, 5, 20),
            "dominant version, May 2016"
        );
        assert_eq!(d("3.0.0"), Date::new(2016, 6, 9));
        assert_eq!(
            d("3.5.0"),
            Date::new(2020, 4, 10),
            "patch for CVE-2020-11022/3"
        );
        assert_eq!(
            d("1.9.0"),
            Date::new(2013, 1, 15),
            "patch for CVE-2020-7656"
        );
        assert_eq!(
            d("3.4.0"),
            Date::new(2019, 4, 10),
            "patch for CVE-2019-11358"
        );
    }

    #[test]
    fn latest_versions_match_table1() {
        let latest = |lib| catalog(lib).latest().version.to_string();
        assert_eq!(latest(LibraryId::JQuery), "3.6.0");
        assert_eq!(latest(LibraryId::Bootstrap), "5.1.3");
        assert_eq!(latest(LibraryId::JQueryMigrate), "3.3.2");
        assert_eq!(latest(LibraryId::JQueryUi), "1.13.1");
        assert_eq!(latest(LibraryId::Modernizr), "3.11.8");
        assert_eq!(latest(LibraryId::JsCookie), "3.0.1");
        assert_eq!(latest(LibraryId::Underscore), "1.13.2");
        assert_eq!(latest(LibraryId::Isotope), "3.0.6");
        assert_eq!(latest(LibraryId::Popper), "2.11.2");
        assert_eq!(latest(LibraryId::MomentJs), "2.29.1");
        assert_eq!(latest(LibraryId::RequireJs), "2.3.6");
        assert_eq!(latest(LibraryId::SwfObject), "2.2");
        assert_eq!(latest(LibraryId::Prototype), "1.7.3");
        assert_eq!(latest(LibraryId::JQueryCookie), "1.4.1");
        assert_eq!(latest(LibraryId::PolyfillIo), "3");
    }

    #[test]
    fn availability_respects_dates() {
        let cat = catalog(LibraryId::JQuery);
        let mid_2019 = Date::new(2019, 6, 1);
        let latest = cat.latest_at(mid_2019).expect("jQuery existed in 2019");
        assert_eq!(latest.version.to_string(), "3.4.1");
        assert!(cat.available_at(mid_2019).all(|r| r.date <= mid_2019));
        // 3.5.0 is not yet available mid-2019.
        assert!(!cat
            .available_at(mid_2019)
            .any(|r| r.version.to_string() == "3.5.0"));
    }

    #[test]
    fn latest_within_major() {
        let cat = catalog(LibraryId::JQuery);
        let late_2020 = Date::new(2020, 12, 1);
        let in_1x = cat.latest_at_in_major(late_2020, 1).expect("1.x exists");
        assert_eq!(in_1x.version.to_string(), "1.12.4");
        let in_3x = cat.latest_at_in_major(late_2020, 3).expect("3.x exists");
        assert_eq!(in_3x.version.to_string(), "3.5.1");
        assert!(cat.latest_at_in_major(late_2020, 9).is_none());
    }

    #[test]
    fn discontinued_flags() {
        assert!(LibraryId::SwfObject.is_discontinued());
        assert!(LibraryId::JQueryCookie.is_discontinued());
        assert!(!LibraryId::JQuery.is_discontinued());
    }

    #[test]
    fn wordpress_catalog_has_event_versions() {
        let wp = wordpress_catalog();
        let find = |s: &str| {
            wp.iter()
                .find(|r| r.version == Version::parse(s).expect("version"))
                .unwrap_or_else(|| panic!("{s} present"))
        };
        assert_eq!(find("5.5").date, Date::new(2020, 8, 11), "Migrate disabled");
        assert_eq!(
            find("5.6").date,
            Date::new(2020, 12, 8),
            "Migrate re-enabled + jQuery 3.5.1"
        );
    }

    #[test]
    fn slug_and_name_are_distinct_per_library() {
        use std::collections::HashSet;
        let names: HashSet<_> = LibraryId::ALL.iter().map(|l| l.name()).collect();
        let slugs: HashSet<_> = LibraryId::ALL.iter().map(|l| l.slug()).collect();
        assert_eq!(names.len(), 15);
        assert_eq!(slugs.len(), 15);
    }
}
