//! The full synthetic web: all domains, queryable per week, exposed as a
//! [`webvuln_net::Handler`] so the crawler fetches it over the real HTTP
//! codec.

use crate::domain::{DomainModel, DomainState};
use crate::render::{antibot_page, render_page};
use crate::timeline::Timeline;
use std::collections::HashMap;
use std::sync::Arc;
use webvuln_net::{Executor, Handler, Request, Response, Status};

/// Configuration of the synthetic web.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcosystemConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of domains in the Alexa-style list.
    pub domain_count: usize,
    /// Snapshot timeline.
    pub timeline: Timeline,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 42,
            domain_count: 5_000,
            timeline: Timeline::paper(),
        }
    }
}

/// The generated web: an Alexa-style ranked list of domain models.
pub struct Ecosystem {
    config: EcosystemConfig,
    models: Vec<DomainModel>,
    index: HashMap<String, usize>,
}

impl Ecosystem {
    /// Generates the whole population (deterministic in the config) on
    /// one worker per available core.
    pub fn generate(config: EcosystemConfig) -> Ecosystem {
        Ecosystem::generate_on(config, 0)
    }

    /// [`generate`](Ecosystem::generate) on `threads` workers (`0`: one
    /// per available core). A domain's model is a pure function of the
    /// seed and its rank, so the thread count never changes the web.
    pub fn generate_on(config: EcosystemConfig, threads: usize) -> Ecosystem {
        let ranks: Vec<usize> = (1..=config.domain_count).collect();
        let models = Executor::new(threads).map(&ranks, |&rank| {
            DomainModel::generate(config.seed, rank, config.domain_count, &config.timeline)
        });
        let index = models
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), i))
            .collect();
        Ecosystem {
            config,
            models,
            index,
        }
    }

    /// The configuration used to generate this web.
    pub fn config(&self) -> &EcosystemConfig {
        &self.config
    }

    /// The timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.config.timeline
    }

    /// The ranked domain list (rank = position + 1).
    pub fn domain_names(&self) -> Vec<String> {
        self.models.iter().map(|m| m.name.clone()).collect()
    }

    /// All models, rank order.
    pub fn models(&self) -> &[DomainModel] {
        &self.models
    }

    /// Looks a model up by host name.
    pub fn model(&self, host: &str) -> Option<&DomainModel> {
        self.index.get(host).map(|&i| &self.models[i])
    }

    /// Resolved state of `host` at `week`.
    pub fn state(&self, host: &str, week: usize) -> Option<DomainState> {
        self.model(host).map(|m| m.state_at(week))
    }

    /// What the web serves for `host` at `week`.
    pub fn page(&self, host: &str, week: usize) -> PageOutcome {
        let Some(model) = self.model(host) else {
            return PageOutcome::UnknownHost;
        };
        let state = model.state_at(week);
        if !state.online {
            return PageOutcome::Offline;
        }
        if state.antibot {
            // The paper saw both flavours: 4xx blocks and 200-status
            // "Not allowed" stub pages. Alternate deterministically.
            return if model.rank % 2 == 0 {
                PageOutcome::Blocked(antibot_page())
            } else {
                PageOutcome::Forbidden
            };
        }
        PageOutcome::Page(render_page(host, week, &state))
    }

    /// Wraps the ecosystem as an HTTP handler serving snapshot `week`.
    pub fn handler(self: &Arc<Self>, week: usize) -> WeekHandler {
        WeekHandler {
            ecosystem: Arc::clone(self),
            week,
        }
    }
}

/// Outcome of requesting a landing page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOutcome {
    /// Host not in the list (NXDOMAIN-ish).
    UnknownHost,
    /// Domain dead/unreachable this week.
    Offline,
    /// Anti-bot block with a 403.
    Forbidden,
    /// Anti-bot stub page served with a 200 (under 400 bytes).
    Blocked(String),
    /// A real landing page.
    Page(String),
}

/// [`Handler`] serving one snapshot week of the ecosystem.
pub struct WeekHandler {
    ecosystem: Arc<Ecosystem>,
    week: usize,
}

impl Handler for WeekHandler {
    fn handle(&self, req: &Request) -> Response {
        let Some(host) = req.host() else {
            return Response::status(Status::BAD_REQUEST);
        };
        match self.ecosystem.page(host, self.week) {
            PageOutcome::UnknownHost => Response::status(Status::NOT_FOUND),
            // Offline domains at the HTTP layer surface as 503; the
            // inaccessibility filter treats them like refused connections.
            PageOutcome::Offline => Response::status(Status::SERVICE_UNAVAILABLE),
            PageOutcome::Forbidden => Response::status(Status::FORBIDDEN),
            PageOutcome::Blocked(body) => Response::html(body),
            PageOutcome::Page(body) => Response::html(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_net::{CrawlOptions, VirtualNet};

    fn small() -> Arc<Ecosystem> {
        Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 1,
            domain_count: 300,
            timeline: Timeline::truncated(12),
        }))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Ecosystem::generate(EcosystemConfig {
            seed: 5,
            domain_count: 100,
            timeline: Timeline::truncated(4),
        });
        let b = Ecosystem::generate(EcosystemConfig {
            seed: 5,
            domain_count: 100,
            timeline: Timeline::truncated(4),
        });
        assert_eq!(a.domain_names(), b.domain_names());
        for name in a.domain_names() {
            assert_eq!(a.state(&name, 3), b.state(&name, 3));
        }
    }

    #[test]
    fn unknown_host_is_distinguished() {
        let eco = small();
        assert_eq!(
            eco.page("not-a-domain.example", 0),
            PageOutcome::UnknownHost
        );
    }

    #[test]
    fn online_domains_serve_real_pages() {
        let eco = small();
        let mut pages = 0;
        for name in eco.domain_names() {
            if let PageOutcome::Page(body) = eco.page(&name, 0) {
                assert!(body.len() >= 400, "{name}");
                assert!(body.contains(&name));
                pages += 1;
            }
        }
        assert!(pages > 150, "most of the web serves pages: {pages}");
    }

    #[test]
    fn crawler_end_to_end_over_virtual_net() {
        let eco = small();
        let net = VirtualNet::new(Arc::new(eco.handler(0)));
        let names = eco.domain_names();
        let snapshot = CrawlOptions::new().threads(4).run(&names, &net);
        assert_eq!(snapshot.len(), names.len());
        let usable = snapshot.values().filter(|r| r.is_usable(400)).count();
        assert!(
            (150..=290).contains(&usable),
            "{usable} of {} usable",
            names.len()
        );
        // Served bodies match the generator's output exactly.
        let some_ok = snapshot
            .values()
            .find(|r| r.is_usable(400))
            .expect("at least one usable page");
        match eco.page(&some_ok.domain, 0) {
            PageOutcome::Page(body) => assert_eq!(body, some_ok.body),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn antibot_pages_come_in_both_flavours() {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 3,
            domain_count: 4_000,
            timeline: Timeline::truncated(40),
        }));
        let week = 39;
        let mut forbidden = 0;
        let mut stub = 0;
        for name in eco.domain_names() {
            match eco.page(&name, week) {
                PageOutcome::Forbidden => forbidden += 1,
                PageOutcome::Blocked(body) => {
                    assert!(body.len() < 400);
                    stub += 1;
                }
                _ => {}
            }
        }
        assert!(forbidden > 0, "some 403 blocks");
        assert!(stub > 0, "some 200-status stub blocks");
    }

    #[test]
    fn week_handler_serves_status_codes() {
        let eco = small();
        let handler = eco.handler(0);
        let resp = handler.handle(&Request::get("missing.example", "/"));
        assert_eq!(resp.status, Status::NOT_FOUND);
        let name = eco.domain_names()[0].clone();
        let resp = handler.handle(&Request::get(&name, "/"));
        assert!(
            [200u16, 403, 503].contains(&resp.status.0),
            "{}",
            resp.status
        );
    }
}
