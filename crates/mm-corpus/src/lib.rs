//! # mm-corpus — the synthetic Alexa-like corpus
//!
//! The paper's experiments run over a recorded corpus of the Alexa US Top
//! 500 (<https://github.com/ravinet/sites>), which is not redistributable
//! here. This crate synthesizes a 500-site corpus calibrated to every
//! corpus-level statistic the paper reports (median 20 servers/site, 95th
//! percentile 51, exactly 9 single-server pages) plus presets for the
//! specific pages it measures (CNBC, wikiHow, nytimes).
//!
//! Structure ([`plan_site`]) is cheap and generated for the whole corpus at
//! once; bodies ([`materialize()`]) are rendered per site on demand.

mod corpus;
mod materialize;
mod plan;
mod presets;

pub use corpus::{generate_plans, server_distribution, CorpusConfig, ServerDistribution};
pub use materialize::materialize;
pub use plan::{plan_site, PlannedObject, PlannedOrigin, SiteParams, SitePlan};
pub use presets::{cnbc_like, nytimes_like, wikihow_like};
