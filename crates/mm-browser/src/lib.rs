//! # mm-browser — the page-load model
//!
//! A browser for the simulated network: per-origin connection pools,
//! HTTP/1.1 fetching over the mm-net TCP stack, subresource discovery by
//! scanning fetched bodies ([`scan`]), and page-load-time measurement
//! ([`browser`]). The paper's PLT metric — navigation start to last
//! resource complete — is what [`browser::PageLoadResult::plt`] reports.

pub mod browser;
pub mod scan;

pub use browser::{Browser, BrowserConfig, PageLoadResult, ProtocolMode, Resolver, ResourceTiming};
pub use mm_mux::MuxConfig;
pub use scan::extract_urls;
