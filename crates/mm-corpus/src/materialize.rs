//! Materialization: render a [`SitePlan`] into a full [`StoredSite`] with
//! real HTTP bodies whose embedded URLs realize the planned reference DAG.

use bytes::{BufMut, Bytes, BytesMut};
use mm_http::{HeaderMap, Request, Response, Version};
use mm_net::SocketAddr;
use mm_record::{RequestResponsePair, Scheme, StoredSite};

use crate::plan::{ObjectKind, SitePlan};

/// Render one object's body: the URLs of its referenced children embedded
/// in filler up to the planned size.
fn render_body(plan: &SitePlan, idx: usize) -> Bytes {
    let obj = &plan.objects[idx];
    let mut out = BytesMut::with_capacity(obj.size + 64);
    match obj.kind {
        ObjectKind::Html => out.put_slice(b"<!doctype html><html>\n"),
        ObjectKind::Css => out.put_slice(b"/* generated stylesheet */\n"),
        ObjectKind::Js => out.put_slice(b"// generated script\n"),
        _ => {}
    }
    for &child in &obj.references {
        let url = plan.url_of(child);
        match obj.kind {
            ObjectKind::Html => {
                out.put_slice(format!("<link href=\"{url}\">\n").as_bytes());
            }
            ObjectKind::Css => {
                out.put_slice(format!("@import url({url});\n").as_bytes());
            }
            _ => {
                out.put_slice(format!("load(\"{url}\");\n").as_bytes());
            }
        }
    }
    // Pad to the planned size with inert filler.
    while out.len() < obj.size {
        let want = obj.size - out.len();
        let filler = b"/* lorem ipsum dolor sit amet, consectetur adipiscing elit */\n";
        out.put_slice(&filler[..want.min(filler.len())]);
    }
    out.freeze()
}

/// Build the recorded response for object `idx`.
fn render_response(plan: &SitePlan, idx: usize, body: Bytes) -> Response {
    let obj = &plan.objects[idx];
    let mut headers = HeaderMap::with_capacity(4, 128);
    headers.append("Content-Type", obj.kind.content_type());
    headers.set_content_length(body.len());
    headers.append("Server", "mm-corpus/0.1");
    headers.append("Cache-Control", "max-age=0");
    Response {
        version: Version::Http11,
        status: 200,
        reason: "OK".to_string(),
        headers,
        body,
    }
}

/// Materialize the plan into a recorded site.
///
/// Bodies can dominate memory for heavy sites, so callers working through
/// a corpus should materialize one site at a time and drop it after use.
pub fn materialize(plan: &SitePlan) -> StoredSite {
    let mut site = StoredSite::new(plan.name.clone(), plan.root_url());
    for (idx, obj) in plan.objects.iter().enumerate() {
        let origin = plan.origins[obj.origin_idx];
        let addr = SocketAddr::new(origin.ip, origin.port);
        // Must agree with the Host header a browser derives from the
        // embedded URL: corpus URLs are all http://-schemed, so only
        // port 80 elides the port suffix.
        let host_header = if origin.port == 80 {
            origin.ip.to_string()
        } else {
            format!("{}:{}", origin.ip, origin.port)
        };
        let body = render_body(plan, idx);
        site.push(RequestResponsePair {
            origin: addr,
            scheme: if origin.port == 443 {
                Scheme::Https
            } else {
                Scheme::Http
            },
            request: Request::get(obj.path.clone(), host_header),
            response: render_response(plan, idx, body),
        });
    }
    site
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_site, SiteParams};
    use mm_browser::extract_urls;
    use mm_sim::RngStream;

    fn sample() -> (SitePlan, StoredSite) {
        let plan = plan_site(0, &SiteParams::default(), &mut RngStream::from_seed(4));
        let site = materialize(&plan);
        (plan, site)
    }

    #[test]
    fn one_pair_per_object() {
        let (plan, site) = sample();
        assert_eq!(site.pairs.len(), plan.objects.len());
    }

    #[test]
    fn body_sizes_match_plan() {
        let (plan, site) = sample();
        for (obj, pair) in plan.objects.iter().zip(site.pairs.iter()) {
            // Body is at least the planned size and within slack of it.
            assert!(pair.response.body.len() >= obj.size);
            assert!(pair.response.body.len() <= obj.size + 64);
        }
    }

    #[test]
    fn embedded_urls_realize_the_dag() {
        let (plan, site) = sample();
        let root_body = &site.pairs[0].response.body;
        let urls = extract_urls(root_body);
        assert_eq!(
            urls.len(),
            plan.objects[0].references.len(),
            "root references all its planned children"
        );
        for (&child, url) in plan.objects[0].references.iter().zip(&urls) {
            assert_eq!(url.to_string(), plan.url_of(child));
        }
    }

    /// What `Url::parse` then `Display` made of `s` while a URL was
    /// three `String`s and its authority ended only at `/`.
    fn display_before(s: &str) -> Option<String> {
        let (scheme, rest) = s.split_once("://")?;
        if scheme != "http" && scheme != "https" {
            return None;
        }
        let (authority, target) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => (h, p.parse::<u16>().ok()?),
            None => (authority, if scheme == "https" { 443 } else { 80 }),
        };
        (!host.is_empty()).then(|| format!("{scheme}://{host}:{port}{target}"))
    }

    #[test]
    fn every_corpus_url_displays_as_it_did() {
        let plans = crate::generate_plans(&crate::CorpusConfig::default());
        let mut urls = 0;
        for plan in &plans {
            for idx in 0..plan.objects.len() {
                let s = plan.url_of(idx);
                let url = mm_http::Url::parse(&s).expect("a corpus URL parses");
                assert_eq!(Some(url.to_string()), display_before(&s), "{s}");
                urls += 1;
            }
        }
        assert!(urls > 10_000, "{urls} URLs");
    }

    #[test]
    fn server_ip_count_matches_plan() {
        let (plan, site) = sample();
        assert_eq!(site.server_ips().len(), plan.server_count());
    }

    #[test]
    fn responses_have_consistent_framing() {
        let (_, site) = sample();
        for p in site.pairs.iter() {
            assert_eq!(
                p.response.headers.content_length(),
                Some(p.response.body.len() as u64)
            );
            assert!(!p.response.headers.is_chunked());
        }
    }

    #[test]
    fn https_origins_tagged() {
        let (plan, site) = sample();
        for (obj, pair) in plan.objects.iter().zip(site.pairs.iter()) {
            let port = plan.origins[obj.origin_idx].port;
            assert_eq!(pair.scheme == Scheme::Https, port == 443);
        }
    }
}
