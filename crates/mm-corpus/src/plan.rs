//! Site plans: the structural skeleton of a synthetic recorded site.
//!
//! A [`SitePlan`] captures everything that determines load behaviour —
//! origins, objects, sizes, types, and the reference graph — without the
//! body bytes. Plans are cheap (the whole 500-site corpus fits in memory),
//! and are materialized into full [`mm_record::StoredSite`]s one at a time
//! by [`crate::materialize()`].
//!
//! Calibration targets from the paper (§4, "Multi-origin Web pages"):
//! across the Alexa US Top 500, the median number of physical servers per
//! site is 20, the 95th percentile is 51, and exactly 9 pages use a single
//! server.

use mm_sim::dist::{Distribution, LogNormal, Weighted};
use mm_sim::RngStream;

/// Resource types with distinct size distributions and reference behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjectKind {
    Html,
    Css,
    Js,
    Image,
    Font,
    Other,
}

impl ObjectKind {
    /// The content type served for this kind.
    pub(crate) fn content_type(self) -> &'static str {
        match self {
            ObjectKind::Html => "text/html; charset=utf-8",
            ObjectKind::Css => "text/css",
            ObjectKind::Js => "application/javascript",
            ObjectKind::Image => "image/jpeg",
            ObjectKind::Font => "font/woff2",
            ObjectKind::Other => "application/octet-stream",
        }
    }

    /// Can bodies of this kind reference further resources?
    pub(crate) fn scannable(self) -> bool {
        matches!(self, ObjectKind::Html | ObjectKind::Css | ObjectKind::Js)
    }

    /// File extension used in generated paths.
    pub(crate) fn ext(self) -> &'static str {
        match self {
            ObjectKind::Html => "html",
            ObjectKind::Css => "css",
            ObjectKind::Js => "js",
            ObjectKind::Image => "jpg",
            ObjectKind::Font => "woff2",
            ObjectKind::Other => "bin",
        }
    }
}

/// One planned object.
#[derive(Debug, Clone)]
pub struct PlannedObject {
    /// Index of the origin serving this object (into `SitePlan::origins`).
    pub(crate) origin_idx: usize,
    pub(crate) kind: ObjectKind,
    /// Body size in bytes.
    pub(crate) size: usize,
    /// Path (unique per site), e.g. `/asset/17.jpg`.
    pub(crate) path: String,
    /// Indices of objects this object's body references (its children in
    /// the discovery DAG).
    pub(crate) references: Vec<usize>,
}

/// A planned origin server.
#[derive(Debug, Clone, Copy)]
pub struct PlannedOrigin {
    /// Server IP, allocated deterministically per site.
    pub(crate) ip: mm_net::IpAddr,
    pub(crate) port: u16,
}

/// The structural plan for one site.
#[derive(Debug, Clone)]
pub struct SitePlan {
    pub name: String,
    pub origins: Vec<PlannedOrigin>,
    /// Objects; index 0 is always the root document.
    pub objects: Vec<PlannedObject>,
}

impl SitePlan {
    /// Number of distinct server IPs (the paper's statistic).
    pub fn server_count(&self) -> usize {
        let mut ips: Vec<_> = self.origins.iter().map(|o| o.ip).collect();
        ips.sort_unstable();
        ips.dedup();
        ips.len()
    }

    /// Total planned body bytes (page weight).
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.size as u64).sum()
    }

    /// The root document's absolute URL.
    pub(crate) fn root_url(&self) -> String {
        let o = self.origins[self.objects[0].origin_idx];
        format!("http://{}:{}{}", o.ip, o.port, self.objects[0].path)
    }

    /// Absolute URL of object `idx`.
    pub(crate) fn url_of(&self, idx: usize) -> String {
        let obj = &self.objects[idx];
        let o = self.origins[obj.origin_idx];
        format!("http://{}:{}{}", o.ip, o.port, obj.path)
    }
}

/// Tunable knobs for site generation.
#[derive(Debug, Clone)]
pub struct SiteParams {
    /// Exact number of distinct servers, or `None` to draw from the
    /// calibrated distribution.
    pub servers: Option<usize>,
    /// Median of the object-count distribution (excluding the root).
    pub median_objects: f64,
    /// Lognormal sigma of the object count (small for presets that pin a
    /// page's size).
    pub objects_sigma: f64,
    /// Median object size in bytes (kind-specific scaling applies).
    pub median_object_bytes: f64,
    /// Probability an extra origin beyond the first is HTTPS (port 443).
    pub https_prob: f64,
    /// Probability a scannable non-root object references children
    /// (dependency depth beyond the root).
    pub nested_ref_prob: f64,
}

impl Default for SiteParams {
    fn default() -> Self {
        SiteParams {
            servers: None,
            median_objects: 55.0,
            objects_sigma: 0.45,
            median_object_bytes: 14_000.0,
            https_prob: 0.3,
            nested_ref_prob: 0.25,
        }
    }
}

/// Draw a server count from the calibrated Alexa-like distribution
/// (lognormal with median 20; σ chosen so the 95th percentile ≈ 51).
pub(crate) fn draw_server_count(rng: &mut RngStream) -> usize {
    // q95/median = exp(1.645 σ) = 51/20 ⇒ σ ≈ 0.5688.
    let d = LogNormal::with_median(20.0, 0.5688);
    (d.sample(rng).round() as usize).clamp(2, 120)
}

/// Generate the plan for one site. `site_idx` determines the IP block so
/// corpus-wide addresses never collide.
pub fn plan_site(site_idx: usize, params: &SiteParams, rng: &mut RngStream) -> SitePlan {
    let n_servers = params.servers.unwrap_or_else(|| draw_server_count(rng));
    assert!(n_servers >= 1);

    // Allocate one IP per server inside this site's /20-equivalent block.
    let base: u32 = 0x1700_0000 + (site_idx as u32) * 4096; // 23.0.0.0/8 pool
    let mut origins: Vec<PlannedOrigin> = Vec::new();
    let mut server_origin: Vec<usize> = Vec::new(); // server -> origin idx
    for s in 0..n_servers {
        let ip = mm_net::IpAddr(base + s as u32 + 1);
        let https = s > 0 && rng.gen_bool(params.https_prob);
        server_origin.push(origins.len());
        origins.push(PlannedOrigin {
            ip,
            port: if https { 443 } else { 80 },
        });
    }

    // Object count: lognormal, at least 3 (root + a couple of assets)
    // unless single-server microsites.
    let count_dist = LogNormal::with_median(params.median_objects, params.objects_sigma);
    let n_objects = (count_dist.sample(rng).round() as usize).clamp(3, 400);

    // Object kind mix, roughly HTTP-Archive-2014: images dominate.
    let kind_dist = Weighted::new(vec![
        (ObjectKind::Image, 0.56),
        (ObjectKind::Js, 0.18),
        (ObjectKind::Css, 0.08),
        (ObjectKind::Font, 0.05),
        (ObjectKind::Html, 0.04),
        (ObjectKind::Other, 0.09),
    ]);

    // Server popularity: origin 0 (the root's server) and a couple of
    // "CDN" servers carry more objects; the tail carries one or two each
    // (trackers, beacons). Weights ~ Zipf.
    let server_weights: Vec<(usize, f64)> = (0..n_servers)
        .map(|s| (s, 1.0 / (1.0 + s as f64).powf(0.8)))
        .collect();
    let server_pick = Weighted::new(server_weights);

    let mut objects: Vec<PlannedObject> = Vec::new();
    // Root document.
    let root_size = LogNormal::with_median(45_000.0, 0.6).sample(rng).round() as usize;
    objects.push(PlannedObject {
        origin_idx: server_origin[0],
        kind: ObjectKind::Html,
        size: root_size.clamp(5_000, 400_000),
        path: "/".to_string(),
        references: Vec::new(),
    });

    for i in 0..n_objects {
        let kind = kind_dist.sample(rng);
        let median = match kind {
            ObjectKind::Html => params.median_object_bytes * 1.5,
            ObjectKind::Css => params.median_object_bytes * 1.2,
            ObjectKind::Js => params.median_object_bytes * 1.8,
            ObjectKind::Image => params.median_object_bytes,
            ObjectKind::Font => params.median_object_bytes * 1.6,
            ObjectKind::Other => params.median_object_bytes * 0.5,
        };
        let size = (LogNormal::with_median(median, 0.9).sample(rng).round() as usize)
            .clamp(200, 2_000_000);
        let server = server_pick.sample(rng);
        objects.push(PlannedObject {
            origin_idx: server_origin[server],
            kind,
            size,
            path: format!("/asset/{i}.{}", kind.ext()),
            references: Vec::new(),
        });
    }

    // Ensure every server hosts at least one object so the realized site
    // has exactly n_servers distinct IPs.
    for (s, &origin_idx) in server_origin.iter().enumerate() {
        let hosted = objects.iter().any(|o| o.origin_idx == origin_idx);
        if !hosted {
            objects.push(PlannedObject {
                origin_idx,
                kind: ObjectKind::Image,
                size: 800, // tracking-pixel-sized
                path: format!("/beacon/{s}.gif"),
                references: Vec::new(),
            });
        }
    }

    // Wire the discovery DAG: the root references a first wave; scannable
    // non-root objects may reference a second wave; leftovers attach to
    // the root (browsers discover most resources in the main document).
    let n = objects.len();
    let mut assigned = vec![false; n];
    assigned[0] = true;
    // Scannable candidates that could parent second-wave objects.
    let mut parents: Vec<usize> = Vec::new();
    // First wave: ~70% of objects hang off the root.
    for idx in 1..n {
        if rng.gen_bool(0.7) {
            objects[0].references.push(idx);
            assigned[idx] = true;
            if objects[idx].kind.scannable() && rng.gen_bool(params.nested_ref_prob) {
                parents.push(idx);
            }
        }
    }
    // Second wave: remaining objects attach to a scannable parent when one
    // exists, otherwise to the root.
    for (idx, done) in assigned.iter_mut().enumerate().take(n).skip(1) {
        if *done {
            continue;
        }
        if parents.is_empty() {
            objects[0].references.push(idx);
        } else {
            let p = *rng.choose(&parents);
            objects[p].references.push(idx);
        }
        *done = true;
    }

    SitePlan {
        name: format!("site-{site_idx}.example"),
        origins,
        objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::from_seed(42)
    }

    #[test]
    fn plan_has_root_and_objects() {
        let p = plan_site(0, &SiteParams::default(), &mut rng());
        assert_eq!(p.objects[0].path, "/");
        assert!(p.objects.len() > 3);
        assert!(p.server_count() >= 2);
        assert!(p.root_url().starts_with("http://23."));
    }

    #[test]
    fn forced_server_count_respected() {
        let params = SiteParams {
            servers: Some(1),
            ..SiteParams::default()
        };
        let p = plan_site(7, &params, &mut rng());
        assert_eq!(p.server_count(), 1);
        let params = SiteParams {
            servers: Some(33),
            ..SiteParams::default()
        };
        let p = plan_site(8, &params, &mut rng());
        assert_eq!(p.server_count(), 33);
    }

    #[test]
    fn every_origin_hosts_something() {
        let p = plan_site(3, &SiteParams::default(), &mut rng());
        for (i, _o) in p.origins.iter().enumerate() {
            assert!(
                p.objects.iter().any(|obj| obj.origin_idx == i),
                "origin {i} hosts nothing"
            );
        }
    }

    #[test]
    fn dag_covers_all_objects_without_cycles() {
        let p = plan_site(5, &SiteParams::default(), &mut rng());
        // Walk from the root; every object must be reachable exactly once.
        let mut seen = vec![false; p.objects.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visits = 0;
        while let Some(idx) = stack.pop() {
            visits += 1;
            assert!(visits <= p.objects.len(), "cycle detected");
            for &child in &p.objects[idx].references {
                assert!(!seen[child], "object {child} referenced twice");
                seen[child] = true;
                stack.push(child);
            }
        }
        assert!(seen.iter().all(|&s| s), "unreachable objects");
    }

    #[test]
    fn server_count_distribution_calibrated() {
        let mut rng = rng();
        let mut counts: Vec<usize> = (0..2000).map(|_| draw_server_count(&mut rng)).collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let p95 = counts[(counts.len() as f64 * 0.95) as usize];
        assert!((18..=22).contains(&median), "median {median}");
        assert!((44..=58).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn ip_blocks_disjoint_across_sites() {
        let a = plan_site(0, &SiteParams::default(), &mut rng());
        let b = plan_site(1, &SiteParams::default(), &mut RngStream::from_seed(43));
        let ips_a: std::collections::HashSet<_> = a.origins.iter().map(|o| o.ip).collect();
        for o in &b.origins {
            assert!(!ips_a.contains(&o.ip));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p1 = plan_site(9, &SiteParams::default(), &mut RngStream::from_seed(1));
        let p2 = plan_site(9, &SiteParams::default(), &mut RngStream::from_seed(1));
        assert_eq!(p1.total_bytes(), p2.total_bytes());
        assert_eq!(p1.server_count(), p2.server_count());
        assert_eq!(p1.objects.len(), p2.objects.len());
    }
}
