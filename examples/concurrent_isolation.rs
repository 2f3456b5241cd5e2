//! Isolation: "each namespace created by Mahimahi is separate from the
//! host machine's default namespace and every other namespace", so many
//! emulation stacks can run concurrently without perturbing each other.
//!
//! This example runs the same measurement (a) alone and (b) while 7 other
//! shell stacks hammer their own replay servers in sibling namespaces of
//! the same world, and shows the measured PLT is bit-identical. It then
//! prints the namespace counters proving zero cross-traffic.
//!
//! Run with: `cargo run --release --example concurrent_isolation`

use std::cell::RefCell;
use std::rc::Rc;

use mahimahi::browser::{Browser, BrowserConfig, PageLoadResult};
use mahimahi::corpus;
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr};
use mm_replay::{ReplayConfig, ReplayShell};
use mm_shells::ShellStack;
use mm_sim::{RngStream, SimDuration, Simulator};

/// One running measurement stack. The browser owns the stack — its host,
/// and through the resolver the replay servers — so the load runs for as
/// long as this is held.
struct Stack {
    plt: Rc<RefCell<Option<PageLoadResult>>>,
    inner: Namespace,
    _browser: Browser,
}

/// Build one measurement stack (replay servers + delay shell + browser)
/// inside `world`, as a child namespace subtree.
fn build_stack(sim_seed: u64, site_idx: usize, world: &Namespace, sim: &mut Simulator) -> Stack {
    let plan = corpus::plan_site(
        site_idx,
        &corpus::SiteParams {
            servers: Some(8),
            median_objects: 25.0,
            ..Default::default()
        },
        &mut RngStream::from_seed(sim_seed),
    );
    let site = corpus::materialize(&plan);

    // Each stack gets its own subtree: a "machine" namespace under the
    // world, containing replay servers and a delay shell with the browser
    // inside — fully private addresses and traffic.
    let machine = Namespace::root(&format!("machine-{site_idx}"));
    world.attach_child(&machine, world.router(), machine.router());
    let ids = PacketIdGen::new();
    let shell = Rc::new(ReplayShell::new(
        &machine,
        &site,
        ReplayConfig::default(),
        &ids,
    ));
    let stack = ShellStack::new(&machine).delay(SimDuration::from_millis(20));
    let inner = stack.innermost();
    let host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &inner);
    let resolver: mahimahi::browser::Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &mm_http::Url| {
            Some(shell.resolve(SocketAddr::new(url.host().parse().unwrap(), url.port())))
        })
    };
    let browser = Browser::new(host, resolver, BrowserConfig::default());
    let slot = Rc::new(RefCell::new(None));
    let s2 = slot.clone();
    let root_url = site.root_url.clone();
    browser.navigate(sim, &root_url, move |_s, r| *s2.borrow_mut() = Some(r));
    Stack {
        plt: slot,
        inner,
        _browser: browser,
    }
}

fn main() {
    // Run 1: the measurement alone.
    let mut sim = Simulator::new();
    let world = Namespace::root("host-machine");
    let alone = build_stack(1, 10, &world, &mut sim);
    sim.run();
    let alone_plt = alone.plt.borrow().as_ref().unwrap().plt;
    println!("measurement alone:        PLT {alone_plt}");

    // Run 2: the same measurement with 7 concurrent stacks.
    let mut sim = Simulator::new();
    let world = Namespace::root("host-machine");
    let measured = build_stack(1, 10, &world, &mut sim);
    let mut others = Vec::new();
    for k in 0..7 {
        others.push(build_stack(100 + k, 20 + k as usize, &world, &mut sim));
    }
    sim.run();
    let busy_plt = measured.plt.borrow().as_ref().unwrap().plt;
    println!("with 7 concurrent stacks: PLT {busy_plt}");
    assert_eq!(alone_plt, busy_plt, "isolation violated!");
    println!("=> bit-identical: namespaces fully isolate concurrent tests\n");

    // Counters: the measured stack's namespace never saw foreign packets.
    let c = measured.inner.counters();
    println!(
        "measured stack's inner namespace counters: local={} up={} down={} unroutable={}",
        c.delivered_local, c.forwarded_up, c.forwarded_down, c.unroutable
    );
    for (k, other) in others.iter().enumerate() {
        let done = other.plt.borrow().is_some();
        let c = other.inner.counters();
        println!(
            "background stack {k}: completed={done} (its own traffic: {} pkts)",
            c.total()
        );
    }
}
