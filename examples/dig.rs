//! A `dig`-style lookup tool against the simulated Internet: builds a
//! small world, materialises it onto the network, and resolves whatever
//! name/type you pass, printing response sections dig-style.
//!
//! ```sh
//! cargo run --release --example dig -- d42.com A
//! cargo run --release --example dig -- www.d42.com A +cache
//! cargo run --release --example dig -- cloudflare.com NS +norecurse
//! cargo run --release --example dig              # picks a showcase set
//! ```
//!
//! Flags (anywhere on the command line, like real dig):
//! * `+cache`     route queries through the caching recursor (`dps-recursor`);
//!   each query runs twice so the second pass shows the cache at work.
//! * `+norecurse` use the bare iterative resolver, fresh descent per query
//!   (the default).

use dps_scope::authdns::{Resolution, ResolveError, Resolver};
use dps_scope::prelude::*;

enum Engine {
    Wire(Box<Resolver>),
    Cached(Box<Recursor>),
}

impl Engine {
    fn resolve(&mut self, qname: &Name, qtype: RrType) -> Result<Resolution, ResolveError> {
        match self {
            Engine::Wire(r) => r.resolve(qname, qtype),
            Engine::Cached(r) => r.resolve(qname, qtype),
        }
    }
}

fn print_resolution(qname: &Name, qtype: RrType, engine: &mut Engine) {
    println!("; <<>> dps-scope dig <<>> {qname} {qtype}");
    match engine.resolve(qname, qtype) {
        Ok(res) => {
            println!(
                ";; status: {}, elapsed: {} µs (virtual)",
                res.rcode, res.elapsed_us
            );
            println!(";; ANSWER SECTION ({} records):", res.answers.len());
            for rec in &res.answers {
                println!("{rec}");
            }
        }
        Err(e) => println!(";; resolution failed: {e}"),
    }
    println!();
}

fn main() {
    let mut cached = false;
    let mut args: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "+cache" => cached = true,
            "+norecurse" => cached = false,
            _ => args.push(arg),
        }
    }

    let params = ScenarioParams {
        seed: 42,
        scale: 0.01,
        gtld_days: 30,
        cc_start_day: 30,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(7));
    let net = Network::new(1);
    let catalog = world.materialize(&net);
    let source: std::net::IpAddr = "172.16.0.53".parse().unwrap();

    let mut engine = if cached {
        Engine::Cached(Box::new(Recursor::new(
            &net,
            source,
            0,
            catalog.root_hints(),
            RecursorConfig::default(),
        )))
    } else {
        Engine::Wire(Box::new(Resolver::new(
            &net,
            source,
            0,
            catalog.root_hints(),
        )))
    };

    if args.len() >= 2 {
        let qname: Name = args[0].parse().expect("valid name");
        let qtype: RrType = args[1].parse().expect("valid RR type");
        print_resolution(&qname, qtype, &mut engine);
        if cached {
            // Ask again: the second pass is answered from cache.
            print_resolution(&qname, qtype, &mut engine);
        }
        print_stats(&net, &mut engine);
        return;
    }

    // Showcase: one domain per diversion flavour.
    println!("(no arguments: showing one domain per protection posture)\n");
    let mut shown = std::collections::HashSet::new();
    for (i, st) in world.domains().iter().enumerate() {
        if !st.alive_on(world.day()) || st.basket.is_some() {
            continue;
        }
        let key = std::mem::discriminant(&st.diversion);
        if !shown.insert(key) {
            continue;
        }
        let id = dps_scope::ecosystem::DomainId(i as u32);
        let apex = world.domain_name(id);
        println!("--- {:?} ---", st.diversion);
        print_resolution(&apex, RrType::A, &mut engine);
        print_resolution(&apex.prepend("www").unwrap(), RrType::A, &mut engine);
        print_resolution(&apex, RrType::Ns, &mut engine);
        if shown.len() >= 5 {
            break;
        }
    }
    print_stats(&net, &mut engine);
}

fn print_stats(net: &std::sync::Arc<Network>, engine: &mut Engine) {
    let sent = net.stats().snapshot().sent;
    match engine {
        Engine::Wire(_) => {
            println!(";; MODE: iterative (no cache); udp packets sent: {sent}");
        }
        Engine::Cached(recursor) => {
            let s = recursor.stats();
            let c = recursor.answer_cache().stats();
            println!(";; MODE: caching recursor; udp packets sent: {sent}");
            println!(
                ";; queries: {} (cache hits {}, misses {})",
                s.queries, s.cache_hits, s.cache_misses
            );
            println!(
                ";; answer cache: {} entries, {} inserts, {} evictions; infra cuts cached: {}",
                recursor.answer_cache().len(),
                c.inserts,
                c.evictions,
                recursor.infra_cache().len()
            );
        }
    }
}
