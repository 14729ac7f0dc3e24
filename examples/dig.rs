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
//! * `+cache`     turn on the recursor's answer and infrastructure caches
//!   (`dps-recursor`); each query runs twice so the second pass shows the
//!   cache at work.
//! * `+norecurse` keep both caches off, fresh descent from the root per
//!   query (the default).

use dps_scope::prelude::*;

fn print_resolution(qname: &Name, qtype: RrType, recursor: &mut Recursor) {
    println!("; <<>> dps-scope dig <<>> {qname} {qtype}");
    match recursor.resolve(qname, qtype) {
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

    let mut config = RecursorConfig::default();
    if !cached {
        config.cache.capacity = 0;
        config.infra_capacity = 0;
    }
    let mut recursor = Recursor::new(&net, source, 0, catalog.root_hints(), config);

    if args.len() >= 2 {
        let qname: Name = args[0].parse().expect("valid name");
        let qtype: RrType = args[1].parse().expect("valid RR type");
        print_resolution(&qname, qtype, &mut recursor);
        if cached {
            // Ask again: the second pass is answered from cache.
            print_resolution(&qname, qtype, &mut recursor);
        }
        print_stats(&net, &mut recursor, cached);
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
        print_resolution(&apex, RrType::A, &mut recursor);
        print_resolution(&apex.prepend("www").unwrap(), RrType::A, &mut recursor);
        print_resolution(&apex, RrType::Ns, &mut recursor);
        if shown.len() >= 5 {
            break;
        }
    }
    print_stats(&net, &mut recursor, cached);
}

fn print_stats(net: &std::sync::Arc<Network>, recursor: &mut Recursor, cached: bool) {
    let sent = net.stats().snapshot().sent;
    if !cached {
        println!(";; MODE: iterative (no cache); udp packets sent: {sent}");
        return;
    }
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
