//! Layer probes through public functions only, timed on
//! `cenju4_bench::micro` (ROADMAP 1(b)). Each is a unit cost reported
//! beside the workload counts; the benchmark never multiplies one into a
//! "measured" layer time.

use crate::report::Outcome;
use cenju4_bench::micro::{black_box, Harness};
use cenju4_des::{EventQueue, SimTime, SplitMix64};
use cenju4_directory::nodemap::DestSpec;
use cenju4_directory::{DirectoryId, NodeId, NodeMap, SystemSize};
use cenju4_network::{Fabric, NetParams, WireClass};
use cenju4_serve::proto;

/// Machine sizes with 2, 4 and 6 network stages: the stage counts a
/// `SystemSize` can have (stages come in pairs, up to 1024 nodes).
const STAGED: [(u32, u16); 3] = [(2, 16), (4, 256), (6, 1024)];

pub fn run(out: &mut Outcome) {
    let mut h = Harness::new();
    let mut names = Vec::new();
    queue(&mut h, &mut names);
    directory(&mut h, &mut names);
    fabric(&mut h, &mut names);
    parse(&mut h, &mut names);
    for ((name, per), m) in names.into_iter().zip(h.results()) {
        out.metric_note(
            name,
            m.median_ns / per,
            "ns",
            format!("median of 5 batches x {} iters", m.iters),
        );
    }
}

/// `schedule_at` + `pop` at a steady queue depth `d` (hold model).
fn queue(h: &mut Harness, names: &mut Vec<(String, f64)>) {
    for d in [128u64, 32768] {
        let mut rng = SplitMix64::new(d);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..d {
            q.schedule_at(SimTime::from_ns(rng.next_below(1 << 20)), i);
        }
        h.bench_function(format!("des.queue/d{d}"), |b| {
            b.iter(|| {
                let (at, e) = q.pop().expect("the queue holds d events");
                q.schedule_at(
                    at + cenju4_des::Duration::from_ns(1 + rng.next_below(1 << 20)),
                    e,
                );
                black_box(e)
            })
        });
        names.push((format!("des.queue_ns_per_op.d{d}"), 1.0));
    }
}

/// `k` distinct nodes spread across a 1024-node machine.
fn spread(k: u16) -> Vec<NodeId> {
    (0..k).map(|i| NodeId::new(i * (1024 / k))).collect()
}

/// `SharerSet::add` (per added sharer, from empty) and `push_spec` on a
/// set of `k` sharers, for each engine-backed directory format.
fn directory(h: &mut Harness, names: &mut Vec<(String, f64)>) {
    let sys = SystemSize::new(1024).expect("1024 nodes is a valid machine");
    for id in DirectoryId::ALL {
        for k in [4u16, 64, 1024] {
            let nodes = spread(k);
            h.bench_function(format!("directory.add/{id}/{k}"), |b| {
                b.iter(|| {
                    let mut s = id.instantiate(sys);
                    for &n in &nodes {
                        s.add(black_box(n));
                    }
                    s
                })
            });
            // The harness times the whole loop; report it per add.
            names.push((format!("directory.add_ns.{id}.{k}"), f64::from(k)));

            let mut set = id.instantiate(sys);
            for &n in &nodes {
                set.add(n);
            }
            h.bench_function(format!("directory.push_spec/{id}/{k}"), |b| {
                b.iter(|| set.push_spec(black_box(NodeId::new(1)), sys))
            });
            names.push((format!("directory.push_spec_ns.{id}.{k}"), 1.0));
        }
    }
}

/// `Fabric::send_unicast`, and `send_multicast` to 16 nodes with every
/// ack gathered in the network, at each stage count.
fn fabric(h: &mut Harness, names: &mut Vec<(String, f64)>) {
    for (stages, n) in STAGED {
        let sys = SystemSize::new(n).expect("staged sizes are valid machines");
        let mut f: Fabric<u32> = Fabric::new(sys, NetParams::default());
        let mut t = 0u64;
        h.bench_function(format!("network.unicast/s{stages}"), |b| {
            b.iter(|| {
                t += 100_000;
                f.send_unicast(
                    SimTime::from_ns(t),
                    NodeId::new(0),
                    NodeId::new(n - 1),
                    false,
                    0,
                    WireClass::Request,
                )
            })
        });
        names.push((format!("network.unicast_ns.s{stages}"), 1.0));

        let spec = DestSpec::Pattern((0..16).map(|i| NodeId::new(i * (n / 16))).collect());
        let mut f: Fabric<u32> = Fabric::new(sys, NetParams::default());
        let mut t = 0u64;
        h.bench_function(format!("network.multicast_gather/s{stages}"), |b| {
            b.iter(|| {
                t += 1_000_000;
                let id = f.open_gather(NodeId::new(0), spec);
                let copies = f.send_multicast(
                    SimTime::from_ns(t),
                    NodeId::new(0),
                    spec,
                    false,
                    0,
                    Some(id),
                    WireClass::Invalidation,
                );
                let mut done = None;
                for d in &copies {
                    if let Some(x) = f.send_gather_reply(d.at, d.node, id, 1) {
                        done = Some(x);
                    }
                }
                done.expect("the last gathered ack reaches the home")
            })
        });
        names.push((format!("network.multicast_gather_ns.s{stages}"), 1.0));
    }
}

/// `proto::parse_request` on a `simulate` line of the kind `serve-grid`
/// sends.
fn parse(h: &mut Harness, names: &mut Vec<(String, f64)>) {
    let line = "{\"id\":7,\"cmd\":\"simulate\",\
                \"config\":{\"nodes\":32,\"directory\":\"full-map\",\"kind\":\"nack\"},\
                \"workload\":{\"app\":\"BT\",\"variant\":\"dsm2\",\"mapping\":true,\"scale\":1.0}}";
    assert!(
        proto::parse_request(line).is_ok(),
        "the probe's line parses"
    );
    h.bench_function("serve.parse_request", |b| {
        b.iter(|| proto::parse_request(black_box(line)))
    });
    names.push(("serve.parse_ns".to_owned(), 1.0));
}
