//! Observability acceptance over real TCP sockets: a client-minted trace
//! id must cross the wire into server-side flight spans, per-stage
//! histograms must fill, and the admin endpoint's Prometheus text must
//! survive a parser check.

mod common;

use common::Watched;
use scalla::client::{ClientConfig, ClientNode, ClientOp, Directory, OpOutcome};
use scalla::node::{CmsdConfig, CmsdNode, ServerConfig, ServerNode};
use scalla::prelude::*;
use scalla::sim::{assert_poll, scrape, TcpNet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A minimal Prometheus text-exposition check: every comment is `# HELP`
/// or `# TYPE`, every sample line is `name[{labels}] value` with a
/// numeric value, and every sample's metric family appeared in a `# TYPE`
/// line first. Returns the parsed samples.
fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    let mut typed = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let kind = it.next().unwrap_or("");
            assert!(kind == "HELP" || kind == "TYPE", "bad comment: {line}");
            let name = it.next().expect("comment names a metric").to_string();
            if kind == "TYPE" {
                typed.push(name);
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
        let family = series.split(['{', ' ']).next().unwrap();
        let base = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .unwrap_or(family);
        assert!(
            typed.iter().any(|t| t == base || t == family),
            "sample {series} missing a # TYPE header"
        );
        assert!(
            family.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {family}"
        );
        samples.push((series.to_string(), value));
    }
    samples
}

fn sample_value(samples: &[(String, f64)], series: &str) -> f64 {
    samples
        .iter()
        .find(|(s, _)| s == series)
        .unwrap_or_else(|| panic!("series {series} not exported"))
        .1
}

#[test]
fn obs_tcp_cluster_traces_and_metrics() {
    // sample_every = 1: every stage event is timed, so even this short
    // run fills each histogram deterministically.
    let obs = Obs::with_config(1, 4096);

    let mut net = TcpNet::new().expect("bind localhost");
    let clock = net.clock();
    let directory = Arc::new(Directory::new());

    let mut mgr_cfg = CmsdConfig::manager("mgr");
    mgr_cfg.cache.full_delay = Nanos::from_millis(500);
    mgr_cfg.heartbeat = Nanos::from_millis(200);
    let mut mgr_node = CmsdNode::new(mgr_cfg, clock);
    mgr_node.set_obs(obs.clone());
    let manager = net.add_node(Box::new(mgr_node)).unwrap();
    directory.register("mgr", manager);

    for i in 0..3 {
        let name = format!("srv-{i}");
        let mut cfg = ServerConfig::new(&name, manager);
        cfg.heartbeat = Nanos::from_millis(200);
        let mut node = ServerNode::new(cfg);
        node.set_obs(obs.clone());
        if i == 1 {
            node.fs_mut().put_online("/obs/traced", 256);
        }
        let addr = net.add_node(Box::new(node)).unwrap();
        directory.register(&name, addr);
    }

    let ops = vec![
        ClientOp::OpenRead { path: "/obs/traced".into(), len: 64 },
        ClientOp::Open { path: "/obs/traced".into(), write: false },
    ];
    let mut ccfg = ClientConfig::new(manager, directory, ops);
    ccfg.start_delay = Nanos::from_millis(800);
    ccfg.request_timeout = Nanos::from_secs(5);
    let mut client_node = ClientNode::new(ccfg);
    client_node.set_obs(obs.clone());
    let (watched, done) = Watched::new(client_node);
    let client = net.add_node(Box::new(watched)).unwrap();

    let admin = net.serve_admin(obs.clone()).expect("admin endpoint binds");
    net.start();
    assert_poll(Duration::from_secs(4), "client finished its script", || {
        done.load(Ordering::SeqCst)
    });

    // Scrape while the net is live; the admin listener dies with shutdown.
    let metrics = scrape(admin, "/metrics").expect("scrape /metrics");
    let flight = scrape(admin, "/flight").expect("scrape /flight");
    let stats = scrape(admin, "/stats").expect("scrape /stats");

    let mut nodes = net.shutdown();
    let results = nodes[client.0 as usize]
        .as_any_mut()
        .unwrap()
        .downcast_ref::<ClientNode>()
        .unwrap()
        .results()
        .to_vec();
    assert_eq!(results.len(), 2, "all ops must terminate: {results:?}");
    assert_eq!(results[0].outcome, OpOutcome::Ok, "{results:?}");
    assert_ne!(results[0].trace_id, 0, "client minted a trace id");

    // (a) The trace id minted at the client reached the manager's resolve
    // span and the data server's open span across real sockets.
    let id = format!("{:016x}", results[0].trace_id);
    let with_id: Vec<&str> = flight.lines().filter(|l| l.contains(&id)).collect();
    assert!(
        with_id.iter().any(|l| l.contains("stage=cms_resolve")),
        "trace {id} never reached the manager:\n{flight}"
    );
    assert!(
        with_id.iter().any(|l| l.contains("stage=srv_open")),
        "trace {id} never reached a data server:\n{flight}"
    );
    assert!(
        with_id.iter().any(|l| l.contains("stage=client_op")),
        "client op span missing:\n{flight}"
    );

    // (b) Per-stage latency histograms are non-empty.
    let samples = parse_prometheus(&metrics);
    assert!(sample_value(&samples, "scalla_stage_ns_count{stage=\"resolve\"}") >= 1.0, "{metrics}");
    assert!(
        sample_value(&samples, "scalla_stage_ns_count{stage=\"redirect_hop\"}") >= 1.0,
        "{metrics}"
    );
    // Cache counters mirrored through the per-node collector.
    assert!(sample_value(&samples, "scalla_cache_lookups_total{node=\"mgr\"}") >= 1.0, "{metrics}");
    // Runtime egress counters from the TCP tier.
    assert!(sample_value(&samples, "scalla_egress_frames_total") >= 1.0, "{metrics}");

    // (c) The JSON snapshot is well-formed enough to carry the same data.
    assert!(stats.trim_start().starts_with('{'), "{stats}");
    assert!(stats.contains("scalla_stage_ns"), "{stats}");
}
