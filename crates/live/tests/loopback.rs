//! Kill/restart recovery over the deterministic loopback transport.
//!
//! These are the live-host state machines — failure detection, lease
//! expiry, splice-out degradation, incarnation-keyed rejoin — driven
//! entirely on virtual time, so every run is reproducible and fast. The
//! TCP smoke harness (`dup-experiments live-smoke`) runs the same hosts
//! over real sockets; anything provable without wall time is proved here.

use dup_core::DupScheme;
use dup_live::{oracle_check, LiveConfig, LoopbackCluster};
use dup_overlay::NodeId;
use dup_sim::SimDuration;

/// The smoke topology: a root chain with a mid-tree fan-out at node 2
/// (children 3 and 4) so splicing it out actually moves branches.
fn smoke_parents() -> Vec<Option<NodeId>> {
    [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(2),
        Some(4),
        Some(5),
        Some(5),
    ]
    .into_iter()
    .map(|p| p.map(NodeId))
    .collect()
}

fn smoke_cluster() -> LoopbackCluster<DupScheme> {
    LoopbackCluster::new(LiveConfig::smoke(smoke_parents()), DupScheme::new)
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

#[test]
fn eight_nodes_converge_to_the_oracle() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 8);
    oracle_check(&snaps).expect("steady-state cluster fails the oracle");
    // Dense workload + zero interest threshold: everyone ends subscribed.
    for snap in &snaps {
        assert!(
            snap.queries_issued > 0,
            "node {} issued no queries",
            snap.node
        );
        assert!(snap.subscribed, "node {} never subscribed", snap.node);
    }
}

#[test]
fn killing_a_mid_tree_node_degrades_to_the_substitute_rule() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let victim = NodeId(2);
    cluster.kill(victim);
    // One convergence bound: detection (1.0 s quiet) + lease expiry of the
    // dead entry + re-assertion along the spliced paths.
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 7);
    for snap in &snaps {
        assert!(
            !snap.tree.is_alive(victim),
            "node {} still sees the victim alive",
            snap.node
        );
        // Substitute-rule degradation: the orphans fell to the victim's
        // parent instead of stalling.
        assert_eq!(snap.tree.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(snap.tree.parent(NodeId(4)), Some(NodeId(1)));
    }
    oracle_check(&snaps).expect("post-kill cluster fails the oracle");
}

#[test]
fn restarted_node_rejoins_within_the_convergence_bound() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let victim = NodeId(2);
    cluster.kill(victim);
    cluster.run_for(secs(2.0));
    cluster.restart(victim);
    // The acceptance bound: oracle-clean within 8 lease periods of the
    // restart.
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    let snaps = cluster.snapshots();
    assert_eq!(snaps.len(), 8);
    for snap in &snaps {
        assert!(
            snap.tree.is_alive(victim),
            "node {} has not readmitted the restarted node",
            snap.node
        );
    }
    let revived = snaps.iter().find(|s| s.node == victim).unwrap();
    assert_eq!(revived.incarnation, 2, "restart must bump the incarnation");
    assert!(revived.queries_issued > 0, "revived node never re-engaged");
    assert!(revived.subscribed, "revived node never re-subscribed");
    oracle_check(&snaps).expect("post-restart cluster fails the oracle");
}

#[test]
fn restarted_child_of_the_root_resubscribes() {
    // The restarted node numbers its tracked messages from 0 again; the
    // root must not suppress the new life's subscribe as a duplicate of
    // the old life's.
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    let victim = NodeId(1);
    cluster.kill(victim);
    cluster.run_for(secs(2.0));
    cluster.restart(victim);
    cluster.run_for(LiveConfig::smoke(smoke_parents()).convergence_bound());
    oracle_check(&cluster.snapshots()).expect("post-restart cluster fails the oracle");
}

#[test]
fn sub_threshold_link_outage_causes_no_expiry_and_recovers() {
    let mut cluster = smoke_cluster();
    cluster.run_for(secs(3.0));
    // Sever 3 <-> 2 for less than `suspect_after`: frames drop, the
    // detector stays quiet, and the reliability layer re-covers what was
    // lost once the link heals.
    cluster.net_mut().cut_link(NodeId(3), NodeId(2));
    cluster.net_mut().cut_link(NodeId(2), NodeId(3));
    cluster.run_for(secs(0.3));
    cluster.net_mut().heal_link(NodeId(3), NodeId(2));
    cluster.net_mut().heal_link(NodeId(2), NodeId(3));
    cluster.run_for(secs(2.0));
    let snaps = cluster.snapshots();
    for snap in &snaps {
        for peer in 0..8 {
            assert!(
                snap.tree.is_alive(NodeId(peer)),
                "node {} expired node {peer} over a sub-threshold outage",
                snap.node
            );
        }
    }
    assert!(
        cluster.net_mut().dropped > 0,
        "the cut never dropped frames"
    );
    oracle_check(&snaps).expect("post-outage cluster fails the oracle");
}
