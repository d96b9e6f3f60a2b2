//! Property tests: CAN invariants hold under arbitrary join scripts and
//! routing always reaches the owner.

use can_dht::{CanId, CanNetwork, Coord};
use proptest::prelude::*;

/// A script of join coordinates.
fn steps() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..40)
}

fn apply(net: &mut CanNetwork, members: &mut Vec<CanId>, &(x, y): &(f64, f64)) {
    if let Ok(id) = net.join(Coord::new(x, y)) {
        members.push(id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_churn(script in steps()) {
        let mut net = CanNetwork::new();
        let mut members = Vec::new();
        for step in &script {
            apply(&mut net, &mut members, step);
            net.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn every_coordinate_stays_owned(script in steps(), x in 0.0..1.0f64, y in 0.0..1.0f64) {
        let mut net = CanNetwork::new();
        let mut members = Vec::new();
        for step in &script {
            apply(&mut net, &mut members, step);
        }
        prop_assert!(net.owner_of(&Coord::new(x, y)).is_some());
    }

    #[test]
    fn routing_reaches_owner_after_churn(script in steps(), x in 0.0..1.0f64, y in 0.0..1.0f64) {
        let mut net = CanNetwork::new();
        let mut members = Vec::new();
        for step in &script {
            apply(&mut net, &mut members, step);
        }
        let target = Coord::new(x, y);
        let owner = net.owner_of(&target).expect("space tiled");
        for &from in &members {
            // Zones are halving splits of the unit square, so greedy
            // routing never stalls; a stall is a bug.
            let path = net.route(from, &target).ok_or_else(|| TestCaseError::fail(format!(
                "greedy route stalled from {from} to {target} in {} members",
                net.len()
            )))?;
            prop_assert_eq!(*path.last().expect("non-empty"), owner);
            prop_assert!(path.len() <= net.len());
        }
    }
}
