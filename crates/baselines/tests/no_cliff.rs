//! The Kautz fabric under load gives the same answer on both engines.
//!
//! The serial engine models receiver occupancy (a frame reserves its
//! receiver's radio from push time to arrival) and the sharded engine
//! models none; the fabric wants none (`fabric_config`), so the two may
//! differ only in schedule. Before `fabric_config` said so, one backlogged
//! sender froze every vertex it targeted and the serial engine fell off a
//! cliff: at 5 pps/vertex it delivered 0.020 where sharded(1) delivered
//! 0.968, with a p99 delay of 5.8 s against 0.16 s.

use refer_baselines::{fabric_config, KautzFabricProtocol};
use wsan_sim::{run_engine, Engine, RoutingStrategy, ShardedConfig, SimDuration};

#[test]
fn serial_and_sharded_fabric_agree_from_light_load_to_saturation() {
    let (d, k) = (2u8, 10usize);
    let vertices = 3.0 * 2f64.powi(k as i32 - 1);
    for pps_per_vertex in [2.0, 5.0, 8.6] {
        let mut cfg = fabric_config(d, k, pps_per_vertex * vertices);
        cfg.routing = RoutingStrategy::Regular;
        cfg.warmup = SimDuration::from_secs(2);
        cfg.duration = SimDuration::from_secs(6);
        let serial = run_engine(cfg.clone(), &mut KautzFabricProtocol::new(d, k));
        cfg.engine = Engine::Sharded(ShardedConfig { shards: 0, threads: 1, window_micros: 0 });
        let sharded = run_engine(cfg, &mut KautzFabricProtocol::new(d, k));
        assert!(
            (serial.delivery_ratio - sharded.delivery_ratio).abs() <= 0.01,
            "{pps_per_vertex} pps/vertex: serial delivered {}, sharded(1) {}",
            serial.delivery_ratio,
            sharded.delivery_ratio
        );
        let (lo, hi) = (
            serial.delay_p99_s.min(sharded.delay_p99_s),
            serial.delay_p99_s.max(sharded.delay_p99_s),
        );
        assert!(
            hi <= 2.0 * lo,
            "{pps_per_vertex} pps/vertex: serial p99 {} s, sharded(1) p99 {} s",
            serial.delay_p99_s,
            sharded.delay_p99_s
        );
    }
}
