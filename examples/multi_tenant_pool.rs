//! Multi-tenant serving pool (Lesson 7): several models share one chip.
//! While every tenant's weights fit HBM, switching is free; one tenant
//! too many and the pool falls off a cliff (weight swaps over the host
//! link dominate the tail).
//!
//! ```text
//! cargo run --release --example multi_tenant_pool
//! ```

use tpugen::prelude::*;
use tpugen::serving::multitenant::{simulate_tenants, MultiTenantConfig, Tenant};

fn main() {
    let chip = catalog::tpu_v4i();
    println!(
        "pool on {}: HBM {} GiB, host link 16 GB/s\n",
        chip.name,
        chip.hbm.capacity_bytes >> 30
    );

    // Profile one real model; every tenant serves a copy of it.
    let model = LatencyModel::profile(
        &zoo::mlp0(),
        &chip,
        &CompilerOptions::default(),
        &[1, 8, 32],
    )
    .expect("profiles");
    let weights_per_tenant: u64 = (1.75 * (1u64 << 30) as f64) as u64;

    println!(
        "{:>8} {:>13} {:>7} {:>14} {:>10}",
        "tenants", "all resident", "swaps", "worst p99 ms", "inf/s"
    );
    for n in [1usize, 2, 3, 4, 5, 6, 8] {
        let tenants: Vec<Tenant> = (0..n)
            .map(|i| Tenant {
                name: format!("model-{i}"),
                latency: model.clone(),
                weight_bytes: weights_per_tenant,
                arrival_rate_rps: 400.0,
            })
            .collect();
        let report = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default())
            .expect("valid tenant config");
        println!(
            "{:>8} {:>13} {:>7} {:>14.2} {:>10.0}",
            n,
            if report.all_resident { "yes" } else { "NO" },
            report.swaps,
            report.worst_p99_s() * 1e3,
            report.throughput_rps,
        );
    }
    println!(
        "\nFour 1.75 GiB tenants fit TPUv4i's 8 GiB HBM; the fifth starts \
         swapping and the tail collapses — why inference chips need memory \
         headroom for multi-tenancy (Lesson 7)."
    );
}
