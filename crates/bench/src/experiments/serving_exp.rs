//! E8 and E11: the serving experiments (latency vs batch under a p99
//! SLO; multi-tenancy).

use tpu_arch::catalog;
use tpu_hlo::CompilerOptions;
use tpu_serving::des::{simulate, ServingConfig};
use tpu_serving::latency::LatencyModel;
use tpu_serving::multitenant::{simulate_tenants, MultiTenantConfig, Tenant};
use tpu_serving::slo::max_batch_within_slo;
use tpu_workloads::{production_apps, zoo};

use crate::util::{f, Table};

/// One app's E8 row.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyVsBatch {
    /// App name.
    pub app: String,
    /// p99 SLO, ms.
    pub slo_ms: f64,
    /// Service latency (ms) at batches 1, 8, 32, 128.
    pub latency_ms: [f64; 4],
    /// Largest batch whose service latency meets the SLO.
    pub max_batch: u64,
    /// Simulated p99 (ms) serving at ~70% of capacity with that cap.
    pub p99_at_load_ms: f64,
    /// Throughput at that load, inferences/s.
    pub throughput_rps: f64,
}

/// E8 data on TPUv4i.
pub fn e8_data() -> Vec<LatencyVsBatch> {
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::default();
    production_apps()
        .iter()
        .map(|app| {
            let model = LatencyModel::profile(app, &chip, &options, &[1, 8, 32, 128, 256])
                .expect("profiles");
            let slo_s = app.spec.slo_p99_ms / 1e3;
            let max_batch = max_batch_within_slo(&model, slo_s, 512).unwrap_or(1);
            let rate = 0.7 * model.throughput(max_batch);
            let report = simulate(
                &model,
                &ServingConfig {
                    arrival_rate_rps: rate,
                    max_batch,
                    batch_timeout_s: slo_s * 0.1,
                    requests: 3000,
                    seed: 9,
                },
            )
            .expect("valid serving config");
            LatencyVsBatch {
                app: app.spec.name.to_owned(),
                slo_ms: app.spec.slo_p99_ms,
                latency_ms: [
                    model.latency(1) * 1e3,
                    model.latency(8) * 1e3,
                    model.latency(32) * 1e3,
                    model.latency(128) * 1e3,
                ],
                max_batch,
                p99_at_load_ms: report.p99_s * 1e3,
                throughput_rps: report.throughput_rps,
            }
        })
        .collect()
}

/// E8 — latency vs batch: applications limit latency, not batch size.
pub fn e8_latency_vs_batch() -> String {
    let mut t = Table::new(&[
        "app",
        "SLO ms",
        "lat@1",
        "lat@8",
        "lat@32",
        "lat@128",
        "max batch",
        "p99@70% ms",
        "inf/s",
    ]);
    for r in e8_data() {
        t.row(vec![
            r.app,
            f(r.slo_ms, 0),
            f(r.latency_ms[0], 2),
            f(r.latency_ms[1], 2),
            f(r.latency_ms[2], 2),
            f(r.latency_ms[3], 2),
            r.max_batch.to_string(),
            f(r.p99_at_load_ms, 2),
            f(r.throughput_rps, 0),
        ]);
    }
    format!(
        "E8 / Fig — latency vs batch on TPUv4i; the SLO picks the batch (Lesson 10)\n{}",
        t.render()
    )
}

/// One point of the E11 tenant sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyPoint {
    /// Chip name.
    pub chip: String,
    /// Number of resident tenants requested.
    pub tenants: usize,
    /// Whether all fit HBM simultaneously.
    pub all_resident: bool,
    /// Weight swaps during the run.
    pub swaps: usize,
    /// Worst per-tenant p99, ms.
    pub worst_p99_ms: f64,
    /// Aggregate throughput, inferences/s.
    pub throughput_rps: f64,
}

/// E11 data: tenant-count sweep on TPUv4i (8 GiB) and TPUv3 (32 GiB).
///
/// Tenants are MLP0-latency models with 1.75 GiB weight footprints, so
/// four fit TPUv4i's HBM and more start swapping over the host link.
/// CMEM is *partitioned* across resident tenants: each tenant's latency
/// model is re-profiled with a `CMEM / n` budget, so packing more
/// tenants also degrades per-request service time (the second cost of
/// multi-tenancy the paper calls out).
pub fn e11_data() -> Vec<TenancyPoint> {
    let mut out = Vec::new();
    for chip in [catalog::tpu_v4i(), catalog::tpu_v3()] {
        let cmem_total = chip.cmem.map_or(0, |c| c.capacity_bytes);
        for &n in &[1usize, 2, 4, 6, 8] {
            let options = CompilerOptions::with_cmem_budget(cmem_total / n as u64);
            let model = LatencyModel::profile(&zoo::mlp0(), &chip, &options, &[1, 8, 32])
                .expect("profiles");
            let tenants: Vec<Tenant> = (0..n)
                .map(|i| Tenant {
                    name: format!("tenant{i}"),
                    latency: model.clone(),
                    weight_bytes: (1.75 * (1u64 << 30) as f64) as u64,
                    arrival_rate_rps: 400.0,
                })
                .collect();
            let report = simulate_tenants(&chip, &tenants, &MultiTenantConfig::default())
                .expect("valid tenant config");
            out.push(TenancyPoint {
                chip: chip.name.clone(),
                tenants: n,
                all_resident: report.all_resident,
                swaps: report.swaps,
                worst_p99_ms: report.worst_p99_s() * 1e3,
                throughput_rps: report.throughput_rps,
            });
        }
    }
    out
}

/// E11 — multi-tenancy: tail latency vs resident tenant count.
pub fn e11_multitenancy() -> String {
    let mut t = Table::new(&[
        "chip",
        "tenants",
        "all resident",
        "swaps",
        "worst p99 ms",
        "inf/s",
    ]);
    for p in e11_data() {
        t.row(vec![
            p.chip,
            p.tenants.to_string(),
            if p.all_resident { "yes" } else { "NO" }.to_owned(),
            p.swaps.to_string(),
            f(p.worst_p99_ms, 2),
            f(p.throughput_rps, 0),
        ]);
    }
    format!(
        "E11 / Fig — multi-tenancy (1.75 GiB/tenant, MLP0 latency, 400 rps each; Lesson 7)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_swapping_starts_past_hbm_capacity() {
        let data = e11_data();
        let v4i_4 = data
            .iter()
            .find(|p| p.chip == "TPUv4i" && p.tenants == 4)
            .unwrap();
        let v4i_6 = data
            .iter()
            .find(|p| p.chip == "TPUv4i" && p.tenants == 6)
            .unwrap();
        assert!(v4i_4.all_resident && v4i_4.swaps == 0);
        assert!(!v4i_6.all_resident && v4i_6.swaps > 0);
        assert!(v4i_6.worst_p99_ms > 3.0 * v4i_4.worst_p99_ms);
        // TPUv3's 32 GiB holds all 8.
        let v3_8 = data
            .iter()
            .find(|p| p.chip == "TPUv3" && p.tenants == 8)
            .unwrap();
        assert!(v3_8.all_resident);
    }
}

/// One policy point of E17.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// Policy label.
    pub policy: String,
    /// p50 latency, ms.
    pub p50_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Mean formed batch.
    pub mean_batch: f64,
    /// Whether the p99 SLO held.
    pub meets_slo: bool,
}

/// E17 data: batching policies for BERT0 on TPUv4i at a fixed load.
///
/// The production trade-off behind Lesson 10: batch aggressively and the
/// tail blows the SLO; batch timidly and the chip starves. The policy
/// axis here is the batch-formation timeout at a fixed batch cap.
pub fn e17_data() -> Vec<PolicyPoint> {
    let chip = catalog::tpu_v4i();
    let app = zoo::bert0();
    let options = CompilerOptions::default();
    let model = LatencyModel::profile(&app, &chip, &options, &[1, 8, 32, 128]).expect("profiles");
    let slo_s = app.spec.slo_p99_ms / 1e3;
    let cap = max_batch_within_slo(&model, slo_s, 256).unwrap_or(1);
    // Fixed offered load: 60% of the capped capacity.
    let rate = 0.6 * model.throughput(cap);
    let policies: Vec<(String, u64, f64)> = vec![
        ("no batching".to_owned(), 1, 0.0),
        ("greedy (cap, no wait)".to_owned(), cap, 0.0),
        ("timeout 10% of SLO".to_owned(), cap, slo_s * 0.1),
        ("timeout 50% of SLO".to_owned(), cap, slo_s * 0.5),
        ("timeout 100% of SLO".to_owned(), cap, slo_s),
    ];
    policies
        .into_iter()
        .map(|(policy, max_batch, timeout)| {
            let r = simulate(
                &model,
                &ServingConfig {
                    arrival_rate_rps: rate,
                    max_batch,
                    batch_timeout_s: timeout,
                    requests: 4000,
                    seed: 21,
                },
            )
            .expect("valid serving config");
            PolicyPoint {
                policy,
                p50_ms: r.p50_s * 1e3,
                p99_ms: r.p99_s * 1e3,
                mean_batch: r.mean_batch,
                meets_slo: r.p99_s <= slo_s,
            }
        })
        .collect()
}

/// E17 (extension) — batching-policy comparison under a p99 SLO.
pub fn e17_batching_policies() -> String {
    let mut t = Table::new(&["policy", "p50 ms", "p99 ms", "mean batch", "meets 10ms SLO"]);
    for p in e17_data() {
        t.row(vec![
            p.policy,
            f(p.p50_ms, 2),
            f(p.p99_ms, 2),
            f(p.mean_batch, 1),
            if p.meets_slo { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    format!(
        "E17 (extension) — batching policies for BERT0 on TPUv4i at 60% load\n{}",
        t.render()
    )
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn e17_policy_tradeoffs() {
        let points = e17_data();
        let by = |name: &str| points.iter().find(|p| p.policy.starts_with(name)).unwrap();
        // Longer waits form bigger batches...
        assert!(by("timeout 50%").mean_batch > by("greedy").mean_batch);
        // ...and cost tail latency.
        assert!(by("timeout 100%").p99_ms > by("greedy").p99_ms);
        // Waiting the whole SLO on batch formation cannot meet the SLO
        // (service time still has to fit).
        assert!(!by("timeout 100%").meets_slo);
        // A moderate timeout keeps the SLO.
        assert!(by("timeout 10%").meets_slo);
    }
}

/// One co-location pair of E20.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferencePoint {
    /// The two co-located apps.
    pub pair: (String, String),
    /// Each alone, ms.
    pub alone_ms: (f64, f64),
    /// Both sharing the chip, ms (one batch each, concurrent).
    pub together_ms: f64,
    /// `together / max(alone)`: 1.0 = free co-location, 2.0 = fully
    /// serialized.
    pub interference: f64,
}

/// E20 data: chip-level co-location interference on TPUv4i.
///
/// Multi-tenancy costs more than memory capacity (E11): two tenants'
/// kernels contend for MXUs and memory channels. We merge two compiled
/// step plans (no dependencies between them) and let the simulator's
/// resource model arbitrate — the slowdown over the slower tenant alone
/// is the interference Lesson 7's isolation machinery must manage.
pub fn e20_data() -> Vec<InterferencePoint> {
    use tpu_hlo::compile;
    use tpu_sim::Simulator;
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::default();
    let sim = Simulator::new(chip.clone());
    let plan_of = |app: &tpu_workloads::App| {
        let g = app.build(8).expect("builds");
        compile(&g, &chip, &options)
            .expect("compiles")
            .plan()
            .clone()
    };
    let pairs = [
        (zoo::mlp0(), zoo::mlp0()),  // two bandwidth-hungry tenants
        (zoo::mlp0(), zoo::cnn0()),  // bandwidth + compute: complementary
        (zoo::cnn0(), zoo::cnn0()),  // two compute-bound tenants
        (zoo::bert0(), zoo::mlp1()), // heavyweight + lightweight
    ];
    pairs
        .iter()
        .map(|(a, b)| {
            let pa = plan_of(a);
            let pb = plan_of(b);
            let ta = sim.run(&pa).expect("simulates").seconds;
            let tb = sim.run(&pb).expect("simulates").seconds;
            let mut merged = pa;
            merged.append(&pb, None);
            let tab = sim.run(&merged).expect("simulates").seconds;
            InterferencePoint {
                pair: (a.spec.name.to_owned(), b.spec.name.to_owned()),
                alone_ms: (ta * 1e3, tb * 1e3),
                together_ms: tab * 1e3,
                interference: tab / ta.max(tb),
            }
        })
        .collect()
}

/// E20 (extension) — co-location interference at the chip level.
pub fn e20_interference() -> String {
    let mut t = Table::new(&[
        "tenants",
        "A alone ms",
        "B alone ms",
        "together ms",
        "interference",
    ]);
    for p in e20_data() {
        t.row(vec![
            format!("{}+{}", p.pair.0, p.pair.1),
            f(p.alone_ms.0, 3),
            f(p.alone_ms.1, 3),
            f(p.together_ms, 3),
            format!("{}x", f(p.interference, 2)),
        ]);
    }
    format!(
        "E20 (extension) — chip-level co-location interference on TPUv4i (batch 8 each)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod interference_tests {
    use super::*;

    #[test]
    fn e20_interference_is_bounded_and_complementary_pairs_overlap() {
        let points = e20_data();
        for p in &points {
            // Co-location is never free lunch below the slower tenant and
            // never worse than full serialization (within engine noise).
            assert!(p.interference >= 0.99, "{:?}: {}", p.pair, p.interference);
            let serial = p.alone_ms.0 + p.alone_ms.1;
            assert!(
                p.together_ms <= serial * 1.01,
                "{:?}: together {} > serial {serial}",
                p.pair,
                p.together_ms
            );
        }
        // Two bandwidth-bound MLPs fight over the one HBM channel; a
        // bandwidth-bound MLP and a compute-bound CNN overlap almost for
        // free (they want different resources).
        let same = points
            .iter()
            .find(|p| p.pair == ("MLP0".to_owned(), "MLP0".to_owned()))
            .unwrap();
        let mixed = points
            .iter()
            .find(|p| p.pair == ("MLP0".to_owned(), "CNN0".to_owned()))
            .unwrap();
        assert!(
            same.interference > 1.5,
            "identical bandwidth-bound tenants must contend: {}",
            same.interference
        );
        assert!(
            mixed.interference < 1.2,
            "complementary tenants should co-locate nearly free: {}",
            mixed.interference
        );
    }
}
