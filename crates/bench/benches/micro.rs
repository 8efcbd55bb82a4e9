//! Microbenchmarks of the substrates: compiler throughput, simulator
//! event rate, ISA round trips, quantization and bf16 conversion.
//!
//! ```text
//! cargo bench -p tpu-bench --bench micro
//! cargo bench -p tpu-bench --bench micro -- compile            # one group
//! cargo bench -p tpu-bench --bench micro -- --measurement-ms 200
//! ```
//!
//! The serving engines are timed by perfbench instead (`--trace 1`
//! reports ns/event per engine), and their host-independent work counts
//! are pinned by `tests/compile_alloc_budget.rs`.

use std::time::Duration;

use tpu_arch::{catalog, Generation};
use tpu_bench::quick::Group;
use tpu_hlo::{compile, CompilerOptions};
use tpu_numerics::{Bf16, Quantized};
use tpu_sim::Simulator;
use tpu_workloads::production_apps;

fn bench_compile(m: Duration) {
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::default();
    let group = Group::new("compile").measurement_time(m);
    for app in production_apps() {
        let graph = app.build(8).expect("builds");
        group.bench(app.spec.name, || {
            let exe = compile(&graph, &chip, &options).expect("compiles");
            exe.plan().len()
        });
    }
}

fn bench_simulate(m: Duration) {
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::default();
    let sim = Simulator::new(chip.clone());
    let group = Group::new("simulate").measurement_time(m);
    for app in production_apps() {
        let graph = app.build(8).expect("builds");
        let exe = compile(&graph, &chip, &options).expect("compiles");
        group.bench(app.spec.name, || {
            sim.run(exe.plan()).expect("simulates").seconds
        });
    }
}

fn bench_isa_round_trip(m: Duration) {
    let chip = catalog::tpu_v4i();
    let graph = production_apps()[0].build(8).expect("builds");
    let exe = compile(&graph, &chip, &CompilerOptions::default()).expect("compiles");
    let group = Group::new("isa").measurement_time(m);
    group.bench("encode+decode", || {
        let bytes = exe.binary().expect("encodes");
        tpu_isa::decode(&bytes, Generation::TpuV4i)
            .expect("decodes")
            .len()
    });
}

fn bench_numerics(m: Duration) {
    let xs: Vec<f32> = (0..1_000_000)
        .map(|i| ((i * 2_654_435_761usize) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let group = Group::new("numerics").measurement_time(m);
    group.bench("quantize/per-tensor-1M", || {
        Quantized::per_tensor(&xs).expect("finite").codes.len()
    });
    group.bench("bf16/convert-1M", || {
        xs.iter()
            .map(|&x| Bf16::from_f32(x).to_bits() as u32)
            .sum::<u32>()
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut measurement = Duration::from_secs(2);
    let mut groups: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--measurement-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--measurement-ms needs an integer");
                measurement = Duration::from_millis(ms.max(1));
            }
            // `cargo bench` forwards its own filter flags; ignore them.
            "--bench" => {}
            other if !other.starts_with("--") => groups.push(other.to_owned()),
            other => panic!("unknown flag {other}"),
        }
    }
    let want = |g: &str| groups.is_empty() || groups.iter().any(|w| w == g);

    if want("compile") {
        bench_compile(measurement);
    }
    if want("simulate") {
        bench_simulate(measurement);
    }
    if want("isa") {
        bench_isa_round_trip(measurement);
    }
    if want("numerics") {
        bench_numerics(measurement);
    }
}
