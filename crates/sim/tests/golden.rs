//! Golden outputs of the simulator: six runs whose every `Measurement`
//! getter is pinned as raw f64 bits (and exact counts).
//!
//! The event loop may be restructured for speed, but it must keep every
//! RNG draw, its order and every f64 operation: these runs fail on any
//! change to what the simulator computes, down to the last bit. The runs
//! cover a light load, the paper's operating range, a saturated system,
//! bursty arrivals and two tie-heavy runs on ideal hardware with zero
//! domain and database demand, where each transaction's domain and
//! database stages end at the very instant its web stage ends.
//!
//! Poisson arrivals never put two pending events at one time, so the
//! queue's FIFO order among equal times is pinned by the event queue's
//! own property test, not here.

use wlc_math::distributions::Distribution;
use wlc_sim::{
    ArrivalProcess, DomainQueue, HardwareModel, Measurement, ServerConfig, Simulation,
    StageDemands, TransactionClass, TransactionKind, WorkloadSpec,
};

fn server(rate: f64, default: u32, mfg: u32, web: u32) -> ServerConfig {
    ServerConfig::builder()
        .injection_rate(rate)
        .default_threads(default)
        .mfg_threads(mfg)
        .web_threads(web)
        .build()
        .expect("valid configuration")
}

fn bits(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every getter of `m`, floats as hex bits, one line per getter.
fn fingerprint(m: &Measurement) -> Vec<String> {
    let per_class = |f: fn(&Measurement, TransactionKind) -> f64| {
        bits(TransactionKind::ALL.iter().map(|&k| f(m, k)))
    };
    let counts = |f: fn(&Measurement, TransactionKind) -> u64| {
        TransactionKind::ALL
            .iter()
            .map(|&k| f(m, k).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let u = m.utilization();
    [
        format!("indicators {}", bits(m.indicators())),
        format!(
            "utilization {}",
            bits([u.web, u.mfg, u.default_queue, u.db])
        ),
        format!("p95 {}", per_class(Measurement::p95_response_time)),
        format!("max {}", per_class(Measurement::max_response_time)),
        format!("std {}", per_class(Measurement::response_time_std)),
        format!(
            "rates {}",
            bits([m.total_throughput(), m.completion_rate(), m.window_secs()])
        ),
        format!("injected {}", m.injected()),
        format!("completed {}", counts(Measurement::completions)),
        format!("effective {}", counts(Measurement::effective_completions)),
    ]
    .into()
}

/// Ideal hardware, zero domain and database demand, every class routed
/// through the default queue: only the web stage takes time.
fn web_only(web: Distribution) -> Simulation {
    let zero = Distribution::deterministic(0.0).expect("valid demand");
    let classes = TransactionKind::ALL
        .iter()
        .map(|&kind| {
            let demands = StageDemands {
                web,
                domain: zero,
                domain_queue: DomainQueue::Default,
                db: zero,
            };
            TransactionClass::new(kind, 0.25, demands, 0.1).expect("valid class")
        })
        .collect();
    Simulation::new(server(150.0, 2, 2, 4))
        .hardware(HardwareModel::ideal())
        .workload(WorkloadSpec::new(classes).expect("valid workload"))
        .duration_secs(20.0)
        .warmup_secs(2.0)
}

fn check(sim: Simulation, expected: [&str; 9]) {
    let m = sim.run().expect("simulation completes");
    assert_eq!(fingerprint(&m), expected);
}

#[test]
fn light_load() {
    check(
        Simulation::new(server(200.0, 10, 10, 10))
            .seed(1)
            .duration_secs(10.0)
            .warmup_secs(2.0),
        [
            "indicators 3fa3094839098216 3fa30708d0fd4724 3f9e84072b2cad4d 3f9f90428fee62df 4063b40000000000",
            "utilization 3fc53450f5fae191 3fb8ac6863d3a7f1 3fc648f9d7d066a8 3fa8eca39dca8d0d",
            "p95 3fb15271427b980d 3fb1f461eea88b79 3fad5e42fd88b066 3fb0f433795f0a00",
            "max 3fc061a235993140 3fc1d1ec5f1ad900 3fb405f43ccd4d00 3fb9bd85fc49dd00",
            "std 3f91d1765f2413be 3f93065aa5a1fc21 3f8cbe1de4033cc3 3f9160e07e1e84d6",
            "rates 4069200000000000 3fe91832f1fd73e7 4020000000000000",
            "injected 2001",
            "completed 404 384 339 481",
            "effective 324 309 263 365",
        ],
    );
}

#[test]
fn paper_operating_range() {
    check(
        Simulation::new(server(560.0, 10, 16, 10))
            .seed(2)
            .duration_secs(10.0)
            .warmup_secs(2.0),
        [
            "indicators 3fa5ac9262f21006 3fa50b0d0a9ac71c 3fa0e53c6c4e67ee 3fa101fba4c9993d 40788e0000000000",
            "utilization 3fe0a0d1b2293a3a 3fca0ffce6678793 3fe13a64d2b4fc3f 3fc1762c0d621c43",
            "p95 3fb4a6d573b64000 3fb527f8d1bca780 3fb030ade2ff13ff 3fb1c96fe935f1e0",
            "max 3fc4064eb3557520 3fc232014eca91c0 3fbcf9b6c4a71ec0 3fc3aa0ac9837d00",
            "std 3f946f430b4ab726 3f95bd6f7f9498ea 3f90b7cccaf00064 3f93472ba4700f4c",
            "rates 4081360000000000 3fe6d3b9cfe41c5b 4020000000000000",
            "injected 5557",
            "completed 1101 1117 902 1286",
            "effective 776 789 642 936",
        ],
    );
}

#[test]
fn saturated() {
    check(
        Simulation::new(server(700.0, 1, 1, 1))
            .seed(3)
            .duration_secs(10.0)
            .warmup_secs(2.0),
        [
            "indicators 40131de5186ce9f0 4013959f8a9a6730 40124505feafe51f 40137ad57b91e26f 0000000000000000",
            "utilization 3feffff02cc0508e 3fe26a8c6e2f6adb 3fef537d63ff5ce6 3f9e7cb131aa47cc",
            "p95 401e7679b16d2815 401fb629f95c7db8 401eda5d842330fe 401e85795c1e1791",
            "max 401fb66f3d28d12c 402033bbcee9cb89 40202718b4daef9e 4020324e92365c59",
            "std 3ffd7da4bf5ae6e0 3ffeeb66e6f31633 3ffe055fd9c4e3db 3ffe21868be8f26e",
            "rates 40606c0000000000 0000000000000000 4020000000000000",
            "injected 6975",
            "completed 256 274 200 321",
            "effective 0 0 0 0",
        ],
    );
}

#[test]
fn bursty_arrivals() {
    check(
        Simulation::new(server(450.0, 10, 16, 10))
            .arrivals(ArrivalProcess::bursty())
            .seed(4)
            .duration_secs(20.0)
            .warmup_secs(2.0),
        [
            "indicators 3fd7da9ac1128059 3fdf2716a8574527 3fddb60d4a669aa0 3fdd7ed58f19301f 4060738e38e38e39",
            "utilization 3fe3daadfe4e322a 3fced89750a3e2c6 3fe518a41e939f36 3fc00fd3c94eaad8",
            "p95 3ff0c8d92ad43892 3ff37642b23b4662 3ff27d5f14f429e4 3ff36c81ee2388d8",
            "max 3ff5b779e58c9750 3ff801895c572e28 3ff7bcc2c483ad30 3ff917f86add5f98",
            "std 3fd61b7a01de4138 3fdb16e7e449cd80 3fda7374c011aacd 3fdad2e3d1ee190f",
            "rates 40807eaaaaaaaaab 3fcfea71c283384a 4032000000000000",
            "injected 10163",
            "completed 2322 2470 1867 2842",
            "effective 608 596 444 721",
        ],
    );
}

#[test]
fn ties_with_deterministic_web_demand() {
    let web = Distribution::deterministic(0.02).expect("valid demand");
    check(web_only(web).seed(5), [
        "indicators 3f990c268a328f79 3f9985ae1aa0a100 3f9955b4a116f856 3f9924423cae028c 40626aaaaaaaaaab",
        "utilization 3fe781980e27bd9e 0000000000000000 0000000000000000 0000000000000000",
        "p95 3fa40f0c33dc64c0 3fa44aa7f810151a 3fa3dc5bccfd5732 3fa397bb75acf799",
        "max 3fafa026ae4a4d00 3fb2694d8bf2c780 3fb0b58fdb224600 3fb15c1f61ab8a80",
        "std 3f7d7c4582088a87 3f7fd2c34e0d8820 3f7ef8981b716f60 3f7c71f81be11a8f",
        "rates 40626aaaaaaaaaab 3ff0000000000000 4032000000000000",
        "injected 2939",
        "completed 624 679 672 677",
        "effective 624 679 672 677",
    ]);
}

#[test]
fn ties_with_exponential_web_demand() {
    let web = Distribution::exponential(50.0).expect("valid demand");
    check(web_only(web).seed(6), [
        "indicators 3f9afd474314df7b 3f9aab7b5bb449a0 3f9bcb441a8e2090 3f9ae913733f5e76 4062e71c71c71c72",
        "utilization 3fe7abb9978f35f6 0000000000000000 0000000000000000 0000000000000000",
        "p95 3fb2f0fbb9e7f4ce 3fb0eac319af8117 3fb3107074adf64a 3fb1d99e637fa594",
        "max 3fc22cccc7c94940 3fc47e1ddab00f40 3fc6201cb1de9340 3fc0323c76f90a40",
        "std 3f973cddfe3d0da5 3f976e51fe806ee2 3f96eccb66679b2a 3f96ece617a12de1",
        "rates 4063200000000000 3fefa0d038845e71 4032000000000000",
        "injected 3036",
        "completed 709 658 672 715",
        "effective 701 647 668 706",
    ]);
}
