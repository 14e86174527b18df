//! The repository benchmark: three closed-loop workloads over the DeepMorph
//! serving stack and diagnosis pipeline, measured end to end (untraced)
//! or layer by layer (traced). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_alexnet_w8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every workload reports the same
//! metrics: an untraced run all of [`END_TO_END`], a traced run all of
//! [`PER_LAYER`].

mod diagnose;
mod measure;
mod serve;
mod trace;

use std::time::Duration;

use measure::Outcome;

const WORKLOADS: [&str; 3] = ["serve_alexnet_w8", "serve_lenet_w1", "diagnose_resnet_itd"];

/// What an untraced run reports, in this order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "items_per_s",
    "latency_p50_us",
    "success_ratio",
    "peak_rss_mb",
];

/// What a traced run reports, in this order.
pub const PER_LAYER: [&str; 26] = [
    "tensor.gemm_busy_ms",
    "tensor.gemm_calls",
    "nn.forward_us.b1",
    "nn.forward_us.b4",
    "nn.forward_us.b8",
    "serve.batch_rows_mean",
    "serve.queue_wait_us.mean",
    "serve.coalesce_us.mean",
    "serve.compute_us.mean",
    "serve.compute_busy_ms",
    "serve.assembly_us.mean",
    "serve.flush_us.mean",
    "trace.overhead_ratio",
    "core.instrument_ms",
    "core.footprint_train_ms",
    "core.pattern_ms",
    "core.footprint_faulty_ms",
    "core.classify_ms",
    "trace.coverage",
    "data.injected_data_ms",
    "core.stage.trained_s",
    "core.stage.instrumented_s",
    "core.stage.footprints_s",
    "core.stage.report_s",
    "core.artifact.warm_rerun_ms",
    "core.artifact.hits",
];

/// How long a traced run spends on the layers its own workload does not
/// exercise.
const PROBE: Duration = Duration::from_secs(2);

/// Default workload seed.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    /// Generates the serve input rows and the order of the diagnosed
    /// faulty cases.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        let bad = || format!("bad value for {key}: {value}");
        match key.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        // Makes the GEMM seam time every call while telemetry is armed. The
        // variable is read once per process, so it is set before any
        // thread exists.
        std::env::set_var("DEEPMORPH_KERNEL_TIMING", "1");
    }
    let features: Vec<&str> = [
        ("parallel", cfg!(feature = "parallel")),
        ("simd", cfg!(feature = "simd")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} | build features: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        features.join(",")
    );
    let serving = match args.workload.as_str() {
        "serve_alexnet_w8" => Some(&serve::ALEXNET_W8),
        "serve_lenet_w1" => Some(&serve::LENET_W1),
        _ => None,
    };
    let mut out = Outcome::default();
    match (serving, args.trace) {
        (Some(w), false) => serve::run(w, &args, &mut out),
        (None, false) => diagnose::run(&args, &mut out),
        // A traced run profiles every layer: the workload's own under its
        // own load, the others with a short fixed probe (the AlexNet
        // serving load, or a few diagnoses of the ResNet x ITD cell).
        (Some(w), true) => {
            serve::run_traced(w, &args, args.duration(), true, &mut out);
            diagnose::run_traced(&args, PROBE, false, &mut out);
        }
        (None, true) => {
            serve::run_traced(&serve::ALEXNET_W8, &args, PROBE, false, &mut out);
            diagnose::run_traced(&args, args.duration(), true, &mut out);
        }
    }
    out.order_metrics(if args.trace { &PER_LAYER } else { &END_TO_END });
    println!("{}", out.json_line());
}
