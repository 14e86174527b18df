//! The serving workloads: an in-process `Server` answering single-row
//! predict requests over loopback TCP, driven closed-loop by one
//! connection holding a fixed number of requests in flight.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_serve::protocol::{self, PredictRequest, Request, Response};
use deepmorph_serve::registry::ModelEntry;
use deepmorph_telemetry::{HistogramSnapshot, Stage, TelemetryConfig};
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;
use rand::Rng;

use crate::measure::{self, median, Outcome, Samples, Setups};
use crate::trace;
use crate::Args;

const MODEL: &str = "served";
const INPUT: [usize; 3] = [1, 16, 16];
const CLASSES: usize = 10;
/// Distinct input rows per run; requests cycle through them.
const POOL: usize = 1024;
/// Start-ups per run; `setup_s` is their median.
const SETUPS: usize = 61;

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub family: ModelFamily,
    pub scale: ModelScale,
    /// Requests one connection keeps in flight.
    pub window: usize,
}

pub const ALEXNET_W8: ServeWorkload = ServeWorkload {
    family: ModelFamily::AlexNet,
    scale: ModelScale::Paper,
    window: 8,
};

pub const LENET_W1: ServeWorkload = ServeWorkload {
    family: ModelFamily::LeNet,
    scale: ModelScale::Tiny,
    window: 1,
};

/// The workload's inputs: `POOL` single rows drawn from the seed.
fn input_rows(seed: u64) -> Vec<Tensor> {
    let mut rng = stream_rng(seed, "perfbench-serve-rows");
    let elems: usize = INPUT.iter().product();
    (0..POOL)
        .map(|_| {
            let data = (0..elems).map(|_| rng.gen::<f32>()).collect();
            Tensor::from_vec(data, &[1, INPUT[0], INPUT[1], INPUT[2]]).expect("row shape")
        })
        .collect()
}

/// What the load loop verifies responses against, computed once per run
/// by the benchmark itself and kept out of `setup_s`.
struct Expected {
    /// Reference prediction per pool row.
    reference: Vec<usize>,
    /// Pre-encoded request frames; request id = pool index + 1.
    frames: Vec<Vec<u8>>,
}

/// A registry holding the workload's model in the fastest f32 serving
/// mode. The model is drawn from a fixed seed, so every call yields the
/// same weights.
fn registry(w: &ServeWorkload) -> (ModelRegistry, std::sync::Arc<ModelEntry>) {
    let spec = ModelSpec::new(w.family, w.scale, INPUT, CLASSES);
    let mut model =
        build_model(&spec, &mut stream_rng(42, "perfbench-serve-model")).expect("build model");
    let mut registry = ModelRegistry::new();
    let id = registry
        .register(MODEL, &mut model, None)
        .expect("register model");
    let entry = registry
        .set_serving_mode(id, Precision::F32, BackendKind::Auto)
        .expect("serving mode");
    (registry, entry)
}

/// The reference predictions of the pool rows on a serving replica of the
/// same precision and backend, and the request frames.
fn expected(w: &ServeWorkload, rows: &[Tensor]) -> Expected {
    let (_registry, entry) = registry(w);
    let mut replica = entry.instantiate_for_serving().expect("serving replica");
    let reference = rows
        .iter()
        .map(|row| {
            let logits = replica.graph.forward_inference(row).expect("reference");
            logits.argmax_rows().expect("argmax")[0]
        })
        .collect();
    let frames = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            protocol::encode_request(
                i as u64 + 1,
                &Request::Predict(PredictRequest {
                    model: MODEL.to_string(),
                    rows: row.clone(),
                    want_logits: false,
                    true_labels: Vec::new(),
                    deadline_ms: 0,
                }),
            )
        })
        .collect();
    Expected { reference, frames }
}

/// A started server and its model's registry entry.
struct Deployment {
    server: Server,
    entry: std::sync::Arc<ModelEntry>,
}

/// The program's start-up, which `setup_s` times: build and register the
/// model in its serving mode, start the server and answer one window of
/// verified requests, whose first batch instantiates a worker's serving
/// replica (workers build theirs lazily). A longer
/// warm-up would make `setup_s` a sum of round trips, which follows the
/// host's scheduling hiccups the way a latency tail does.
fn deploy(w: &ServeWorkload, exp: &Expected) -> Deployment {
    let (registry, entry) = registry(w);
    let server = Server::start(registry, ServerConfig::default()).expect("start server");
    let warm = drive(&server, exp, w.window, Stop::After(w.window as u64));
    assert_eq!(warm.failed, 0, "warm-up pass returned wrong predictions");
    Deployment { server, entry }
}

/// `true` when `response` to request `id` carries the reference
/// prediction of that pool row.
pub fn check_prediction(reference: &[usize], id: u64, response: &Response) -> bool {
    let Some(expected) = (id as usize).checked_sub(1).and_then(|i| reference.get(i)) else {
        return false;
    };
    matches!(response, Response::Predict(p) if p.predictions == [*expected])
}

/// One closed-loop load phase.
#[derive(Default)]
struct LoadRun {
    latencies: Samples,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl LoadRun {
    fn absorb(&mut self, other: LoadRun) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

/// When a load phase stops sending.
#[derive(Clone, Copy)]
enum Stop {
    After(u64),
    Elapsed(Duration),
}

/// Keeps `window` requests in flight on one connection until `stop`, then
/// drains. Each latency runs from the request's send to its verification.
fn drive(server: &Server, exp: &Expected, window: usize, stop: Stop) -> LoadRun {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut sent_at = vec![Instant::now(); exp.frames.len()];
    let mut run = LoadRun::default();
    let start = Instant::now();
    let more = |sent: u64| match stop {
        Stop::After(n) => sent < n,
        Stop::Elapsed(limit) => start.elapsed() < limit,
    };
    let mut in_flight = 0usize;
    let mut frame = Vec::new();
    loop {
        while in_flight < window && more(run.attempted) {
            let i = run.attempted as usize % exp.frames.len();
            sent_at[i] = Instant::now();
            stream.write_all(&exp.frames[i]).expect("send request");
            in_flight += 1;
            run.attempted += 1;
        }
        if in_flight == 0 {
            break;
        }
        let (id, response) = read_response(&mut stream, &mut frame);
        let index = (id as usize).saturating_sub(1).min(exp.frames.len() - 1);
        if !check_prediction(&exp.reference, id, &response) {
            run.failed += 1;
        }
        run.latencies
            .push(start.elapsed(), sent_at[index].elapsed());
        in_flight -= 1;
    }
    run.wall_s = measure::secs(start);
    run
}

fn read_response(stream: &mut TcpStream, frame: &mut Vec<u8>) -> (u64, Response) {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("read frame prefix");
    frame.resize(u32::from_le_bytes(prefix) as usize, 0);
    stream.read_exact(frame).expect("read frame");
    protocol::decode_response(frame).expect("decode response")
}

/// Self-test of the output check: it must reject a wrong class, an
/// unknown id and a non-predict response.
fn check_rejects_corruption(reference: &[usize]) -> bool {
    let good = Response::Predict(PredictResponse {
        predictions: vec![reference[0]],
        logits: None,
    });
    let wrong = Response::Predict(PredictResponse {
        predictions: vec![(reference[0] + 1) % CLASSES],
        logits: None,
    });
    check_prediction(reference, 1, &good)
        && !check_prediction(reference, 1, &wrong)
        && !check_prediction(reference, 0, &good)
        && !check_prediction(reference, reference.len() as u64 + 1, &good)
        && !check_prediction(reference, 1, &Response::Pong { models: 1 })
}

/// Prints the served model and its resolved backend.
fn describe(w: &ServeWorkload) {
    println!(
        "{} {:?} [1,16,16]->10, F32/Auto (resolved backend: {}), {} in flight",
        w.family.name(),
        w.scale,
        deepmorph_tensor::backend::select(BackendKind::Auto).name(),
        w.window
    );
}

/// Untraced run: the end-to-end metrics.
pub fn run(w: &ServeWorkload, args: &Args, out: &mut Outcome) {
    describe(w);
    let exp = expected(w, &input_rows(args.seed));
    let mut setups = Setups::default();
    let d = setups.time(|| deploy(w, &exp));
    let load = drive(&d.server, &exp, w.window, Stop::Elapsed(args.duration()));
    drop(d);
    let peak_rss_mb = measure::peak_rss_mb();
    setups.repeat(SETUPS, || deploy(w, &exp));
    let lat = &load.latencies;
    println!(
        "{} items in {:.3} s, whole run: {:.1}/s, p50 {:.1} us, p90 {:.1} us over n={}",
        load.attempted,
        load.wall_s,
        load.attempted as f64 / load.wall_s,
        lat.percentile(0.5),
        lat.percentile(0.9),
        lat.len()
    );
    lat.print_groups();
    let verified = (load.attempted - load.failed) as f64 / load.attempted as f64;
    out.items(load.attempted, load.failed);
    out.check(
        "prediction check rejects corrupted responses",
        check_rejects_corruption(&exp.reference),
    );
    out.metric("setup_s", setups.median(), "s");
    out.metric(
        "items_per_s",
        lat.group_median(|g| g.rate) * verified,
        "1/s",
    );
    out.metric("latency_p50_us", lat.group_median(|g| g.p50_us), "us");
    out.metric("success_ratio", verified, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Median wall time of `forward_inference` at batch `rows` on a fresh
/// serving replica, in microseconds.
fn forward_us(entry: &ModelEntry, pool: &[Tensor], rows: usize) -> f64 {
    let mut replica = entry.instantiate_for_serving().expect("serving replica");
    let data: Vec<f32> = pool[..rows]
        .iter()
        .flat_map(|r| r.data().iter().copied())
        .collect();
    let batch = Tensor::from_vec(data, &[rows, INPUT[0], INPUT[1], INPUT[2]]).expect("batch shape");
    let mut times = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let out = replica.graph.forward_inference(&batch).expect("forward");
        let took = t.elapsed();
        std::hint::black_box(out);
        if i >= 5 {
            times.push(took.as_nanos() as f64 / 1000.0);
        }
        if times.len() >= 400 || (times.len() >= 30 && start.elapsed() > Duration::from_secs(1)) {
            break;
        }
    }
    median(&times)
}

/// Traced run of the serving layers for `duration`: the load alternates
/// one-second chunks untraced and with the server's stage spans and GEMM
/// timing armed, so both halves see the same host conditions; then replica
/// forwards are timed from outside. When the load is the run's `own`
/// workload it also reports the GEMM totals and the tracing overhead,
/// which are per item of the workload.
pub fn run_traced(
    w: &ServeWorkload,
    args: &Args,
    duration: Duration,
    own: bool,
    out: &mut Outcome,
) {
    describe(w);
    let rows = input_rows(args.seed);
    let exp = expected(w, &rows);
    let d = deploy(w, &exp);
    let mut admin = Client::connect(d.server.local_addr()).expect("admin connection");
    let chunk = Stop::Elapsed(Duration::from_secs(1));
    let mut plain = LoadRun::default();
    let mut traced = LoadRun::default();
    let mut stages = vec![HistogramSnapshot::default(); Stage::ALL.len()];
    let (mut gemm_ms, mut gemm_calls, mut batches, mut batch_rows) = (0.0, 0.0, 0, 0);
    let start = Instant::now();
    while start.elapsed() < duration {
        plain.absorb(drive(&d.server, &exp, w.window, chunk));
        deepmorph_telemetry::install(TelemetryConfig::default());
        let before = d.server.stats();
        traced.absorb(drive(&d.server, &exp, w.window, chunk));
        let after = d.server.stats();
        let snapshot = admin.telemetry().expect("telemetry report").snapshot;
        deepmorph_telemetry::clear();
        for (total, s) in stages.iter_mut().zip(&snapshot.stages) {
            total.merge(s);
        }
        let (ms, calls) = trace::gemm_totals(&snapshot);
        gemm_ms += ms;
        gemm_calls += calls;
        batches += after.batches - before.batches;
        batch_rows += after.rows - before.rows;
    }
    drop(admin);

    let items = traced.attempted as f64;
    let stage = |s: Stage| &stages[s.index()];
    let compute_busy_ms = trace::busy(stage(Stage::Compute)) / 1000.0;
    let batch_rows = batch_rows as f64 / batches.max(1) as f64;

    let forwards: Vec<(usize, f64)> = [1, 4, 8]
        .into_iter()
        .map(|b| (b, forward_us(&d.entry, &rows, b)))
        .collect();
    drop(d);

    println!(
        "untraced {} items p50 {:.1} us | traced {} items p50 {:.1} us, {} batches",
        plain.attempted,
        plain.latencies.percentile(0.5),
        traced.attempted,
        traced.latencies.percentile(0.5),
        batches
    );
    out.items(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    out.check(
        "prediction check rejects corrupted responses",
        check_rejects_corruption(&exp.reference),
    );
    if own {
        out.metric("tensor.gemm_busy_ms", gemm_ms / items, "ms");
        out.metric("tensor.gemm_calls", gemm_calls / items, "count");
        out.metric(
            "trace.overhead_ratio",
            traced.latencies.percentile(0.5) / plain.latencies.percentile(0.5),
            "ratio",
        );
    }
    for (b, us) in forwards {
        out.metric(&format!("nn.forward_us.b{b}"), us, "us");
    }
    out.metric("serve.batch_rows_mean", batch_rows, "rows");
    for (name, s) in [
        ("serve.queue_wait_us.mean", Stage::QueueWait),
        ("serve.coalesce_us.mean", Stage::Coalesce),
        ("serve.compute_us.mean", Stage::Compute),
        ("serve.assembly_us.mean", Stage::Assembly),
        ("serve.flush_us.mean", Stage::Flush),
    ] {
        out.metric(name, trace::mean(stage(s)), "us");
    }
    out.metric("serve.compute_busy_ms", compute_busy_ms / items, "ms");
}
