//! `diagnose_resnet_itd`: the paper's own pipeline. Set-up trains the
//! Table I ResNet-tiny x ITD cell; each item is one
//! `DeepMorph::diagnose` over its faulty cases.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use deepmorph::prelude::*;
use deepmorph_bench::table1::dataset_for;
use deepmorph_bench::{default_defects, Table1Config};
use deepmorph_nn::train::gather_batch;
use deepmorph_telemetry::TelemetryConfig;
use deepmorph_tensor::init::stream_rng;
use rand::seq::SliceRandom;

use crate::measure::{self, median, Outcome, Samples, Setups};
use crate::trace;
use crate::Args;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The scenario of one Table I cell at one retry attempt, built as the
/// Table I harness builds it.
fn cell_scenario(
    family: ModelFamily,
    defect: &DefectSpec,
    config: &Table1Config,
    attempt: u64,
) -> Scenario {
    Scenario::builder(family, dataset_for(family))
        .seed(config.seed + attempt * 1000)
        .scale(config.scale)
        .train_per_class(config.train_per_class)
        .test_per_class(config.test_per_class)
        .train_config(TrainConfig {
            epochs: config.epochs_for(family),
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 0.9,
            ..TrainConfig::default()
        })
        .inject(defect.clone())
        .build()
        .expect("valid Table I scenario")
}

/// The Table I ResNet x ITD cell at Table I's default configuration.
fn itd_scenario() -> Scenario {
    // Table I's defect list starts with its ITD defect.
    let itd = &default_defects()[0];
    assert_eq!(
        itd.kind(),
        Some(DefectKind::InsufficientTrainingData),
        "Table I's first defect is ITD"
    );
    cell_scenario(ModelFamily::ResNet, itd, &Table1Config::default(), 0)
}

/// What every item diagnoses.
struct Cell {
    trained: TrainedModelArtifact,
    train: Dataset,
    faulty: FaultyCases,
    subject: String,
}

/// The diagnosis configuration Table I scenarios run with.
fn config() -> DeepMorphConfig {
    DeepMorphConfig {
        max_faulty_cases: 200,
        ..DeepMorphConfig::default()
    }
}

/// The cell a trained model yields: its faulty cases, handed to the
/// pipeline in an order drawn from the workload seed. One untimed
/// diagnosis grows the scratch arenas to their working size; its ratios
/// are returned as the reference every later report must equal.
fn cell(args: &Args, scenario: &Scenario, trained: TrainedModelArtifact) -> (Cell, [f32; 3]) {
    let (train, _test) = scenario.injected_data().expect("injected data");
    let mut order: Vec<usize> = (0..trained.faulty.len()).collect();
    order.shuffle(&mut stream_rng(args.seed, "perfbench-faulty-order"));
    let f = &trained.faulty;
    let faulty = FaultyCases {
        images: gather_batch(&f.images, &order).expect("reorder faulty cases"),
        true_labels: order.iter().map(|&i| f.true_labels[i]).collect(),
        predicted: order.iter().map(|&i| f.predicted[i]).collect(),
    };
    let cell = Cell {
        subject: scenario.subject(),
        trained,
        train,
        faulty,
    };
    let first = diagnose(&cell, fresh_model(&cell)).ratios.as_array();
    (cell, first)
}

/// Set-up: train the cell and build it.
fn prepare(args: &Args) -> (Cell, [f32; 3]) {
    let scenario = itd_scenario();
    let trained = StagedEngine::ephemeral()
        .trained(&scenario)
        .expect("train the ResNet x ITD cell");
    cell(args, &scenario, trained)
}

/// A fresh copy of the cell's trained model (diagnosis consumes it).
fn fresh_model(cell: &Cell) -> ModelHandle {
    cell.trained.instantiate().expect("instantiate model")
}

/// One item: the one-shot pipeline.
fn diagnose(cell: &Cell, model: ModelHandle) -> DefectReport {
    DeepMorph::new(config())
        .diagnose(model, &cell.train, &cell.faulty, &cell.subject)
        .expect("diagnose")
        .0
}

/// The output check: ratios bitwise equal to the run's first report, and
/// ITD the dominant defect.
pub fn check_report(first: &[f32; 3], ratios: &[f32; 3]) -> bool {
    let bits = |r: &[f32; 3]| r.map(f32::to_bits);
    bits(first) == bits(ratios)
        && ratios[0] > ratios[1]
        && ratios[0] > ratios[2]
        && ratios.iter().all(|r| r.is_finite())
}

/// Self-test of the check: it must reject a one-ulp change and a report
/// where another defect dominates.
fn check_rejects_corruption(first: &[f32; 3]) -> bool {
    let mut ulp = *first;
    ulp[1] = f32::from_bits(ulp[1].to_bits() + 1);
    let swapped = [first[1], first[0], first[2]];
    check_report(first, first) && !check_report(first, &ulp) && !check_report(&swapped, &swapped)
}

/// Prints the cell.
fn describe() {
    println!(
        "ResNet-tiny x ITD, Table I cell at table seed {}",
        Table1Config::default().seed
    );
}

/// Untraced run: the end-to-end metrics.
pub fn run(args: &Args, out: &mut Outcome) {
    describe();
    let mut setups = Setups::default();
    let (cell, first) = setups.time(|| prepare(args));
    println!("{} faulty cases", cell.faulty.len());
    let start = Instant::now();
    let mut latencies = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while start.elapsed() < args.duration() {
        let model = fresh_model(&cell);
        let t = Instant::now();
        let ratios = diagnose(&cell, model).ratios.as_array();
        attempted += 1;
        if !check_report(&first, &ratios) {
            failed += 1;
        }
        latencies.push(start.elapsed(), t.elapsed());
    }
    let wall = measure::secs(start);
    drop(cell);
    let peak_rss_mb = measure::peak_rss_mb();
    setups.repeat(SETUPS, || prepare(args));
    println!(
        "{attempted} diagnoses in {wall:.3} s, whole run: {:.3}/s, p50 {:.0} us over n={}, \
         ratios {first:?}",
        attempted as f64 / wall,
        latencies.percentile(0.5),
        latencies.len()
    );
    latencies.print_groups();
    let verified = (attempted - failed) as f64 / attempted as f64;
    out.items(attempted, failed);
    out.check(
        "report check rejects corrupted reports",
        check_rejects_corruption(&first),
    );
    out.metric("setup_s", setups.median(), "s");
    out.metric(
        "items_per_s",
        latencies.group_median(|g| g.rate) * verified,
        "1/s",
    );
    out.metric("latency_p50_us", latencies.group_median(|g| g.p50_us), "us");
    out.metric("success_ratio", verified, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Wall time of each layer of one replayed diagnosis, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTimes {
    instrument: f64,
    footprint_train: f64,
    pattern: f64,
    footprint_faulty: f64,
    classify: f64,
    total: f64,
}

/// Replays `DeepMorph::prepare` + `DiagnosisSession::diagnose` one layer
/// at a time through the layers' public functions, timing each call.
fn replay(cell: &Cell, model: ModelHandle) -> ([f32; 3], LayerTimes) {
    let cfg = config();
    let mut t = LayerTimes::default();
    let start = Instant::now();
    let train = &cell.train;
    let mut split_rng = stream_rng(cfg.probe.seed, "holdout-split");
    assert!(
        train.len() >= 10 * train.num_classes(),
        "the cell's training set is large enough for the holdout split"
    );
    let (fit, holdout) = train.split_stratified(0.85, &mut split_rng);

    let at = Instant::now();
    let mut inst = InstrumentedModel::build(
        model,
        fit.images(),
        fit.labels(),
        train.num_classes(),
        &cfg.probe,
    )
    .expect("instrument");
    t.instrument = measure::millis(at);

    let at = Instant::now();
    let fit_fps = inst.footprints(fit.images()).expect("fit footprints");
    let holdout_fps = inst
        .footprints(holdout.images())
        .expect("holdout footprints");
    t.footprint_train = measure::millis(at);

    let at = Instant::now();
    let patterns = ClassPatterns::learn_with_holdout(
        &fit_fps,
        fit.labels(),
        &holdout_fps,
        holdout.labels(),
        inst.probe_accuracies(),
    )
    .expect("patterns");
    t.pattern = measure::millis(at);

    let at = Instant::now();
    let mut faulty = cell.faulty.clone();
    faulty
        .truncate(cfg.max_faulty_cases)
        .expect("cap faulty cases");
    let faulty_fps = inst.footprints(&faulty.images).expect("faulty footprints");
    t.footprint_faulty = measure::millis(at);

    let at = Instant::now();
    let specifics: Vec<FootprintSpecifics> = faulty_fps
        .iter()
        .zip(faulty.true_labels.iter().zip(&faulty.predicted))
        .map(|(fp, (&label, &pred))| {
            FootprintSpecifics::compute(fp, label, pred, &patterns, cfg.classifier.metric)
        })
        .collect();
    let (_scores, ratios) = DefectClassifier::new(cfg.classifier).classify(&specifics, &patterns);
    t.classify = measure::millis(at);
    t.total = measure::millis(start);
    (DefectRatios::new(ratios).as_array(), t)
}

/// Wall time of each `StagedEngine` stage of one cell, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct StageTimes {
    trained: f64,
    instrumented: f64,
    footprints: f64,
    report: f64,
}

/// The cell through the four `StagedEngine` stages, each timed. Returns
/// the outcome `StagedEngine::run` would give and the trained model.
fn replay_stages(
    engine: &StagedEngine,
    scenario: &Scenario,
) -> (ScenarioOutcome, TrainedModelArtifact, StageTimes) {
    let mut t = StageTimes::default();
    let at = Instant::now();
    let trained = engine.trained(scenario).expect("trained stage");
    t.trained = measure::secs(at);
    assert!(!trained.faulty.is_empty(), "the cell has faulty cases");
    let at = Instant::now();
    let instrumented = engine
        .instrumented(scenario, &trained)
        .expect("instrumented stage");
    t.instrumented = measure::secs(at);
    let at = Instant::now();
    let footprints = engine
        .footprints(scenario, &trained, &instrumented)
        .expect("footprints stage");
    t.footprints = measure::secs(at);
    let at = Instant::now();
    let report = engine
        .report(scenario, &trained, &instrumented, &footprints)
        .expect("report stage");
    t.report = measure::secs(at);
    let outcome = ScenarioOutcome {
        report,
        test_accuracy: trained.test_accuracy,
        train_accuracy: trained.train_accuracy,
        faulty_count: trained.total_faulty,
        defect: scenario.defect().clone(),
        subject: scenario.subject(),
    };
    (outcome, trained, t)
}

/// A fresh artifact directory inside the build directory.
fn store_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable");
    let dir = exe
        .parent()
        .expect("executable directory")
        .join(format!("perfbench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Profiles the Table I stages on the cell: data generation, the four
/// `StagedEngine` stages with the store disabled (as `table1` runs without
/// `DEEPMORPH_ARTIFACTS`), and a warm rerun over a disk store that an
/// untimed one-shot `StagedEngine::run` filled. The staged pass and the
/// warm rerun must give the one-shot outcome. Returns the trained model.
fn profile_stages(scenario: &Scenario, out: &mut Outcome) -> TrainedModelArtifact {
    let at = Instant::now();
    std::hint::black_box(scenario.injected_data().expect("injected data"));
    let data_ms = measure::millis(at);

    let (staged, trained, t) = replay_stages(&StagedEngine::ephemeral(), scenario);

    let dir = store_dir();
    let open = || ArtifactStore::open(&dir).expect("open artifact store");
    let one_shot = StagedEngine::new(open())
        .run(scenario)
        .expect("one-shot run");
    let engine = StagedEngine::new(open());
    let at = Instant::now();
    let (warm, _, _) = replay_stages(&engine, scenario);
    let warm_ms = measure::millis(at);
    let hits = engine.store().stats().hits;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let same = [&staged, &warm].map(|o| *o == one_shot);
    println!(
        "stages: staged == one-shot {}, warm == one-shot {}, ratios {:?}",
        same[0],
        same[1],
        one_shot.report.ratios.as_array()
    );
    out.items(2, same.iter().filter(|s| !**s).count() as u64);
    out.metric("data.injected_data_ms", data_ms, "ms");
    out.metric("core.stage.trained_s", t.trained, "s");
    out.metric("core.stage.instrumented_s", t.instrumented, "s");
    out.metric("core.stage.footprints_s", t.footprints, "s");
    out.metric("core.stage.report_s", t.report, "s");
    out.metric("core.artifact.warm_rerun_ms", warm_ms, "ms");
    out.metric("core.artifact.hits", hits as f64, "count");
    trained
}

/// Traced run of the diagnosis layers for `duration`: the Table I stage
/// profile of the cell, then layer-by-layer replays of the diagnosis under
/// armed GEMM timing, each of which must reproduce the one-shot ratios
/// bitwise. When the diagnoses are the run's `own` workload, untraced
/// one-shot diagnoses are interleaved with the replays, and the GEMM
/// totals and the tracing overhead are reported too.
pub fn run_traced(args: &Args, duration: Duration, own: bool, out: &mut Outcome) {
    describe();
    let scenario = itd_scenario();
    let trained = profile_stages(&scenario, out);
    let (cell, first) = cell(args, &scenario, trained);
    let mut plain = Vec::new();
    let mut layers = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut gemm_ms, mut gemm_calls) = (0.0, 0.0);
    let start = Instant::now();
    while start.elapsed() < duration {
        if own {
            let model = fresh_model(&cell);
            let t = Instant::now();
            let ratios = diagnose(&cell, model).ratios.as_array();
            plain.push(measure::millis(t));
            attempted += 1;
            failed += u64::from(!check_report(&first, &ratios));
        }

        let model = fresh_model(&cell);
        let telemetry = deepmorph_telemetry::install(TelemetryConfig::default());
        let (replayed, times) = replay(&cell, model);
        let (ms, calls) = trace::gemm_totals(&telemetry.snapshot());
        gemm_ms += ms;
        gemm_calls += calls;
        deepmorph_telemetry::clear();
        layers.push(times);
        attempted += 1;
        failed += u64::from(!check_report(&first, &replayed));
    }

    let items = layers.len() as f64;
    let med = |f: fn(&LayerTimes) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let children: f64 = layers
        .iter()
        .map(|t| t.instrument + t.footprint_train + t.pattern + t.footprint_faulty + t.classify)
        .sum();
    let total: f64 = layers.iter().map(|t| t.total).sum();
    println!(
        "{} one-shot diagnoses, {} replays, all equal to the first report: {}",
        plain.len(),
        layers.len(),
        failed == 0
    );
    out.items(attempted, failed);
    out.check(
        "report check rejects corrupted reports",
        check_rejects_corruption(&first),
    );
    if own {
        out.metric("tensor.gemm_busy_ms", gemm_ms / items, "ms");
        out.metric("tensor.gemm_calls", gemm_calls / items, "count");
        out.metric(
            "trace.overhead_ratio",
            med(|t| t.total) / median(&plain),
            "ratio",
        );
    }
    out.metric("core.instrument_ms", med(|t| t.instrument), "ms");
    out.metric("core.footprint_train_ms", med(|t| t.footprint_train), "ms");
    out.metric("core.pattern_ms", med(|t| t.pattern), "ms");
    out.metric(
        "core.footprint_faulty_ms",
        med(|t| t.footprint_faulty),
        "ms",
    );
    out.metric("core.classify_ms", med(|t| t.classify), "ms");
    out.metric("trace.coverage", children / total, "ratio");
}
