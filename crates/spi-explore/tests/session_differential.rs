//! Differential tests for the per-drain evaluation session.
//!
//! [`PartitionEvaluator`]'s session lowers each variant from per-cluster task
//! blocks instead of from the flattened graph, and renders a winner's detail
//! only on demand. These tests walk variant spaces the way drains do —
//! contiguous Gray ranks, strided ranks and random jumps through one
//! [`DeltaFlattener`] — and demand that the session agrees with
//! [`PartitionEvaluator::evaluate`] on every variant: bound, cost,
//! feasibility, detail, and errors — and that the problem lowered from the
//! blocks equals the one compiled from the flattened graph. End to end, a service whose shards drain
//! through sessions must still report exactly what the serial reference
//! computes for every variant.

use std::sync::Arc;

use spi_explore::{
    Evaluator, ExplorationService, JobSpec, JobState, PartitionEvaluator, ServiceConfig,
    TaskParamsSpec, Variant,
};
use spi_model::{ChannelKind, GraphBuilder, Interval};
use spi_store::span::SpanSink;
use spi_synth::partition::optimize_serial_reference;
use spi_synth::{
    compiled_from_flat_graph, from_flat_graph, BlockLowering, FeasibilityMode, SearchStrategy,
    TaskParams,
};
use spi_testutil::Lcg;
use spi_variants::{
    Cluster, DeltaFlattener, Flattener, Interface, VariantChoice, VariantSystem, VariantType,
};
use spi_workloads::scaling_system;

/// The rank orders a drain can take through a space of `count` variants.
fn walks(count: usize, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
    let mut cases = Lcg::new(seed);
    let stride = 3.min(count.max(1));
    vec![
        ("contiguous", (0..count).collect()),
        (
            "strided",
            (0..stride)
                .flat_map(|shard| (shard..count).step_by(stride))
                .collect(),
        ),
        (
            "random",
            (0..count)
                .map(|_| cases.below(count as u64) as usize)
                .collect(),
        ),
    ]
}

/// Evaluators covering every search strategy and both feasibility modes. The
/// uniform-parameter greedy one ties every repair move, so its winner depends
/// on the order the application lists its tasks in.
fn evaluators(params_seed: u64) -> Vec<PartitionEvaluator> {
    let hashed = TaskParamsSpec::Hashed { seed: params_seed };
    let uniform = TaskParamsSpec::Uniform(TaskParams {
        sw_time: 30,
        period: 100,
        hw_area: 20,
        synthesis_effort: 5,
    });
    [
        (
            hashed,
            SearchStrategy::Auto,
            FeasibilityMode::PerApplication,
        ),
        (
            hashed,
            SearchStrategy::Greedy,
            FeasibilityMode::PerApplication,
        ),
        (
            hashed,
            SearchStrategy::BranchAndBound,
            FeasibilityMode::Serialized,
        ),
        (
            uniform,
            SearchStrategy::Greedy,
            FeasibilityMode::PerApplication,
        ),
    ]
    .map(|(params, strategy, mode)| PartitionEvaluator {
        params,
        strategy,
        mode,
        ..PartitionEvaluator::default()
    })
    .into()
}

/// Walks `ranks` through one session and one delta flattener and compares
/// every variant with the evaluator's per-variant path. Returns how many
/// variants errored.
fn assert_session_agrees(
    system: &VariantSystem,
    evaluator: &PartitionEvaluator,
    ranks: &[usize],
    context: &str,
) -> usize {
    let flattener = Flattener::new(system).unwrap();
    let space = flattener.space();
    let mut delta = DeltaFlattener::new(&flattener);
    let mut session = evaluator.session(&flattener);
    let params = |name: &str| evaluator.params.params_for(name);
    let mut lowering = BlockLowering::new(&flattener, evaluator.processor_cost, params);
    let mut choice = VariantChoice::new();
    let mut errors = 0;
    for &rank in ranks {
        let (index, _) = delta.flatten_gray_rank(rank).unwrap();
        let graph = delta.graph().unwrap();
        space.choice_from_digits_into(delta.digits(), &mut choice);
        assert_eq!(Some(&choice), space.choice_at(index).as_ref());
        let variant = Variant {
            index,
            choice: &choice,
            graph,
            digits: delta.digits(),
        };
        let at = format!("{context}, rank {rank} (variant {index})");
        let compiled =
            compiled_from_flat_graph(graph, evaluator.processor_cost, |name| Some(params(name)));
        match (lowering.lower(delta.digits()), compiled) {
            (Ok(lowered), Ok(compiled)) => assert_eq!(*lowered, compiled, "lowering, {at}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{at}"),
            (got, want) => panic!("{at}: blocks {got:?}, graph {want:?}"),
        }
        assert_eq!(
            session.lower_bound(&variant),
            evaluator.lower_bound(&choice, graph),
            "lower bound, {at}"
        );
        let expected = evaluator.evaluate(index, &choice, graph, u64::MAX);
        match (
            session.evaluate(&variant, u64::MAX, &SpanSink::disabled()),
            expected,
        ) {
            (Ok(score), Ok(evaluation)) => {
                assert_eq!(score.cost, evaluation.cost, "cost, {at}");
                assert_eq!(score.feasible, evaluation.feasible, "feasibility, {at}");
                if score.feasible {
                    assert_eq!(session.detail(), evaluation.detail, "detail, {at}");
                }
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "error, {at}");
                errors += 1;
            }
            (got, want) => panic!("{at}: session {got:?}, evaluator {want:?}"),
        }
    }
    errors
}

#[test]
fn session_matches_the_evaluator_on_scaling_systems() {
    for (interfaces, clusters) in [(6, 2), (4, 3)] {
        let system = scaling_system(interfaces, clusters).unwrap();
        let count = system.variant_space().count();
        for params_seed in [1, 7, 42] {
            for evaluator in evaluators(params_seed) {
                for (walk, ranks) in walks(count, params_seed) {
                    let context = format!(
                        "scaling({interfaces},{clusters}) seed {params_seed} {:?}/{:?} {walk}",
                        evaluator.strategy, evaluator.mode
                    );
                    assert_eq!(
                        assert_session_agrees(&system, &evaluator, &ranks, &context),
                        0
                    );
                }
            }
        }
    }
}

/// A chain `src → [if0] → mid0 → [if1] → … → sink` whose clusters chain 1–3
/// processes. `src`/`sink` are environment processes; some `mid*` and every
/// process of each interface's cluster 0 are too, so some variants have no
/// task at all and error. Name order and graph order differ: the common
/// `mid*` tasks come first in the graph but sort after every `if*/` name.
fn mixed_system(seed: u64) -> VariantSystem {
    let mut rng = Lcg::new(seed);
    let interfaces = 2 + rng.below(2) as usize;
    let mut b = GraphBuilder::new("mixed");
    let mut upstream = b
        .process("src")
        .latency(Interval::point(1))
        .environment()
        .build()
        .unwrap();
    for i in 0..interfaces {
        let cin = b.channel(format!("in{i}"), ChannelKind::Queue).unwrap();
        let cout = b.channel(format!("out{i}"), ChannelKind::Queue).unwrap();
        b.connect_output(upstream, cin, Interval::point(1)).unwrap();
        let last = i + 1 == interfaces;
        let mut next = b
            .process(if last {
                "sink".to_string()
            } else {
                format!("mid{i}")
            })
            .latency(Interval::point(2));
        if last || rng.below(2) == 0 {
            next = next.environment();
        }
        let next = next.build().unwrap();
        b.connect_input(cout, next, Interval::point(1)).unwrap();
        upstream = next;
    }
    let mut system = VariantSystem::new(b.finish().unwrap());

    for i in 0..interfaces {
        let mut interface = Interface::new(format!("if{i}"));
        interface.add_input_port("i");
        interface.add_output_port("o");
        for c in 0..2 + rng.below(2) {
            // Cluster 0 of every interface is environment-only.
            let ghost = c == 0;
            let stages = 1 + rng.below(3);
            let mut cb = GraphBuilder::new(format!("v{c}"));
            let mut prev = None;
            for stage in 0..stages {
                let mut process = cb
                    .process(format!("P{stage}"))
                    .latency(Interval::point(1 + rng.below(8)));
                if ghost {
                    process = process.environment();
                }
                let p = process.build().unwrap();
                if let Some(prev) = prev {
                    let mid = cb.channel(format!("c{stage}"), ChannelKind::Queue).unwrap();
                    cb.connect_output(prev, mid, Interval::point(1)).unwrap();
                    cb.connect_input(mid, p, Interval::point(1)).unwrap();
                }
                prev = Some(p);
            }
            let mut cluster = Cluster::new(format!("v{c}"), cb.finish().unwrap());
            cluster
                .add_input_port("i", "P0", Interval::point(1))
                .unwrap();
            cluster
                .add_output_port("o", format!("P{}", stages - 1).as_str(), Interval::point(1))
                .unwrap();
            interface.add_cluster(cluster).unwrap();
        }
        let att = system
            .attach_interface(interface, VariantType::Production)
            .unwrap();
        system.bind_input(att, "i", format!("in{i}")).unwrap();
        system.bind_output(att, "o", format!("out{i}")).unwrap();
    }
    system
}

#[test]
fn session_matches_the_evaluator_on_mixed_systems_including_errors() {
    let mut errored = 0;
    for seed in 0..8u64 {
        let system = mixed_system(seed);
        let count = system.variant_space().count();
        for evaluator in evaluators(seed + 3) {
            for (walk, ranks) in walks(count, seed) {
                let context = format!("mixed {seed} {:?} {walk}", evaluator.strategy);
                errored += assert_session_agrees(&system, &evaluator, &ranks, &context);
            }
        }
    }
    assert!(errored > 0, "some variants must have no task at all");
}

#[test]
fn service_reports_the_serial_reference_for_every_variant() {
    let service = ExplorationService::start(ServiceConfig::with_workers(3));
    for (interfaces, clusters, shards) in [(5, 2, 7), (4, 3, 5)] {
        let system = scaling_system(interfaces, clusters).unwrap();
        let count = system.variant_space().count();
        let params = TaskParamsSpec::Hashed { seed: 9 };
        let evaluator = PartitionEvaluator {
            params,
            strategy: SearchStrategy::Exhaustive,
            ..PartitionEvaluator::default()
        };
        let job = service
            .submit(
                &system,
                JobSpec {
                    name: format!("census-{interfaces}x{clusters}"),
                    shard_count: shards,
                    top_k: count,
                    ..JobSpec::default()
                },
                Arc::new(evaluator.clone()),
            )
            .unwrap();
        let status = service.wait(job).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.report.accounted(), count as u64);

        // Every variant's cost and detail equal the serial oracle's, and the
        // optimum is its first strict (cost, index) minimum.
        let mut oracle: Vec<(u64, String)> = Vec::new();
        for (_, graph) in system.flatten_all().unwrap() {
            let problem = from_flat_graph(&graph, evaluator.processor_cost, |name| {
                Some(params.params_for(name))
            })
            .unwrap();
            let result =
                optimize_serial_reference(&problem, FeasibilityMode::PerApplication).unwrap();
            oracle.push((
                result.cost.total(),
                format!(
                    "hw=[{}] sw=[{}]",
                    result.cost.hardware_tasks.join(","),
                    result.cost.software_tasks.join(",")
                ),
            ));
        }
        // Pruning may skip variants that cannot tie the optimum; every
        // reported one must match.
        for variant in &status.report.top {
            assert_eq!(
                (variant.cost, &variant.detail),
                (oracle[variant.index].0, &oracle[variant.index].1),
                "variant {}",
                variant.index
            );
        }
        let (best_index, (best_cost, _)) = oracle
            .iter()
            .enumerate()
            .min_by_key(|(index, (cost, _))| (*cost, *index))
            .unwrap();
        let best = status.best().unwrap();
        assert_eq!((best.index, best.cost), (best_index, *best_cost));
    }
}
