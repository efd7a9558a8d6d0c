//! Elastic recovery, end to end: kill devices mid-iteration, patch the plan
//! onto the survivors plus replacement shards, and finish with output
//! *bitwise identical* to the unfaulted run — redoing only the un-executed
//! computation blocks and salvaging the partials the dead streams already
//! reduced. Covers single failures, cascading (depth-2) failures where a
//! shard-hosting survivor dies mid-patch, backward-phase failures salvaged
//! at reduction frontiers, a randomized property sweep over both phases,
//! content digests pinning four patches to the instruction,
//! dead-communication elimination run over every forward depth-1 patch, a
//! depth-2 cascade on each and every backward depth-1 patch, and tampered
//! base plans (typed errors, no panics).
//!
//! Tests that exercise the determinism leg mutate `RAYON_NUM_THREADS`,
//! which is process-global state; they serialize on [`ENV_LOCK`]
//! (mirroring `tests/determinism.rs` and `tests/fault_determinism.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dcp::blocks::{CompBlockId, TokenBlockId};
use dcp::core::recovery::{FailureEvent, RecoveryPatch, RecoveryPlanner};
use dcp::core::{PlanOutput, Planner, PlannerConfig};
use dcp::exec::executor::{
    execute_backward, execute_backward_recovery, execute_forward, execute_forward_recovery,
    BatchData, BlockGrads, BlockOut, ExecObs,
};
use dcp::mask::MaskSpec;
use dcp::obs::{ObsHandle, RecordingSink};
use dcp::sched::{
    verify_phase, CommId, Instr, PassConfig, PassManager, Payload, PayloadKind, PhasePlan,
    Placement,
};
use dcp::sim::network::Network;
use dcp::sim::{simulate, simulate_on, FaultSpec, SimRun};
use dcp::types::{AttnSpec, ClusterSpec, DcpError, DcpResult};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Serializes tests that mutate `RAYON_NUM_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A small 8-device batch with skewed sequence lengths and mixed masks, so
/// the placement is non-trivial and every device carries several divisions.
/// Its blocks are tiny: on a cluster that charges 25 µs per kernel launch
/// the scheduler would give each device one division past the local one,
/// so this cluster charges none, and most devices run three or four.
fn plan_small() -> (ClusterSpec, PlanOutput) {
    let cluster = ClusterSpec {
        kernel_overhead: 0.0,
        ..ClusterSpec::single_node(8)
    };
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let seqs = vec![
        (200, MaskSpec::Causal),
        (
            160,
            MaskSpec::Lambda {
                sink: 4,
                window: 24,
            },
        ),
        (120, MaskSpec::Causal),
        (96, MaskSpec::Causal),
        (64, MaskSpec::Causal),
    ];
    let out = planner.plan(&seqs).unwrap();
    (cluster, out)
}

/// Fused attention divisions (forward or backward) in a stream.
fn divisions(instrs: &[Instr]) -> u32 {
    let attn = |ins: &&Instr| matches!(ins, Instr::Attn { .. } | Instr::AttnBwd { .. });
    instrs.iter().filter(attn).count() as u32
}

/// The device with the most attention divisions in `phase` (ties broken
/// toward the lowest id), and its division count.
fn busiest_device(phase: &PhasePlan) -> (u32, u32) {
    let counts = phase.devices.iter().map(|s| divisions(&s.instrs));
    (0u32..)
        .zip(counts)
        .max_by_key(|&(i, n)| (n, std::cmp::Reverse(i)))
        .unwrap()
}

/// The cascade's second failure: the shard-hosting survivor of `patch1`
/// whose spliced shard carries the most attention work — so the cascade
/// really kills a mid-patch shard and not just an idle host — dying after
/// its own stream plus part of that shard. Also returns the shard's index.
fn second_failure(d: u32, patch1: &RecoveryPatch) -> (FailureEvent, usize) {
    let divs = |l: u32| divisions(&patch1.phase.devices[l as usize].instrs);
    let (j2, shard2) = (0..patch1.ctx.shard_hosts.len())
        .map(|j| (j, divs(d + j as u32)))
        .max_by_key(|&(j, n)| (n, std::cmp::Reverse(j)))
        .unwrap();
    assert!(
        shard2 >= 1,
        "second victim must host spliced attention work"
    );
    let device = patch1.ctx.shard_hosts[j2];
    let ev = FailureEvent {
        device,
        divisions_done: divs(device) + (shard2 / 2).max(1),
    };
    (ev, j2)
}

/// The un-faulted simulation of `patch`'s phase: shards on their hosts.
fn simulate_patch(cluster: &ClusterSpec, patch: &RecoveryPatch) -> DcpResult<SimRun> {
    let net = Network::new(cluster.clone());
    simulate_on(cluster, net, &patch.phase, &patch.ctx, &FaultSpec::none())
}

/// Clean-run forward outputs and a seeded output-gradient batch.
#[allow(clippy::type_complexity)]
fn clean_run(
    out: &PlanOutput,
    data: &BatchData,
) -> (
    HashMap<TokenBlockId, BlockOut>,
    HashMap<TokenBlockId, Vec<f32>>,
) {
    let fwd = execute_forward(&out.layout, &out.placement, &out.plan, data).unwrap();
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    (fwd, d_o)
}

/// Bitwise fingerprint of a forward result, in token-block order.
fn out_bits(outs: &HashMap<TokenBlockId, BlockOut>) -> Vec<u32> {
    let mut keys: Vec<TokenBlockId> = outs.keys().copied().collect();
    keys.sort_by_key(|t| t.0);
    let mut bits = Vec::new();
    for id in keys {
        let b = &outs[&id];
        bits.extend(b.o.iter().map(|v| v.to_bits()));
        bits.extend(b.lse.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn mid_iteration_recovery_end_to_end() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, out) = plan_small();
    let (dev, nd) = busiest_device(&out.plan.fwd);
    assert!(nd >= 3, "victim needs >= 3 attention divisions, got {nd}");
    let k = 2u32;

    // Unfaulted reference run.
    let data = BatchData::random(&out.layout, 2024);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();

    // Patch-plan the failure with a recording sink: the incident and the
    // recovery plan must land in the observability stream.
    let sink = Arc::new(RecordingSink::new());
    let rp = RecoveryPlanner::new().with_obs(ObsHandle::new(
        sink.clone() as Arc<dyn dcp::obs::ObsSink + Send + Sync>
    ));
    let ev = FailureEvent {
        device: dev,
        divisions_done: k,
    };
    let patch = rp.plan_recovery(&out, &ev).unwrap();

    let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
    for required in ["device_lost", "recovery_plan", "recovery_redone_flops"] {
        assert!(
            names.iter().any(|n| n == required),
            "obs stream missing {required:?}: {names:?}"
        );
    }

    // Only un-executed computation is redone: strictly less than half of
    // the failed device's flops, and something was salvaged rather than
    // recomputed.
    let st = patch.stats;
    assert!(st.failed_flops > 0 && st.redone_flops > 0);
    assert!(
        (st.redone_flops as f64) < 0.5 * st.failed_flops as f64,
        "redid {} of {} flops",
        st.redone_flops,
        st.failed_flops
    );
    assert!(st.salvage_bytes > 0, "no partial outputs were salvaged");
    assert!(st.residual_units > 0);

    // Execute the patched forward: survivors + replacement shards, with the
    // failed device replaying only its pre-failure prefix.
    let rec = execute_forward_recovery(
        &out.layout,
        &patch.placement,
        &patch.phase,
        &data,
        &patch.ctx,
        &ExecObs::disabled(),
    )
    .unwrap();

    // The merged output bitwise-equals the unfaulted run, every block.
    assert_eq!(clean.len(), rec.len());
    for (id, c) in &clean {
        let r = &rec[id];
        assert_eq!(
            c.o.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.o.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "O differs on block {id:?}"
        );
        assert_eq!(
            c.lse.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.lse.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "LSE differs on block {id:?}"
        );
    }

    // Backward completes on the shrunk placement: the dead device gets no
    // backward attention work, and every block still receives gradients.
    let (qh, _) = BatchData::head_counts(&out.layout);
    let dim = out.layout.attn.head_dim as usize;
    let mut d_o = HashMap::new();
    let mut rng = SmallRng::seed_from_u64(99);
    for (i, tb) in out.layout.token_blocks.iter().enumerate() {
        let v: Vec<f32> = (0..tb.len as usize * qh * dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        d_o.insert(TokenBlockId(i as u32), v);
    }
    let (bwd_placement, bwd) = patch
        .bwd
        .as_ref()
        .expect("a forward patch re-plans backward");
    assert!(bwd.bwd.devices[dev as usize]
        .instrs
        .iter()
        .all(|ins| !matches!(ins, Instr::AttnBwd { .. })));
    let grads = execute_backward(&out.layout, bwd_placement, bwd, &data, &rec, &d_o).unwrap();
    assert_eq!(grads.len(), out.layout.token_blocks.len());

    // The patched phase (shards on their survivor hosts' clocks) is
    // simulated on the *physical* cluster, and it costs more than the
    // clean forward once the patch-planning wall time is added.
    let none = FaultSpec::none();
    let clean_fwd = simulate(&cluster, &out.plan.fwd, &none).unwrap().sim;
    let rec_fwd = simulate_patch(&cluster, &patch).unwrap().sim;
    assert_eq!(rec_fwd.devices.len(), cluster.num_devices() as usize);
    assert!(rec_fwd.makespan > 0.0);
    let overhead = (rec_fwd.makespan - clean_fwd.makespan).max(0.0) + st.plan_wall_s;
    assert!(overhead > 0.0);

    // Determinism: the whole patch pipeline — plan, patch, execute the
    // recovery — is bitwise identical across thread counts.
    let run = || {
        let (_, out) = plan_small();
        let patch = RecoveryPlanner::new().plan_recovery(&out, &ev).unwrap();
        let data = BatchData::random(&out.layout, 2024);
        let rec = execute_forward_recovery(
            &out.layout,
            &patch.placement,
            &patch.phase,
            &data,
            &patch.ctx,
            &ExecObs::disabled(),
        )
        .unwrap();
        (
            patch.placement.token_to_dev.clone(),
            patch.placement.comp_to_dev.clone(),
            patch.stats.redone_flops,
            out_bits(&rec),
        )
    };
    let parallel = run();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let other = run();
        assert_eq!(parallel.0, other.0, "token placement differs at {threads}");
        assert_eq!(parallel.1, other.1, "comp placement differs at {threads}");
        assert_eq!(parallel.2, other.2, "redone flops differ at {threads}");
        assert_eq!(parallel.3, other.3, "recovery bits differ at {threads}");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(parallel.3, out_bits(&rec), "recovery run is not repeatable");
}

/// Cascading failure: a survivor that hosts a recovery shard dies while
/// executing the first patch. The second patch composes over the first —
/// salvaging both the victim's own stream and its spliced shard — and the
/// merged output is still bitwise identical to the unfaulted run, with
/// total redone work bounded below 75% of the two dead ranks' flops.
#[test]
fn cascading_failure_composes_patches_bitwise() {
    let (_, out) = plan_small();
    let d = out.plan.num_devices;
    let (dev1, nd1) = busiest_device(&out.plan.fwd);
    assert!(nd1 >= 3);
    let rp = RecoveryPlanner::new();
    let patch1 = rp
        .plan_recovery(
            &out,
            &FailureEvent {
                device: dev1,
                divisions_done: nd1 / 2,
            },
        )
        .unwrap();
    assert_eq!(patch1.stats.cascade_depth, 1);

    let (ev2, j2) = second_failure(d, &patch1);
    let dev2 = ev2.device;

    // The cascade is on the trace: its `recovery_plan` span carries the
    // depth.
    let sink = Arc::new(RecordingSink::new());
    let rp2 = RecoveryPlanner::new().with_obs(ObsHandle::new(
        sink.clone() as Arc<dyn dcp::obs::ObsSink + Send + Sync>
    ));
    let patch2 = rp2.plan_recovery_onto(&out, &patch1, &ev2).unwrap();
    assert_eq!(patch2.stats.cascade_depth, 2);
    assert!(patch2.failed_devices == vec![dev1, dev2]);
    assert!(patch2.ctx.failed.contains(&dev1));
    assert!(patch2.ctx.failed.contains(&dev2));
    assert!(
        patch2.ctx.failed.contains(&(d + j2 as u32)),
        "the hosted shard stream dies with its host"
    );

    assert!(
        sink.events()
            .iter()
            .any(|e| e.name == "recovery_plan" && e.value == Some(2.0)),
        "depth-2 recovery must record a recovery_plan span of value 2"
    );

    // Bitwise-identical merged output at cascade depth 2.
    let data = BatchData::random(&out.layout, 2024);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();
    let rec = execute_forward_recovery(
        &out.layout,
        &patch2.placement,
        &patch2.phase,
        &data,
        &patch2.ctx,
        &ExecObs::disabled(),
    )
    .unwrap();
    assert_eq!(out_bits(&clean), out_bits(&rec), "cascade output diverged");

    // Redone-work bound: both patches together redo strictly less than
    // 75% of the two dead ranks' attention flops.
    let redone = patch1.stats.redone_flops + patch2.stats.redone_flops;
    let lost = patch1.stats.failed_flops + patch2.stats.failed_flops;
    assert!(lost > 0);
    assert!(
        (redone as f64) < 0.75 * lost as f64,
        "cascade redid {redone} of {lost} flops"
    );

    // Determinism at depth 2: both thread counts reproduce the exact
    // placement and bits.
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for threads in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let other = execute_forward_recovery(
            &out.layout,
            &patch2.placement,
            &patch2.phase,
            &data,
            &patch2.ctx,
            &ExecObs::disabled(),
        )
        .unwrap();
        assert_eq!(
            out_bits(&rec),
            out_bits(&other),
            "cascade bits differ at {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Dead-communication elimination on recovery patches: a truncated dead
/// stream keeps prefetches whose waits were cut, which is where the rewrite
/// finds its bytes. Three families over the 8-device batch — every forward
/// depth-1 kill (each device, each frontier), a depth-2 cascade on top of
/// each of those that spliced attention work onto a survivor, and every
/// backward depth-1 kill. The rewritten patch, salvage ops protected, stays
/// legal under the patch's own ctx and executes bitwise-equal to the patch
/// as planned; the rewrite changed patches and saved bytes in every family,
/// so none of that holds vacuously.
#[test]
fn passes_keep_recovery_patches_legal_and_bitwise() {
    let (_, out) = plan_small();
    let d = out.plan.num_devices;
    let rp = RecoveryPlanner::new();
    let pm = PassManager::new(PassConfig::optimize());
    let data = BatchData::random(&out.layout, 2024);
    let (fwd_out, d_o) = clean_run(&out, &data);
    // Outputs (forward) or gradients (backward) of `phase` run as `patch`.
    let run = |patch: &RecoveryPatch, phase: &PhasePlan| -> Vec<u32> {
        let (layout, placement, obs) = (&out.layout, &patch.placement, ExecObs::disabled());
        if patch.backward {
            let grads = execute_backward_recovery(
                layout, placement, phase, &data, &fwd_out, &d_o, &patch.ctx, &obs,
            );
            grad_bits(&grads.unwrap())
        } else {
            out_bits(
                &execute_forward_recovery(layout, placement, phase, &data, &patch.ctx, &obs)
                    .unwrap(),
            )
        }
    };
    let sweep = |family: &str, patches: &[(String, RecoveryPatch)]| {
        let (mut changed, mut bytes_saved) = (0u32, 0u64);
        for (kill, patch) in patches {
            let mut optimized = patch.phase.clone();
            let outcome = pm
                .run_phase(
                    &out.layout,
                    &mut optimized,
                    family,
                    &patch.ctx.salvage_comms,
                )
                .expect("the rewrite is enabled");
            changed += u32::from(outcome.changed());
            bytes_saved += outcome.comm_bytes_saved();
            // Launches and waits of op `cid`, over all streams.
            let naming = |phase: &PhasePlan, cid: u32| -> usize {
                let all = phase.devices.iter().flat_map(|s| &s.instrs);
                all.filter(
                    |ins| matches!(ins, Instr::CommLaunch(c) | Instr::CommWait(c) if c.0 == cid),
                )
                .count()
            };
            for &cid in &patch.ctx.salvage_comms {
                assert_eq!(
                    (&optimized.comms[cid as usize], naming(&optimized, cid)),
                    (&patch.phase.comms[cid as usize], naming(&patch.phase, cid)),
                    "{family}, {kill}: salvage op {cid} was touched"
                );
            }
            verify_phase(
                &out.layout,
                &patch.placement,
                &optimized,
                patch.backward,
                &patch.ctx,
            )
            .unwrap_or_else(|diag| panic!("{family}, {kill}: {diag}"));
            assert_eq!(
                run(patch, &patch.phase),
                run(patch, &optimized),
                "{family}, {kill}: optimized patch diverged"
            );
        }
        let patches = patches.len();
        println!("dead_comm on {family}: {changed} of {patches} patches, {bytes_saved} bytes");
        assert!(patches >= 16, "{family}: only {patches} kills swept");
        assert!(
            changed > 0 && bytes_saved > 0,
            "{family}: {changed} of {patches} patches changed, {bytes_saved} bytes saved"
        );
    };
    let kills = |phase: &PhasePlan| -> Vec<FailureEvent> {
        let frontiers = |device: u32| 0..=divisions(&phase.devices[device as usize].instrs);
        (0..d)
            .flat_map(|device| {
                frontiers(device).map(move |divisions_done| FailureEvent {
                    device,
                    divisions_done,
                })
            })
            .collect()
    };
    let tag = |ev: &FailureEvent| format!("kill {}@{}", ev.device, ev.divisions_done);

    let depth1: Vec<(String, RecoveryPatch)> = kills(&out.plan.fwd)
        .iter()
        .map(|ev| (tag(ev), rp.plan_recovery(&out, ev).unwrap()))
        .collect();
    sweep("recovery_fwd", &depth1);

    // The second victim hosts the busiest spliced shard and dies partway
    // through it (`second_failure`); a first patch that spliced no attention
    // work anywhere has no such victim.
    let spliced = |patch1: &RecoveryPatch| {
        (0..patch1.ctx.shard_hosts.len() as u32)
            .any(|j| divisions(&patch1.phase.devices[(d + j) as usize].instrs) >= 1)
    };
    let depth2: Vec<(String, RecoveryPatch)> = depth1
        .iter()
        .filter(|(_, patch1)| spliced(patch1))
        .map(|(kill1, patch1)| {
            let (ev2, _) = second_failure(d, patch1);
            let patch2 = rp.plan_recovery_onto(&out, patch1, &ev2).unwrap();
            assert_eq!(patch2.stats.cascade_depth, 2);
            (format!("{kill1}, then {}", tag(&ev2)), patch2)
        })
        .collect();
    sweep("recovery_fwd_cascade", &depth2);

    let backward: Vec<(String, RecoveryPatch)> = kills(&out.plan.bwd)
        .iter()
        .map(|ev| (tag(ev), rp.plan_backward_recovery(&out, ev).unwrap()))
        .collect();
    sweep("recovery_bwd", &backward);
}

/// A failure mid-backward is salvaged at the reduction frontier: the dead
/// stream's partial dQ/dKV running sums move to replacement shards instead
/// of being recomputed, and the final gradients are bitwise identical to
/// the unfaulted backward.
#[test]
fn backward_phase_failure_salvages_partial_accumulators() {
    let (_, out) = plan_small();
    let (dev, nd) = busiest_device(&out.plan.bwd);
    assert!(nd >= 2, "victim needs >= 2 backward divisions, got {nd}");

    let data = BatchData::random(&out.layout, 2024);
    let (fwd_out, d_o) = clean_run(&out, &data);
    let clean = execute_backward(
        &out.layout,
        &out.placement,
        &out.plan,
        &data,
        &fwd_out,
        &d_o,
    )
    .unwrap();

    let rp = RecoveryPlanner::new();
    let patch = rp
        .plan_backward_recovery(
            &out,
            &FailureEvent {
                device: dev,
                divisions_done: nd / 2,
            },
        )
        .unwrap();

    // Partial accumulators were salvaged, and strictly less than the whole
    // backward stream is redone.
    let st = &patch.stats;
    assert!(st.salvage_bytes > 0, "no backward accumulators salvaged");
    assert!(st.failed_flops > 0 && st.redone_flops > 0);
    assert!(
        st.redone_flops < st.failed_flops,
        "backward salvage redid the full stream: {} of {}",
        st.redone_flops,
        st.failed_flops
    );

    let rec = execute_backward_recovery(
        &out.layout,
        &patch.placement,
        &patch.phase,
        &data,
        &fwd_out,
        &d_o,
        &patch.ctx,
        &ExecObs::disabled(),
    )
    .unwrap();
    assert_eq!(clean.len(), rec.len());
    for (id, c) in &clean {
        let r = &rec[id];
        for (name, a, b) in [
            ("dQ", &c.dq, &r.dq),
            ("dK", &c.dk, &r.dk),
            ("dV", &c.dv, &r.dv),
        ] {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{name} differs on block {id:?}"
            );
        }
    }
}

/// An out-of-range frontier is a typed error carrying the device and the
/// bogus `divisions_done`, for both the forward and backward planners.
#[test]
fn out_of_range_frontier_is_a_typed_error() {
    let (_, out) = plan_small();
    let rp = RecoveryPlanner::new();
    let ev = FailureEvent {
        device: 0,
        divisions_done: 10_000,
    };
    for err in [
        rp.plan_recovery(&out, &ev).unwrap_err(),
        rp.plan_backward_recovery(&out, &ev).unwrap_err(),
    ] {
        match err {
            DcpError::InvalidFailureEvent { device, frontier } => {
                assert_eq!(device, 0);
                assert_eq!(frontier, 10_000);
            }
            other => panic!("expected InvalidFailureEvent, got {other:?}"),
        }
    }
}

/// A base plan that names ids outside its own tables — `PlanOutput` and
/// patches deserialize, so the patcher cannot trust them — is a typed
/// `InvalidPlan` from every entry point, never a panic.
#[test]
fn tampered_plans_are_typed_errors_not_panics() {
    type Tamper = fn(&mut PhasePlan, &mut Placement, u32);
    let tampers: [(&str, Tamper); 3] = [
        ("comm id outside the op table", |phase, _, victim| {
            let stray = Instr::CommLaunch(CommId(u32::MAX));
            phase.devices[victim as usize].instrs.push(stray);
        }),
        ("comp block outside the layout", |phase, _, victim| {
            let instrs = phase.devices[victim as usize].instrs.iter_mut();
            for ins in instrs {
                if let Instr::Attn { items, .. } | Instr::AttnBwd { items, .. } = ins {
                    items.push(CompBlockId(u32::MAX));
                }
            }
        }),
        ("placement shorter than the layout", |_, placement, _| {
            placement.token_to_dev.pop();
        }),
    ];
    let (_, out) = plan_small();
    let rp = RecoveryPlanner::new();
    let (dev, nd) = busiest_device(&out.plan.fwd);
    let ev = FailureEvent {
        device: dev,
        divisions_done: nd / 2,
    };
    let patch1 = rp.plan_recovery(&out, &ev).unwrap();
    let (ev2, _) = second_failure(out.plan.num_devices, &patch1);
    for (what, tamper) in tampers {
        let (mut fwd, mut prior, mut bwd) = (out.clone(), patch1.clone(), out.clone());
        tamper(&mut fwd.plan.fwd, &mut fwd.placement, dev);
        tamper(&mut prior.phase, &mut prior.placement, ev2.device);
        tamper(&mut bwd.plan.bwd, &mut bwd.placement, dev);
        let expect_invalid = |entry: &str, attempt: &dyn Fn() -> DcpResult<RecoveryPatch>| {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt)) {
                Ok(Err(DcpError::InvalidPlan(_))) => {}
                Ok(other) => panic!("{entry}, {what}: expected InvalidPlan, got {other:?}"),
                Err(_) => panic!("{entry} panicked on {what}"),
            }
        };
        expect_invalid("plan_recovery", &|| rp.plan_recovery(&fwd, &ev));
        expect_invalid("plan_recovery_onto", &|| {
            rp.plan_recovery_onto(&out, &prior, &ev2)
        });
        expect_invalid("plan_backward_recovery", &|| {
            rp.plan_backward_recovery(&bwd, &ev)
        });
    }
}

/// The cascade PR 17's sweep found (58 of 40 988 attempts behaved like it):
/// the depth-2 patch verified, but the splice order of the host-folded
/// timing rendering the patcher then derived from it deadlocked, and the
/// patcher rejected its own patch. The simulator now walks the patch itself
/// with shards on their hosts' clocks, so the patch is `Ok`, simulates on
/// the 7 physical ranks and executes bitwise-equal to the clean forward.
#[test]
fn cascade_the_host_fold_deadlocked_on_simulates_and_executes_bitwise() {
    let cluster = ClusterSpec::single_node(7);
    let planner = Planner::new(
        cluster.clone(),
        AttnSpec::new(4, 2, 8, 2),
        PlannerConfig {
            block_size: 16,
            ..Default::default()
        },
    );
    let lambda = MaskSpec::Lambda {
        sink: 4,
        window: 24,
    };
    let seqs = [
        (174, lambda),
        (135, MaskSpec::Causal),
        (98, MaskSpec::Causal),
    ];
    let out = planner.plan(&seqs).unwrap();
    let rp = RecoveryPlanner::new();
    let kill = |device, divisions_done| FailureEvent {
        device,
        divisions_done,
    };
    let patch1 = rp.plan_recovery(&out, &kill(0, 2)).unwrap();
    let patch2 = rp.plan_recovery_onto(&out, &patch1, &kill(4, 0)).unwrap();
    assert_eq!(patch2.stats.cascade_depth, 2);

    let clean_fwd = simulate(&cluster, &out.plan.fwd, &FaultSpec::none()).unwrap();
    let recovered = simulate_patch(&cluster, &patch2).unwrap().sim;
    assert_eq!(recovered.devices.len(), 7);
    assert!(recovered.makespan > clean_fwd.sim.makespan);

    let data = BatchData::random(&out.layout, 2024);
    let clean = execute_forward(&out.layout, &out.placement, &out.plan, &data).unwrap();
    let rec = execute_forward_recovery(
        &out.layout,
        &patch2.placement,
        &patch2.phase,
        &data,
        &patch2.ctx,
        &ExecObs::disabled(),
    )
    .unwrap();
    assert_eq!(out_bits(&clean), out_bits(&rec), "cascade output diverged");
}

/// A host map the patcher could not have written — a patch deserializes —
/// is a typed `InvalidPlan` from the simulator, never an index panic: a
/// shard hosted outside the phase's ranks (and so outside the cluster), and
/// more shards than the phase has streams.
#[test]
fn tampered_host_maps_are_typed_errors_not_panics() {
    let (cluster, out) = plan_small();
    let (dev, nd) = busiest_device(&out.plan.fwd);
    let ev = FailureEvent {
        device: dev,
        divisions_done: nd / 2,
    };
    let patch = RecoveryPlanner::new().plan_recovery(&out, &ev).unwrap();
    simulate_patch(&cluster, &patch).unwrap();
    let ranks = out.plan.num_devices;
    let streams = patch.phase.devices.len();
    type Tamper = fn(&mut Vec<u32>, u32, usize);
    let tampers: [(&str, Tamper); 3] = [
        ("host outside the ranks", |hosts, ranks, _| hosts[0] = ranks),
        ("host outside the cluster", |hosts, _, _| {
            hosts[0] = u32::MAX
        }),
        ("more shards than streams", |hosts, _, streams| {
            hosts.resize(streams + 1, 0)
        }),
    ];
    for (what, tamper) in tampers {
        let mut bad = patch.clone();
        tamper(&mut bad.ctx.shard_hosts, ranks, streams);
        let attempt = || simulate_patch(&cluster, &bad);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt)) {
            Ok(Err(DcpError::InvalidPlan(_))) => {}
            Ok(other) => panic!("{what}: expected InvalidPlan, got {other:?}"),
            Err(_) => panic!("simulate_on panicked on {what}"),
        }
    }
}

/// `(kind, token block, producer)` of a payload, inputs having no producer.
fn payload_key(p: Payload) -> [u32; 3] {
    let (tag, producer) = match p {
        Payload::Q(_) => (0, u32::MAX),
        Payload::Kv(_) => (1, u32::MAX),
        Payload::DO(_) => (2, u32::MAX),
        Payload::PartialO(_, d) => (3, d),
        Payload::PartialDq(_, d) => (4, d),
        Payload::PartialDkv(_, d) => (5, d),
    };
    [tag, p.token_block().0, producer]
}

/// FNV-1a over what a patch *says*, not how its struct is laid out: the
/// goldens below were recorded from the two patch types and three stand-in
/// maps this one replaced.
struct Digest(u64);

impl Digest {
    fn u(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn ids(&mut self, xs: impl IntoIterator<Item = u32>) {
        let xs: Vec<u32> = xs.into_iter().collect();
        self.u(xs.len() as u64);
        xs.iter().for_each(|&x| self.u(x as u64));
    }

    fn sorted(&mut self, xs: impl IntoIterator<Item = u32>) {
        let mut xs: Vec<u32> = xs.into_iter().collect();
        xs.sort_unstable();
        self.ids(xs);
    }

    /// Every op's transfers in order, then every stream's instructions.
    fn phase(&mut self, phase: &PhasePlan) {
        self.u(phase.comms.len() as u64);
        for op in &phase.comms {
            self.u(op.transfers.len() as u64);
            for tr in &op.transfers {
                self.ids([tr.from, tr.to]);
                self.ids(payload_key(tr.payload));
                self.u(tr.bytes);
            }
        }
        self.u(phase.devices.len() as u64);
        for s in &phase.devices {
            let b = &s.buffer;
            self.ids([s.device, b.q_slots, b.kv_slots, b.partial_slots]);
            self.u(b.owned_bytes);
            self.u(b.fetched_bytes);
            self.u(s.instrs.len() as u64);
            for ins in &s.instrs {
                match ins {
                    Instr::CommLaunch(c) => self.ids([0, c.0]),
                    Instr::CommWait(c) => self.ids([1, c.0]),
                    Instr::Attn { items, flops } | Instr::AttnBwd { items, flops } => {
                        self.u(2 + matches!(ins, Instr::AttnBwd { .. }) as u64);
                        self.ids(items.iter().map(|c| c.0));
                        self.u(*flops);
                    }
                    Instr::Reduce { items, bytes } => {
                        self.ids([4, items.len() as u32]);
                        for it in items {
                            let kind = match it.kind {
                                PayloadKind::PartialO => 3,
                                PayloadKind::PartialDq => 4,
                                PayloadKind::PartialDkv => 5,
                                _ => 9,
                            };
                            self.ids([it.target.0, kind]);
                            self.ids(it.sources.iter().copied());
                        }
                        self.u(*bytes);
                    }
                    Instr::Copy { bytes } => {
                        self.u(5);
                        self.u(*bytes);
                    }
                }
            }
        }
    }

    fn placement(&mut self, p: &Placement) {
        self.u(p.num_devices as u64);
        self.ids(p.token_to_dev.iter().copied());
        self.ids(p.comp_to_dev.iter().copied());
    }
}

/// The whole patch: event, hosts, placement, the patched phase, the recovery
/// context (sets and the stand-in map sorted), the re-planned backward and
/// the stats minus `plan_wall_s`.
fn patch_digest(p: &RecoveryPatch) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.ids([p.failed, p.divisions_done, p.backward as u32]);
    d.ids(p.failed_devices.iter().copied());
    d.ids(p.ctx.shard_hosts.iter().copied());
    d.placement(&p.placement);
    d.phase(&p.phase);
    d.sorted(p.ctx.failed.iter().copied());
    d.sorted(p.ctx.salvage_comms.iter().copied());
    let mut stand_ins: Vec<([u32; 3], u32)> = Vec::new();
    stand_ins.extend(p.ctx.stand_in.iter().map(|(&p, &s)| (payload_key(p), s)));
    stand_ins.sort_unstable();
    d.u(stand_ins.len() as u64);
    for (key, shard) in stand_ins {
        d.ids(key);
        d.u(shard as u64);
    }
    d.sorted(p.ctx.reowned.iter().map(|t| t.0));
    match &p.bwd {
        None => d.u(0),
        Some((placement, plan)) => {
            d.ids([1, plan.num_devices]);
            d.placement(placement);
            d.phase(&plan.fwd);
            d.phase(&plan.bwd);
        }
    }
    let st = &p.stats;
    d.u(st.failed_flops);
    d.u(st.redone_flops);
    d.u(st.salvage_bytes);
    d.u(st.refetch_bytes);
    d.ids([st.residual_units as u32, st.cascade_depth]);
    d.0
}

/// Patch identity: three patches on `plan_small()` — depth 1, a depth-2
/// cascade onto a shard-hosting survivor mid-patch and a backward one — are,
/// to the instruction, what the commit before the one-builder refactor
/// emitted (the values were recorded there, with this digest fed through
/// adapters for its patch types, re-recorded once when the host-folded
/// timing rendering left the digest, in a commit that changed no library
/// code, and once when the scheduler began cutting divisions by cost and
/// `plan_small` moved to a cluster without launch overhead, which changed
/// the base plans, and once when water-fill became the forward re-shard's
/// only solver — the digest then lost its fallback word, and the backward
/// patch's value was checked equal before and after; to re-derive one, copy
/// the digest into a `git clone` of that commit as the verify skill says).
#[test]
fn patches_are_pinned_to_the_instruction() {
    let (_, out) = plan_small();
    let rp = RecoveryPlanner::new();
    let (dev, nd) = busiest_device(&out.plan.fwd);
    let kill = |device, divisions_done| FailureEvent {
        device,
        divisions_done,
    };

    let depth1 = rp.plan_recovery(&out, &kill(dev, 2)).unwrap();
    assert_eq!(patch_digest(&depth1), 0x460bceb485f94c21, "depth 1");

    let patch1 = rp.plan_recovery(&out, &kill(dev, nd / 2)).unwrap();
    let (ev2, _) = second_failure(out.plan.num_devices, &patch1);
    let depth2 = rp.plan_recovery_onto(&out, &patch1, &ev2).unwrap();
    assert_eq!(patch_digest(&depth2), 0x76e9e8f265674a5b, "depth 2");

    let (bdev, bnd) = busiest_device(&out.plan.bwd);
    let backward = rp
        .plan_backward_recovery(&out, &kill(bdev, bnd / 2))
        .unwrap();
    assert_eq!(patch_digest(&backward), 0x5fec20d6584d7086, "backward");
}

/// Bitwise fingerprint of a backward result, in token-block order.
fn grad_bits(grads: &HashMap<TokenBlockId, BlockGrads>) -> Vec<u32> {
    let mut keys: Vec<TokenBlockId> = grads.keys().copied().collect();
    keys.sort_by_key(|t| t.0);
    let mut bits = Vec::new();
    for id in keys {
        let g = &grads[&id];
        bits.extend(g.dq.iter().chain(&g.dk).chain(&g.dv).map(|v| v.to_bits()));
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized kills — any (survivor count, victim, frontier), in the
    /// forward phase and (`bwd_sel` picks victim and frontier `0..=nd`) in
    /// the backward phase — produce patches that pass the stream verifier
    /// and execute to outputs and gradients bitwise equal to the clean
    /// run's at 1, 2 and 8 rayon threads.
    #[test]
    fn random_failures_recover_bitwise(
        n in 2u32..6,
        dev_sel in 0u32..8,
        frac in 0u32..=4,
        bwd_sel in 0u32..1000,
        seed in 0u64..500,
    ) {
        let planner = Planner::new(
            ClusterSpec::single_node(n),
            AttnSpec::new(4, 2, 8, 2),
            PlannerConfig { block_size: 16, ..Default::default() },
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let seqs: Vec<(u32, MaskSpec)> = (0..4)
            .map(|_| (rng.gen_range(48..220), MaskSpec::Causal))
            .collect();
        let out = planner.plan(&seqs).unwrap();
        let rp = RecoveryPlanner::new();
        let dev = dev_sel % n;
        let k = divisions(&out.plan.fwd.devices[dev as usize].instrs) * frac / 4;
        let fwd_patch = rp
            .plan_recovery(&out, &FailureEvent { device: dev, divisions_done: k })
            .unwrap();
        let bdev = bwd_sel % n;
        let bk = (bwd_sel / n) % (divisions(&out.plan.bwd.devices[bdev as usize].instrs) + 1);
        let bwd_patch = rp
            .plan_backward_recovery(&out, &FailureEvent { device: bdev, divisions_done: bk })
            .unwrap();
        // The patches pass the stream verifier under their own composition
        // contexts (the patcher verifies internally; this re-checks through
        // the public surface), and the simulator accepts every patch the
        // verifier accepts, on one timeline row per physical rank.
        let cluster = ClusterSpec::single_node(n);
        for patch in [&fwd_patch, &bwd_patch] {
            verify_phase(
                &out.layout,
                &patch.placement,
                &patch.phase,
                patch.backward,
                &patch.ctx,
            )
            .map_err(|d| TestCaseError::fail(format!("patch rejected: {d}")))?;
            let timed = simulate_patch(&cluster, patch)
                .map_err(|e| TestCaseError::fail(format!("simulator rejected: {e}")))?;
            prop_assert_eq!(timed.sim.devices.len(), n as usize);
        }

        let data = BatchData::random(&out.layout, seed ^ 0xD15EA5E);
        let (clean, d_o) = clean_run(&out, &data);
        let clean_grads =
            execute_backward(&out.layout, &out.placement, &out.plan, &data, &clean, &d_o).unwrap();
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let rec = execute_forward_recovery(
                &out.layout,
                &fwd_patch.placement,
                &fwd_patch.phase,
                &data,
                &fwd_patch.ctx,
                &ExecObs::disabled(),
            )
            .unwrap();
            prop_assert_eq!(
                out_bits(&clean),
                out_bits(&rec),
                "recovered output diverged at {} threads",
                threads
            );
            let grads = execute_backward_recovery(
                &out.layout,
                &bwd_patch.placement,
                &bwd_patch.phase,
                &data,
                &clean,
                &d_o,
                &bwd_patch.ctx,
                &ExecObs::disabled(),
            )
            .unwrap();
            prop_assert_eq!(
                grad_bits(&clean_grads),
                grad_bits(&grads),
                "recovered gradients diverged at {} threads",
                threads
            );
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
