//! Really train a tiny transformer twice — once with dense single-device
//! attention, once with DCP-planned distributed attention (4 simulated
//! devices) — and show the loss curves coincide (the paper's Fig. 21
//! precision claim, at laptop scale).
//!
//! Run with: `cargo run --release --example train_tiny`

use dcp::exec::train::{train, AttnBackend, TrainConfig};
use dcp::mask::MaskSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = TrainConfig {
        seq_len: 64,
        lr: 0.2,
    };
    let steps = 40;
    println!("training a tiny transformer on a synthetic Markov stream ({steps} steps)");

    let dense = train(cfg, AttnBackend::Dense, &MaskSpec::Causal, steps)?;
    let planned = train(
        cfg,
        AttnBackend::Planned {
            num_devices: 4,
            block_size: 8,
        },
        &MaskSpec::Causal,
        steps,
    )?;

    println!("\n step   dense-attn   dcp-planned   |diff|");
    let mut max_diff = 0.0f32;
    for (i, (a, b)) in dense.iter().zip(&planned).enumerate() {
        let d = (a - b).abs();
        max_diff = max_diff.max(d);
        if i % 5 == 0 || i + 1 == steps {
            println!(" {i:4}   {a:10.6}   {b:11.6}   {d:.2e}");
        }
    }
    println!(
        "\nloss dropped {:.3} -> {:.3}; max curve deviation {max_diff:.2e}",
        dense[0],
        dense.last().unwrap()
    );
    println!("DCP's plan round-trip changes nothing about training dynamics (Fig. 21).");
    Ok(())
}
