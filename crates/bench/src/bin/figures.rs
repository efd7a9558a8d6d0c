//! Every table of the paper's evaluation, one row of [`TABLES`] each: the
//! sweep (in `dcp_bench::experiments`) regenerates the figure's series from
//! the simulated cluster, and this binary prints what it returns and writes
//! it to `results/<name>.json`.
//!
//! Usage: `figures [--batches N] [name…]` — the named tables, or all
//! sixteen, each configuration averaged over `N` batches (default 8, the
//! count the committed `results/` are run at; the paper averages 200).

use dcp_bench::experiments::{
    ablations, e2e, fig01_comm_overhead, fig02_seqlen_dist, fig05_motivating, fig07_redundant_comm,
    fig13_micro_causal, fig14_micro_masks, fig17_comm_vs_blocksize, fig18_planning_time,
    fig19_comm_vs_sparsity, fig20_comm_vs_epsilon, fig21_loss_curves, fig22_decomposition,
    memory_report,
};
use dcp_bench::{write_results, Table};
use dcp_data::DatasetKind;
use serde_json::Value;

/// One row per table: the name it is written under (`results/<name>.json`),
/// what it shows, and the sweep at a batch count.
type Figure = (&'static str, &'static str, fn(usize) -> Value);

const TABLES: [Figure; 16] = [
    (
        "fig01_comm_overhead",
        "Fig. 1 — static CP communication overhead (8B GPT, TP4 x CP16, LongAlign)",
        fig01_comm_overhead,
    ),
    (
        "fig02_seqlen_dist",
        "Fig. 2 — sequence length distributions (fraction per log bin)",
        |_| fig02_seqlen_dist(),
    ),
    (
        "fig05_motivating",
        "Fig. 5 — parallelization configurations for [4k, 4k, 8k] on 2 devices",
        |_| fig05_motivating(),
    ),
    (
        "fig07_redundant_comm",
        "Fig. 7 — KV-block transfers and the redundant ones, shared-question mask, 4 devices",
        |_| fig07_redundant_comm(),
    ),
    (
        "fig13_micro_causal",
        "Fig. 13 — micro-benchmark, causal mask, LongDataCollections, 32 GPUs",
        fig13_micro_causal,
    ),
    (
        "fig14_micro_masks",
        "Fig. 14 — micro-benchmark under attention masks, DCP vs TE",
        fig14_micro_masks,
    ),
    (
        "fig15_e2e_longalign",
        "Fig. 15 — end-to-end iteration time on LongAlign (8B GPT, TP4 x CP16)",
        |n| e2e(DatasetKind::LongAlign, n),
    ),
    (
        "fig16_e2e_ldc",
        "Fig. 16 — end-to-end iteration time on LongDataCollections (8B GPT, TP4 x CP16)",
        |n| e2e(DatasetKind::LongDataCollections, n),
    ),
    (
        "fig17_comm_vs_blocksize",
        "Fig. 17 — inter-node communication volume vs block size",
        fig17_comm_vs_blocksize,
    ),
    (
        "fig18_planning_time",
        "Fig. 18 — planning time vs block size (wall clock)",
        fig18_planning_time,
    ),
    (
        "fig19_comm_vs_sparsity",
        "Fig. 19 — DCP communication vs mask sparsity (lambda window sweep)",
        fig19_comm_vs_sparsity,
    ),
    (
        "fig20_comm_vs_epsilon",
        "Fig. 20 — DCP communication vs computation imbalance tolerance",
        fig20_comm_vs_epsilon,
    ),
    (
        "fig21_loss_curves",
        "Fig. 21 — loss curves, DCP vs dense (sampled every 10 steps)",
        |_| fig21_loss_curves(),
    ),
    (
        "fig22_decomposition",
        "Fig. 22 — iteration time decomposition (LongAlign, max_len 131072)",
        fig22_decomposition,
    ),
    (
        "ablations",
        "DCP design ablations (LongDataCollections, 32 GPUs)",
        ablations,
    ),
    (
        "memory_report",
        "Memory balance report (LDC, 32 GPUs, forward phase)",
        memory_report,
    ),
];

fn main() {
    let mut batches = 8;
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--batches" {
            match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => batches = n,
                _ => usage(),
            }
        } else if TABLES.iter().any(|(name, ..)| *name == arg) {
            names.push(arg);
        } else {
            usage();
        }
    }
    println!("figures: {batches} batch(es) per configuration");
    for (name, title, sweep) in TABLES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("\n==================== {name} ====================\n{title}");
            let value = sweep(batches);
            print(&value);
            write_results(name, &value);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: figures [--batches N] [name…]; N ≥ 1, default 8; the tables are:");
    TABLES.iter().for_each(|(name, ..)| eprintln!("  {name}"));
    std::process::exit(2);
}

/// Prints an array of rows as columns (a cell a row lacks reads `-`), and
/// any other value as the JSON it is written as.
fn print(value: &Value) {
    let rows: Option<Vec<_>> = value
        .as_array()
        .and_then(|rows| rows.iter().map(Value::as_object).collect());
    let Some(rows) = rows else {
        println!("{}", serde_json::to_string_pretty(value).expect("JSON"));
        return;
    };
    let mut columns: Vec<&str> = Vec::new();
    for key in rows.iter().flat_map(|row| row.keys()) {
        if !columns.contains(&key.as_str()) {
            columns.push(key);
        }
    }
    let mut table = Table::new(&columns);
    for row in rows {
        let cell = |column: &&str| match row.get(*column) {
            None => "-".to_string(),
            Some(Value::String(s)) => s.clone(),
            Some(v) => serde_json::to_string(v).expect("JSON"),
        };
        table.row(columns.iter().map(cell).collect());
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::TABLES;

    /// The table and the committed `results/` agree: every row's output is
    /// committed, and every committed figure table has a row.
    #[test]
    fn tables_and_committed_results_agree() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (name, ..) in &TABLES {
            let path = results.join(format!("{name}.json"));
            assert!(path.is_file(), "{} is not committed", path.display());
        }
        for entry in std::fs::read_dir(&results).expect("results/ exists") {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(name) = file.strip_suffix(".json") else {
                continue;
            };
            if name.starts_with("fig") || name == "ablations" || name == "memory_report" {
                assert!(
                    TABLES.iter().any(|(row, ..)| *row == name),
                    "results/{file} has no row in the figures table"
                );
            }
        }
    }
}
