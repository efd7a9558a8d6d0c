//! `dcpctl` on flags it cannot use: each is a message naming the flag and
//! exit status 2, never a panic (101) or a silently changed workload. A
//! budget past `u32::MAX` is a budget like any other: it caps a sequence at
//! `u32::MAX` tokens, where a wrapping cast once capped it at a few hundred.
//! `gen-workload` draws until its last batch closes, so the batch count and
//! the tokens in all are capped: 2^58 batches once wrapped a multiply to a
//! workload of none.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dcpctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcpctl"))
        .args(args)
        .output()
        .expect("dcpctl runs")
}

fn tmp_path(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    path.to_str().expect("a UTF-8 path").to_string()
}

/// The longest sequence of the workload `dcpctl gen-workload` wrote to `path`.
fn longest(path: &str) -> u64 {
    let text = std::fs::read_to_string(path).expect("the workload was written");
    let w: serde_json::Value = serde_json::from_str(&text).expect("JSON");
    let batches = w["batches"].as_array().expect("batches");
    let seqs = batches.iter().flat_map(|b| b.as_array().expect("a batch"));
    let len = |s: &serde_json::Value| s[0].as_u64().expect("a length");
    seqs.map(len).max().expect("a sequence")
}

#[test]
fn gen_workload_and_plan_reject_unusable_flags_with_exit_2() {
    let out = tmp_path("dcpctl_workload.json");
    let gen = |extra: &[&str]| {
        let mut args = vec!["gen-workload", "--batches", "1", "--out", &out];
        args.extend_from_slice(extra);
        dcpctl(&args)
    };

    // Budgets past u32::MAX: every sequence fits whole.
    for budget in ["4294967300", "4294968000"] {
        let run = gen(&["--budget", budget]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "--budget {budget}: {stderr}");
        assert!(longest(&out) > 704, "--budget {budget}: sequences were cut");
    }

    for (flag, value) in [
        ("--budget", "16"),
        ("--scale", "0"),
        ("--scale", "nan"),
        ("--budget", "-1"),
        ("--batches", "0"),
        ("--batches", "100001"),
        ("--batches", "288230376151711744"),
        ("--budget", "18446744073709551615"),
    ] {
        let run = gen(&[flag, value]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }

    // A cluster of no nodes, on a workload that plans.
    let run = gen(&["--budget", "4096"]);
    assert_eq!(run.status.code(), Some(0));
    let run = dcpctl(&["plan", "--workload", &out, "--nodes", "0"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "--nodes 0: {stderr}");
    assert!(stderr.contains("--nodes"), "--nodes 0: {stderr}");
}
