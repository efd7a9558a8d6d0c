//! The plain ledger binary: end-to-end metrics, tracing off.

fn main() {
    std::process::exit(dcp_ledger::main_with(None));
}
