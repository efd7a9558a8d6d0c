//! `crates/mask/tests/oracle.rs` — the run-length `Mask` against the
//! per-token table it replaced — run by the root package too, so the tier-1
//! command (`cargo test -q`) sees it: one copy of the oracle, two suites.

#[path = "../crates/mask/tests/oracle.rs"]
mod oracle;
