//! The untraced binary: system allocator, end-to-end metrics.

fn main() -> std::process::ExitCode {
    ledger::main(false)
}
