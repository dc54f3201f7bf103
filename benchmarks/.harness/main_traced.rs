//! The traced binary: the same sources with the counting allocator
//! installed, for the per-layer run.

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn main() -> std::process::ExitCode {
    ledger::main(true)
}
