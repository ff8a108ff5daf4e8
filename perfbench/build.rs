//! Records the `target-cpu` the benchmark was compiled for, if any, so
//! every result can name it.

fn main() {
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    if let Some(cpu) = flags
        .split('\x1f')
        .find_map(|f| f.split("target-cpu=").nth(1))
    {
        println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
    }
}
