//! Golden-file regression tests: re-run every deterministic recorded
//! experiment and diff its stdout against the recorded `results/*.txt`,
//! so model drift is caught by `cargo test` instead of manual diffing.
//!
//! Only the 14 RNG-free experiments are pinned byte-for-byte here. The
//! RNG-dependent experiments (training-based accuracy studies) are
//! deterministic too, but cost minutes of training each; their clean
//! corners are covered by `fault_campaign`'s zero-fault assertion and
//! the seeded-determinism suite.
//!
//! Each experiment is additionally re-run with
//! `NEBULA_KERNEL_PATH=scalar` pinning every crossbar to the per-cell
//! reference loop. Its differential outputs are bitwise identical to
//! the default [`Auto`](nebula_crossbar::KernelPath::Auto) path, so
//! *all* recorded columns — classifications and energy alike — must
//! stay byte-for-byte; no looser tolerance is needed.
//!
//! The 14 table binaries evaluate the analytical energy model and never
//! construct a crossbar, so their `scalar` reruns only pin that the
//! env override doesn't perturb anything process-wide. The recorded
//! experiment that actually runs inference *through* the crossbar
//! models is `analog_validation` (RNG-dependent, but byte-stable under
//! the vendored rand — it is regenerated whenever the random stream
//! shifts); the [`analog_kernel_paths`] module re-runs it under both
//! kernel paths as the end-to-end golden check that genuinely exercises
//! the scalar loop and Auto's f64 lane and packed layouts.

use std::process::Command;

/// Runs a recorded experiment binary and asserts byte-identical stdout
/// against its golden file, optionally pinning the crossbar kernel path
/// through the `NEBULA_KERNEL_PATH` environment override.
fn assert_matches_golden(bin: &str, exe: &str, kernel_path: Option<&str>) {
    let golden_path = format!("{}/../../results/{bin}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
    let mut cmd = Command::new(exe);
    if let Some(path) = kernel_path {
        cmd.env("NEBULA_KERNEL_PATH", path);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} (kernel path {kernel_path:?}) exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("experiment output is UTF-8");
    assert_eq!(
        stdout, golden,
        "{bin} (kernel path {kernel_path:?}) drifted from its recorded output ({golden_path})"
    );
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            assert_matches_golden(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                None,
            );
        }
    )*
        mod scalar {
            $(
                #[test]
                fn $name() {
                    super::assert_matches_golden(
                        stringify!($name),
                        env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                        Some("scalar"),
                    );
                }
            )*
        }
    };
}

golden!(
    ablate_hierarchy,
    ablate_morphable,
    ablate_replication,
    ablate_tmr,
    chip_layout,
    fig01_device,
    fig12_isaac_layers,
    fig13a_isaac_avg,
    fig13b_inxs_layers,
    fig14_peak_power,
    fig15_vgg_breakdown,
    fig16_all_breakdown,
    fig17_hybrid_tradeoff,
    tab03_components,
);

/// Golden reruns that drive real crossbar inference (MLP + LeNet
/// accuracy through `compile_ann`, including the 10% device-mismatch
/// leg) under each pinned kernel path. Outputs must stay byte-for-byte
/// on both paths: differential dots are bitwise identical, and the
/// printed energies agree at the recorded precision. (`sec4d_noise`
/// also exercises the crossbars but costs minutes per debug run, so it
/// is left to the seeded-determinism and equivalence suites.)
mod analog_kernel_paths {
    const EXE: &str = env!("CARGO_BIN_EXE_analog_validation");

    #[test]
    fn analog_validation_scalar() {
        super::assert_matches_golden("analog_validation", EXE, Some("scalar"));
    }

    #[test]
    fn analog_validation_auto() {
        super::assert_matches_golden("analog_validation", EXE, Some("auto"));
    }
}
