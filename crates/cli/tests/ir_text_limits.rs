//! IR-text `--core` files whose counts no memory could hold are refused
//! with a typed, line-numbered error. The command runs as a subprocess,
//! so an allocation abort fails the test rather than the test binary.

use std::process::Command;

#[test]
fn campaign_refuses_a_core_declaring_too_many_nets() {
    let path = std::env::temp_dir().join(format!("r2d3-huge-nets-{}.txt", std::process::id()));
    std::fs::write(&path, "r2d3-netlist v1\nnets 1000000000000000\ninputs 0\nend\n").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_r2d3"))
        .args(["campaign", "--smoke", "--core"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(
            "ir text line 2: `nets` count 1000000000000000 is above the limit of 4194304"
        ),
        "stderr: {stderr}"
    );
}
