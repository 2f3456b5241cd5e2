//! A command line an experiment bin cannot parse exits 2 with a usage
//! line, before the experiment runs.

use std::process::Command;

#[test]
fn a_bad_command_line_exits_2() {
    let lines: [&[&str]; 4] = [
        &["abc"],
        &["4", "--captur-out", "x"],
        &["4", "--audit-out"],
        &["--smoke"],
    ];
    for args in lines {
        let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
            .args(args)
            .output()
            .expect("fig2 runs");
        assert_eq!(out.status.code(), Some(2), "fig2 {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: fig2 [scale]"), "{stderr}");
    }
}
