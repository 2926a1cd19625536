//! An output that cannot be written must fail the command: `generate` and
//! `convert` write through buffered writers, whose last block only reaches
//! the file when they are flushed. `/dev/full` accepts the open and fails
//! every write, so a short output fails only at that flush.

use std::path::Path;
use std::process::Command;

const FULL: &str = "/dev/full";

/// Runs `s3wlan args` and checks that it exited 2 with an I/O error.
fn fails_with_an_io_error(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_s3wlan"))
        .args(args)
        .output()
        .expect("launch s3wlan");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "s3wlan {args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: i/o error:"),
        "s3wlan {args:?}: {stderr}"
    );
}

#[test]
fn writing_to_a_full_device_fails_generate_and_convert() {
    if !Path::new(FULL).exists() {
        eprintln!("skipped: {FULL} is absent on this platform");
        return;
    }
    let generate = "generate --users 3 --buildings 1 --days 1 --seed 1 --out";
    let mut args: Vec<&str> = generate.split_whitespace().collect();
    args.push(FULL);
    fails_with_an_io_error(&args);

    let dir = std::env::temp_dir().join("s3_cli_full_disk");
    std::fs::create_dir_all(&dir).unwrap();
    let foreign = dir.join("foreign.csv");
    std::fs::write(
        &foreign,
        "user,ap,controller,connect,disconnect,im,p2p,music,email,video,web\n\
         alice,ap-1,ctl-a,1000,2000,1,2,3,4,5,6\n",
    )
    .unwrap();
    let maps = dir.join("maps");
    let (foreign, maps) = (foreign.display().to_string(), maps.display().to_string());
    fails_with_an_io_error(&[
        "convert",
        "--in",
        &foreign,
        "--out",
        FULL,
        "--maps-dir",
        &maps,
    ]);
}
