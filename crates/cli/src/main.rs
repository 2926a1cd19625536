//! `s3wlan` — the command-line front end. All logic lives in the library
//! half of this crate (`s3_cli`) so it can be tested.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    if let Err(e) = s3_cli::run(&argv, &mut stdout) {
        eprintln!("error: {e}");
        if matches!(e, s3_cli::CliError::Usage(_)) {
            eprintln!("\n{}", s3_cli::usage());
        }
        std::process::exit(2);
    }
}
