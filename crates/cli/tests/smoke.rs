//! End-to-end smoke test: run the `bpmf-train` binary against a generated
//! MatrixMarket file and check it trains, reports RMSE, and writes factors.

use std::process::Command;

#[test]
fn trains_from_matrix_market_and_writes_factors() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");
    let prefix = dir.join("factors");

    // Small synthetic workload exported to MatrixMarket.
    let ds = bpmf_dataset::chembl_like(0.003, 31);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args([
            "--train",
            mtx.to_str().unwrap(),
            "--k",
            "6",
            "--burnin",
            "2",
            "--samples",
            "4",
            "--threads",
            "2",
            "--engine",
            "ws",
            "--save-factors",
            prefix.to_str().unwrap(),
        ])
        .output()
        .expect("binary should run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // stdout: a header plus one line per iteration with finite RMSE.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + 6, "header + 6 iterations: {stdout}");
    let last: Vec<&str> = lines.last().unwrap().split('\t').collect();
    let rmse: f64 = last[2].parse().unwrap();
    assert!(rmse.is_finite() && rmse > 0.0);

    // Factor files exist with the right shapes.
    let users = std::fs::read_to_string(format!("{}_users.tsv", prefix.display())).unwrap();
    let movies = std::fs::read_to_string(format!("{}_movies.tsv", prefix.display())).unwrap();
    assert_eq!(users.lines().count(), ds.nrows());
    assert_eq!(movies.lines().count(), ds.ncols());
    assert_eq!(users.lines().next().unwrap().split('\t').count(), 6);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recommend_subcommand_serves_top_n_for_each_policy() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_rec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");

    let ds = bpmf_dataset::chembl_like(0.003, 31);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    for policy in ["mean", "ucb:0.5", "thompson:7"] {
        let output = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
            .args([
                "recommend",
                "--train",
                mtx.to_str().unwrap(),
                "--k",
                "4",
                "--burnin",
                "2",
                "--samples",
                "4",
                "--threads",
                "1",
                "--user",
                "0",
                "--user",
                "2",
                "--top-n",
                "5",
                "--exclude-seen",
                "--policy",
                policy,
            ])
            .output()
            .expect("binary should run");
        assert!(
            output.status.success(),
            "policy {policy} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(&format!("top-5 for user 0 (policy {policy})")),
            "{stdout}"
        );
        assert!(stdout.contains("top-5 for user 2"), "{stdout}");
        // Two users × (1 header + 5 items), after the training trace.
        let rec_lines = stdout
            .lines()
            .skip_while(|l| !l.starts_with("top-5"))
            .count();
        assert_eq!(rec_lines, 12, "{stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_user_recommend_batches_and_matches_per_user_runs() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_batch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");

    let ds = bpmf_dataset::chembl_like(0.003, 13);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let run = |users: &[&str]| {
        let mut args = vec![
            "recommend",
            "--train",
            mtx.to_str().unwrap(),
            "--k",
            "4",
            "--burnin",
            "2",
            "--samples",
            "4",
            "--threads",
            "1",
            "--seed",
            "5",
            "--top-n",
            "4",
            "--exclude-seen",
        ];
        for u in users {
            args.push("--user");
            args.push(u);
        }
        let output = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
            .args(&args)
            .output()
            .expect("binary should run");
        assert!(
            output.status.success(),
            "users {users:?} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .skip_while(|l| !l.starts_with("top-4"))
            .map(str::to_string)
            .collect::<Vec<String>>()
    };

    // Three users: routed through `recommend_each` (one score_block GEMM
    // for the whole block). Must print the same lists, in request order,
    // as three independent single-user runs of the same training seed.
    let batched = run(&["1", "4", "2"]);
    assert_eq!(batched.len(), 3 * (1 + 4), "three headers + 4 items each");
    let singles: Vec<String> = ["1", "4", "2"].iter().flat_map(|u| run(&[u])).collect();
    assert_eq!(batched, singles);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_algorithm_trains_from_the_cli() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_dist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");

    let ds = bpmf_dataset::chembl_like(0.003, 47);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args([
            "--train",
            mtx.to_str().unwrap(),
            "--algorithm",
            "distributed",
            "--k",
            "4",
            "--burnin",
            "2",
            "--samples",
            "3",
            "--threads",
            "2",
        ])
        .output()
        .expect("binary should run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("fitted distributed via distributed"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.lines().count(), 1 + 5, "header + 5 iters: {stdout}");
}

#[test]
fn recommend_rejects_out_of_range_user_with_nonzero_exit_and_no_partial_output() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_oor_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");

    let ds = bpmf_dataset::chembl_like(0.003, 13);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args([
            "recommend",
            "--train",
            mtx.to_str().unwrap(),
            "--k",
            "4",
            "--burnin",
            "1",
            "--samples",
            "2",
            "--threads",
            "1",
            "--user",
            "0",
            "--user",
            "1000000",
        ])
        .output()
        .expect("binary should run");
    assert!(!output.status.success(), "out-of-range user must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("out of range"), "{stderr}");
    // The bad id is rejected before any list is printed: scripted
    // consumers never see partial output.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("top-"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_daemon_binary_end_to_end_matches_offline_recommend() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_daemon_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");
    let ckpt = dir.join("model.json");

    let ds = bpmf_dataset::chembl_like(0.003, 31);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let train_args = |extra: &[&str]| {
        let mut v = vec![
            "--train".to_string(),
            mtx.to_str().unwrap().to_string(),
            "--k".into(),
            "4".into(),
            "--burnin".into(),
            "2".into(),
            "--samples".into(),
            "4".into(),
            "--threads".into(),
            "1".into(),
            "--seed".into(),
            "9".into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // Train once, checkpoint the chain; every later invocation resumes it
    // (zero further iterations), so daemon and offline serve the
    // bit-identical model.
    let trained = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args(train_args(&["--checkpoint", ckpt.to_str().unwrap()]))
        .output()
        .unwrap();
    assert!(
        trained.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&trained.stderr)
    );

    let users: Vec<String> = (0..8).map(|u| u.to_string()).collect();
    let user_flags: Vec<String> = users
        .iter()
        .flat_map(|u| ["--user".to_string(), u.clone()])
        .collect();
    let policies = ["mean", "ucb:0.5", "thompson:9"];

    // Offline references through the plain `recommend` subcommand.
    let mut offline = Vec::new();
    for policy in policies {
        let mut args = vec!["recommend".to_string()];
        args.extend(train_args(&["--resume", ckpt.to_str().unwrap()]));
        args.extend(user_flags.clone());
        args.extend(["--top-n".into(), "5".into(), "--exclude-seen".into()]);
        args.extend(["--policy".into(), policy.to_string()]);
        let out = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
            .args(&args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "offline {policy} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lists: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip_while(|l| !l.starts_with("top-"))
            .map(str::to_string)
            .collect();
        assert_eq!(lists.len(), 8 * 6, "8 users × (header + 5 items)");
        offline.push(lists);
    }

    // Daemon on an ephemeral port, resumed from the same checkpoint.
    let mut daemon_args = vec!["serve-daemon".to_string()];
    daemon_args.extend(train_args(&["--resume", ckpt.to_str().unwrap()]));
    daemon_args.extend([
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--batch-window".into(),
        "5".into(),
        "--workers".into(),
        "2".into(),
    ]);
    // Kill the daemon even when an assertion below panics, so a failing
    // test run never leaks a listening bpmf-train process.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
            .args(&daemon_args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("daemon spawns"),
    );
    // The daemon announces its bound address on stdout once ready.
    let mut daemon_stdout = std::io::BufReader::new(daemon.0.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        use std::io::BufRead as _;
        assert!(
            daemon_stdout.read_line(&mut line).unwrap() > 0,
            "daemon exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("serving on ") {
            break rest.to_string();
        }
    };

    // 8 concurrent clients per policy; output format matches `recommend`.
    for (policy, offline_lists) in policies.iter().zip(&offline) {
        let mut args = vec![
            "serve-client".to_string(),
            "--addr".into(),
            addr.clone(),
            "--top-n".into(),
            "5".into(),
            "--exclude-seen".into(),
            "--policy".into(),
            policy.to_string(),
        ];
        args.extend(user_flags.clone());
        let out = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
            .args(&args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "client {policy} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(
            &got, offline_lists,
            "daemon must serve exactly the offline rankings ({policy})"
        );
    }

    // Graceful shutdown: ack + daemon exit code 0.
    let shut = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args(["serve-client", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(
        shut.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&shut.stderr)
    );
    let status = daemon.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_error_paths() {
    let help = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));

    let missing = Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args(["--train", "/nonexistent/x.mtx"])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot open"));
}

#[test]
fn checkpoint_resume_and_side_info_roundtrip() {
    let dir = std::env::temp_dir().join(format!("bpmf_cli_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("ratings.mtx");
    let features = dir.join("features.tsv");
    let ckpt = dir.join("state.json");

    let ds = bpmf_dataset::chembl_like(0.003, 77);
    let mut buf = Vec::new();
    bpmf_sparse::write_matrix_market(&mut buf, &ds.train).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    // Per-user feature file (3 features, deterministic values).
    let mut tsv = String::new();
    for i in 0..ds.nrows() {
        tsv.push_str(&format!(
            "{:.4}\t{:.4}\t{:.4}\n",
            (i as f64 * 0.37).sin(),
            (i as f64 * 0.11).cos(),
            (i as f64).rem_euclid(5.0) / 5.0 - 0.4,
        ));
    }
    std::fs::write(&features, &tsv).unwrap();

    let base_args = |extra: &[&str]| {
        let mut v = vec![
            "--train".to_string(),
            mtx.to_str().unwrap().to_string(),
            "--k".into(),
            "4".into(),
            "--burnin".into(),
            "2".into(),
            "--threads".into(),
            "1".into(),
            "--engine".into(),
            "static".into(),
            "--user-features".into(),
            features.to_str().unwrap().to_string(),
            "--diagnostics".into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // Phase 1: short run that writes a checkpoint.
    let out1 = std::process::Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args(base_args(&[
            "--samples",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .output()
        .unwrap();
    assert!(
        out1.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let stderr1 = String::from_utf8_lossy(&out1.stderr);
    assert!(
        stderr1.contains("side information: 3 features per user"),
        "{stderr1}"
    );
    assert!(stderr1.contains("final checkpoint written"), "{stderr1}");
    assert!(ckpt.exists());

    // Phase 2: resume with a larger budget; must pick up at iteration 4.
    let out2 = std::process::Command::new(env!("CARGO_BIN_EXE_bpmf-train"))
        .args(base_args(&[
            "--samples",
            "6",
            "--resume",
            ckpt.to_str().unwrap(),
        ]))
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let stderr2 = String::from_utf8_lossy(&out2.stderr);
    assert!(stderr2.contains("resuming from"), "{stderr2}");
    assert!(stderr2.contains("diagnostics"), "{stderr2}");
    // 8 configured iterations - 4 already done = 4 printed lines + header.
    let stdout2 = String::from_utf8_lossy(&out2.stdout);
    assert_eq!(stdout2.lines().count(), 1 + 4, "{stdout2}");

    std::fs::remove_dir_all(&dir).ok();
}
