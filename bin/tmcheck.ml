(* tmcheck: command-line front end for the checkers and experiment
   harness.

     tmcheck figures                 model-check all figure programs
     tmcheck drf NAME                DRF verdict for one figure program
     tmcheck opacity [--variant V]   classify recorded TL2 histories
     tmcheck tms                     list registered TM implementations
     tmcheck run NAME [options]      runtime trials of a figure on a TM
     tmcheck stats [--tm NAME]       kernel workload + telemetry snapshot
     tmcheck trace [FIGURE] [--out]  Chrome trace_event timeline export
     tmcheck bench-validate FILE     validate BENCH_tl2.json + inversion guard *)

open Cmdliner
open Tm_lang

(* TM selection is registry-driven: [--tm NAME] is resolved against
   [Tm_registry] (or the sched-instrumented registry for [sched]), and
   unknown names list what is registered. *)

let tm_entry_or_exit ~find ~names tm_name =
  match find tm_name with
  | Some e -> e
  | None ->
      Printf.eprintf "unknown TM %s (registered: %s)\n" tm_name
        (String.concat ", " names);
      exit 2

let warn_policy entry policy =
  match Tm_registry.check_policy entry policy with
  | Ok () -> ()
  | Error msg -> Printf.eprintf "warning: %s\n" msg

let figure_by_name name =
  let open Figures in
  match name with
  | "fig1a" -> Some (fig1a ~fenced:true ())
  | "fig1a-nofence" -> Some (fig1a ~fenced:false ())
  | "fig1b" -> Some (fig1b ~fenced:true ())
  | "fig1b-nofence" -> Some (fig1b ~fenced:false ())
  | "fig2" -> Some fig2
  | "fig3" -> Some fig3
  | "fig6" -> Some fig6
  | "fig1a-ro" -> Some (fig1a_read_only_privatizer ~fenced:true ())
  | "fig1a-ro-nofence" -> Some (fig1a_read_only_privatizer ~fenced:false ())
  | _ -> None

let figure_names =
  [
    "fig1a"; "fig1a-nofence"; "fig1b"; "fig1b-nofence"; "fig2"; "fig3";
    "fig6"; "fig1a-ro"; "fig1a-ro-nofence";
  ]

let report_figure (fig : Figures.figure) =
  let drf = Explore.is_drf ~fuel:fig.Figures.f_fuel fig.Figures.f_program in
  let outcomes = Explore.run ~fuel:fig.Figures.f_fuel fig.Figures.f_program in
  let post_ok =
    List.for_all
      (fun o ->
        o.Explore.diverged || fig.Figures.f_post o.Explore.envs o.Explore.regs)
      outcomes
  in
  Printf.printf "%-46s DRF=%-5b postcondition=%-5b executions=%d\n"
    fig.Figures.f_name drf post_ok (List.length outcomes)

let figures_cmd =
  let doc = "Model-check every figure program under strong atomicity." in
  let run () =
    List.iter
      (fun name ->
        match figure_by_name name with
        | Some fig -> report_figure fig
        | None -> ())
      figure_names
  in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ const ())

let figure_arg =
  let doc = "Figure program name: " ^ String.concat ", " figure_names in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)

let drf_cmd =
  let doc = "Decide DRF(P, s, H_atomic) for one figure program." in
  let run name =
    match figure_by_name name with
    | None ->
        Printf.eprintf "unknown figure %s\n" name;
        exit 2
    | Some fig ->
        let races =
          Explore.races ~fuel:fig.Figures.f_fuel fig.Figures.f_program
        in
        if races = [] then print_endline "DRF"
        else begin
          Printf.printf "RACY (%d racy executions)\n" (List.length races);
          match races with
          | (h, race) :: _ ->
              Format.printf "example: %a@." (Tm_relations.Race.pp_race h) race
          | [] -> ()
        end
  in
  Cmd.v (Cmd.info "drf" ~doc) Term.(const run $ figure_arg)

let variant_arg =
  let variant_conv =
    Arg.enum
      [
        ("normal", Tl2.Normal);
        ("no-read-validation", Tl2.No_read_validation);
        ("no-commit-validation", Tl2.No_commit_validation);
      ]
  in
  Arg.(
    value & opt variant_conv Tl2.Normal
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:"TL2 variant: normal, no-read-validation, no-commit-validation")

let runs_arg =
  Arg.(value & opt int 10 & info [ "runs" ] ~docv:"N" ~doc:"Number of runs")

let opacity_cmd =
  let doc =
    "Record random-workload TL2 histories and classify them (DRF + strong \
     opacity)."
  in
  let run variant runs =
    let delay = if variant = Tl2.Normal then 0 else 20_000 in
    let txn_spin = if variant = Tl2.Normal then 0 else 200_000 in
    for seed = 1 to runs do
      let h =
        Tm_workloads.Random_workload.generate ~variant ~commit_delay:delay
          ~txn_spin ~seed ()
      in
      Format.printf "seed %2d (%3d actions): %a@." seed
        (Tm_model.History.length h)
        Tm_workloads.Random_workload.pp_verdict
        (Tm_workloads.Random_workload.check_history h)
    done
  in
  Cmd.v (Cmd.info "opacity" ~doc) Term.(const run $ variant_arg $ runs_arg)

let policy_arg =
  let policy_conv =
    Arg.enum
      (List.map
         (fun p -> (Tm_runtime.Fence_policy.name p, p))
         Tm_runtime.Fence_policy.all)
  in
  Arg.(
    value
    & opt policy_conv Tm_runtime.Fence_policy.Selective
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Fence policy: none, selective, conservative, skip-read-only")

let trials_arg =
  Arg.(
    value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc:"Number of trials")

let tm_arg =
  Arg.(
    value & opt string "tl2"
    & info [ "tm" ] ~docv:"TM"
        ~doc:("TM implementation: " ^ String.concat ", " Tm_registry.names))

let tms_cmd =
  let doc = "List registered TM implementations and their capabilities." in
  let names_flag =
    Arg.(
      value & flag
      & info [ "names" ] ~doc:"Print just the TM names, one per line")
  in
  let correct_flag =
    Arg.(
      value & flag
      & info [ "correct" ]
          ~doc:"Exclude the deliberately bug-injected variants")
  in
  let run names_only correct =
    let open Tm_registry in
    let entries =
      List.filter (fun e -> (not correct) || not e.faulty) Tm_registry.all
    in
    if names_only then
      List.iter (fun e -> print_endline e.name) entries
    else begin
      Printf.printf "%-26s %-6s %-7s %-8s %-16s %s\n" "NAME" "SAFE" "FENCES"
        "WINDOWS" "FENCE-IMPLS" "DESCRIPTION";
      List.iter
        (fun e ->
          let extra =
            (if e.faulty then " [faulty]" else "")
            ^
            match e.faulty_variants with
            | [] -> ""
            | vs -> " (faulty variants: " ^ String.concat ", " vs ^ ")"
          in
          Printf.printf "%-26s %-6s %-7s %-8s %-16s %s\n" e.name
            (if e.privatization_safe then "yes" else "no")
            (if e.needs_fences then "needs" else "-")
            (if e.has_windows then "yes" else "-")
            (match e.fence_impls with
            | [] -> "-"
            | l -> String.concat "," l)
            (e.description ^ extra))
        entries
    end
  in
  Cmd.v (Cmd.info "tms" ~doc) Term.(const run $ names_flag $ correct_flag)

let run_cmd =
  let doc = "Run a figure program repeatedly on a real TM and count \
             postcondition violations."
  in
  let run name tm_name policy trials =
    match figure_by_name name with
    | None ->
        Printf.eprintf "unknown figure %s\n" name;
        exit 2
    | Some base ->
        (* the handshake variants align the anomaly windows *)
        let fig =
          let open Figures in
          match name with
          | "fig1a" -> fig1a ~handshake:true ~fenced:true ()
          | "fig1a-nofence" -> fig1a ~handshake:true ~fenced:false ()
          | "fig1b" -> fig1b ~handshake:true ~spin:300_000 ~fenced:true ()
          | "fig1b-nofence" ->
              fig1b ~handshake:true ~spin:300_000 ~fenced:false ()
          | "fig1a-ro" ->
              fig1a_read_only_privatizer ~handshake:true ~fenced:true ()
          | "fig1a-ro-nofence" ->
              fig1a_read_only_privatizer ~handshake:true ~fenced:false ()
          | _ -> base
        in
        let entry =
          tm_entry_or_exit ~find:Tm_registry.find ~names:Tm_registry.names
            tm_name
        in
        warn_policy entry policy;
        (* widen the TL2-family commit/write-back race window so the
           anomaly is observable in wall-clock trials *)
        let window =
          if entry.Tm_registry.has_windows then
            Some
              {
                Tm_registry.commit_delay = 300_000;
                writeback_delay = 0;
                delay_threads = Some [ 1 ];
              }
          else None
        in
        let s =
          Tm_workloads.Runner.run_trials_auto_entry ~fuel:700_000 ?window
            ~tm:entry ~policy ~trials ~nregs:Figures.nregs fig
        in
        Printf.printf
          "%s on %s, policy %s: %d violations, %d divergences, %d runs \
           with aborts (of %d trials)\n"
          fig.Figures.f_name tm_name
          (Tm_runtime.Fence_policy.name policy)
          s.Tm_workloads.Runner.violations s.Tm_workloads.Runner.divergences
          s.Tm_workloads.Runner.aborted_runs s.Tm_workloads.Runner.trials
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ figure_arg $ tm_arg $ policy_arg $ trials_arg)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed")

(* ------------------ systematic concurrency testing ----------------- *)

let sched_cmd =
  let doc =
    "Systematically explore thread interleavings of a figure program on a \
     sched-instrumented TM (bounded-exhaustive, seeded-random, or PCT), \
     checking the postcondition, strong opacity and race freedom on every \
     execution; failures print a deterministic replay seed/schedule."
  in
  let sched_tm_arg =
    Arg.(
      value
      & opt string "tl2"
      & info [ "tm" ] ~docv:"TM"
          ~doc:
            ("TM implementation: "
            ^ String.concat ", " Tm_sched.Harness.Registry.names))
  in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("exhaustive", `Exhaustive); ("random", `Random);
                    ("pct", `Pct) ])
          `Random
      & info [ "sched" ] ~docv:"STRATEGY"
          ~doc:"Exploration strategy: exhaustive, random, pct")
  in
  let execs_arg =
    Arg.(
      value & opt int 2000
      & info [ "execs" ] ~docv:"N" ~doc:"Execution budget")
  in
  let preemptions_arg =
    Arg.(
      value & opt int 2
      & info [ "preemptions" ] ~docv:"N"
          ~doc:"Preemption bound (exhaustive strategy)")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D" ~doc:"PCT bug depth (pct strategy)")
  in
  let bug_arg =
    Arg.(
      value & opt string "any"
      & info [ "bug" ] ~docv:"ORACLE"
          ~doc:"Bug oracle: post, opacity, race, any")
  in
  let fuel_arg =
    Arg.(
      value & opt int 256
      & info [ "fuel" ] ~docv:"N" ~doc:"Interpreter fuel per thread")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Replay the execution with this per-execution seed (as printed \
             by a failing random/pct exploration run with the same \
             --sched/--seed/--depth flags) and print its history")
  in
  let replay_schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-schedule" ] ~docv:"SCHED"
          ~doc:
            "Replay a comma-separated thread schedule (as printed by a \
             failing exploration) and print its history")
  in
  let run name tm_name policy strategy seed execs preemptions depth bug_name
      fuel replay replay_schedule =
    let open Tm_sched in
    let fig =
      match figure_by_name name with
      | Some fig -> fig
      | None ->
          Printf.eprintf "unknown figure %s\n" name;
          exit 2
    in
    let tm =
      tm_entry_or_exit ~find:Harness.Registry.find
        ~names:Harness.Registry.names tm_name
    in
    warn_policy tm policy;
    let bug =
      match Harness.bug_of_string bug_name with
      | Some bug -> bug
      | None ->
          Printf.eprintf "unknown bug oracle %s\n" bug_name;
          exit 2
    in
    let spec =
      match strategy with
      | `Exhaustive -> Sched.Exhaustive { preemptions; max_execs = execs }
      | `Random -> Sched.Random { seed; execs }
      | `Pct -> Sched.Pct { seed; execs; depth }
    in
    let pp_schedule s = String.concat "," (List.map string_of_int s) in
    let report_execution o =
      print_string (Tm_model.Text.to_string o.Harness.history);
      Printf.printf "verdict: %s\n" (Harness.describe o);
      exit (if Harness.is_bug bug o then 1 else 0)
    in
    match (replay, replay_schedule) with
    | Some exec_seed, _ ->
        report_execution
          (Harness.replay_seed_tm ~fuel ~tm ~policy ~spec ~seed:exec_seed fig)
    | None, Some s ->
        let schedule =
          try List.map int_of_string (String.split_on_char ',' (String.trim s))
          with Failure _ ->
            Printf.eprintf "bad schedule %S (expected e.g. 1,0,1)\n" s;
            exit 2
        in
        report_execution
          (Harness.replay_schedule_tm ~fuel ~tm ~policy ~schedule fig)
    | None, None -> (
        match Harness.explore_tm ~fuel ~tm ~policy ~spec ~bug fig with
        | Sched.Passed { execs; complete } ->
            Printf.printf
              "%s on %s, policy %s: no %s bug in %d execution(s)%s\n"
              fig.Figures.f_name tm_name
              (Tm_runtime.Fence_policy.name policy)
              (Harness.bug_name bug) execs
              (if complete then
                 " (schedule space exhausted within the preemption bound)"
               else "");
            exit 0
        | Sched.Found f ->
            Printf.printf "%s on %s, policy %s: bug at execution %d: %s\n"
              fig.Figures.f_name tm_name
              (Tm_runtime.Fence_policy.name policy)
              f.Sched.f_exec
              (Harness.describe f.Sched.f_value);
            Printf.printf "schedule: %s\n" (pp_schedule f.Sched.f_value.Harness.schedule);
            (match f.Sched.f_seed with
            | Some es ->
                Printf.printf "replay seed: %d\n" es;
                Printf.printf
                  "replay: tmcheck sched %s --tm %s --policy %s --sched %s \
                   --seed %d --depth %d --fuel %d --replay %d\n"
                  name tm_name
                  (Tm_runtime.Fence_policy.name policy)
                  (match strategy with
                  | `Exhaustive -> "exhaustive"
                  | `Random -> "random"
                  | `Pct -> "pct")
                  seed depth fuel es
            | None ->
                Printf.printf
                  "replay: tmcheck sched %s --tm %s --policy %s --fuel %d \
                   --replay-schedule %s\n"
                  name tm_name
                  (Tm_runtime.Fence_policy.name policy)
                  fuel
                  (pp_schedule f.Sched.f_value.Harness.schedule));
            (* confirm the printed replay token reproduces the execution *)
            let replayed =
              match f.Sched.f_seed with
              | Some es ->
                  Harness.replay_seed_tm ~fuel ~tm ~policy ~spec ~seed:es fig
              | None ->
                  Harness.replay_schedule_tm ~fuel ~tm ~policy
                    ~schedule:f.Sched.f_value.Harness.schedule fig
            in
            let identical =
              Tm_model.Text.to_string replayed.Harness.history
              = Tm_model.Text.to_string f.Sched.f_value.Harness.history
            in
            Printf.printf "replay reproduces the identical history: %b\n"
              identical;
            exit (if identical then 1 else 3))
  in
  Cmd.v (Cmd.info "sched" ~doc)
    Term.(
      const run $ figure_arg $ sched_tm_arg $ policy_arg $ strategy_arg
      $ seed_arg $ execs_arg $ preemptions_arg $ depth_arg $ bug_arg
      $ fuel_arg $ replay_arg $ replay_schedule_arg)

(* ---------------------- history file commands ---------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"History file (see Tm_model.Text for the                                  format)")

let hist_cmd =
  let doc =
    "Check a history file: well-formedness, data races (offline and      online detectors), strong opacity, and the separation disciplines."
  in
  let run path =
    match Tm_model.Text.of_file path with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 2
    | Ok h -> (
        Printf.printf "%d actions\n" (Tm_model.History.length h);
        (match Tm_model.History.well_formedness_errors h with
        | [] -> print_endline "well-formed: yes"
        | errs ->
            print_endline "well-formed: NO";
            List.iter (fun e -> Printf.printf "  %s\n" e) errs);
        let rels = Tm_relations.Relations.of_history h in
        Format.printf "%a@." Tm_relations.Race.pp_report rels;
        let online = Tm_relations.Online_race.check h in
        Printf.printf "online detector: %s\n"
          (if online = [] then "no races" else
             Printf.sprintf "%d race(s)" (List.length online));
        Format.printf "strong opacity: %a@." Tm_opacity.Checker.pp_verdict
          (Tm_opacity.Checker.check h);
        Format.printf "incremental monitor: %a@." Tm_opacity.Monitor.pp_verdict
          (Tm_opacity.Monitor.check h);
        Printf.printf "static separation: %s\n"
          (if Tm_disciplines.Separation.Static.ok h then "yes" else "no"))
  in
  Cmd.v (Cmd.info "hist" ~doc) Term.(const run $ file_arg)

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the history to FILE")

let record_cmd =
  let doc =
    "Record a random privatization workload on instrumented TL2 and      print (or save) the history."
  in
  let run variant seed out =
    let delay = if variant = Tl2.Normal then 0 else 20_000 in
    let txn_spin = if variant = Tl2.Normal then 0 else 200_000 in
    let h =
      Tm_workloads.Random_workload.generate ~variant ~commit_delay:delay
        ~txn_spin ~seed ()
    in
    (match out with
    | Some path ->
        Tm_model.Text.to_file path h;
        Printf.printf "wrote %d actions to %s\n" (Tm_model.History.length h)
          path
    | None -> print_string (Tm_model.Text.to_string h));
    Format.printf "verdict: %a@." Tm_workloads.Random_workload.pp_verdict
      (Tm_workloads.Random_workload.check_history h)
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const run $ variant_arg $ seed_arg $ out_arg)

(* ----------------------- observability commands -------------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON")

let stats_cmd =
  let doc =
    "Run a kernel workload on a TM and report its telemetry snapshot: \
     commits, aborts broken down by cause, and span-duration histograms \
     (fence waits, commit validation, lock acquisition; one event in 64 \
     per thread and kind is timed)."
  in
  let kernel_arg =
    Arg.(
      value & opt string "bank"
      & info [ "kernel" ] ~docv:"KERNEL"
          ~doc:
            ("Workload kernel: "
            ^ String.concat ", " Tm_workloads.Kernels.kernel_names))
  in
  let threads_arg =
    Arg.(
      value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker domains")
  in
  let ops_arg =
    Arg.(
      value & opt int 2_000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per thread")
  in
  let run tm_name kernel threads ops policy seed json out =
    let entry =
      tm_entry_or_exit ~find:Tm_registry.find ~names:Tm_registry.names tm_name
    in
    warn_policy entry policy;
    let stats, snap =
      try
        Tm_workloads.Kernels.run_entry_obs ~tm:entry ~kernel ~threads
          ~ops_per_thread:ops ~policy ~seed ()
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    if json then begin
      let open Tm_obs in
      let j =
        Json.Obj
          [
            ("tm", Json.String tm_name);
            ("kernel", Json.String kernel);
            ("threads", Json.Int threads);
            ("policy", Json.String (Tm_runtime.Fence_policy.name policy));
            ("ops", Json.Int stats.Tm_workloads.Kernels.ops);
            ("seconds", Json.Float stats.Tm_workloads.Kernels.seconds);
            ("throughput", Json.Float stats.Tm_workloads.Kernels.throughput);
            ("retries", Json.Int stats.Tm_workloads.Kernels.retries);
            ("fences", Json.Int stats.Tm_workloads.Kernels.fences);
            ("obs", Obs.snapshot_json snap);
          ]
      in
      match out with
      | Some path -> Json.write_file path j
      | None -> print_string (Json.to_string j)
    end
    else begin
      Format.printf "%s on %s (policy %s): %a@." kernel tm_name
        (Tm_runtime.Fence_policy.name policy)
        Tm_workloads.Kernels.pp_stats stats;
      Format.printf "@[<v>%a@]@?" Tm_obs.Obs.pp_snapshot snap
    end
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ tm_arg $ kernel_arg $ threads_arg $ ops_arg $ policy_arg
      $ seed_arg $ json_flag $ out_arg)

(* ------------------------- bench validation ------------------------ *)

let bench_validate_cmd =
  let doc =
    "Validate a BENCH_tl2.json document (schema bench/tl2/v1): parse it, \
     check the required fields, and enforce the regression guard that \
     read-only throughput is at least write-heavy throughput for every \
     TL2 variant and domain count — an inversion means the read-only \
     commit fast path has stopped paying for itself."
  in
  let bench_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"BENCH_tl2.json file to validate")
  in
  let run path =
    let module J = Tm_obs.Json in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 1)
        fmt
    in
    let contents =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let j =
      match J.of_string contents with
      | Ok j -> j
      | Error msg -> fail "parse error: %s" msg
    in
    (match J.member "schema" j with
    | Some (J.String "bench/tl2/v1") -> ()
    | Some (J.String s) -> fail "schema %S (expected bench/tl2/v1)" s
    | _ -> fail "missing \"schema\"");
    (match J.member "summary" j with
    | Some (J.Obj _) -> ()
    | _ -> fail "missing \"summary\" object");
    let rows =
      match J.member "results" j with
      | Some (J.Arr (_ :: _ as rows)) -> rows
      | Some (J.Arr []) -> fail "empty \"results\""
      | _ -> fail "missing \"results\" array"
    in
    let parsed =
      List.map
        (fun row ->
          let str k =
            match J.member k row with
            | Some (J.String s) -> s
            | _ -> fail "result row missing string field %S" k
          in
          let threads =
            match J.member "threads" row with
            | Some (J.Int i) -> i
            | _ -> fail "result row missing int field \"threads\""
          in
          let thr =
            match J.member "ops_per_s" row with
            | Some (J.Float f) -> f
            | Some (J.Int i) -> float_of_int i
            | _ -> fail "result row missing number field \"ops_per_s\""
          in
          (str "tm", str "mix", threads, thr))
        rows
    in
    let find tm mix threads =
      List.find_opt
        (fun (t, m, th, _) -> t = tm && m = mix && th = threads)
        parsed
    in
    let uniq f = List.sort_uniq compare (List.map f parsed) in
    let tms = uniq (fun (t, _, _, _) -> t) in
    let thread_counts = uniq (fun (_, _, th, _) -> th) in
    List.iter
      (fun tm ->
        List.iter
          (fun th ->
            match (find tm "read-only" th, find tm "write-heavy" th) with
            | Some (_, _, _, ro), Some (_, _, _, wh) ->
                if ro < wh then
                  fail
                    "read-only throughput (%.0f ops/s) below write-heavy \
                     (%.0f ops/s) for %s at %d thread(s): the read-only \
                     commit fast path has regressed"
                    ro wh tm th
            | _ ->
                fail "missing read-only/write-heavy rows for %s at %d \
                      thread(s)" tm th)
          thread_counts)
      tms;
    Printf.printf
      "%s: valid (%d rows, %d TMs, read-only >= write-heavy at every domain \
       count)\n"
      path (List.length parsed) (List.length tms)
  in
  Cmd.v (Cmd.info "bench-validate" ~doc) Term.(const run $ bench_file_arg)

let trace_cmd =
  let doc =
    "Record one timed execution of a figure program on a TM and export it \
     as Chrome trace_event JSON — open in chrome://tracing or Perfetto.  \
     One timeline row per thread; transactions are duration events \
     colored by commit/abort, fences get duration plus instant markers."
  in
  let fig_default_arg =
    let doc = "Figure program name: " ^ String.concat ", " figure_names in
    Arg.(value & pos 0 string "fig1a" & info [] ~docv:"FIGURE" ~doc)
  in
  let run name tm_name policy seed out =
    match figure_by_name name with
    | None ->
        Printf.eprintf "unknown figure %s\n" name;
        exit 2
    | Some fig ->
        let entry =
          tm_entry_or_exit ~find:Tm_registry.find ~names:Tm_registry.names
            tm_name
        in
        warn_policy entry policy;
        let h, times, snap =
          Tm_workloads.Runner.record_trace_entry ~seed ~tm:entry ~policy
            ~nregs:Figures.nregs fig
        in
        let trace = Tm_obs.Trace.of_history ~times ~tm:tm_name h in
        (match out with
        | Some path ->
            Tm_obs.Json.write_file path trace;
            Printf.printf
              "wrote %s: %d actions, %d transaction events (commits %d, \
               aborts %d)\n"
              path
              (Tm_model.History.length h)
              (Tm_obs.Trace.txn_event_count trace)
              snap.Tm_obs.Obs.s_commits
              (Tm_obs.Obs.aborts_total snap)
        | None -> print_string (Tm_obs.Json.to_string trace))
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ fig_default_arg $ tm_arg $ policy_arg $ seed_arg $ out_arg)

let () =
  let doc = "checkers and experiments for Safe Privatization in TM" in
  let info = Cmd.info "tmcheck" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ figures_cmd; drf_cmd; opacity_cmd; tms_cmd; run_cmd; sched_cmd;
            hist_cmd; record_cmd; stats_cmd; trace_cmd; bench_validate_cmd ]))
