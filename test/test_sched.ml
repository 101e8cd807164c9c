(* Tests for the deterministic cooperative scheduler (lib/tm_sched):
   the engine itself, the exploration strategies, replay, and the
   acceptance criteria of the systematic-concurrency-testing harness —
   exploration deterministically finds the privatization anomaly of an
   unsafe TM/fence configuration and replays it to the identical
   history, while safe configurations pass the same budget. *)

open Tm_lang
open Tm_sched

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let policy_none = Tm_runtime.Fence_policy.No_fences
let policy_sel = Tm_runtime.Fence_policy.Selective

let tl2 = Harness.Registry.find_exn "tl2"

let history_text o = Tm_model.Text.to_string o.Harness.history

(* ----------------------------- engine ------------------------------ *)

(* Two fibers stepping through yields: pick_of_prefix drives the
   interleaving exactly, and the trace is determined by the schedule. *)
let test_engine_prefix_order () =
  let trace schedule =
    let log = ref [] in
    let body i () =
      for k = 0 to 2 do
        Sched.Hooks.yield ();
        log := (i, k) :: !log
      done
    in
    let info =
      Sched.run
        ~pick:(Sched.pick_of_prefix (Array.of_list schedule))
        [| body 0; body 1 |]
    in
    (List.rev !log, info)
  in
  let t1, i1 = trace [ 0; 1; 0; 1; 0; 1 ] in
  let t2, i2 = trace [ 0; 1; 0; 1; 0; 1 ] in
  check bool "deterministic: same schedule, same trace" true (t1 = t2);
  check bool "deterministic: same recorded schedule" true
    (i1.Sched.schedule = i2.Sched.schedule);
  (* each fiber's first step only reaches its first yield, so full
     alternation of the logged work takes two extra leading steps *)
  let alternating, _ = trace [ 0; 1; 0; 1; 0; 1; 0; 1 ] in
  check bool "alternating schedule interleaves"
    true
    (alternating = [ (0, 0); (1, 0); (0, 1); (1, 1); (0, 2); (1, 2) ]);
  let serial, _ = trace [ 0; 0; 0 ] in
  check bool "default tail keeps current thread" true
    (serial = [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ])

(* A fiber spinning on a condition nobody will make true is a
   livelock: once every other fiber has finished, the engine reports
   it instead of hanging. *)
let test_engine_livelock () =
  let stop = Atomic.make 0 in
  let spinner () =
    while Atomic.get stop = 0 do
      Sched.Hooks.spin ()
    done
  in
  let info =
    Sched.run ~pick:(fun ~step:_ ~current ~runnable ->
        Sched.default_pick ~current ~runnable)
      [| spinner; (fun () -> ()) |]
  in
  check bool "livelock detected" true info.Sched.livelocked;
  check bool "spinner not completed" false info.Sched.completed.(0);
  check bool "other fiber completed" true info.Sched.completed.(1)

(* A parked spinner is woken by a step of another thread. *)
let test_engine_spin_wakeup () =
  let flag = Atomic.make 0 in
  let spinner () =
    while Atomic.get flag = 0 do
      Sched.Hooks.spin ()
    done
  in
  let setter () =
    Sched.Hooks.yield ();
    Atomic.set flag 1
  in
  let info =
    Sched.run ~pick:(fun ~step:_ ~current ~runnable ->
        Sched.default_pick ~current ~runnable)
      [| spinner; setter |]
  in
  check bool "no livelock" false info.Sched.livelocked;
  check bool "spinner completed" true info.Sched.completed.(0)

(* [backoff] parks like [spin] while another fiber can still run, but
   once every other fiber has finished it is a plain scheduling point:
   the conflict it waits out may have ended after it was observed. *)
let test_engine_backoff () =
  let order = ref [] in
  let backer () =
    Sched.Hooks.backoff 8;
    order := 0 :: !order
  in
  let other () =
    Sched.Hooks.yield ();
    order := 1 :: !order
  in
  let info =
    Sched.run ~pick:(fun ~step:_ ~current ~runnable ->
        Sched.default_pick ~current ~runnable)
      [| backer; other |]
  in
  check bool "parked while the other fiber could run" true
    (List.rev !order = [ 1; 0 ]);
  check bool "no livelock" false info.Sched.livelocked;
  let info =
    Sched.run ~pick:(Sched.pick_of_prefix [| 1 |])
      [| (fun () -> Sched.Hooks.backoff 8); (fun () -> ()) |]
  in
  check bool "no livelock once alone" false info.Sched.livelocked;
  check bool "backer completed" true info.Sched.completed.(0)

let test_engine_step_limit () =
  let body () =
    while true do
      Sched.Hooks.yield ()
    done
  in
  let info =
    Sched.run ~max_steps:100
      ~pick:(fun ~step:_ ~current ~runnable ->
        Sched.default_pick ~current ~runnable)
      [| body |]
  in
  check bool "step limit reported" true info.Sched.step_limit_hit;
  check int "steps bounded" 100 info.Sched.steps

(* ------------------ acceptance: privatization bug ------------------ *)

(* TL2 without fences on Figure 1(a): the worker parked between commit
   decision and write-back overwrites the privatizer's non-transactional
   write.  Seeded random exploration must find it deterministically. *)
let test_tl2_nofence_random_finds () =
  let fig = Figures.fig1a ~fenced:false () in
  let spec = Sched.Random { seed = 42; execs = 2000 } in
  match
    Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_none
      ~spec ~bug:Harness.Post fig
  with
  | Sched.Passed _ -> Alcotest.fail "random exploration missed the anomaly"
  | Sched.Found f ->
      check bool "postcondition violated" true
        (Harness.post_violated f.Sched.f_value);
      check bool "race detected on the same execution" true
        (f.Sched.f_value.Harness.races <> []);
      (* the printed seed replays to the identical execution *)
      let seed =
        match f.Sched.f_seed with
        | Some s -> s
        | None -> Alcotest.fail "random strategy must report a replay seed"
      in
      let replayed =
        Harness.replay_seed_tm ~fuel:256 ~tm:tl2
          ~policy:policy_none ~spec ~seed fig
      in
      check bool "seed replay reproduces the identical history" true
        (history_text replayed = history_text f.Sched.f_value);
      check bool "seed replay reproduces the schedule" true
        (replayed.Harness.schedule = f.Sched.f_value.Harness.schedule);
      check bool "seed replay still violates" true
        (Harness.post_violated replayed)

(* The same bug is inside the single-preemption bound, so bounded
   exhaustive search finds it too, and the recorded schedule replays. *)
let test_tl2_nofence_exhaustive_finds () =
  let fig = Figures.fig1a ~fenced:false () in
  match
    Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_none
      ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 5000 })
      ~bug:Harness.Post fig
  with
  | Sched.Passed _ -> Alcotest.fail "exhaustive exploration missed the anomaly"
  | Sched.Found f ->
      let replayed =
        Harness.replay_schedule_tm ~fuel:256 ~tm:tl2
          ~policy:policy_none ~schedule:f.Sched.f_schedule fig
      in
      check bool "schedule replay reproduces the identical history" true
        (history_text replayed = history_text f.Sched.f_value);
      check bool "schedule replay still violates" true
        (Harness.post_violated replayed)

(* TL2 *with* the fence passes the same budgets, under every oracle:
   no postcondition violation, no race, no opacity violation. *)
let test_tl2_fenced_passes () =
  let fig = Figures.fig1a ~fenced:true () in
  (match
     Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_sel
       ~spec:(Sched.Random { seed = 42; execs = 2000 })
       ~bug:Harness.Any fig
   with
  | Sched.Passed _ -> ()
  | Sched.Found f ->
      Alcotest.failf "fenced TL2 flagged under random exploration: %s"
        (Harness.describe f.Sched.f_value));
  match
    Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_sel
      ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 5000 })
      ~bug:Harness.Any fig
  with
  | Sched.Passed _ -> ()
  | Sched.Found f ->
      Alcotest.failf "fenced TL2 flagged under exhaustive exploration: %s"
        (Harness.describe f.Sched.f_value)

(* The epoch-based fence is as safe as the flag scan. *)
let test_tl2_epoch_fenced_passes () =
  let fig = Figures.fig1a ~fenced:true () in
  match
    Harness.explore_tm ~fuel:256
      ~tm:(Harness.Registry.find_exn "tl2-epoch")
      ~policy:policy_sel
      ~spec:(Sched.Random { seed = 11; execs = 1000 })
      ~bug:Harness.Any fig
  with
  | Sched.Passed _ -> ()
  | Sched.Found f ->
      Alcotest.failf "epoch-fenced TL2 flagged: %s"
        (Harness.describe f.Sched.f_value)

(* PCT also finds the anomaly (depth 2: one preemption). *)
let test_tl2_nofence_pct_finds () =
  let fig = Figures.fig1a ~fenced:false () in
  let spec = Sched.Pct { seed = 5; execs = 2000; depth = 2 } in
  match
    Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_none
      ~spec ~bug:Harness.Post fig
  with
  | Sched.Passed _ -> Alcotest.fail "PCT missed the anomaly"
  | Sched.Found f -> (
      match f.Sched.f_seed with
      | None -> ()  (* found by the deterministic probe: replay by schedule *)
      | Some seed ->
          let replayed =
            Harness.replay_seed_tm ~fuel:256 ~tm:tl2
              ~policy:policy_none ~spec ~seed fig
          in
          check bool "PCT seed replay reproduces the identical history" true
            (history_text replayed = history_text f.Sched.f_value))

(* The hot-path TL2 (packed vlock word, read-only commit fast path,
   descriptor reuse) and the frozen two-word Figure 9 TL2 must be
   indistinguishable to the checker: both find the Figure 1(a) anomaly
   without the fence under the same bounded-exhaustive budget, and both
   stay clean with it under every oracle.  This is the CI sched-matrix
   [tl2*] branch as an alcotest case — the optimizations must not move
   any verdict. *)
let test_two_word_verdict_parity () =
  let nofence = Figures.fig1a ~fenced:false () in
  let fenced = Figures.fig1a ~fenced:true () in
  let spec = Sched.Exhaustive { preemptions = 1; max_execs = 5000 } in
  List.iter
    (fun name ->
      let tm = Harness.Registry.find_exn name in
      (match
         Harness.explore_tm ~fuel:256 ~tm ~policy:policy_none ~spec
           ~bug:Harness.Post nofence
       with
      | Sched.Passed _ ->
          Alcotest.failf "%s unfenced: exhaustive exploration missed the anomaly"
            name
      | Sched.Found f ->
          check bool
            (Printf.sprintf "%s unfenced: postcondition violated" name)
            true
            (Harness.post_violated f.Sched.f_value));
      match
        Harness.explore_tm ~fuel:256 ~tm ~policy:policy_sel ~spec
          ~bug:Harness.Any fenced
      with
      | Sched.Passed _ -> ()
      | Sched.Found f ->
          Alcotest.failf "%s fenced flagged: %s" name
            (Harness.describe f.Sched.f_value))
    [ "tl2"; "tl2-two-word" ]

(* Figure 2 (publication) is DRF and fence-free safe; the reader's
   transaction can commit read-only, so this drives the read-only
   commit fast path under the deterministic scheduler with every
   oracle armed (postcondition, race detector, opacity monitor).
   Bounded-exhaustive search over the optimized TL2 must stay clean. *)
let test_tl2_fig2_exhaustive_clean () =
  match
    Harness.explore_tm ~fuel:256 ~tm:tl2 ~policy:policy_none
      ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 5000 })
      ~bug:Harness.Any Figures.fig2
  with
  | Sched.Passed _ -> ()
  | Sched.Found f ->
      Alcotest.failf "tl2 flagged on fig2 (publication): %s"
        (Harness.describe f.Sched.f_value)

(* The privatization-safe baselines keep Figure 1(a)'s postcondition
   with no fence at all (the program is racy, but NOrec's value-based
   validation, TLRW's visible readers and the global lock's mutual
   exclusion each close the anomaly window). *)
let test_baselines_fence_free_safe () =
  let fig = Figures.fig1a ~fenced:false () in
  List.iter
    (fun (name, tm) ->
      (match
         Harness.explore_tm ~fuel:256 ~tm ~policy:policy_none
           ~spec:(Sched.Random { seed = 3; execs = 600 })
           ~bug:Harness.Post fig
       with
      | Sched.Passed _ -> ()
      | Sched.Found f ->
          Alcotest.failf "%s violated fig1a under random exploration: %s" name
            (Harness.describe f.Sched.f_value));
      match
        Harness.explore_tm ~fuel:256 ~tm ~policy:policy_none
          ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 2000 })
          ~bug:Harness.Post fig
      with
      | Sched.Passed _ -> ()
      | Sched.Found f ->
          Alcotest.failf "%s violated fig1a under exhaustive exploration: %s"
            name
            (Harness.describe f.Sched.f_value))
    [
      ("norec", Harness.Registry.find_exn "norec");
      ("tlrw", Harness.Registry.find_exn "tlrw");
      ("lock", Harness.Registry.find_exn "lock");
    ]

(* ------------------- contention: retried upgrades ------------------ *)

(* Two fibers increment one register through the retry loop of
   [Atomic_block.Make_sched] on the Sched-instrumented TLRW: each
   transaction read-locks the register and then upgrades, so the two
   upgraders conflict on every interleaving that overlaps them.  Every
   explored schedule must finish both fibers with the exact count. *)
let contended_counter ~name ~per_fiber ~pick =
  let module M = (val (Harness.Registry.find_exn name).Tm_registry.tm) in
  let module AB = Tm_runtime.Atomic_block.Make_sched (Sched.Hooks) (M.T) in
  let tm = M.make ~nregs:1 ~nthreads:2 () in
  let fiber thread () =
    for _ = 1 to per_fiber do
      let (), _ =
        AB.run tm ~thread (fun txn -> M.T.write tm txn 0 (M.T.read tm txn 0 + 1))
      in
      ()
    done
  in
  let info = Sched.run ~max_steps:20_000 ~pick [| fiber 0; fiber 1 |] in
  (info, (info, Sched.unscheduled (fun () -> M.T.read_nt tm ~thread:0 0)))

let counter_is_bug ~per_fiber (info, count) =
  info.Sched.livelocked || info.Sched.step_limit_hit
  || Array.exists not info.Sched.completed
  || count <> 2 * per_fiber

let describe_counter (info, count) =
  Printf.sprintf "count %d, livelocked %b, step limit %b, %d steps" count
    info.Sched.livelocked info.Sched.step_limit_hit info.Sched.steps

let test_upgraders_terminate name () =
  let per_fiber = 2 in
  List.iter
    (fun spec ->
      match
        Sched.explore ~nthreads:2 spec
          ~run:(fun ~pick -> contended_counter ~name ~per_fiber ~pick)
          ~is_bug:(counter_is_bug ~per_fiber)
      with
      | Sched.Passed { complete; _ } -> (
          match spec with
          | Sched.Exhaustive _ ->
              check bool (name ^ ": bounded space explored") true complete
          | _ -> ())
      | Sched.Found f ->
          Alcotest.failf "%s contended counter: %s (schedule of %d steps)"
            name
            (describe_counter f.Sched.f_value)
            (List.length f.Sched.f_schedule))
    [
      Sched.Exhaustive { preemptions = 2; max_execs = 20_000 };
      Sched.Random { seed = 11; execs = 300 };
      Sched.Pct { seed = 11; execs = 300; depth = 3 };
    ]

(* Figure 1(b), the doomed transaction: without the fence the worker's
   loop can read privatized data and spin forever — observed as fuel
   divergence plus a race on the recorded history. *)
let test_tl2_nofence_fig1b_dooms () =
  let fig = Figures.fig1b ~fenced:false () in
  match
    Harness.explore_tm ~fuel:96 ~tm:tl2 ~policy:policy_none
      ~spec:(Sched.Random { seed = 9; execs = 2000 })
      ~bug:Harness.Race fig
  with
  | Sched.Passed _ -> Alcotest.fail "fig1b anomaly not found"
  | Sched.Found f ->
      check bool "race reported" true (f.Sched.f_value.Harness.races <> [])

(* -------------------- acceptance: opacity bug ---------------------- *)

(* A lost-update program: both transactions read x then write a
   thread-unique value.  Skipping TL2's commit-time validation lets
   both commit after reading the same initial value — no serial order
   explains the history, which the opacity monitor rejects.  The
   unmodified TL2 aborts one of them and stays opaque. *)
let lost_update : Figures.figure =
  let open Ast in
  let thread k =
    Atomic
      ( "l",
        seq [ Read ("t", Figures.x); Write (Figures.x, Add (Var "t", Int k)) ]
      )
  in
  {
    Figures.f_name = "lost update";
    f_program = [| thread 100; thread 200 |];
    f_post = (fun _ _ -> true);
    f_drf = true;
    f_fuel = 32;
    f_no_divergence = true;
  }

let test_opacity_violation_found () =
  match
    Harness.explore_tm ~fuel:64
      ~tm:(Harness.Registry.find_exn "tl2-no-commit-validation")
      ~policy:policy_none
      ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 3000 })
      ~bug:Harness.Opacity lost_update
  with
  | Sched.Passed _ ->
      Alcotest.fail "no opacity violation found in no-commit-validation TL2"
  | Sched.Found f ->
      check bool "monitor rejects" true
        (f.Sched.f_value.Harness.monitor <> Tm_opacity.Monitor.Ok);
      let replayed =
        Harness.replay_schedule_tm ~fuel:64
          ~tm:(Harness.Registry.find_exn "tl2-no-commit-validation")
          ~policy:policy_none ~schedule:f.Sched.f_schedule lost_update
      in
      check bool "opacity replay reproduces the identical history" true
        (history_text replayed = history_text f.Sched.f_value)

let test_opacity_holds_for_normal_tl2 () =
  match
    Harness.explore_tm ~fuel:64 ~tm:tl2 ~policy:policy_none
      ~spec:(Sched.Exhaustive { preemptions = 1; max_execs = 3000 })
      ~bug:Harness.Opacity lost_update
  with
  | Sched.Passed _ -> ()
  | Sched.Found f ->
      Alcotest.failf "normal TL2 flagged as non-opaque: %s"
        (Harness.describe f.Sched.f_value)

(* --------------- well-formedness of recorded histories ------------- *)

(* Every history the Recorder produces must be well formed — whatever
   the workload, the TM, and the scheduler (OS or deterministic). *)

let test_wf_os_scheduler () =
  for seed = 0 to 4 do
    let h = Tm_workloads.Random_workload.generate ~seed () in
    check bool
      (Printf.sprintf "OS-scheduled random workload %d well formed" seed)
      true
      (Tm_model.History.well_formedness_errors h = [])
  done

let test_wf_deterministic_scheduler () =
  let figures =
    [
      (Figures.fig1a ~fenced:false (), policy_none);
      (Figures.fig1a ~fenced:true (), policy_sel);
      (Figures.fig1b ~fenced:false (), policy_none);
      (Figures.fig2, policy_none);
      (Figures.fig3, policy_none);
      (Figures.fig6, policy_none);
      (lost_update, policy_none);
    ]
  in
  let tms =
    [
      tl2;
      Harness.Registry.find_exn "tl2-no-commit-validation";
      Harness.Registry.find_exn "norec";
      Harness.Registry.find_exn "tlrw";
      Harness.Registry.find_exn "lock";
    ]
  in
  (* [replay_seed_tm] runs one fully deterministic execution per seed,
     whatever its verdict — a seeded sweep over random schedules whose
     every recorded history we get to inspect. *)
  let spec = Sched.Random { seed = 0; execs = 1 } in
  List.iter
    (fun tm ->
      List.iter
        (fun (fig, policy) ->
          for k = 1 to 4 do
            let o =
              Harness.replay_seed_tm ~fuel:96 ~tm ~policy ~spec
                ~seed:(Sched.exec_seed ~seed:17 k)
                fig
            in
            check bool
              (Printf.sprintf "%s/exec %d well formed" fig.Figures.f_name k)
              true
              (Tm_model.History.well_formedness_errors o.Harness.history = [])
          done)
        figures)
    tms

let () =
  Alcotest.run "tm_sched"
    [
      ( "engine",
        [
          Alcotest.test_case "prefix schedule determinism" `Quick
            test_engine_prefix_order;
          Alcotest.test_case "livelock detection" `Quick test_engine_livelock;
          Alcotest.test_case "spin wakeup" `Quick test_engine_spin_wakeup;
          Alcotest.test_case "backoff parks only while others run" `Quick
            test_engine_backoff;
          Alcotest.test_case "step limit" `Quick test_engine_step_limit;
        ] );
      ( "privatization",
        [
          Alcotest.test_case "tl2 no-fence: random finds + seed replay" `Quick
            test_tl2_nofence_random_finds;
          Alcotest.test_case "tl2 no-fence: exhaustive finds + replay" `Quick
            test_tl2_nofence_exhaustive_finds;
          Alcotest.test_case "tl2 no-fence: pct finds" `Quick
            test_tl2_nofence_pct_finds;
          Alcotest.test_case "tl2 fenced passes same budget" `Quick
            test_tl2_fenced_passes;
          Alcotest.test_case "tl2 epoch fence passes" `Quick
            test_tl2_epoch_fenced_passes;
          Alcotest.test_case "tl2 / tl2-two-word verdict parity" `Quick
            test_two_word_verdict_parity;
          Alcotest.test_case "tl2 fig2 publication: exhaustive clean" `Quick
            test_tl2_fig2_exhaustive_clean;
          Alcotest.test_case "norec/tlrw/lock fence-free safe" `Quick
            test_baselines_fence_free_safe;
          Alcotest.test_case "tl2 no-fence: fig1b race" `Quick
            test_tl2_nofence_fig1b_dooms;
        ] );
      ( "contention",
        [
          Alcotest.test_case "tlrw upgraders terminate" `Quick
            (test_upgraders_terminate "tlrw");
        ]
        @ List.filter_map
            (fun (e : Tm_registry.entry) ->
              if e.faulty || e.name = "tlrw" then None
              else
                Some
                  (Alcotest.test_case
                     (e.name ^ " contended counter terminates")
                     `Quick (test_upgraders_terminate e.name)))
            Harness.Registry.all );
      ( "opacity",
        [
          Alcotest.test_case "no-commit-validation violates opacity" `Quick
            test_opacity_violation_found;
          Alcotest.test_case "normal tl2 stays opaque" `Quick
            test_opacity_holds_for_normal_tl2;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "OS-scheduled histories" `Quick
            test_wf_os_scheduler;
          Alcotest.test_case "deterministically-scheduled histories" `Quick
            test_wf_deterministic_scheduler;
        ] );
    ]
