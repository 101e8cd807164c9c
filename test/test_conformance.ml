(* Cross-TM conformance suite, parameterized over the registry: every
   entry — TL2 under either fence, the fault-injected variants, NOrec,
   TLRW and the global lock — must honour the generic TM interface
   contract (commit publishes, abort discards and releases, reads see
   own writes, non-transactional round-trips, quiescent fences).  The
   scheduled half drives each entry's Sched-instrumented instantiation
   through the deterministic scheduler and checks the recorded
   histories are well formed and (for correct TMs) strongly opaque,
   and that correct TMs keep the postcondition of a DRF figure.

   These used to be copy-pasted per-TM in test_tl2/test_baselines;
   adding a registry entry now adds it to this suite for free. *)

open Tm_sched

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let v_init = Tm_model.Types.v_init

(* ------------------- sequential contract (production) ------------- *)

let seq_cases (e : Tm_registry.entry) =
  let module M = (val e.Tm_registry.tm) in
  let module T = M.T in
  let make () = M.make ~nregs:8 ~nthreads:2 () in
  let commit_publishes () =
    let tm = make () in
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 0 7;
    T.commit tm txn;
    check int "value published" 7 (T.read_nt tm ~thread:1 0);
    let commits, aborts = M.stats tm in
    check int "one commit" 1 commits;
    check int "no aborts" 0 aborts
  in
  let abort_discards () =
    let tm = make () in
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 0 9;
    T.write tm txn 1 8;
    T.abort tm txn;
    check int "first write discarded" v_init (T.read_nt tm ~thread:0 0);
    check int "second write discarded" v_init (T.read_nt tm ~thread:0 1);
    (* whatever the abort handler must release (the global lock, TLRW
       write locks) is released: a fresh transaction can commit *)
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 0 3;
    T.commit tm txn;
    check int "subsequent commit lands" 3 (T.read_nt tm ~thread:0 0)
  in
  let reads_own_writes () =
    let tm = make () in
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 2 5;
    check int "reads back own write" 5 (T.read tm txn 2);
    check int "unwritten register reads v_init" v_init (T.read tm txn 3);
    T.commit tm txn;
    check int "committed" 5 (T.read_nt tm ~thread:0 2)
  in
  let nt_roundtrip () =
    let tm = make () in
    T.write_nt tm ~thread:0 1 13;
    check int "nt write visible to nt read" 13 (T.read_nt tm ~thread:1 1);
    let txn = T.txn_begin tm ~thread:1 in
    check int "nt write visible transactionally" 13 (T.read tm txn 1);
    T.commit tm txn
  in
  let fence_quiescent () =
    let tm = make () in
    T.fence tm ~thread:0;
    T.fence tm ~thread:1;
    check bool "fence with no active transactions returns" true true
  in
  (* the structured snapshot must agree with the raw counters, starting
     from an all-zero state, and classify an explicit abort as such *)
  let obs_matches_stats () =
    let module Obs = Tm_obs.Obs in
    let tm = make () in
    let s0 = M.snapshot tm in
    check int "fresh snapshot: no commits" 0 s0.Obs.s_commits;
    check int "fresh snapshot: no aborts" 0 (Obs.aborts_total s0);
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 0 1;
    T.commit tm txn;
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 1 2;
    T.abort tm txn;
    let commits, aborts = M.stats tm in
    let s = M.snapshot tm in
    check int "snapshot commits = stats commits" commits s.Obs.s_commits;
    check int "snapshot aborts = stats aborts" aborts (Obs.aborts_total s);
    check int "explicit abort classified" 1 (Obs.abort_count s Obs.Explicit)
  in
  [
    Alcotest.test_case (e.Tm_registry.name ^ ": commit publishes") `Quick
      commit_publishes;
    Alcotest.test_case (e.Tm_registry.name ^ ": abort discards and releases")
      `Quick abort_discards;
    Alcotest.test_case (e.Tm_registry.name ^ ": reads own writes") `Quick
      reads_own_writes;
    Alcotest.test_case (e.Tm_registry.name ^ ": nt round-trip") `Quick
      nt_roundtrip;
    Alcotest.test_case (e.Tm_registry.name ^ ": quiescent fence") `Quick
      fence_quiescent;
    Alcotest.test_case (e.Tm_registry.name ^ ": obs snapshot matches stats")
      `Quick obs_matches_stats;
  ]

(* -------------- QCheck: agreement with a plain array -------------- *)

(* A single-threaded mix of transactional and non-transactional writes
   must behave exactly like a plain array — no TM may abort, reorder
   or lose a sequential workload. *)
let prop_sequential_array (e : Tm_registry.entry) =
  let module M = (val e.Tm_registry.tm) in
  let module T = M.T in
  let nregs = 8 in
  QCheck.Test.make
    ~name:(e.Tm_registry.name ^ " agrees with a plain array")
    ~count:60
    QCheck.(list (triple (int_bound (nregs - 1)) (int_range 1 1000) bool))
    (fun ops ->
      let tm = M.make ~nregs ~nthreads:1 () in
      let model = Array.make nregs v_init in
      List.iter
        (fun (reg, v, txnal) ->
          (if txnal then (
             let txn = T.txn_begin tm ~thread:0 in
             T.write tm txn reg v;
             if T.read tm txn reg <> v then
               QCheck.Test.fail_report "own write not visible";
             T.commit tm txn)
           else T.write_nt tm ~thread:0 reg v);
          model.(reg) <- v)
        ops;
      T.fence tm ~thread:0;
      Array.for_all Fun.id
        (Array.mapi (fun r v -> T.read_nt tm ~thread:0 r = v) model))

(* ------------- scheduled contract (Sched-instrumented) ------------ *)

let round_robin : Sched.pick =
 fun ~step ~current:_ ~runnable ->
  List.nth runnable (step mod List.length runnable)

(* Two threads race commits to the same register under forced
   alternation; the recorded history must be well formed and — for
   correct TMs — strongly opaque. *)
let recorded_history_case (e : Tm_registry.entry) =
  let module M = (val e.Tm_registry.tm) in
  let module T = M.T in
  let run () =
    let recorder = Tm_runtime.Recorder.create () in
    let tm = M.make ~recorder ~nregs:4 ~nthreads:2 () in
    let body i () =
      (* written values must be process-unique (including across
         retries) for the history's reads-from to be a function *)
      let rec retry () =
        match
          let txn = T.txn_begin tm ~thread:i in
          T.write tm txn 0 (Tm_runtime.Recorder.fresh_value recorder);
          T.write tm txn (1 + i) (Tm_runtime.Recorder.fresh_value recorder);
          T.commit tm txn
        with
        | () -> ()
        | exception Tm_runtime.Tm_intf.Abort -> retry ()
      in
      retry ();
      ignore (T.read_nt tm ~thread:i 0);
      T.write_nt tm ~thread:i 3 (Tm_runtime.Recorder.fresh_value recorder)
    in
    let info = Sched.run ~pick:round_robin [| body 0; body 1 |] in
    check bool "both fibers completed" true
      (Array.for_all Fun.id info.Sched.completed);
    check bool "no livelock" false info.Sched.livelocked;
    let h = Tm_runtime.Recorder.history recorder in
    check bool "history well formed" true
      (Tm_model.History.well_formedness_errors h = []);
    if not e.Tm_registry.faulty then
      check bool "history strongly opaque" true
        (Tm_opacity.Checker.strongly_opaque h)
  in
  Alcotest.test_case
    (e.Tm_registry.name ^ ": scheduled history well formed")
    `Quick run

(* Correct TMs must keep the postcondition of a DRF figure (Figure 2,
   publication) under randomized exploration with every bug oracle
   armed; fence-free TMs run without fences, TL2 with its selective
   fence. *)
let drf_figure_case (e : Tm_registry.entry) =
  let policy =
    if e.Tm_registry.needs_fences then Tm_runtime.Fence_policy.Selective
    else Tm_runtime.Fence_policy.No_fences
  in
  let run () =
    match
      Harness.explore_tm ~fuel:5_000 ~tm:e ~policy
        ~spec:(Sched.Random { seed = 7; execs = 60 })
        ~bug:Harness.Any Tm_lang.Figures.fig2
    with
    | Sched.Passed _ -> ()
    | Sched.Found f ->
        Alcotest.failf "%s flagged on a DRF figure: %s" e.Tm_registry.name
          (Harness.describe f.Sched.f_value)
  in
  Alcotest.test_case (e.Tm_registry.name ^ ": DRF figure clean") `Quick run

(* ----------------- bounded time under contention ------------------ *)

(* Every correct TM finishes a single-counter workload at 1, 2, 4 and 8
   domains (oversubscribed on small hosts, which is what exposes
   livelock) under every fence policy it accepts, with the exact count
   and within a wall-clock bound.  Past the bound, the next attempt of
   every worker abandons its transaction and stops, so a livelocked TM
   fails the case instead of hanging the suite. *)
let contended_time_bound_s = 10.

exception Out_of_time

let contended_counter_case (e : Tm_registry.entry) policy threads =
  let module M = (val e.Tm_registry.tm) in
  let module AB = Tm_runtime.Atomic_block.Make (M.T) in
  let per_thread = 300 in
  let run () =
    let tm = M.make ~nregs:1 ~nthreads:threads () in
    let t0 = Unix.gettimeofday () in
    let increment txn =
      if Unix.gettimeofday () -. t0 > contended_time_bound_s then begin
        M.T.abort tm txn;
        raise Out_of_time
      end;
      M.T.write tm txn 0 (M.T.read tm txn 0 + 1)
    in
    let worker thread () =
      try
        for i = 1 to per_thread do
          let (), _ = AB.run tm ~thread increment in
          if
            Tm_runtime.Fence_policy.fence_after_txn policy ~read_only:false
              ~requested:(i mod 64 = 0)
          then M.T.fence tm ~thread
        done
      with Out_of_time -> ()
    in
    let domains = Array.init threads (fun t -> Domain.spawn (worker t)) in
    Array.iter Domain.join domains;
    let seconds = Unix.gettimeofday () -. t0 in
    if seconds > contended_time_bound_s then
      Alcotest.failf "%s took %.1f s (bound %.0f s)" e.Tm_registry.name
        seconds contended_time_bound_s;
    check int "exact count" (threads * per_thread) (M.T.read_nt tm ~thread:0 0)
  in
  Alcotest.test_case
    (Printf.sprintf "%s %s %d domains" e.Tm_registry.name
       (Tm_runtime.Fence_policy.name policy)
       threads)
    `Quick run

let contended_cases (e : Tm_registry.entry) =
  List.concat_map
    (fun policy ->
      match Tm_registry.check_policy e policy with
      | Error _ -> []
      | Ok () ->
          List.map (contended_counter_case e policy) [ 1; 2; 4; 8 ])
    Tm_runtime.Fence_policy.all

let () =
  let correct_sched =
    List.filter
      (fun (e : Tm_registry.entry) -> not e.Tm_registry.faulty)
      Harness.Registry.all
  in
  Alcotest.run "conformance"
    [
      ("sequential", List.concat_map seq_cases Tm_registry.all);
      ( "properties",
        List.map
          (fun e -> QCheck_alcotest.to_alcotest (prop_sequential_array e))
          Tm_registry.all );
      ("scheduled", List.map recorded_history_case Harness.Registry.all);
      ("drf-figures", List.map drf_figure_case correct_sched);
      ( "contended",
        List.concat_map contended_cases
          (List.filter
             (fun (e : Tm_registry.entry) -> not e.Tm_registry.faulty)
             Tm_registry.all) );
    ]
