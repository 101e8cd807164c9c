(* Tests for the runtime layer: TL2, NOrec, the global-lock TM, the
   recorder, fence policies and the atomic-block combinators. *)

open Tm_model
open Tm_runtime

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Functorized sequential smoke tests shared by all three TMs. *)
module Sequential_suite (T : Tm_intf.S) = struct
  module AB = Atomic_block.Make (T)

  let make () = T.create ~nregs:8 ~nthreads:4 ()

  let test_read_your_writes () =
    let tm = make () in
    let v, _ =
      AB.run tm ~thread:0 (fun txn ->
          T.write tm txn 0 7;
          T.read tm txn 0)
    in
    check int (T.name ^ ": read your write") 7 v

  let test_commit_publishes () =
    let tm = make () in
    let (), _ = AB.run tm ~thread:0 (fun txn -> T.write tm txn 1 5) in
    check int (T.name ^ ": committed value visible") 5
      (T.read_nt tm ~thread:1 1)

  let test_initial_value () =
    let tm = make () in
    let v, _ = AB.run tm ~thread:0 (fun txn -> T.read tm txn 3) in
    check int (T.name ^ ": initial value") Types.v_init v

  let test_explicit_abort_discards () =
    let tm = make () in
    let txn = T.txn_begin tm ~thread:0 in
    T.write tm txn 2 9;
    T.abort tm txn;
    check int (T.name ^ ": aborted write discarded") Types.v_init
      (T.read_nt tm ~thread:0 2)

  let test_sequential_txns () =
    let tm = make () in
    for i = 1 to 10 do
      let (), _ =
        AB.run tm ~thread:0 (fun txn ->
            let v = T.read tm txn 0 in
            T.write tm txn 0 (v + i))
      in
      ()
    done;
    check int (T.name ^ ": accumulated") 55 (T.read_nt tm ~thread:0 0)

  let test_nontransactional_roundtrip () =
    let tm = make () in
    T.write_nt tm ~thread:0 5 123;
    check int (T.name ^ ": nt roundtrip") 123 (T.read_nt tm ~thread:1 5)

  let test_fence_no_txns () =
    let tm = make () in
    T.fence tm ~thread:0;
    check bool (T.name ^ ": fence with no txns returns") true true

  let test_concurrent_counter () =
    let tm = make () in
    let nthreads = 4 and per_thread = 300 in
    let domains =
      Array.init nthreads (fun thread ->
          Domain.spawn (fun () ->
              for _ = 1 to per_thread do
                let (), _ =
                  AB.run tm ~thread (fun txn ->
                      let v = T.read tm txn 0 in
                      T.write tm txn 0 (v + 1))
                in
                ()
              done))
    in
    Array.iter Domain.join domains;
    check int
      (T.name ^ ": concurrent increments")
      (nthreads * per_thread)
      (T.read_nt tm ~thread:0 0)

  let test_concurrent_disjoint () =
    let tm = make () in
    let nthreads = 4 and per_thread = 200 in
    let domains =
      Array.init nthreads (fun thread ->
          Domain.spawn (fun () ->
              for _ = 1 to per_thread do
                let (), _ =
                  AB.run tm ~thread (fun txn ->
                      let v = T.read tm txn thread in
                      T.write tm txn thread (v + 1))
                in
                ()
              done))
    in
    Array.iter Domain.join domains;
    for t = 0 to nthreads - 1 do
      check int (T.name ^ ": disjoint counter") per_thread
        (T.read_nt tm ~thread:0 t)
    done

  let test_fence_under_load () =
    let tm = make () in
    let stop = Atomic.make false in
    let worker =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            let (), _ =
              AB.run tm ~thread:1 (fun txn ->
                  let v = T.read tm txn 0 in
                  T.write tm txn 0 (v + 1))
            in
            ()
          done)
    in
    for _ = 1 to 50 do
      T.fence tm ~thread:0
    done;
    Atomic.set stop true;
    Domain.join worker;
    check bool (T.name ^ ": fences under load return") true true

  let tests =
    [
      Alcotest.test_case (T.name ^ " read your writes") `Quick
        test_read_your_writes;
      Alcotest.test_case (T.name ^ " commit publishes") `Quick
        test_commit_publishes;
      Alcotest.test_case (T.name ^ " initial value") `Quick test_initial_value;
      Alcotest.test_case (T.name ^ " explicit abort") `Quick
        test_explicit_abort_discards;
      Alcotest.test_case (T.name ^ " sequential txns") `Quick
        test_sequential_txns;
      Alcotest.test_case (T.name ^ " nt roundtrip") `Quick
        test_nontransactional_roundtrip;
      Alcotest.test_case (T.name ^ " fence, idle") `Quick test_fence_no_txns;
      Alcotest.test_case (T.name ^ " concurrent counter") `Slow
        test_concurrent_counter;
      Alcotest.test_case (T.name ^ " disjoint counters") `Slow
        test_concurrent_disjoint;
      Alcotest.test_case (T.name ^ " fence under load") `Slow
        test_fence_under_load;
    ]
end

module Tl2_suite = Sequential_suite (Tl2)
module Norec_suite = Sequential_suite (Tm_baselines.Norec)
module Lock_suite = Sequential_suite (Tm_baselines.Global_lock)
module Tlrw_suite = Sequential_suite (Tm_baselines.Tlrw)

(* ---------------------- TLRW-specific tests ------------------------ *)

let test_tlrw_visible_readers_block_writer () =
  (* While a reader transaction holds a read lock, a writer to the same
     register cannot commit — it aborts after its bounded spin. *)
  let tm = Tm_baselines.Tlrw.create_with ~spin_bound:64 ~nregs:2 ~nthreads:2 () in
  let reader = Tm_baselines.Tlrw.txn_begin tm ~thread:0 in
  let (_ : int) = Tm_baselines.Tlrw.read tm reader 0 in
  let writer = Tm_baselines.Tlrw.txn_begin tm ~thread:1 in
  check bool "writer aborts against visible reader" true
    (match Tm_baselines.Tlrw.write tm writer 0 5 with
    | () -> false
    | exception Tm_intf.Abort -> true);
  Tm_baselines.Tlrw.commit tm reader

let test_tlrw_upgrade () =
  let tm = Tm_baselines.Tlrw.create ~nregs:2 ~nthreads:1 () in
  let txn = Tm_baselines.Tlrw.txn_begin tm ~thread:0 in
  let v0 = Tm_baselines.Tlrw.read tm txn 0 in
  Tm_baselines.Tlrw.write tm txn 0 (v0 + 3);
  check int "upgraded read lock, wrote in place" 3
    (Tm_baselines.Tlrw.read tm txn 0);
  Tm_baselines.Tlrw.commit tm txn;
  check int "committed" 3 (Tm_baselines.Tlrw.read_nt tm ~thread:0 0)

let test_tlrw_abort_rolls_back_in_place () =
  let tm = Tm_baselines.Tlrw.create ~nregs:2 ~nthreads:1 () in
  Tm_baselines.Tlrw.write_nt tm ~thread:0 0 7;
  let txn = Tm_baselines.Tlrw.txn_begin tm ~thread:0 in
  Tm_baselines.Tlrw.write tm txn 0 100;
  Tm_baselines.Tlrw.write tm txn 0 200;
  Tm_baselines.Tlrw.abort tm txn;
  check int "in-place writes rolled back" 7
    (Tm_baselines.Tlrw.read_nt tm ~thread:0 0)

(* ----------------------- TL2-specific tests ----------------------- *)

let test_tl2_conflict_abort () =
  (* A transaction that read a register aborts if another commits a
     write to it before it commits. *)
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  let t1 = Tl2.txn_begin tm ~thread:0 in
  let _ = Tl2.read tm t1 0 in
  (* thread 1 commits a write to register 0 *)
  let t2 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm t2 0 5;
  Tl2.commit tm t2;
  Tl2.write tm t1 1 7;
  check bool "doomed commit aborts" true
    (match Tl2.commit tm t1 with
    | () -> false
    | exception Tm_intf.Abort -> true)

let test_tl2_stale_read_aborts () =
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  let t1 = Tl2.txn_begin tm ~thread:0 in
  (* another thread commits, advancing the clock and versions *)
  let t2 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm t2 0 5;
  Tl2.commit tm t2;
  check bool "stale transactional read aborts" true
    (match Tl2.read tm t1 0 with
    | _ -> false
    | exception Tm_intf.Abort -> true)

let test_tl2_write_skew_prevented () =
  (* TL2 validates the read-set at commit, so classic write-skew on two
     registers aborts one of the transactions when they overlap. *)
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  let t1 = Tl2.txn_begin tm ~thread:0 in
  let t2 = Tl2.txn_begin tm ~thread:1 in
  let _ = Tl2.read tm t1 0 in
  let _ = Tl2.read tm t2 1 in
  Tl2.write tm t1 1 10;
  Tl2.write tm t2 0 20;
  let r1 = match Tl2.commit tm t1 with () -> true | exception Tm_intf.Abort -> false in
  let r2 = match Tl2.commit tm t2 with () -> true | exception Tm_intf.Abort -> false in
  check bool "at most one of two skewed txns commits" true (not (r1 && r2))

let test_tl2_clock_advances () =
  let tm = Tl2.create ~nregs:2 ~nthreads:1 () in
  let c0 = Tl2.clock tm in
  let t = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm t 0 1;
  Tl2.commit tm t;
  check bool "clock advanced by commit" true (Tl2.clock tm > c0);
  check int "one commit counted" 1 (Tl2.stats_commits tm)

let test_tl2_no_read_validation_variant () =
  (* the fault-injected variant returns stale values instead of
     aborting *)
  let tm =
    Tl2.create_with ~variant:Tl2.No_read_validation ~nregs:4 ~nthreads:2 ()
  in
  let t1 = Tl2.txn_begin tm ~thread:0 in
  let t2 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm t2 0 5;
  Tl2.commit tm t2;
  check int "buggy variant reads without validating" 5 (Tl2.read tm t1 0)

(* ----------------- §C timestamp invariants (INV.5) ----------------- *)

(* Run a small concurrent workload on instrumented TL2, then check the
   key invariant of the paper's strong-opacity proof (Fig 11, INV.5):
   graph dependencies between transactions respect the rver/wver
   timestamp order. *)
let test_tl2_timestamp_invariants () =
  let recorder = Recorder.create () in
  let tm = Tl2.create ~recorder ~nregs:4 ~nthreads:3 () in
  let worker thread () =
    let rng = Random.State.make [| 99; thread |] in
    for _ = 1 to 15 do
      let txn = Tl2.txn_begin tm ~thread in
      match
        let x = Random.State.int rng 4 in
        ignore (Tl2.read tm txn x);
        if Random.State.bool rng then
          Tl2.write tm txn x (Recorder.fresh_value recorder);
        Tl2.commit tm txn
      with
      | () -> ()
      | exception Tm_intf.Abort -> ()
    done
  in
  let domains = Array.init 3 (fun t -> Domain.spawn (worker t)) in
  Array.iter Domain.join domains;
  let h = Recorder.history recorder in
  check bool "recorded history well-formed" true (History.is_well_formed h);
  let rels = Tm_relations.Relations.of_history h in
  let info = rels.Tm_relations.Relations.info in
  (* timestamps per (thread, seq) *)
  let stamps = Hashtbl.create 64 in
  List.iter
    (fun (thread, seq, rver, wver) ->
      Hashtbl.replace stamps (thread, seq) (rver, wver))
    (Tl2.timestamp_log tm);
  (* history txn index -> (rver, wver), by per-thread order of begins *)
  let seq_counter = Hashtbl.create 8 in
  let txn_stamps =
    Array.map
      (fun (txn : History.txn) ->
        let t = txn.History.t_thread in
        let seq =
          match Hashtbl.find_opt seq_counter t with Some s -> s | None -> 0
        in
        Hashtbl.replace seq_counter t (seq + 1);
        Hashtbl.find_opt stamps (t, seq))
      info.History.txns
  in
  match Tm_opacity.Graph.build rels with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
      let ntxns = Array.length info.History.txns in
      let check_pair name property a b =
        if a < ntxns && b < ntxns then
          match (txn_stamps.(a), txn_stamps.(b)) with
          | Some sa, Some sb ->
              if not (property sa sb) then
                Alcotest.failf "INV.5 violated on %s edge %d->%d" name a b
          | _ -> ()
      in
      let check_dep kind name property =
        Tm_opacity.Graph.iter_dep g kind (fun _ a b ->
            check_pair name property a b)
      in
      check_dep Tm_opacity.Graph.WR "WR" (fun (_, wv) (rv', _) -> wv <= rv');
      check_dep Tm_opacity.Graph.WW "WW" (fun (_, wv) (_, wv') -> wv < wv');
      check_dep Tm_opacity.Graph.RW "RW" (fun (rv, _) (_, wv') -> rv < wv');
      Tm_relations.Rel.iter_pairs g.Tm_opacity.Graph.rt
        (check_pair "RT" (fun _ (rv', _) -> rv' >= 0));
      (* INV.5(a), both visibility cases *)
      Tm_relations.Rel.iter_pairs g.Tm_opacity.Graph.rt (fun a b ->
          if a < ntxns && b < ntxns then
            match (txn_stamps.(a), txn_stamps.(b)) with
            | Some (rv, wv), Some (rv', _) ->
                let ok =
                  if g.Tm_opacity.Graph.vis.(a) then wv <= rv'
                  else rv <= rv'
                in
                if not ok then Alcotest.failf "INV.5(a) violated on %d->%d" a b
            | _ -> ());
      check bool "graph acyclic" true (Tm_opacity.Graph.is_acyclic g)

(* ------------------------- recorder tests ------------------------- *)

let test_recorder_sequential_history () =
  let recorder = Recorder.create () in
  let tm = Tl2.create ~recorder ~nregs:4 ~nthreads:2 () in
  let t = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm t 0 7;
  let _ = Tl2.read tm t 0 in
  Tl2.commit tm t;
  Tl2.write_nt tm ~thread:0 1 9;
  Tl2.fence tm ~thread:1;
  let h = Recorder.history recorder in
  check int "recorded action count" 12 (History.length h);
  check bool "recorded history well-formed" true (History.is_well_formed h);
  check bool "recorded history strongly opaque" true
    (Tm_opacity.Checker.strongly_opaque h)

let test_recorder_abort_history () =
  let recorder = Recorder.create () in
  let tm = Tl2.create ~recorder ~nregs:4 ~nthreads:2 () in
  (* doomed reader *)
  let t1 = Tl2.txn_begin tm ~thread:0 in
  let t2 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm t2 0 5;
  Tl2.commit tm t2;
  (match Tl2.read tm t1 0 with
  | _ -> Alcotest.fail "expected abort"
  | exception Tm_intf.Abort -> ());
  let h = Recorder.history recorder in
  check bool "abort recorded well-formed" true (History.is_well_formed h);
  let info = History.analyze h in
  check bool "one aborted transaction" true
    (Array.exists
       (fun (t : History.txn) ->
         History.equal_status t.History.t_status History.Aborted)
       info.History.txns)

let test_recorder_fresh_values () =
  let r = Recorder.create () in
  let a = Recorder.fresh_value r and b = Recorder.fresh_value r in
  check bool "fresh values distinct" true (a <> b)

(* -------------------- atomic block combinators -------------------- *)

let test_attempt_aborted () =
  let tm = Tl2.create ~nregs:2 ~nthreads:2 () in
  let module AB = Atomic_block.Make (Tl2) in
  (* force an abort: another committed write invalidates the read *)
  let t2 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm t2 0 5;
  let result =
    AB.attempt tm ~thread:0 (fun txn ->
        let v = Tl2.read tm txn 0 in
        Tl2.commit tm t2;
        (* now t0's read set is stale *)
        Tl2.write tm txn 1 (v + 1))
  in
  check bool "attempt reports abort" true (result = Atomic_block.Aborted)

let test_run_retries () =
  let tm = Tl2.create ~nregs:2 ~nthreads:2 () in
  let module AB = Atomic_block.Make (Tl2) in
  let tries = ref 0 in
  let v, retries =
    AB.run tm ~thread:0 (fun txn ->
        incr tries;
        if !tries = 1 then begin
          (* make this attempt fail by committing a conflicting write *)
          let _ = Tl2.read tm txn 0 in
          let t2 = Tl2.txn_begin tm ~thread:1 in
          Tl2.write tm t2 0 99;
          Tl2.commit tm t2;
          Tl2.read tm txn 0 (* stale -> abort *)
        end
        else Tl2.read tm txn 0)
  in
  check int "second attempt sees committed value" 99 v;
  check int "one retry" 1 retries

(* ------------------------- fence policies ------------------------- *)

let test_fence_policy_matrix () =
  let open Fence_policy in
  check bool "none never fences" false
    (fence_after_txn No_fences ~read_only:false ~requested:true);
  check bool "selective honours request" true
    (fence_after_txn Selective ~read_only:true ~requested:true);
  check bool "selective skips otherwise" false
    (fence_after_txn Selective ~read_only:false ~requested:false);
  check bool "conservative always fences" true
    (fence_after_txn Conservative ~read_only:true ~requested:false);
  check bool "skip-read-only skips ro" false
    (fence_after_txn Skip_read_only ~read_only:true ~requested:true);
  check bool "skip-read-only fences writers" true
    (fence_after_txn Skip_read_only ~read_only:false ~requested:false);
  List.iter
    (fun p ->
      check bool "of_string/name roundtrip" true
        (of_string (name p) = Some p))
    all

(* --------------------------- domain pool --------------------------- *)

let test_pool_runs_each_task_once () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let tasks = 100 in
          let hits = Array.init tasks (fun _ -> Atomic.make 0) in
          Pool.run pool ~tasks (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i c ->
              check int
                (Printf.sprintf "task %d once (domains=%d)" i domains)
                1 (Atomic.get c))
            hits;
          (* the pool is reusable for a second batch *)
          let again = Atomic.make 0 in
          Pool.run pool ~tasks:7 (fun _ -> Atomic.incr again);
          check int "second batch complete" 7 (Atomic.get again)))
    [ 1; 4 ]

let test_pool_propagates_exception () =
  Pool.with_pool ~domains:2 (fun pool ->
      let ran = Atomic.make 0 in
      (match
         Pool.run pool ~tasks:8 (fun i ->
             Atomic.incr ran;
             if i = 3 then failwith "boom")
       with
      | () -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg);
      (* pool survives a failed batch *)
      Pool.run pool ~tasks:4 (fun _ -> ());
      check bool "all tasks were still offered" true (Atomic.get ran <= 8))

let test_pool_parallel_enabled_env () =
  (* PARALLEL is unset in the test environment *)
  check bool "enabled by default" true (Pool.parallel_enabled ());
  check bool "at least one domain" true (Pool.default_domains () >= 1)

let () =
  Alcotest.run "tm_runtime"
    [
      ("tl2 sequential", Tl2_suite.tests);
      ("norec sequential", Norec_suite.tests);
      ("global-lock sequential", Lock_suite.tests);
      ("tlrw sequential", Tlrw_suite.tests);
      ( "tlrw specifics",
        [
          Alcotest.test_case "visible readers block writers" `Quick
            test_tlrw_visible_readers_block_writer;
          Alcotest.test_case "read-to-write upgrade" `Quick test_tlrw_upgrade;
          Alcotest.test_case "abort rolls back" `Quick
            test_tlrw_abort_rolls_back_in_place;
        ] );
      ( "tl2 specifics",
        [
          Alcotest.test_case "conflict abort at commit" `Quick
            test_tl2_conflict_abort;
          Alcotest.test_case "stale read aborts" `Quick
            test_tl2_stale_read_aborts;
          Alcotest.test_case "write skew prevented" `Quick
            test_tl2_write_skew_prevented;
          Alcotest.test_case "clock and stats" `Quick test_tl2_clock_advances;
          Alcotest.test_case "no-read-validation variant" `Quick
            test_tl2_no_read_validation_variant;
        ] );
      ( "tl2 invariants (§C)",
        [
          Alcotest.test_case "INV.5 timestamp properties" `Slow
            test_tl2_timestamp_invariants;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "sequential history" `Quick
            test_recorder_sequential_history;
          Alcotest.test_case "abort history" `Quick test_recorder_abort_history;
          Alcotest.test_case "fresh values" `Quick test_recorder_fresh_values;
        ] );
      ( "atomic blocks",
        [
          Alcotest.test_case "attempt abort" `Quick test_attempt_aborted;
          Alcotest.test_case "run retries" `Quick test_run_retries;
        ] );
      ("fence policies", [ Alcotest.test_case "matrix" `Quick test_fence_policy_matrix ]);
      ( "domain pool",
        [
          Alcotest.test_case "each task runs once" `Quick
            test_pool_runs_each_task_once;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "PARALLEL defaults" `Quick
            test_pool_parallel_enabled_env;
        ] );
    ]
