(* Direct tests of the TL2 implementation: commit and abort paths,
   read-time and commit-time validation (and the fault-injected
   variants that skip them), clock/timestamp bookkeeping, and fence
   behavior driven deterministically through the cooperative
   scheduler. *)

open Tm_sched

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let aborts f =
  match f () with
  | _ -> false
  | exception Tm_runtime.Tm_intf.Abort -> true

(* ----------------------- sequential paths -------------------------- *)

let test_commit_advances_clock () =
  let tm = Tl2.create_with ~log_timestamps:true ~nregs:4 ~nthreads:2 () in
  let txn = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm txn 0 7;
  Tl2.commit tm txn;
  check int "clock advanced by the writing commit" 1 (Tl2.clock tm);
  check int "value published" 7 (Tl2.read_nt tm ~thread:1 0);
  check int "one commit" 1 (Tl2.stats_commits tm);
  check int "no aborts" 0 (Tl2.stats_aborts tm);
  check bool "timestamp log records the transaction" true
    (Tl2.timestamp_log tm <> [])

(* The read-only fast path: an empty write-set commits after read-set
   validation alone, without a global-clock fetch_and_add. *)
let test_read_only_commit_leaves_clock () =
  let tm = Tl2.create_with ~log_timestamps:true ~nregs:4 ~nthreads:2 () in
  let w = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm w 0 7;
  Tl2.commit tm w;
  check int "writer advanced the clock" 1 (Tl2.clock tm);
  let ro = Tl2.txn_begin tm ~thread:1 in
  check int "reads the committed value" 7 (Tl2.read tm ro 0);
  check int "reads another register" Tm_model.Types.v_init (Tl2.read tm ro 1);
  Tl2.commit tm ro;
  check int "read-only commit left the clock alone" 1 (Tl2.clock tm);
  check int "both committed" 2 (Tl2.stats_commits tm);
  check int "no aborts" 0 (Tl2.stats_aborts tm);
  (* the read-only transaction serializes at its snapshot *)
  (match List.rev (Tl2.timestamp_log tm) with
  | (thread, _, rver, wver) :: _ ->
      check int "last entry is the reader" 1 thread;
      check int "read-only wver = rver" rver wver
  | [] -> Alcotest.fail "timestamp log empty");
  (* the fast path still validates: a conflicting writer aborts it *)
  let ro = Tl2.txn_begin tm ~thread:1 in
  let (_ : int) = Tl2.read tm ro 0 in
  let w = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm w 0 8;
  Tl2.commit tm w;
  check bool "stale read-only commit aborts" true
    (aborts (fun () -> Tl2.commit tm ro))

(* Packed versioned write-lock words: version and lock bit round-trip,
   and locking preserves the version bits. *)
let test_vlock_roundtrip () =
  List.iter
    (fun ver ->
      List.iter
        (fun locked ->
          let w = Tl2.Vlock.pack ~ver ~locked in
          check int "version round-trips" ver (Tl2.Vlock.version w);
          check bool "lock bit round-trips" locked (Tl2.Vlock.locked w))
        [ false; true ])
    [ 0; 1; 2; 255; 1 lsl 40; (max_int lsr 1) - 1 ];
  let w = Tl2.Vlock.pack ~ver:42 ~locked:false in
  let l = Tl2.Vlock.lock w in
  check bool "lock sets the bit" true (Tl2.Vlock.locked l);
  check int "lock preserves the version" 42 (Tl2.Vlock.version l);
  let u = Tl2.Vlock.unlock l in
  check bool "unlock clears the bit" false (Tl2.Vlock.locked u);
  check int "unlock preserves the version" 42 (Tl2.Vlock.version u);
  check int "unlock restores the word" w u

(* The unbounded timestamp log only accumulates when asked to (or when
   a recorder is attached), so production runs do not leak. *)
let test_timestamp_log_gated () =
  let commit_one tm =
    let txn = Tl2.txn_begin tm ~thread:0 in
    Tl2.write tm txn 0 1;
    Tl2.commit tm txn
  in
  let tm = Tl2.create ~nregs:2 ~nthreads:1 () in
  commit_one tm;
  check bool "no recorder: log stays empty" true (Tl2.timestamp_log tm = []);
  let tm = Tl2.create_with ~log_timestamps:true ~nregs:2 ~nthreads:1 () in
  commit_one tm;
  check int "explicit flag: log populated" 1
    (List.length (Tl2.timestamp_log tm));
  let recorder = Tm_runtime.Recorder.create () in
  let tm = Tl2.create ~recorder ~nregs:2 ~nthreads:1 () in
  commit_one tm;
  check int "recorder attached: log populated" 1
    (List.length (Tl2.timestamp_log tm))

let test_read_validation_aborts_stale () =
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  (* txn0 pins its read version before txn1 commits a newer write *)
  let txn0 = Tl2.txn_begin tm ~thread:0 in
  let txn1 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm txn1 0 5;
  Tl2.commit tm txn1;
  check bool "stale read aborts" true (aborts (fun () -> Tl2.read tm txn0 0));
  check int "abort counted" 1 (Tl2.stats_aborts tm)

let test_no_read_validation_reads_stale () =
  let tm =
    Tl2.create_with ~variant:Tl2.No_read_validation ~nregs:4 ~nthreads:2 ()
  in
  let txn0 = Tl2.txn_begin tm ~thread:0 in
  let txn1 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm txn1 0 5;
  Tl2.commit tm txn1;
  check int "fault-injected variant returns the too-new value" 5
    (Tl2.read tm txn0 0)

let test_commit_validation_aborts () =
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  let txn0 = Tl2.txn_begin tm ~thread:0 in
  let v = Tl2.read tm txn0 0 in
  check int "initial read" Tm_model.Types.v_init v;
  (* a conflicting commit invalidates txn0's read set *)
  let txn1 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm txn1 0 5;
  Tl2.commit tm txn1;
  Tl2.write tm txn0 1 9;
  check bool "commit-time validation aborts" true
    (aborts (fun () -> Tl2.commit tm txn0));
  check int "txn0's write discarded" Tm_model.Types.v_init
    (Tl2.read_nt tm ~thread:0 1)

let test_no_commit_validation_commits () =
  let tm =
    Tl2.create_with ~variant:Tl2.No_commit_validation ~nregs:4 ~nthreads:2 ()
  in
  let txn0 = Tl2.txn_begin tm ~thread:0 in
  let (_ : int) = Tl2.read tm txn0 0 in
  let txn1 = Tl2.txn_begin tm ~thread:1 in
  Tl2.write tm txn1 0 5;
  Tl2.commit tm txn1;
  Tl2.write tm txn0 1 9;
  Tl2.commit tm txn0;
  check int "unsafely committed" 9 (Tl2.read_nt tm ~thread:0 1);
  check int "both committed" 2 (Tl2.stats_commits tm)

let test_explicit_abort_discards () =
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  let txn = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm txn 2 9;
  Tl2.abort tm txn;
  check int "aborted write discarded" Tm_model.Types.v_init
    (Tl2.read_nt tm ~thread:0 2);
  (* the register stays writable afterwards *)
  let txn = Tl2.txn_begin tm ~thread:0 in
  Tl2.write tm txn 2 3;
  Tl2.commit tm txn;
  check int "subsequent commit lands" 3 (Tl2.read_nt tm ~thread:0 2)

let test_fence_immediate_when_quiescent () =
  let tm = Tl2.create ~nregs:4 ~nthreads:2 () in
  Tl2.fence tm ~thread:0;
  check bool "fence with no active transactions returns" true true

(* ------------------ scheduled (concurrent) paths ------------------- *)

module T = Tl2.Make (Sched.Hooks)

let alternate : Sched.pick =
 fun ~step ~current:_ ~runnable -> List.nth runnable (step mod List.length runnable)

let line_index lines needle =
  let rec go i = function
    | [] -> -1
    | l :: rest -> if l = needle then i else go (i + 1) rest
  in
  go 0 lines

(* Two transactions racing to commit a write to the same register: the
   strict alternation makes the loser observe the winner's commit-time
   write lock, so exactly one commits and one aborts. *)
let test_write_lock_conflict () =
  let tm = T.create_with ~nregs:4 ~nthreads:2 () in
  let body i () =
    let txn = T.txn_begin tm ~thread:i in
    T.write tm txn 0 (10 + i);
    try T.commit tm txn with Tm_runtime.Tm_intf.Abort -> ()
  in
  let info = Sched.run ~pick:alternate [| body 0; body 1 |] in
  check bool "both fibers completed" true
    (Array.for_all Fun.id info.Sched.completed);
  check int "one commit" 1 (T.stats_commits tm);
  check int "one abort" 1 (T.stats_aborts tm);
  let v = Sched.unscheduled (fun () -> T.read_nt tm ~thread:0 0) in
  check bool "winner's value installed" true (v = 10 || v = 11);
  (* the loser's abort is attributed to the busy write lock *)
  let s = Tm_obs.Obs.snapshot (T.obs tm) in
  check int "abort cause is write-lock-busy" 1
    (Tm_obs.Obs.abort_count s Tm_obs.Obs.Write_lock_busy)

(* The transactional fence must not complete while a transaction that
   began before it is still live (history condition 10) — driven so the
   fence starts while the transaction is mid-flight. *)
let fence_waits_for_active_txn fence_impl () =
  let recorder = Tm_runtime.Recorder.create () in
  let tm = T.create_with ~recorder ~fence_impl ~nregs:4 ~nthreads:2 () in
  let bodies =
    [|
      (fun () ->
        let txn = T.txn_begin tm ~thread:0 in
        T.write tm txn 0 7;
        T.commit tm txn);
      (fun () -> T.fence tm ~thread:1);
    |]
  in
  (* thread 0 steps into its transaction (two steps: past the yields
     before and after the active flag is set), then the fence runs and
     must park until the transaction commits *)
  let info = Sched.run ~pick:(Sched.pick_of_prefix [| 0; 0; 1 |]) bodies in
  check bool "both fibers completed" true
    (Array.for_all Fun.id info.Sched.completed);
  check bool "no livelock" false info.Sched.livelocked;
  let h = Tm_runtime.Recorder.history recorder in
  check bool "history well formed" true
    (Tm_model.History.well_formedness_errors h = []);
  let lines = String.split_on_char '\n' (Tm_model.Text.to_string h) in
  let committed = line_index lines "t0 committed" in
  let fend = line_index lines "t1 fend" in
  check bool "commit and fence end both recorded" true
    (committed >= 0 && fend >= 0);
  check bool "fence completed only after the transaction" true
    (fend > committed)

(* Commit validation runs only if the clock moved (DISC 2006, §2).  A
   reader reads x; a writer then locks x and is parked before its clock
   fetch_and_add.  The reader's read-only commit finds the clock still
   at its begin timestamp and commits without looking at x's lock
   word; the writer, next to take a timestamp ([wver = rver + 1]),
   commits after it.  The recorded history serializes the reader
   first. *)
let test_unmoved_clock_skips_validation () =
  let recorder = Tm_runtime.Recorder.create () in
  let tm = T.create_with ~recorder ~nregs:4 ~nthreads:2 () in
  let read_done = ref false in
  let probe_aborted = ref false in
  let reader () =
    let txn = T.txn_begin tm ~thread:0 in
    check int "reader sees the initial value" Tm_model.Types.v_init
      (T.read tm txn 0);
    read_done := true;
    T.commit tm txn;
    (* the writer still holds x's lock: a fresh read of x aborts *)
    let probe = T.txn_begin tm ~thread:0 in
    probe_aborted := aborts (fun () -> T.read tm probe 0)
  in
  let writer () =
    let txn = T.txn_begin tm ~thread:1 in
    T.write tm txn 0 5;
    T.commit tm txn
  in
  (* the writer's first five steps take it from its start past the
     lock CAS to the scheduling point before its fetch_and_add *)
  let writer_steps = ref 0 in
  let pick ~step:_ ~current:_ ~runnable =
    if not !read_done then 0
    else if !writer_steps < 5 then begin
      incr writer_steps;
      1
    end
    else List.hd runnable
  in
  let info = Sched.run ~pick [| reader; writer |] in
  check bool "both fibers completed" true
    (Array.for_all Fun.id info.Sched.completed);
  check bool "x was locked when the reader committed" true !probe_aborted;
  check int "reader and writer committed" 2 (T.stats_commits tm);
  check int "only the probe aborted" 1 (T.stats_aborts tm);
  check int "the writer's commit is the only clock tick" 1 (T.clock tm);
  check int "the writer's value landed" 5
    (Sched.unscheduled (fun () -> T.read_nt tm ~thread:0 0));
  let h = Tm_runtime.Recorder.history recorder in
  check bool "history well formed" true
    (Tm_model.History.well_formedness_errors h = []);
  check bool "canonical checker accepts" true
    (Tm_opacity.Checker.is_opaque (Tm_opacity.Checker.check_canonical h));
  check bool "monitor accepts" true
    (Tm_opacity.Monitor.check h = Tm_opacity.Monitor.Ok)

let () =
  Alcotest.run "tl2"
    [
      ( "sequential",
        [
          Alcotest.test_case "commit advances clock" `Quick
            test_commit_advances_clock;
          Alcotest.test_case "read-only commit leaves the clock" `Quick
            test_read_only_commit_leaves_clock;
          Alcotest.test_case "packed lock word round-trips" `Quick
            test_vlock_roundtrip;
          Alcotest.test_case "timestamp log gated off by default" `Quick
            test_timestamp_log_gated;
          Alcotest.test_case "read validation aborts stale read" `Quick
            test_read_validation_aborts_stale;
          Alcotest.test_case "no-read-validation variant reads stale" `Quick
            test_no_read_validation_reads_stale;
          Alcotest.test_case "commit validation aborts" `Quick
            test_commit_validation_aborts;
          Alcotest.test_case "no-commit-validation variant commits" `Quick
            test_no_commit_validation_commits;
          Alcotest.test_case "explicit abort discards" `Quick
            test_explicit_abort_discards;
          Alcotest.test_case "fence immediate when quiescent" `Quick
            test_fence_immediate_when_quiescent;
        ] );
      ( "scheduled",
        [
          Alcotest.test_case "write-lock conflict aborts one" `Quick
            test_write_lock_conflict;
          Alcotest.test_case "flag-scan fence waits for active txn" `Quick
            (fence_waits_for_active_txn Tl2.Flag_scan);
          Alcotest.test_case "epoch fence waits for active txn" `Quick
            (fence_waits_for_active_txn Tl2.Epoch);
          Alcotest.test_case "unmoved clock skips commit validation" `Quick
            test_unmoved_clock_skips_validation;
        ] );
    ]
