(* The TM hot path's own costs: the read-/write-set probes allocate
   nothing, span timers are sampled one event in [Obs.sample_period]
   per thread and span kind (the first always), sampling leaves the
   commit and abort counters exact, and a TM built for [nthreads]
   threads never grows its telemetry shards. *)

module Obs = Tm_obs.Obs
module Txnset = Tm_runtime.Txnset

let check = Alcotest.check
let int = Alcotest.int

(* ------------------------- allocation-free sets -------------------- *)

(* Minor words allocated by [f], less what the measurement itself
   allocates (the boxed float results of [Gc.minor_words]). *)
let minor_words f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = measure ignore in
  int_of_float (measure f -. base)

let calls = 10_000

let txnset_probes_allocate_nothing () =
  let s = Txnset.create () in
  List.iter (fun k -> Txnset.set s k (k * 10)) [ 3; 17; 42; 99 ];
  let each name f =
    check int (name ^ ": minor words over 10k calls") 0
      (minor_words (fun () ->
           for i = 1 to calls do
             f i
           done))
  in
  (* hits and misses both probe the table *)
  each "mem" (fun i -> ignore (Sys.opaque_identity (Txnset.mem s (i land 63))));
  each "index" (fun i ->
      ignore (Sys.opaque_identity (Txnset.index s (i land 63))));
  (* keys already present: no growth, only the probe and the store *)
  each "set" (fun i -> Txnset.set s 42 i);
  each "add" (fun _ -> Txnset.add s 17);
  check int "entries unchanged" 4 (Txnset.length s);
  check int "last set wins" calls (Txnset.find s 42 ~default:(-1))

(* ------------------------ allocation-free commit -------------------- *)

(* Minor words allocated by the [commit] of a 2-write transaction,
   summed over many transactions. *)
module Commit_words (T : Tm_runtime.Tm_intf.S) = struct
  let over_commits () =
    let tm = T.create ~nregs:4 ~nthreads:1 () in
    let total = ref 0 in
    for i = 1 to 1000 do
      let txn = T.txn_begin tm ~thread:0 in
      T.write tm txn 1 i;
      T.write tm txn 2 (-i);
      total := !total + minor_words (fun () -> T.commit tm txn)
    done;
    !total
end

let tl2_commit_allocates_no_more_than_norec () =
  let module A = Commit_words (Tl2) in
  let module B = Commit_words (Tm_baselines.Norec) in
  let tl2 = A.over_commits () and norec = B.over_commits () in
  if tl2 > norec then
    Alcotest.failf "1000 2-write commits: tl2 %d minor words, norec %d" tl2
      norec

(* A fence's per-thread snapshot lives in the fencing thread's
   descriptor, not in a fresh array per fence. *)
let tl2_fences_allocate_nothing () =
  List.iter
    (fun (name, fence_impl) ->
      let tm = Tl2.create_with ~fence_impl ~nregs:4 ~nthreads:4 () in
      check int
        (name ^ ": minor words over 10k quiescent fences")
        0
        (minor_words (fun () ->
             for _ = 1 to calls do
               Tl2.fence tm ~thread:0
             done)))
    [ ("flag scan", Tl2.Flag_scan); ("epoch", Tl2.Epoch) ]

(* --------------------------- span sampling ------------------------- *)

let with_timers f =
  let was = Obs.timers_enabled () in
  Obs.set_timers_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_timers_enabled was) f

let event obs span =
  Obs.stop obs ~thread:0 span (Obs.start_sampled obs ~thread:0 span)

let count snap span =
  match Obs.span_hist snap span with
  | Some h -> h.Obs.h_count
  | None -> Alcotest.fail "span missing from snapshot"

let samples obs span = count (Obs.snapshot obs) span

let ceil_div a b = (a + b - 1) / b

let one_in_period () =
  with_timers (fun () ->
      List.iter
        (fun n ->
          let obs = Obs.create ~nthreads:1 () in
          for _ = 1 to n do
            event obs Obs.Span.Commit_validation
          done;
          check int
            (Printf.sprintf "%d events" n)
            (ceil_div n Obs.sample_period)
            (samples obs Obs.Span.Commit_validation))
        [ 1; Obs.sample_period - 1; Obs.sample_period; Obs.sample_period + 1;
          (5 * Obs.sample_period) + 3 ];
      (* the first event of a kind is timed: short runs get a sample *)
      let obs = Obs.create ~nthreads:1 () in
      check Alcotest.bool "first event sampled" true
        (Obs.start_sampled obs ~thread:0 Obs.Span.Fence_wait > 0);
      check int "second event skipped" 0
        (Obs.start_sampled obs ~thread:0 Obs.Span.Fence_wait))

(* Two spans per transaction, 1:1: a countdown shared across kinds would
   land every sample on the same kind. *)
let kinds_sampled_independently () =
  with_timers (fun () ->
      let obs = Obs.create ~nthreads:1 () in
      let n = 10 * Obs.sample_period in
      for _ = 1 to n do
        event obs Obs.Span.Write_lock;
        event obs Obs.Span.Commit_validation
      done;
      check int "write-lock samples" 10 (samples obs Obs.Span.Write_lock);
      check int "commit-validation samples" 10
        (samples obs Obs.Span.Commit_validation);
      check int "fence-wait untouched" 0 (samples obs Obs.Span.Fence_wait))

(* Through every registered TM: commits and explicit aborts are counted
   one for one while the fence-wait span is sampled. *)
let counters_exact () =
  with_timers (fun () ->
      let commits = 300 and aborts = 130 and fences = 100 in
      List.iter
        (fun (e : Tm_registry.entry) ->
          let module E = (val e.Tm_registry.tm) in
          let tm = E.make ~nregs:4 ~nthreads:1 () in
          for i = 1 to commits do
            let txn = E.T.txn_begin tm ~thread:0 in
            ignore (E.T.read tm txn 1);
            E.T.write tm txn (i land 3) i;
            E.T.commit tm txn
          done;
          for _ = 1 to aborts do
            let txn = E.T.txn_begin tm ~thread:0 in
            E.T.write tm txn 2 7;
            E.T.abort tm txn
          done;
          for _ = 1 to fences do
            E.T.fence tm ~thread:0
          done;
          let s = E.snapshot tm in
          let name = e.Tm_registry.name in
          check int (name ^ " commits") commits s.Obs.s_commits;
          check int (name ^ " explicit aborts") aborts
            (Obs.abort_count s Obs.Explicit);
          check int (name ^ " aborts") aborts (Obs.aborts_total s);
          check int (name ^ " fence-wait samples")
            (ceil_div fences Obs.sample_period)
            (count s Obs.Span.Fence_wait))
        Tm_registry.all)

(* --------------------------- shard presizing ----------------------- *)

(* Every thread commits a writing transaction and fences; the shard
   array must already have its final size at creation. *)
module Presized (T : sig
  include Tm_runtime.Tm_intf.S

  val obs : t -> Obs.t
end) =
struct
  let test name =
    let k = 3 in
    let tm = T.create ~nregs:4 ~nthreads:k () in
    check int (name ^ " shards at creation") k (Obs.shard_count (T.obs tm));
    for thread = 0 to k - 1 do
      let txn = T.txn_begin tm ~thread in
      T.write tm txn thread 1;
      T.commit tm txn;
      T.fence tm ~thread
    done;
    check int (name ^ " shards after use") k (Obs.shard_count (T.obs tm))
end

let shards_presized () =
  let module A = Presized (Tl2) in
  A.test "tl2";
  let module B = Presized (Tl2.Legacy) in
  B.test "tl2-two-word";
  let module C = Presized (Tm_baselines.Norec) in
  C.test "norec";
  let module D = Presized (Tm_baselines.Tlrw) in
  D.test "tlrw";
  let module E = Presized (Tm_baselines.Global_lock) in
  E.test "global-lock"

let () =
  Alcotest.run "hotpath"
    [
      ( "txnset",
        [
          Alcotest.test_case "probes allocate nothing" `Quick
            txnset_probes_allocate_nothing;
          Alcotest.test_case "tl2 commit allocates no more than norec" `Quick
            tl2_commit_allocates_no_more_than_norec;
          Alcotest.test_case "tl2 fences allocate nothing" `Quick
            tl2_fences_allocate_nothing;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "one in period, first timed" `Quick one_in_period;
          Alcotest.test_case "kinds sampled independently" `Quick
            kinds_sampled_independently;
          Alcotest.test_case "counters exact" `Quick counters_exact;
        ] );
      ( "shards",
        [ Alcotest.test_case "presized from nthreads" `Quick shards_presized ] );
    ]
