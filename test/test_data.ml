(* Tests for tm_data: composable transactional data structures and the
   Private_region privatization API, on TL2 and on the global-lock TM
   (the same functor body must behave identically on both). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Data_suite (T : Tm_runtime.Tm_intf.S) = struct
  module D = Tm_data.Make (T)
  module AB = Tm_runtime.Atomic_block.Make (T)

  let fresh_heap ?(size = 4096) ?(nthreads = 4) () =
    let tm = T.create ~nregs:size ~nthreads () in
    D.Heap.create tm ~size

  let atomically heap thread f =
    fst (AB.run (D.Heap.tm heap) ~thread f)

  let test_counter () =
    let heap = fresh_heap () in
    let c = D.Counter.make heap in
    atomically heap 0 (fun txn -> D.Counter.add c txn 5);
    atomically heap 0 (fun txn -> D.Counter.add c txn (-2));
    check int (T.name ^ ": counter value") 3
      (atomically heap 0 (fun txn -> D.Counter.get c txn))

  let test_stack_lifo () =
    let heap = fresh_heap () in
    let s = D.Stack.make heap in
    atomically heap 0 (fun txn ->
        D.Stack.push s txn 1;
        D.Stack.push s txn 2;
        D.Stack.push s txn 3);
    check bool (T.name ^ ": not empty") false
      (atomically heap 0 (fun txn -> D.Stack.is_empty s txn));
    check bool (T.name ^ ": peek") true
      (atomically heap 0 (fun txn -> D.Stack.peek s txn) = Some 3);
    let popped =
      atomically heap 0 (fun txn ->
          (* bind in sequence: list literals evaluate right to left *)
          let a = D.Stack.pop s txn in
          let b = D.Stack.pop s txn in
          let c = D.Stack.pop s txn in
          let d = D.Stack.pop s txn in
          [ a; b; c; d ])
    in
    check bool (T.name ^ ": LIFO order") true
      (popped = [ Some 3; Some 2; Some 1; None ])

  let test_queue_fifo () =
    let heap = fresh_heap () in
    let q = D.Queue.make heap in
    atomically heap 0 (fun txn ->
        D.Queue.enqueue q txn 1;
        D.Queue.enqueue q txn 2);
    let a = atomically heap 0 (fun txn -> D.Queue.dequeue q txn) in
    atomically heap 0 (fun txn -> D.Queue.enqueue q txn 3);
    let b = atomically heap 0 (fun txn -> D.Queue.dequeue q txn) in
    let c = atomically heap 0 (fun txn -> D.Queue.dequeue q txn) in
    let d = atomically heap 0 (fun txn -> D.Queue.dequeue q txn) in
    check bool (T.name ^ ": FIFO order") true
      ((a, b, c, d) = (Some 1, Some 2, Some 3, None));
    check bool (T.name ^ ": empty again") true
      (atomically heap 0 (fun txn -> D.Queue.is_empty q txn))

  let test_hashmap () =
    let heap = fresh_heap () in
    let m = D.Hashmap.make heap ~buckets:4 in
    atomically heap 0 (fun txn ->
        for k = 1 to 20 do
          D.Hashmap.put m txn ~key:k (k * 10)
        done);
    check int (T.name ^ ": size") 20
      (atomically heap 0 (fun txn -> D.Hashmap.size m txn));
    check bool (T.name ^ ": get present") true
      (atomically heap 0 (fun txn -> D.Hashmap.get m txn ~key:7) = Some 70);
    check bool (T.name ^ ": get absent") true
      (atomically heap 0 (fun txn -> D.Hashmap.get m txn ~key:99) = None);
    (* overwrite *)
    atomically heap 0 (fun txn -> D.Hashmap.put m txn ~key:7 777);
    check bool (T.name ^ ": overwrite") true
      (atomically heap 0 (fun txn -> D.Hashmap.get m txn ~key:7) = Some 777);
    check int (T.name ^ ": size stable on overwrite") 20
      (atomically heap 0 (fun txn -> D.Hashmap.size m txn));
    (* remove *)
    check bool (T.name ^ ": remove present") true
      (atomically heap 0 (fun txn -> D.Hashmap.remove m txn ~key:7));
    check bool (T.name ^ ": removed") true
      (atomically heap 0 (fun txn -> D.Hashmap.get m txn ~key:7) = None);
    check bool (T.name ^ ": remove absent") false
      (atomically heap 0 (fun txn -> D.Hashmap.remove m txn ~key:7));
    check int (T.name ^ ": size after remove") 19
      (atomically heap 0 (fun txn -> D.Hashmap.size m txn))

  let test_composability () =
    (* two structures mutated in one transaction: all-or-nothing *)
    let heap = fresh_heap () in
    let s = D.Stack.make heap in
    let c = D.Counter.make heap in
    atomically heap 0 (fun txn ->
        D.Stack.push s txn 42;
        D.Counter.add c txn 1);
    let popped, count =
      atomically heap 0 (fun txn ->
          (D.Stack.pop s txn, D.Counter.get c txn))
    in
    check bool (T.name ^ ": composed txn") true (popped = Some 42 && count = 1)

  let test_private_region () =
    let heap = fresh_heap () in
    let r = D.Private_region.make heap ~size:4 in
    (* transactional phase *)
    atomically heap 0 (fun txn ->
        match D.Private_region.guarded r txn (fun () ->
            D.Private_region.write r txn 0 11) with
        | Some () -> ()
        | None -> Alcotest.fail "region unexpectedly private");
    (* private phase *)
    D.Private_region.with_private r ~thread:0 (fun () ->
        check int (T.name ^ ": private read") 11
          (D.Private_region.read_private r ~thread:0 0);
        D.Private_region.write_private r ~thread:0 0 22);
    (* transactional again *)
    let v =
      atomically heap 0 (fun txn ->
          D.Private_region.guarded r txn (fun () ->
              D.Private_region.read r txn 0))
    in
    check bool (T.name ^ ": republished value") true (v = Some 22)

  let test_guarded_respects_flag () =
    let heap = fresh_heap () in
    let r = D.Private_region.make heap ~size:2 in
    D.Private_region.privatize r ~thread:0;
    let denied =
      atomically heap 1 (fun txn ->
          D.Private_region.guarded r txn (fun () -> ()))
    in
    check bool (T.name ^ ": guarded denies while private") true (denied = None);
    D.Private_region.publish r ~thread:0

  let test_concurrent_stack () =
    let heap = fresh_heap ~size:65536 () in
    let s = D.Stack.make heap in
    let c = D.Counter.make heap in
    let nthreads = 3 and per_thread = 150 in
    let domains =
      Array.init nthreads (fun thread ->
          Domain.spawn (fun () ->
              for i = 1 to per_thread do
                atomically heap thread (fun txn ->
                    D.Stack.push s txn ((thread * 1000) + i);
                    D.Counter.add c txn 1)
              done))
    in
    Array.iter Domain.join domains;
    check int
      (T.name ^ ": all pushes counted")
      (nthreads * per_thread)
      (atomically heap 0 (fun txn -> D.Counter.get c txn));
    (* drain and count *)
    let drained = ref 0 in
    let continue = ref true in
    while !continue do
      match atomically heap 0 (fun txn -> D.Stack.pop s txn) with
      | Some _ -> incr drained
      | None -> continue := false
    done;
    check int (T.name ^ ": all pushes drained") (nthreads * per_thread)
      !drained

  (* Every attempt allocates a node before it aborts, so a heap that
     leaked aborted attempts' cells would run out many times over: the
     retries must reuse them.  Then the same under real contention,
     where only attempts still running may hold cells beyond the
     committed ones. *)
  let test_aborts_reuse_cells () =
    let pushes = 20 and aborts_per_push = 10 in
    let heap = fresh_heap ~size:64 () in
    let tm = D.Heap.tm heap in
    let s = D.Stack.make heap in
    for i = 1 to pushes do
      let aborted = ref 0 in
      atomically heap 0 (fun txn ->
          D.Stack.push s txn i;
          if !aborted < aborts_per_push then begin
            incr aborted;
            T.abort tm txn;
            raise Tm_runtime.Tm_intf.Abort
          end)
    done;
    check int (T.name ^ ": only committed nodes allocated") (1 + (2 * pushes))
      (D.Heap.in_use heap);
    check bool (T.name ^ ": top is the last push") true
      (atomically heap 0 (fun txn -> D.Stack.peek s txn) = Some pushes);
    let nthreads = 3 and per_thread = 150 in
    let committed = 2 + (2 * nthreads * per_thread) in
    let heap = fresh_heap ~size:(committed + (2 * nthreads) + 1) () in
    let s = D.Stack.make heap in
    let c = D.Counter.make heap in
    let domains =
      Array.init nthreads (fun thread ->
          Domain.spawn (fun () ->
              for i = 1 to per_thread do
                atomically heap thread (fun txn ->
                    D.Stack.push s txn i;
                    D.Counter.add c txn 1)
              done))
    in
    Array.iter Domain.join domains;
    check int (T.name ^ ": contended pushes counted") (nthreads * per_thread)
      (atomically heap 0 (fun txn -> D.Counter.get c txn));
    check bool (T.name ^ ": heap use bounded under contention") true
      (D.Heap.in_use heap <= committed + (2 * nthreads))

  let tests =
    [
      Alcotest.test_case (T.name ^ " counter") `Quick test_counter;
      Alcotest.test_case (T.name ^ " stack LIFO") `Quick test_stack_lifo;
      Alcotest.test_case (T.name ^ " queue FIFO") `Quick test_queue_fifo;
      Alcotest.test_case (T.name ^ " hashmap") `Quick test_hashmap;
      Alcotest.test_case (T.name ^ " composability") `Quick test_composability;
      Alcotest.test_case (T.name ^ " private region") `Quick
        test_private_region;
      Alcotest.test_case (T.name ^ " guarded flag") `Quick
        test_guarded_respects_flag;
      Alcotest.test_case (T.name ^ " concurrent stack") `Slow
        test_concurrent_stack;
      Alcotest.test_case (T.name ^ " aborts reuse cells") `Quick
        test_aborts_reuse_cells;
    ]
end

module On_tl2 = Data_suite (Tl2)
module On_lock = Data_suite (Tm_baselines.Global_lock)
module On_tlrw = Data_suite (Tm_baselines.Tlrw)

(* Property: a hashmap populated with arbitrary bindings agrees with a
   reference association list. *)
module Dtl2 = Tm_data.Make (Tl2)
module ABtl2 = Tm_runtime.Atomic_block.Make (Tl2)

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap agrees with a model assoc list" ~count:60
    QCheck.(list (pair (int_bound 100) (int_range 1 1000)))
    (fun bindings ->
      let tm = Tl2.create ~nregs:16384 ~nthreads:1 () in
      let heap = Dtl2.Heap.create tm ~size:16384 in
      let m = Dtl2.Hashmap.make heap ~buckets:8 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          Hashtbl.replace model k v;
          let (), _ =
            ABtl2.run tm ~thread:0 (fun txn -> Dtl2.Hashmap.put m txn ~key:k v)
          in
          ())
        bindings;
      Hashtbl.fold
        (fun k v acc ->
          acc
          && fst (ABtl2.run tm ~thread:0 (fun txn -> Dtl2.Hashmap.get m txn ~key:k))
             = Some v)
        model true
      && fst (ABtl2.run tm ~thread:0 (fun txn -> Dtl2.Hashmap.size m txn))
         = Hashtbl.length model)

let () =
  Alcotest.run "tm_data"
    [
      ("on tl2", On_tl2.tests);
      ("on global-lock", On_lock.tests);
      ("on tlrw", On_tlrw.tests);
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_hashmap_model ]);
    ]
