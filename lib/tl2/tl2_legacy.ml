(* The paper-shaped TL2 of Figure 9, kept verbatim as a baseline.

   This is the implementation as it stood before the hot-path overhaul
   of {!Tl2}: two separate metadata words per register ([ver] +
   [lock], with the lock word holding the owner thread id), freshly
   allocated [Hashtbl] descriptors per transaction, a global-clock
   [fetch_and_add] on *every* commit including read-only ones, and an
   unconditional lock-free [timestamp_log] push per completed
   transaction.  It is registered as ["tl2-two-word"]: the figure
   experiments can still be run against code that matches Figure 9
   line for line, and the bench's before/after numbers in
   BENCH_tl2.json measure the optimized TL2 against this module rather
   than against a guess.  The same precedent as {!Recorder.Locked}:
   the superseded implementation stays as the reference baseline. *)

open Tm_model
open Tm_runtime
module Obs = Tm_obs.Obs

type variant = Normal | No_read_validation | No_commit_validation
type fence_impl = Flag_scan | Epoch

module Make (S : Sched_intf.S) = struct
  let name = "tl2-two-word"

  type t = {
    clock : int Atomic.t;
    reg : int Atomic.t array;
    ver : int Atomic.t array;
    lock : int Atomic.t array;  (** -1 free, otherwise owner thread *)
    active : bool Atomic.t array;  (** per thread, for the flag-scan fence *)
    epoch : int Atomic.t array;
        (** per thread, for the epoch fence: odd while a transaction is
            running, even when quiescent (RCU-style grace periods) *)
    fence_impl : fence_impl;
    recorder : Recorder.t option;
    variant : variant;
    commit_delay : int;
    writeback_delay : int;
    delay_threads : int list option;  (** [None] = all threads *)
    commits : int Atomic.t;
    aborts : int Atomic.t;
    timestamp_log : (int * int * int * int) list Atomic.t;
        (** (thread, per-thread txn seq, rver, wver) per completed txn,
            newest first; lock-free CAS push so the log never serializes
            committing threads (wver = max_int when none generated) *)
    txn_seq : int array;  (** per-thread count of begun transactions *)
    obs : Obs.t;  (** abort causes and span timings, per-thread sharded *)
  }

  type txn = {
    thread : int;
    seq : int;  (** which transaction of its thread this is (0-based) *)
    mutable rver : int;
    mutable wver : int;
    rset : (int, unit) Hashtbl.t;
    wset : (int, int) Hashtbl.t;
  }

  let create_with ?recorder ?(variant = Normal) ?(fence_impl = Flag_scan)
      ?(commit_delay = 0) ?(writeback_delay = 0) ?delay_threads ~nregs
      ~nthreads () =
    {
      clock = Atomic.make 0;
      reg = Array.init nregs (fun _ -> Atomic.make Types.v_init);
      ver = Array.init nregs (fun _ -> Atomic.make 0);
      lock = Array.init nregs (fun _ -> Atomic.make (-1));
      active = Array.init nthreads (fun _ -> Atomic.make false);
      epoch = Array.init nthreads (fun _ -> Atomic.make 0);
      fence_impl;
      recorder;
      variant;
      commit_delay;
      writeback_delay;
      delay_threads;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      timestamp_log = Atomic.make [];
      txn_seq = Array.make nthreads 0;
      obs = Obs.create ~nthreads ();
    }

  let create ?recorder ~nregs ~nthreads () =
    create_with ?recorder ~nregs ~nthreads ()

  let clock t = Atomic.get t.clock

  let timestamp_log t = List.rev (Atomic.get t.timestamp_log)

  let record_timestamps t txn =
    let entry = (txn.thread, txn.seq, txn.rver, txn.wver) in
    let rec push () =
      let old = Atomic.get t.timestamp_log in
      if not (Atomic.compare_and_set t.timestamp_log old (entry :: old)) then
        push ()
    in
    push ()

  let stats_commits t = Atomic.get t.commits
  let stats_aborts t = Atomic.get t.aborts
  let obs t = t.obs

  let log t ~thread kind =
    match t.recorder with
    | Some r -> Recorder.log r ~thread kind
    | None -> ()

  (* The abort handler of Figure 9 (lines 57-59): answer the pending
     request with [aborted], then clear the active flag.  The ordering
     matters for recorded histories: a fence waiting on [active] must
     observe the completion action already logged (condition 10). *)
  let abort_handler t txn cause =
    log t ~thread:txn.thread (Action.Response Action.Aborted);
    record_timestamps t txn;
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.epoch.(txn.thread);
    Atomic.incr t.aborts;
    Obs.incr_abort t.obs ~thread:txn.thread cause;
    raise Tm_intf.Abort

  let txn_begin t ~thread =
    S.yield ();
    (* Become visible to fences *before* logging [Txbegin], with no
       scheduling point between: a fence whose [Fbegin] follows our
       [Txbegin] in the history must observe the transaction as active
       (condition 10, the converse of the completion ordering below). *)
    Atomic.set t.active.(thread) true;
    Atomic.incr t.epoch.(thread);
    log t ~thread (Action.Request Action.Txbegin);
    let seq = t.txn_seq.(thread) in
    t.txn_seq.(thread) <- seq + 1;
    S.yield ();
    let txn =
      { thread; seq; rver = Atomic.get t.clock; wver = max_int;
        rset = Hashtbl.create 8; wset = Hashtbl.create 8 }
    in
    log t ~thread (Action.Response Action.Okay);
    txn

  let read t txn x =
    log t ~thread:txn.thread (Action.Request (Action.Read x));
    match Hashtbl.find_opt txn.wset x with
    | Some v ->
        log t ~thread:txn.thread (Action.Response (Action.Ret v));
        v
    | None ->
        S.yield ();
        let ts1 = Atomic.get t.ver.(x) in
        S.yield ();
        let value = Atomic.get t.reg.(x) in
        S.yield ();
        let locked = Atomic.get t.lock.(x) <> -1 in
        S.yield ();
        let ts2 = Atomic.get t.ver.(x) in
        if
          t.variant <> No_read_validation
          && (locked || ts1 <> ts2 || txn.rver < ts2)
        then
          (* a torn read ([locked] or a version change under our feet) is
             a read-validation conflict; a consistent snapshot that is
             simply newer than our begin timestamp is clock drift *)
          abort_handler t txn
            (if locked || ts1 <> ts2 then Obs.Read_validation
             else Obs.Timestamp_drift)
        else begin
          Hashtbl.replace txn.rset x ();
          log t ~thread:txn.thread (Action.Response (Action.Ret value));
          value
        end

  let write t txn x v =
    log t ~thread:txn.thread (Action.Request (Action.Write (x, v)));
    Hashtbl.replace txn.wset x v;
    log t ~thread:txn.thread (Action.Response Action.Ret_unit)

  let commit t txn =
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    let locked = ref [] in
    let unlock_all () =
      List.iter
        (fun x ->
          S.yield ();
          Atomic.set t.lock.(x) (-1))
        !locked
    in
    let wset_regs =
      Hashtbl.fold (fun x _ acc -> x :: acc) txn.wset [] |> List.sort compare
    in
    (* Phase 1: acquire write locks (lines 11-18). *)
    let t0 = Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Write_lock in
    let acquired_all =
      List.for_all
        (fun x ->
          S.yield ();
          if Atomic.compare_and_set t.lock.(x) (-1) txn.thread then begin
            locked := x :: !locked;
            true
          end
          else false)
        wset_regs
    in
    Obs.stop t.obs ~thread:txn.thread Obs.Span.Write_lock t0;
    if not acquired_all then begin
      unlock_all ();
      abort_handler t txn Obs.Write_lock_busy
    end;
    (* Phase 2: write timestamp (line 19). *)
    S.yield ();
    let wver = Atomic.fetch_and_add t.clock 1 + 1 in
    txn.wver <- wver;
    (* Phase 3: read-set validation (lines 20-26). *)
    let t0 =
      Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Commit_validation
    in
    let valid =
      t.variant = No_commit_validation
      || Hashtbl.fold
           (fun x () ok ->
             ok
             &&
             (S.yield ();
              let l = Atomic.get t.lock.(x) in
              let locked_by_other = l <> -1 && l <> txn.thread in
              S.yield ();
              let ts = Atomic.get t.ver.(x) in
              (not locked_by_other) && txn.rver >= ts))
           txn.rset true
    in
    Obs.stop t.obs ~thread:txn.thread Obs.Span.Commit_validation t0;
    if not valid then begin
      unlock_all ();
      abort_handler t txn Obs.Commit_validation
    end;
    (* Optional widening of the validation/write-back window, used to
       exhibit the delayed-commit anomaly reliably (E1). *)
    let delayed =
      match t.delay_threads with
      | None -> true
      | Some threads -> List.mem txn.thread threads
    in
    if delayed then
      for _ = 1 to t.commit_delay do
        Domain.cpu_relax ()
      done;
    (* Phase 4: write-back and release (lines 27-30), in ascending
       register order for determinism. *)
    List.iter
      (fun x ->
        let v = Hashtbl.find txn.wset x in
        S.yield ();
        Atomic.set t.reg.(x) v;
        S.yield ();
        Atomic.set t.ver.(x) wver;
        S.yield ();
        Atomic.set t.lock.(x) (-1);
        (* optional widening of the window between individual write-backs
           (exhibits Figure 3's intermediate states, E4) *)
        if delayed then
          for _ = 1 to t.writeback_delay do
            Domain.cpu_relax ()
          done)
      wset_regs;
    log t ~thread:txn.thread (Action.Response Action.Committed);
    record_timestamps t txn;
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.epoch.(txn.thread);
    Atomic.incr t.commits;
    Obs.incr_commit t.obs ~thread:txn.thread

  let abort t txn =
    (* Explicit abandonment: represent it as a commit attempt answered by
       [aborted] so the recorded history stays well-formed. *)
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    (try abort_handler t txn Obs.Explicit with Tm_intf.Abort -> ())

  (* Non-transactional accesses yield before the access, outside the
     recorder's critical section: the access itself is a single atomic
     step and nothing may suspend while the recorder mutex is held. *)
  let read_nt t ~thread x =
    S.yield ();
    match t.recorder with
    | None -> Atomic.get t.reg.(x)
    | Some r ->
        (* The memory access happens inside the recorder's critical
           section so the access is adjacent in the history and ordered
           after the write it reads from. *)
        Recorder.critical r ~thread (fun push ->
            let v = Atomic.get t.reg.(x) in
            push (Action.Request (Action.Read x));
            push (Action.Response (Action.Ret v));
            v)

  let write_nt t ~thread x v =
    S.yield ();
    match t.recorder with
    | None -> Atomic.set t.reg.(x) v
    | Some r ->
        (* The stamp block is reserved before the store: a reader that
           observes [v] is stamped after this write. *)
        Recorder.critical_pre r ~thread ~slots:2 (fun push ->
            Atomic.set t.reg.(x) v;
            push (Action.Request (Action.Write (x, v)));
            push (Action.Response Action.Ret_unit))

  (* The paper's two-pass flag scan (Figure 7, lines 33-39). *)
  let fence_flag_scan t =
    let nthreads = Array.length t.active in
    let r = Array.make nthreads false in
    for u = 0 to nthreads - 1 do
      S.yield ();
      r.(u) <- Atomic.get t.active.(u)
    done;
    for u = 0 to nthreads - 1 do
      if r.(u) then begin
        S.yield ();
        while Atomic.get t.active.(u) do
          S.spin ()
        done
      end
    done

  (* RCU-style grace period: snapshot per-thread epochs and wait until
     every thread that was inside a transaction (odd epoch) has moved on.
     Unlike the flag scan, this never waits for a transaction that began
     after the fence did, even if the flag is set again quickly. *)
  let fence_epoch t =
    let nthreads = Array.length t.epoch in
    let snapshot = Array.make nthreads 0 in
    for u = 0 to nthreads - 1 do
      S.yield ();
      snapshot.(u) <- Atomic.get t.epoch.(u)
    done;
    for u = 0 to nthreads - 1 do
      if snapshot.(u) land 1 = 1 then begin
        S.yield ();
        while Atomic.get t.epoch.(u) = snapshot.(u) do
          S.spin ()
        done
      end
    done

  let fence t ~thread =
    log t ~thread (Action.Request Action.Fbegin);
    let t0 = Obs.start_sampled t.obs ~thread Obs.Span.Fence_wait in
    (match t.fence_impl with
    | Flag_scan -> fence_flag_scan t
    | Epoch -> fence_epoch t);
    Obs.stop t.obs ~thread Obs.Span.Fence_wait t0;
    log t ~thread (Action.Response Action.Fend)
end

include Make (Sched_intf.Os)
