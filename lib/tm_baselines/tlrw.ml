open Tm_model
open Tm_runtime
module Obs = Tm_obs.Obs

(* Lock word per register: bit [wbit] = write-locked, low bits = count
   of visible readers.  A writer requires the word to be exactly 0 (or
   exactly 1 when upgrading its own read lock). *)
let wbit = 1 lsl 30

module Make (S : Sched_intf.S) = struct
  let name = "tlrw"

  type t = {
    reg : int Atomic.t array;
    rw : int Atomic.t array;
    active : bool Atomic.t array;
    recorder : Recorder.t option;
    spin_bound : int;
    commits : int Atomic.t;
    aborts : int Atomic.t;
    descs : txn array;  (** reusable per-thread descriptors *)
    obs : Obs.t;
  }

  (* Per-thread scratch descriptor, cleared at [txn_begin].  The lock
     sets are generation-cleared tables, so the held-lock checks on
     every read/write are O(1) instead of the former [List.mem] scans.
     A read lock upgraded to a write lock stays in [rlocked]; release
     paths skip registers that are also in [wlocked] (the upgrade CAS
     consumed the reader count). *)
  and txn = {
    thread : int;
    rlocked : Txnset.t;  (** registers where we hold a read lock *)
    wlocked : Txnset.t;  (** registers where we hold the write lock *)
    undo : Txnset.Log.t;  (** in-place writes to roll back, newest first *)
  }

  let create_with ?recorder ?(spin_bound = 4096) ~nregs ~nthreads () =
    {
      reg = Array.init nregs (fun _ -> Atomic.make Types.v_init);
      rw = Array.init nregs (fun _ -> Atomic.make 0);
      active = Array.init nthreads (fun _ -> Atomic.make false);
      recorder;
      spin_bound;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      descs =
        Array.init nthreads (fun thread ->
            {
              thread;
              rlocked = Txnset.create ();
              wlocked = Txnset.create ();
              undo = Txnset.Log.create ();
            });
      obs = Obs.create ~nthreads ();
    }

  let create ?recorder ~nregs ~nthreads () =
    create_with ?recorder ~nregs ~nthreads ()

  let stats_commits t = Atomic.get t.commits
  let stats_aborts t = Atomic.get t.aborts
  let obs t = t.obs

  let log t ~thread kind =
    match t.recorder with
    | Some r -> Recorder.log r ~thread kind
    | None -> ()

  (* The per-read and per-write call sites test this before building
     the [Action] value, as TL2 does: with no recorder attached the
     boxed action would be most of a transaction's allocation. *)
  let[@inline] recording t =
    match t.recorder with Some _ -> true | None -> false

  let release_read_locks t txn =
    Txnset.iter
      (fun x _ ->
        if not (Txnset.mem txn.wlocked x) then begin
          S.yield ();
          ignore (Atomic.fetch_and_add t.rw.(x) (-1))
        end)
      txn.rlocked

  let release_all t txn =
    (* roll back in-place writes, newest first *)
    Txnset.Log.iter_newest_first
      (fun x old ->
        S.yield ();
        Atomic.set t.reg.(x) old)
      txn.undo;
    Txnset.iter
      (fun x _ ->
        S.yield ();
        Atomic.set t.rw.(x) 0)
      txn.wlocked;
    release_read_locks t txn;
    Txnset.Log.clear txn.undo;
    Txnset.clear txn.wlocked;
    Txnset.clear txn.rlocked

  let abort_handler t txn cause =
    release_all t txn;
    log t ~thread:txn.thread (Action.Response Action.Aborted);
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.aborts;
    Obs.incr_abort t.obs ~thread:txn.thread cause;
    raise Tm_intf.Abort

  let txn_begin t ~thread =
    S.yield ();
    (* visible to fences before [Txbegin] is logged (condition 10) *)
    Atomic.set t.active.(thread) true;
    log t ~thread (Action.Request Action.Txbegin);
    let txn = t.descs.(thread) in
    Txnset.clear txn.rlocked;
    Txnset.clear txn.wlocked;
    Txnset.Log.clear txn.undo;
    log t ~thread (Action.Response Action.Okay);
    txn

  (* Acquire a read lock on [x]: increment the reader count while no
     writer holds the word.  The retry loops take [spins] as an argument
     instead of closing over [t txn x]: a local closure would be
     allocated on every lock acquisition. *)
  let rec acquire_read t txn x spins =
    (* starving behind a held write lock *)
    if spins > t.spin_bound then abort_handler t txn Obs.Write_lock_busy
    else begin
      S.yield ();
      let s = Atomic.get t.rw.(x) in
      if s land wbit <> 0 then begin
        S.spin ();
        acquire_read t txn x (spins + 1)
      end
      else if Atomic.compare_and_set t.rw.(x) s (s + 1) then
        Txnset.add txn.rlocked x
      else acquire_read t txn x (spins + 1)
    end

  (* Acquire the write lock on [x], upgrading a held read lock if any
     ([expected] is the reader count that is ours: 1 or 0).  The upgrade
     CAS consumes our reader count; [x] stays in [rlocked] and the
     release paths skip it there.  Only a writer is waited for (bounded,
     like [acquire_read]): readers on the word are live transactions
     that may themselves be waiting to upgrade, so waiting for them to
     drain can deadlock until the bound runs out.  Finding them aborts
     at once; the retry's backoff in [Atomic_block] breaks the
     symmetry. *)
  let rec acquire_write t txn x ~expected spins =
    if spins > t.spin_bound then abort_handler t txn Obs.Write_lock_busy
    else begin
      S.yield ();
      let s = Atomic.get t.rw.(x) in
      if s = expected then
        if Atomic.compare_and_set t.rw.(x) expected wbit then
          Txnset.add txn.wlocked x
        else acquire_write t txn x ~expected (spins + 1)
      else if s land wbit <> 0 then begin
        S.spin ();
        acquire_write t txn x ~expected (spins + 1)
      end
      else abort_handler t txn Obs.Write_lock_busy
    end

  let read t txn x =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Read x));
    if not (Txnset.mem txn.wlocked x || Txnset.mem txn.rlocked x) then
      acquire_read t txn x 0;
    S.yield ();
    let v = Atomic.get t.reg.(x) in
    if recording t then
      log t ~thread:txn.thread (Action.Response (Action.Ret v));
    v

  let write t txn x v =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Write (x, v)));
    if not (Txnset.mem txn.wlocked x) then begin
      let t0 = Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Write_lock in
      let expected = if Txnset.mem txn.rlocked x then 1 else 0 in
      (match acquire_write t txn x ~expected 0 with
      | () -> Obs.stop t.obs ~thread:txn.thread Obs.Span.Write_lock t0
      | exception e ->
          Obs.stop t.obs ~thread:txn.thread Obs.Span.Write_lock t0;
          raise e)
    end;
    S.yield ();
    Txnset.Log.push txn.undo x (Atomic.get t.reg.(x));
    S.yield ();
    Atomic.set t.reg.(x) v;
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Ret_unit)

  let commit t txn =
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    (* writes are already in place: just release every lock *)
    Txnset.iter
      (fun x _ ->
        S.yield ();
        Atomic.set t.rw.(x) 0)
      txn.wlocked;
    release_read_locks t txn;
    Txnset.Log.clear txn.undo;
    Txnset.clear txn.wlocked;
    Txnset.clear txn.rlocked;
    log t ~thread:txn.thread (Action.Response Action.Committed);
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.commits;
    Obs.incr_commit t.obs ~thread:txn.thread

  let abort t txn =
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    (try abort_handler t txn Obs.Explicit with Tm_intf.Abort -> ())

  let read_nt t ~thread x =
    S.yield ();
    match t.recorder with
    | None -> Atomic.get t.reg.(x)
    | Some r ->
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
        Recorder.critical_pre r ~thread ~slots:2 (fun push ->
            Atomic.set t.reg.(x) v;
            push (Action.Request (Action.Write (x, v)));
            push (Action.Response Action.Ret_unit))

  let fence t ~thread =
    (* TLRW needs no fences for privatization (visible readers), but the
       interface requires one; it waits on the active flags like TL2's. *)
    log t ~thread (Action.Request Action.Fbegin);
    let t0 = Obs.start_sampled t.obs ~thread Obs.Span.Fence_wait in
    let n = Array.length t.active in
    let r = Array.make n false in
    for u = 0 to n - 1 do
      S.yield ();
      r.(u) <- Atomic.get t.active.(u)
    done;
    for u = 0 to n - 1 do
      if r.(u) then begin
        S.yield ();
        while Atomic.get t.active.(u) do
          S.spin ()
        done
      end
    done;
    Obs.stop t.obs ~thread Obs.Span.Fence_wait t0;
    log t ~thread (Action.Response Action.Fend)
  end

include Make (Sched_intf.Os)
