open Tm_model
open Tm_runtime
module Obs = Tm_obs.Obs

module Make (S : Sched_intf.S) = struct
  let name = "global-lock"

  type t = {
    owner : int Atomic.t;
        (** -1 free, otherwise the thread holding the global lock.  A
            CAS spinlock rather than [Mutex.t]: the lock is held across
            scheduling points, and a blocked [Mutex.lock] would wedge
            the cooperative deterministic scheduler (all fibers share
            one domain).  Spinning through {!S.spin} parks the fiber
            instead. *)
    reg : int Atomic.t array;
    active : bool Atomic.t array;
    recorder : Recorder.t option;
    commits : int Atomic.t;
    aborts : int Atomic.t;
    descs : txn array;  (** reusable per-thread descriptors *)
    obs : Obs.t;
  }

  and txn = { thread : int; undo : Txnset.Log.t }

  let create ?recorder ~nregs ~nthreads () =
    {
      owner = Atomic.make (-1);
      reg = Array.init nregs (fun _ -> Atomic.make Types.v_init);
      active = Array.init nthreads (fun _ -> Atomic.make false);
      recorder;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      descs =
        Array.init nthreads (fun thread ->
            { thread; undo = Txnset.Log.create () });
      obs = Obs.create ~nthreads ();
    }

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

  let acquire t thread =
    let t0 = Obs.start_sampled t.obs ~thread Obs.Span.Write_lock in
    let rec go () =
      S.yield ();
      if not (Atomic.compare_and_set t.owner (-1) thread) then begin
        S.spin ();
        go ()
      end
    in
    go ();
    Obs.stop t.obs ~thread Obs.Span.Write_lock t0

  let release t =
    S.yield ();
    Atomic.set t.owner (-1)

  let txn_begin t ~thread =
    acquire t thread;
    (* Log [Txbegin] only once the lock is held and the transaction is
       visible to fences: a thread still waiting for the lock has not
       begun in the sense of the history's fence condition (10), and a
       fence must not be obliged to wait for it. *)
    Atomic.set t.active.(thread) true;
    log t ~thread (Action.Request Action.Txbegin);
    log t ~thread (Action.Response Action.Okay);
    let txn = t.descs.(thread) in
    Txnset.Log.clear txn.undo;
    txn

  let read t txn x =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Read x));
    S.yield ();
    let v = Atomic.get t.reg.(x) in
    if recording t then
      log t ~thread:txn.thread (Action.Response (Action.Ret v));
    v

  let write t txn x v =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Write (x, v)));
    S.yield ();
    Txnset.Log.push txn.undo x (Atomic.get t.reg.(x));
    S.yield ();
    Atomic.set t.reg.(x) v;
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Ret_unit)

  let commit t txn =
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    log t ~thread:txn.thread (Action.Response Action.Committed);
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.commits;
    Obs.incr_commit t.obs ~thread:txn.thread;
    release t

  let abort t txn =
    (* roll the in-place writes back, newest first *)
    Txnset.Log.iter_newest_first
      (fun x old ->
        S.yield ();
        Atomic.set t.reg.(x) old)
      txn.undo;
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    log t ~thread:txn.thread (Action.Response Action.Aborted);
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.aborts;
    Obs.incr_abort t.obs ~thread:txn.thread Obs.Explicit;
    release t

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
