open Tm_model
open Tm_runtime
module Obs = Tm_obs.Obs

module Make (S : Sched_intf.S) = struct
  let name = "norec"

  type t = {
    glb : int Atomic.t;  (** sequence lock: odd = a writer is committing *)
    reg : int Atomic.t array;
    active : bool Atomic.t array;
    recorder : Recorder.t option;
    commits : int Atomic.t;
    aborts : int Atomic.t;
    descs : txn array;  (** reusable per-thread descriptors *)
    obs : Obs.t;
  }

  (* Per-thread scratch descriptor, cleared at [txn_begin] (each thread
     runs one transaction at a time): NOrec's value log [rset] and its
     write-set reuse the same generation-cleared tables as TL2's. *)
  and txn = {
    thread : int;
    mutable snapshot : int;
    rset : Txnset.t;  (** register -> value seen *)
    wset : Txnset.t;
  }

  let create ?recorder ~nregs ~nthreads () =
    {
      glb = Atomic.make 0;
      reg = Array.init nregs (fun _ -> Atomic.make Types.v_init);
      active = Array.init nthreads (fun _ -> Atomic.make false);
      recorder;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      descs =
        Array.init nthreads (fun thread ->
            {
              thread;
              snapshot = 0;
              rset = Txnset.create ();
              wset = Txnset.create ();
            });
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

  let abort_handler t txn cause =
    log t ~thread:txn.thread (Action.Response Action.Aborted);
    S.yield ();
    Atomic.set t.active.(txn.thread) false;
    Atomic.incr t.aborts;
    Obs.incr_abort t.obs ~thread:txn.thread cause;
    raise Tm_intf.Abort

  let rec wait_even t =
    S.yield ();
    let s = Atomic.get t.glb in
    if s land 1 = 1 then begin
      S.spin ();
      wait_even t
    end
    else s

  let txn_begin t ~thread =
    S.yield ();
    (* visible to fences before [Txbegin] is logged (condition 10) *)
    Atomic.set t.active.(thread) true;
    log t ~thread (Action.Request Action.Txbegin);
    let txn = t.descs.(thread) in
    Txnset.clear txn.rset;
    Txnset.clear txn.wset;
    txn.snapshot <- wait_even t;
    log t ~thread (Action.Response Action.Okay);
    txn

  (* Value-based validation (may abort with the caller's [cause]):
     returns a clock value at which the whole read-set was observed
     consistent. *)
  let rec validate t txn cause =
    let s = wait_even t in
    let n = Txnset.length txn.rset in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let x = Txnset.key txn.rset !i in
      let v = Txnset.value txn.rset !i in
      S.yield ();
      ok := Atomic.get t.reg.(x) = v;
      incr i
    done;
    if not !ok then abort_handler t txn cause
    else begin
      S.yield ();
      if Atomic.get t.glb <> s then validate t txn cause else s
    end

  let read t txn x =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Read x));
    let wi = Txnset.index txn.wset x in
    if wi >= 0 then begin
      let v = Txnset.value txn.wset wi in
      if recording t then
        log t ~thread:txn.thread (Action.Response (Action.Ret v));
      v
    end
    else begin
      S.yield ();
      let v = ref (Atomic.get t.reg.(x)) in
      S.yield ();
      while txn.snapshot <> Atomic.get t.glb do
        txn.snapshot <- validate t txn Obs.Read_validation;
        S.yield ();
        v := Atomic.get t.reg.(x);
        S.yield ()
      done;
      Txnset.set txn.rset x !v;
      if recording t then
        log t ~thread:txn.thread (Action.Response (Action.Ret !v));
      !v
    end

  let write t txn x v =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Write (x, v)));
    Txnset.set txn.wset x v;
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Ret_unit)

  let commit t txn =
    log t ~thread:txn.thread (Action.Request Action.Txcommit);
    if Txnset.is_empty txn.wset then begin
      (* read-only: commit without touching the clock *)
      log t ~thread:txn.thread (Action.Response Action.Committed);
      S.yield ();
      Atomic.set t.active.(txn.thread) false;
      Atomic.incr t.commits;
      Obs.incr_commit t.obs ~thread:txn.thread
    end
    else begin
      (* acquire the sequence lock at a validated snapshot; validation
         failure here is a commit-time (value) validation abort *)
      let t0 = Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Write_lock in
      S.yield ();
      while
        not (Atomic.compare_and_set t.glb txn.snapshot (txn.snapshot + 1))
      do
        txn.snapshot <- validate t txn Obs.Commit_validation;
        S.yield ()
      done;
      Obs.stop t.obs ~thread:txn.thread Obs.Span.Write_lock t0;
      Txnset.iter
        (fun x v ->
          S.yield ();
          Atomic.set t.reg.(x) v)
        txn.wset;
      S.yield ();
      Atomic.set t.glb (txn.snapshot + 2);
      log t ~thread:txn.thread (Action.Response Action.Committed);
      S.yield ();
      Atomic.set t.active.(txn.thread) false;
      Atomic.incr t.commits;
      Obs.incr_commit t.obs ~thread:txn.thread
    end

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
