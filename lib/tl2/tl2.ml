open Tm_model
open Tm_runtime
module Obs = Tm_obs.Obs

type variant = Normal | No_read_validation | No_commit_validation
type fence_impl = Flag_scan | Epoch

(* Packed versioned write-lock: one atomic word per register instead of
   Figure 9's separate [ver]/[lock] pair.  Low bit = locked, high bits
   = version.  A consistent read needs the word sampled equal (and
   unlocked) around the value load — three atomic loads where the
   two-word scheme needs four — and commit-time release publishes the
   new version and drops the lock in a single store.  No owner field:
   commit validation decides "locked by me" by write-set membership,
   and only the holder ever unlocks.  The paper-shaped two-word scheme
   survives as {!Legacy} (registry entry ["tl2-two-word"]). *)
module Vlock = struct
  let pack ~ver ~locked = (ver lsl 1) lor (if locked then 1 else 0)
  let version w = w lsr 1
  let locked w = w land 1 <> 0
  let lock w = w lor 1
  let unlock w = w land lnot 1
end

module Make (S : Sched_intf.S) = struct
  let name = "tl2"

  type t = {
    clock : int Atomic.t;
    mem : int Atomic.t array;
        (** register [x]'s packed version+lock word at [2x], its value
            at [2x+1]; one [Array.init] lays their atomic blocks out
            side by side, so a read touches two cache lines, one of
            pointer slots and one of blocks *)
    epoch : Padded.t;
        (** per thread: odd while a transaction is running, even when
            quiescent; the flag scan reads its low bit, the epoch fence
            waits for it to move (RCU-style grace periods) *)
    fence_impl : fence_impl;
    recorder : Recorder.t option;
    variant : variant;
    commit_delay : int;
    writeback_delay : int;
    delay_threads : int list option;  (** [None] = all threads *)
    commits : int Atomic.t;
    aborts : int Atomic.t;
    log_timestamps : bool;
    timestamp_log : (int * int * int * int) list Atomic.t;
        (** (thread, per-thread txn seq, rver, wver) per completed txn,
            newest first; lock-free CAS push so the log never serializes
            committing threads.  Only populated when a recorder is
            attached or [~log_timestamps:true] was passed — an unbounded
            log must not leak a list cell per transaction on plain
            production runs. *)
    txn_seq : int array;  (** per-thread count of begun transactions *)
    descs : txn array;  (** reusable per-thread descriptors *)
    obs : Obs.t;  (** abort causes and span timings, per-thread sharded *)
  }

  (* One descriptor per thread, cleared (O(1)) at [txn_begin] rather
     than allocated: each thread runs at most one transaction at a
     time (its odd epoch already encodes this), so the TL2 fast path
     allocates nothing per transaction. *)
  and txn = {
    thread : int;
    mutable seq : int;
        (** which transaction of its thread this is (0-based) *)
    mutable rver : int;
    mutable wver : int;
    rset : Txnset.t;
    wset : Txnset.t;
    seen : int array;  (** per-thread epochs a fence of this thread saw *)
  }

  let create_with ?recorder ?(variant = Normal) ?(fence_impl = Flag_scan)
      ?(commit_delay = 0) ?(writeback_delay = 0) ?delay_threads
      ?log_timestamps ~nregs ~nthreads () =
    {
      clock = Atomic.make 0;
      mem =
        Array.init (2 * nregs) (fun i ->
            Atomic.make
              (if i land 1 = 0 then Vlock.pack ~ver:0 ~locked:false
               else Types.v_init));
      epoch = Padded.make nthreads;
      fence_impl;
      recorder;
      variant;
      commit_delay;
      writeback_delay;
      delay_threads;
      commits = Atomic.make 0;
      aborts = Atomic.make 0;
      log_timestamps =
        (match log_timestamps with
        | Some b -> b
        | None -> Option.is_some recorder);
      timestamp_log = Atomic.make [];
      txn_seq = Array.make nthreads 0;
      descs =
        Array.init nthreads (fun thread ->
            {
              thread;
              seq = 0;
              rver = 0;
              wver = max_int;
              rset = Txnset.create ();
              wset = Txnset.create ();
              seen = Array.make nthreads 0;
            });
      obs = Obs.create ~nthreads ();
    }

  let create ?recorder ~nregs ~nthreads () =
    create_with ?recorder ~nregs ~nthreads ()

  let[@inline] lock_cell t x = t.mem.(2 * x)
  let[@inline] value_cell t x = t.mem.((2 * x) + 1)
  let clock t = Atomic.get t.clock

  let timestamp_log t = List.rev (Atomic.get t.timestamp_log)

  let record_timestamps t txn =
    if t.log_timestamps then begin
      let entry = (txn.thread, txn.seq, txn.rver, txn.wver) in
      let rec push () =
        let old = Atomic.get t.timestamp_log in
        if not (Atomic.compare_and_set t.timestamp_log old (entry :: old))
        then push ()
      in
      push ()
    end

  let stats_commits t = Atomic.get t.commits
  let stats_aborts t = Atomic.get t.aborts
  let obs t = t.obs

  let log t ~thread kind =
    match t.recorder with
    | Some r -> Recorder.log r ~thread kind
    | None -> ()

  (* Hot-path call sites test this before building the [Action] value:
     with no recorder attached the allocation (several words per
     read/write) would be the only heap traffic of a transaction. *)
  let[@inline] recording t =
    match t.recorder with Some _ -> true | None -> false

  (* The abort handler of Figure 9 (lines 57-59): answer the pending
     request with [aborted], then leave the odd epoch.  The ordering
     matters for recorded histories: a fence waiting on the epoch must
     observe the completion action already logged (condition 10). *)
  let abort_handler t txn cause =
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Aborted);
    record_timestamps t txn;
    S.yield ();
    Padded.incr t.epoch txn.thread;
    Atomic.incr t.aborts;
    Obs.incr_abort t.obs ~thread:txn.thread cause;
    raise Tm_intf.Abort

  let txn_begin t ~thread =
    S.yield ();
    (* Become visible to fences *before* logging [Txbegin], with no
       scheduling point between: a fence whose [Fbegin] follows our
       [Txbegin] in the history must observe the transaction as active
       (condition 10, the converse of the completion ordering below). *)
    Padded.incr t.epoch thread;
    if recording t then log t ~thread (Action.Request Action.Txbegin);
    let txn = t.descs.(thread) in
    txn.seq <- t.txn_seq.(thread);
    t.txn_seq.(thread) <- txn.seq + 1;
    txn.wver <- max_int;
    Txnset.clear txn.rset;
    Txnset.clear txn.wset;
    S.yield ();
    txn.rver <- Atomic.get t.clock;
    if recording t then log t ~thread (Action.Response Action.Okay);
    txn

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
      let w1 = Atomic.get (lock_cell t x) in
      S.yield ();
      let value = Atomic.get (value_cell t x) in
      S.yield ();
      let w2 = Atomic.get (lock_cell t x) in
      let torn = Vlock.locked w1 || Vlock.locked w2 || w1 <> w2 in
      if
        t.variant <> No_read_validation
        && (torn || txn.rver < Vlock.version w2)
      then
        (* a torn read (locked or a version change under our feet) is a
           read-validation conflict; a consistent snapshot that is
           simply newer than our begin timestamp is clock drift *)
        abort_handler t txn
          (if torn then Obs.Read_validation else Obs.Timestamp_drift)
      else begin
        Txnset.add txn.rset x;
        if recording t then
          log t ~thread:txn.thread (Action.Response (Action.Ret value));
        value
      end
    end

  let write t txn x v =
    if recording t then
      log t ~thread:txn.thread (Action.Request (Action.Write (x, v)));
    Txnset.set txn.wset x v;
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Ret_unit)

  (* Commit-time read-set validation (Figure 9, lines 20-26).  With the
     packed word a single load answers both checks: locked-by-other is
     the lock bit on a register outside our write-set (we hold exactly
     the write-set locks; a locked write-set member still carries its
     pre-lock version in the high bits), and the version check compares
     against those high bits. *)
  let validate_rset t txn ~writer =
    let n = Txnset.length txn.rset in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let x = Txnset.key txn.rset !i in
      S.yield ();
      let w = Atomic.get (lock_cell t x) in
      let locked_by_other =
        Vlock.locked w && not (writer && Txnset.mem txn.wset x)
      in
      ok := (not locked_by_other) && txn.rver >= Vlock.version w;
      incr i
    done;
    !ok

  let finish_commit t txn =
    if recording t then
      log t ~thread:txn.thread (Action.Response Action.Committed);
    record_timestamps t txn;
    S.yield ();
    Padded.incr t.epoch txn.thread;
    Atomic.incr t.commits;
    Obs.incr_commit t.obs ~thread:txn.thread

  (* Write locks are taken in ascending register order from index [i] of
     the sorted write set on; the result is the number held when it
     stops, [length wset] on success.  Top-level functions over the
     descriptor, not closures: a writing commit allocates nothing. *)
  let rec acquire_locks t txn i =
    if i >= Txnset.length txn.wset then i
    else begin
      let x = Txnset.key txn.wset i in
      S.yield ();
      let w = Atomic.get (lock_cell t x) in
      if Vlock.locked w then i
      else begin
        S.yield ();
        if Atomic.compare_and_set (lock_cell t x) w (Vlock.lock w) then
          acquire_locks t txn (i + 1)
        else i
      end
    end

  (* Release the first [k] write locks (version bits are preserved). *)
  let unlock_locks t txn k =
    for i = k - 1 downto 0 do
      let x = Txnset.key txn.wset i in
      S.yield ();
      let w = Atomic.get (lock_cell t x) in
      S.yield ();
      Atomic.set (lock_cell t x) (Vlock.unlock w)
    done

  let commit t txn =
    if recording t then
      log t ~thread:txn.thread (Action.Request Action.Txcommit);
    let delayed =
      match t.delay_threads with
      | None -> true
      | Some threads -> List.mem txn.thread threads
    in
    let nw = Txnset.length txn.wset in
    if nw = 0 then begin
      (* Read-only fast path (original TL2): nothing to lock, nothing
         to write back, and — decisively — no global-clock
         [fetch_and_add]: a read-only commit that bumps the clock only
         manufactures [Timestamp_drift] aborts in every concurrent
         reader.  Validation against the unchanged [rver] suffices,
         and only if the clock moved: a writer that overwrites a
         register after we read it takes its timestamp after that
         read, so with the clock still at [rver] no read is stale
         (DISC 2006, §2).  The transaction serializes at its snapshot,
         so the snapshot version doubles as its effective write
         timestamp in the {!timestamp_log} (INV.5's visibility
         ordering needs one). *)
      let t0 =
        Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Commit_validation
      in
      let valid =
        t.variant = No_commit_validation
        || (S.yield ();
            Atomic.get t.clock = txn.rver)
        || validate_rset t txn ~writer:false
      in
      Obs.stop t.obs ~thread:txn.thread Obs.Span.Commit_validation t0;
      if not valid then abort_handler t txn Obs.Commit_validation;
      txn.wver <- txn.rver;
      (* keep the E1 window applicable to read-only committers too *)
      if delayed then
        for _ = 1 to t.commit_delay do
          Domain.cpu_relax ()
        done;
      finish_commit t txn
    end
    else begin
      (* Phase 1: acquire write locks in ascending register order
         (lines 11-18); the write-set is insertion-ordered and sorted
         once in place.  On failure exactly the acquired prefix is
         released (version bits are preserved by lock/unlock). *)
      Txnset.sort txn.wset;
      let t0 = Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Write_lock in
      let acquired = acquire_locks t txn 0 in
      Obs.stop t.obs ~thread:txn.thread Obs.Span.Write_lock t0;
      if acquired < nw then begin
        unlock_locks t txn acquired;
        abort_handler t txn Obs.Write_lock_busy
      end;
      (* Phase 2: write timestamp (line 19). *)
      S.yield ();
      let wver = Atomic.fetch_and_add t.clock 1 + 1 in
      txn.wver <- wver;
      (* Phase 3: read-set validation (lines 20-26), skipped when no
         other writer took a timestamp between our begin and ours: any
         later one serializes after us. *)
      let t0 =
        Obs.start_sampled t.obs ~thread:txn.thread Obs.Span.Commit_validation
      in
      let valid =
        t.variant = No_commit_validation
        || wver = txn.rver + 1
        || validate_rset t txn ~writer:true
      in
      Obs.stop t.obs ~thread:txn.thread Obs.Span.Commit_validation t0;
      if not valid then begin
        unlock_locks t txn nw;
        abort_handler t txn Obs.Commit_validation
      end;
      (* Optional widening of the validation/write-back window, used to
         exhibit the delayed-commit anomaly reliably (E1). *)
      if delayed then
        for _ = 1 to t.commit_delay do
          Domain.cpu_relax ()
        done;
      (* Phase 4: write-back and release (lines 27-30) in ascending
         register order; publishing the new version and releasing the
         lock is one store of the repacked word. *)
      for i = 0 to nw - 1 do
        let x = Txnset.key txn.wset i in
        let v = Txnset.value txn.wset i in
        S.yield ();
        Atomic.set (value_cell t x) v;
        S.yield ();
        Atomic.set (lock_cell t x) (Vlock.pack ~ver:wver ~locked:false);
        (* optional widening of the window between individual
           write-backs (exhibits Figure 3's intermediate states, E4) *)
        if delayed then
          for _ = 1 to t.writeback_delay do
            Domain.cpu_relax ()
          done
      done;
      finish_commit t txn
    end

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
    | None -> Atomic.get (value_cell t x)
    | Some r ->
        (* The memory access happens inside the recorder's critical
           section so the access is adjacent in the history and ordered
           after the write it reads from. *)
        Recorder.critical r ~thread (fun push ->
            let v = Atomic.get (value_cell t x) in
            push (Action.Request (Action.Read x));
            push (Action.Response (Action.Ret v));
            v)

  let write_nt t ~thread x v =
    S.yield ();
    match t.recorder with
    | None -> Atomic.set (value_cell t x) v
    | Some r ->
        (* The stamp block is reserved before the store: a reader that
           observes [v] is stamped after this write. *)
        Recorder.critical_pre r ~thread ~slots:2 (fun push ->
            Atomic.set (value_cell t x) v;
            push (Action.Request (Action.Write (x, v)));
            push (Action.Response Action.Ret_unit))

  (* Has thread [u], seen at epoch [e0] by the fence's first pass, not
     yet let the fence through?  The paper's flag scan (Figure 7, lines
     33-39) waits until [u]'s active flag, its epoch's low bit, is
     clear; the RCU-style grace period waits only until the epoch has
     moved, so it never waits for a transaction that began after the
     fence did, even if [u] is inside one again by the time it looks. *)
  let still_inside t u e0 =
    let e = Padded.get t.epoch u in
    match t.fence_impl with Flag_scan -> e land 1 = 1 | Epoch -> e = e0

  (* Two passes: snapshot every epoch, then wait on each thread that
     was inside a transaction.  The snapshot lives in the fencing
     thread's descriptor, so a fence allocates nothing. *)
  let fence_wait t seen =
    for u = 0 to Array.length seen - 1 do
      S.yield ();
      seen.(u) <- Padded.get t.epoch u
    done;
    for u = 0 to Array.length seen - 1 do
      if seen.(u) land 1 = 1 then begin
        S.yield ();
        while still_inside t u seen.(u) do
          S.spin ()
        done
      end
    done

  let fence t ~thread =
    log t ~thread (Action.Request Action.Fbegin);
    let t0 = Obs.start_sampled t.obs ~thread Obs.Span.Fence_wait in
    fence_wait t t.descs.(thread).seen;
    Obs.stop t.obs ~thread Obs.Span.Fence_wait t0;
    log t ~thread (Action.Response Action.Fend)
end

include Make (Sched_intf.Os)

module Legacy = Tl2_legacy
