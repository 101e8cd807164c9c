(** TL2 [Dice, Shalev, Shavit, DISC'06] with RCU-style transactional
    fences, following the paper's pseudocode (Figure 7 / Figure 9).

    Per register: a value and a packed versioned write-lock ({!Vlock}:
    low bit = locked, high bits = version).  A global clock generates
    version numbers; transactions read-validate against their
    begin-time snapshot [rver] and commit with two-phase locking over
    their write-set, re-validating their read-set before write-back —
    except that, as in original TL2, a read-only transaction commits
    after validation alone, acquiring no locks and never touching the
    global clock; and a commit re-validates its read-set only if
    another writer took a timestamp since it began.  A per-thread epoch,
    odd inside a transaction, supports the fence: the fence snapshots
    all epochs, then waits until every thread whose active flag (the
    epoch's low bit) was set clears it (lines 33-39 of Figure 7).

    The hot paths deviate from the Figure 9 pseudocode for performance
    (packed lock word next to its value, read-only fast path, reusable
    per-thread descriptors); see DESIGN.md "Hot-path
    deviations from Figure 9".  The paper-shaped two-word
    implementation is preserved as {!Legacy} and registered as
    ["tl2-two-word"].

    The proof in §7 shows this TM strongly opaque for DRF programs; the
    {!variant} parameter injects the classic validation bugs so the
    checker of [Tm_opacity] can be shown to catch them (experiment
    E8), and [commit_delay] widens the window between read-set
    validation and write-back to make the delayed-commit anomaly easy
    to exhibit on unfenced programs (experiment E1).

    The implementation is a functor over {!Tm_runtime.Sched_intf.S}:
    every shared-memory access is a scheduling point, so
    [Make (Tm_sched.Sched.Hooks)] runs under the deterministic
    cooperative scheduler while the default instantiation (included at
    the top level, over {!Tm_runtime.Sched_intf.Os}) is the full-speed
    production path. *)

(** Fault-injection variants used by experiment E8. *)
type variant =
  | Normal
  | No_read_validation
      (** skip the version/lock checks on transactional reads *)
  | No_commit_validation  (** skip read-set re-validation at commit *)

(** Fence implementations (ablation A1): the paper's two-pass active
    flag scan (Figure 7) versus RCU-style per-thread epoch grace
    periods (as in [17]).  Both satisfy Definition A.1's condition 10;
    the epoch fence never waits for transactions that began after it. *)
type fence_impl = Flag_scan | Epoch

(** The packed versioned write-lock word: [(version lsl 1) lor locked].
    Locking preserves the version bits (CAS [w -> lock w]), so an
    abort-time release restores the pre-lock version; a committing
    write-back publishes version and unlock in one store. *)
module Vlock : sig
  val pack : ver:int -> locked:bool -> int
  val version : int -> int
  val locked : int -> bool
  val lock : int -> int
  val unlock : int -> int
end

module Make (S : Tm_runtime.Sched_intf.S) : sig
  include Tm_runtime.Tm_intf.S

  val create_with :
    ?recorder:Tm_runtime.Recorder.t ->
    ?variant:variant ->
    ?fence_impl:fence_impl ->
    ?commit_delay:int ->
    ?writeback_delay:int ->
    ?delay_threads:int list ->
    ?log_timestamps:bool ->
    nregs:int ->
    nthreads:int ->
    unit ->
    t

  val clock : t -> int
  val timestamp_log : t -> (int * int * int * int) list
  val stats_commits : t -> int
  val stats_aborts : t -> int
  val obs : t -> Tm_obs.Obs.t
end

include Tm_runtime.Tm_intf.S

val create_with :
  ?recorder:Tm_runtime.Recorder.t ->
  ?variant:variant ->
  ?fence_impl:fence_impl ->
  ?commit_delay:int ->
  ?writeback_delay:int ->
  ?delay_threads:int list ->
  ?log_timestamps:bool ->
  nregs:int ->
  nthreads:int ->
  unit ->
  t
(** Like [create] but selecting a fault-injection variant and anomaly
    window-widening delays: [commit_delay] busy-wait iterations between
    commit-time validation and write-back (the delayed-commit window,
    E1) and [writeback_delay] iterations between individual register
    write-backs (the intermediate-state window of Figure 3, E4).
    [delay_threads] restricts the delays to the given threads (default:
    all).  [log_timestamps] forces the {!timestamp_log} on or off; by
    default it is populated only when a recorder is attached, so
    production runs do not leak a list cell per transaction. *)

val clock : t -> int
(** Current value of the global clock (diagnostics).  Read-only
    commits do not advance it. *)

val timestamp_log : t -> (int * int * int * int) list
(** [(thread, seq, rver, wver)] of every completed transaction, in
    completion order; [seq] counts the thread's transactions from 0.
    [wver] is [max_int] when the transaction never generated a write
    timestamp (aborted before phase 2); a committed read-only
    transaction records [wver = rver], its serialization point.  Empty
    unless a recorder is attached or [~log_timestamps:true] was given.
    Used to validate the timestamp invariants of the paper's TL2 proof
    (§C, INV.5) against recorded histories. *)

val stats_commits : t -> int
val stats_aborts : t -> int
(** Global commit/abort counters (monotonic, approximate under
    contention only in their relative timing). *)

val obs : t -> Tm_obs.Obs.t
(** The TM's telemetry: exact per-cause abort counters and sampled
    span-duration histograms (fence waits, commit validation, write-lock
    acquisition; one event in {!Tm_obs.Obs.sample_period} per thread
    and kind).  Snapshot with {!Tm_obs.Obs.snapshot} at a quiescent
    point. *)

(** The pre-overhaul, paper-shaped TL2 (two-word orecs, boxed
    descriptors, always-FAA commit), kept as the measurement baseline
    and registered as ["tl2-two-word"]. *)
module Legacy = Tl2_legacy
