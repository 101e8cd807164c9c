(** A cooperative deterministic scheduler for the instrumented TMs
    (Loom/Shuttle style), built on OCaml effects.

    All program threads run as fibers of a single domain.  Every
    shared-memory access of a sched-instrumented TM
    ([Tl2.Make (Hooks)], …) performs an effect that suspends the fiber
    and returns control to the engine, which asks a {!pick} function
    which thread runs next.  A full execution is therefore determined
    by its schedule (the sequence of chosen thread ids), making any
    interleaving of the TMs' shared-memory accesses schedulable,
    reproducible, and systematically explorable.

    Spin loops are special: {!Tm_runtime.Sched_intf.S.spin} parks the
    fiber until another thread has taken a step.  By the instrumentation
    contract a spin step re-run without interference is a no-op, so
    parking is a sound partial-order reduction — and when every
    unfinished fiber is parked, the engine reports a livelock instead
    of hanging (e.g. a transactional fence waiting on a transaction
    that can never complete).

    {!Tm_runtime.Sched_intf.S.backoff}, the wait of a retry loop after
    an abort, parks the same way while another fiber is unfinished; once
    every other fiber has finished it is a plain scheduling point, since
    the conflict that caused the abort may have ended after it was
    observed. *)

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spin : unit Effect.t
  | Backoff : unit Effect.t

module Hooks : Tm_runtime.Sched_intf.S
(** The deterministic instantiation of the TM scheduler hooks: all three
    operations perform effects and must run under {!run} (or
    {!unscheduled}). *)

val unscheduled : (unit -> 'a) -> 'a
(** Run a computation that may touch sched-instrumented TMs outside the
    engine, treating every scheduling point as a no-op (e.g. reading
    final register values after {!run} has returned). *)

type pick = step:int -> current:int option -> runnable:int list -> int
(** A scheduling policy: given the 0-based choice index, the thread
    that ran last (if still runnable) and the runnable thread ids in
    increasing order, return the thread to run next (must be a member
    of [runnable]; anything else falls back to {!default_pick}). *)

type run_info = {
  schedule : int list;  (** thread chosen at each scheduling point *)
  runnables : int list list;  (** runnable set at each scheduling point *)
  completed : bool array;  (** per fiber: body ran to completion *)
  livelocked : bool;
      (** every unfinished fiber was parked in a spin loop *)
  step_limit_hit : bool;
  steps : int;
}

val run :
  ?max_steps:int -> pick:pick -> (unit -> unit) array -> run_info
(** Run one fiber per array element to completion (or livelock, or
    [max_steps] scheduling points, default 100000), consulting [pick]
    at every scheduling point.  Fibers still suspended when the engine
    stops are abandoned (their TM instance is discarded with them). *)

(** {1 Scheduling policies} *)

val default_pick : current:int option -> runnable:int list -> int
(** Keep running the current thread while it can run, otherwise the
    lowest-id runnable thread. *)

val pick_of_prefix : int array -> pick
(** Follow the given schedule prefix, then {!default_pick} — used both
    for exhaustive exploration and for replaying a recorded schedule. *)

val pick_random : Random.State.t -> pick
(** Uniformly random among the runnable threads. *)

val pick_pct :
  Random.State.t -> nthreads:int -> depth:int -> expected_steps:int -> pick
(** PCT [Burckhardt et al., ASPLOS'10]: random thread priorities; run
    the highest-priority runnable thread and lower the running thread's
    priority at [depth - 1] change points sampled from
    [1..expected_steps].  Finds any bug of depth [d] with probability
    ≥ 1/(n·k^(d-1)) per execution. *)

(** {1 Exploration} *)

type 'a found = {
  f_schedule : int list;  (** the failing schedule, replayable verbatim *)
  f_exec : int;  (** 1-based index of the failing execution (0: probe) *)
  f_seed : int option;
      (** per-execution replay seed (random/PCT strategies) *)
  f_value : 'a;
}

type 'a outcome =
  | Found of 'a found
  | Passed of { execs : int; complete : bool }
      (** [complete] only for exhaustive search: the whole
          preemption-bounded space was covered *)

type spec =
  | Exhaustive of { preemptions : int; max_execs : int }
      (** depth-first over all schedules with at most [preemptions]
          preemptive context switches (CHESS-style); non-preemptive
          switches — the running thread parked or finished — are
          free *)
  | Random of { seed : int; execs : int }
  | Pct of { seed : int; execs : int; depth : int }

val exec_seed : seed:int -> int -> int
(** [exec_seed ~seed k] is the deterministic replay seed of the [k]-th
    execution of a random/PCT exploration (SplitMix-style hash,
    mirroring [Runner.trial_seed]). *)

val explore :
  nthreads:int ->
  spec ->
  run:(pick:pick -> run_info * 'a) ->
  is_bug:('a -> bool) ->
  'a outcome
(** Drive [run] — one call per execution, from a fresh system each
    time — under the given strategy until [is_bug] accepts an
    execution's result or the budget is spent. *)

val pick_of_seed :
  spec -> nthreads:int -> run:(pick:pick -> run_info * 'a) -> int -> pick
(** Reconstruct the pick of one specific execution from its replay seed
    ([f_seed]); for PCT this re-runs the deterministic probe to recover
    the change-point horizon.  Raises [Invalid_argument] for
    [Exhaustive] (replay those via {!pick_of_prefix} on
    [f_schedule]). *)
