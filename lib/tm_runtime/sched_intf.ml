(** Scheduler hooks threaded through every TM implementation.

    Each TM is a functor over this interface; every semantically
    relevant shared-memory access (atomic load, store, CAS,
    fetch-and-add) is preceded by a call to {!S.yield}, every
    busy-wait retry goes through {!S.spin}, and every wait before
    retrying an aborted transaction goes through {!S.backoff}.  The
    production instantiation {!Os} compiles the first two to (near)
    no-ops and the third to a [cpu_relax] loop, so the TMs run at full
    speed on real domains under the OS scheduler; the
    deterministic test instantiation ([Tm_sched.Sched.Hooks]) turns
    each call into an effect that suspends the fiber and hands control
    to a cooperative scheduler, which picks the next thread to run —
    making every interleaving of the TM's shared-memory accesses
    schedulable, reproducible and explorable (Loom/Shuttle style).

    Contract for instrumented code:
    - call [yield] immediately {e before} a shared-memory access, never
      while holding a lock that another thread may request (in
      particular never inside {!Recorder.critical});
    - call [spin] in a busy-wait loop after observing that no progress
      is possible.  A spin step re-executed without interference from
      another thread must be a state-preserving no-op (a pure re-read
      or a failed CAS): the deterministic scheduler exploits this by
      parking a spinning thread until some other thread has taken a
      step, which both prunes redundant interleavings and detects
      livelock. *)

module type S = sig
  val yield : unit -> unit
  (** Called immediately before a shared-memory access: a scheduling
      point. *)

  val spin : unit -> unit
  (** Called inside a busy-wait loop after a failed progress check: a
      scheduling point at which the thread cannot progress by itself. *)

  val backoff : int -> unit
  (** [backoff n] is the wait of a retry loop after an aborted attempt,
      [n] [cpu_relax] steps long: a scheduling point at which the thread
      should let the others run before it retries.  Unlike [spin], the
      conflict being waited out was observed at earlier scheduling
      points and may already be gone, so the deterministic scheduler
      parks the thread only while some other thread can still run. *)
end

(** Production instantiation: run under the OS scheduler at full
    speed. *)
module Os : S = struct
  let yield () = ()
  let spin () = Domain.cpu_relax ()

  let backoff n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done
end
