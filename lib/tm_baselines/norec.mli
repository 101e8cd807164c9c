(** NOrec [Dalessandro, Spear, Scott, PPoPP'10]: a single global
    sequence lock and value-based validation, no per-register ownership
    records.

    Reads snapshot the global clock and revalidate the whole read-set
    {e by value} whenever the clock moves; writers serialize their
    commits on the clock (read-only transactions commit without
    touching it).  This is one of the TMs cited in §8 that support safe
    privatization {e without} transactional fences: the committing
    writer holds the sequence lock through write-back (no delayed
    commit), and a doomed transaction aborts at its next read because
    the privatizer's commit moved the clock (no doomed reads of
    privatized data).

    Functorized over {!Tm_runtime.Sched_intf.S} for deterministic
    schedule-controlled testing; the top-level inclusion is the
    production (OS-scheduled) instantiation. *)

module Make (S : Tm_runtime.Sched_intf.S) : sig
  include Tm_runtime.Tm_intf.S

  val stats_commits : t -> int
  val stats_aborts : t -> int
  val obs : t -> Tm_obs.Obs.t
end

include Tm_runtime.Tm_intf.S

val stats_commits : t -> int
val stats_aborts : t -> int

val obs : t -> Tm_obs.Obs.t
(** Telemetry: abort causes (value-validation failures at read time vs
    commit time, explicit aborts) and sampled span histograms
    (sequence-lock acquisition, fence waits). *)
